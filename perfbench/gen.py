"""Seeded inputs and their known answers for the stq benchmark.

Every generator here is a pure function of the benchmark seed (and of a
request counter where a workload needs fresh inputs per request), so the
same seed always yields the same inputs. The farm itself comes from the
program's own generator (src/workloads, through `stq-perfbench gen-farm`).
"""

import random

# The clean farm's qualifiers: builtin pos and neg, plus an `E1 + E2` rule
# for pos, under which every generated farm function checks.
POS_PLUS_QUALFILE = """\
value qualifier pos(int Expr E)
  case E of
    decl int Const C:
      C, where C > 0
  | decl int Expr E1, E2:
      E1 * E2, where pos(E1) && pos(E2)
  | decl int Expr E1, E2:
      E1 + E2, where pos(E1) && pos(E2)
  | decl int Expr E1:
      -E1, where neg(E1)
  invariant value(E) > 0

value qualifier neg(int Expr E)
  case E of
    decl int Const C:
      C, where C < 0
  | decl int Expr E1:
      -E1, where pos(E1)
  | decl int Expr E1, E2:
      E1 * E2, where (pos(E1) && neg(E2)) || (neg(E1) && pos(E2))
  invariant value(E) < 0
"""

# Farm shape. The shared header carries one prototype per unit, so the
# preprocessed size grows with units squared; 128 x 128 is ~99k lines.
FARM_UNITS = 128
FARM_FNS_PER_UNIT = 128

# Under builtin pos,neg each generated farm function fails exactly its four
# `pos` initializations/returns built with `+`; the clean qualfile derives
# them all. Seeds divisible by 3 plant one `int neg bad = r;` that fails
# under both.
FLOOD_WARNINGS_PER_FUNCTION = 4


def farm_expected_errors(workload, functions, planted):
    """Qualifier errors (one warning each) a farm check must report."""
    if workload == "farm-flood":
        return FLOOD_WARNINGS_PER_FUNCTION * functions + planted
    return planted


def rng_for(seed, *path):
    """A generator keyed by the seed and a path; str seeds hash stably."""
    return random.Random("/".join(str(p) for p in (seed,) + path))


# --- stqd-edit: the edited units ---------------------------------------------

UNIT_FUNCTIONS = 400
# Functions call their predecessor within chains of this length, so a
# signature change dirties a bounded run of transitive callers.
UNIT_CHAIN = 16
# Every SIGNATURE_EVERY-th edit of a client changes a signature; the rest
# are body edits.
SIGNATURE_EVERY = 10


class EditUnit:
    """One client's single-source unit and its seeded edit stream.

    Each function is clean unless a body edit planted `int neg bad = r;`
    in it (one error) or a signature edit dropped `pos` from its parameter
    (one error: `p * a` no longer derives `pos`). An edit toggles one of
    the two, so the error count is known from the unit's state.
    """

    def __init__(self, seed, client):
        self.name = "c%d" % client
        self.rng = rng_for(seed, "unit", client)
        self.consts = [self.rng.randint(1, 999) for _ in range(UNIT_FUNCTIONS)]
        self.planted = [False] * UNIT_FUNCTIONS
        self.dropped = [False] * UNIT_FUNCTIONS
        self.edits = 0
        # Per-function text, so an edit re-renders one function only.
        self.chunks = [self.function(f) for f in range(UNIT_FUNCTIONS)]
        self.main = ("int main() {\n  int pos s = 3;\n"
                     "  int pos v = %s_f%d(s);\n  return v %% 2;\n}\n"
                     % (self.name, UNIT_FUNCTIONS - 1))

    def expected_errors(self):
        return sum(self.planted) + sum(self.dropped)

    def edit(self):
        """Applies the next seeded edit; returns its kind."""
        self.edits += 1
        f = self.rng.randrange(UNIT_FUNCTIONS)
        if self.edits % SIGNATURE_EVERY == 0:
            self.dropped[f] = not self.dropped[f]
            kind = "signature"
        else:
            self.planted[f] = not self.planted[f]
            kind = "body"
        self.chunks[f] = self.function(f)
        return kind

    def function(self, f):
        n = self.name
        out = ["int pos %s_f%d(%s) {" % (n, f, "int a" if self.dropped[f]
                                          else "int pos a"),
               "  int pos p = %d;" % self.consts[f],
               "  int pos q = p * a;",
               "  int pos r = q * p;"]
        if self.planted[f]:
            out.append("  int neg bad = r;")
        if f % UNIT_CHAIN:
            out.append("  int pos t = %s_f%d(r);" % (n, f - 1))
            out.append("  return t * p;")
        else:
            out.append("  return r;")
        out.append("}\n")
        return "\n".join(out)

    def source(self):
        return "".join(self.chunks) + self.main


# --- stqd-edit: infer, run and prove inputs ----------------------------------

INFER_FUNCTIONS = 60


def infer_program(seed, n):
    """An unannotated program shaped like workloads::makeInferenceFarm."""
    rng = rng_for(seed, "infer", n)
    out = []
    for i in range(INFER_FUNCTIONS):
        out.append("int farm%d(int a, int b) {" % i)
        out.append("  int p = %d;" % rng.randint(1, 9))
        out.append("  int q = p * %d;" % rng.randint(2, 6))
        out.append("  int r = q + p;")
        out.append("  int n = 0 - %d;" % rng.randint(1, 7))
        out.append("  int m = n - r;")
        out.append("  int z = a - b;")
        out.append("  p = r;")
        out.append("  q = q * r;")
        out.append("  m = m + n;")
        if i > 0:
            out.append("  z = z + farm%d(p, q);" % (i - 1))
        out.append("  return z + m;")
        out.append("}")
    out.append("int main() {")
    out.append("  int acc = farm%d(%d, %d);" % (INFER_FUNCTIONS - 1,
                                               rng.randint(1, 9),
                                               rng.randint(1, 9)))
    out.append("  return acc % 2;")
    out.append("}")
    return "\n".join(out) + "\n"


# Distinct run programs per seed; their answers come from the interpreter
# once, at set-up.
RUN_PROGRAMS = 4


def run_program(seed, k):
    """A guarded hot loop shaped like workloads::makeChecksumKernel."""
    rng = rng_for(seed, "run", k)
    rounds = rng.randint(30, 40)
    n = rng.randint(200, 260)
    mul = rng.randint(2, 5)
    mod = rng.choice([241, 247, 251])
    return (
        "int work(int pos n) {\n"
        "  int acc = 0;\n"
        "  for (int i = 1; i <= n; i = i + 1) {\n"
        "    int pos step = (int pos) i;\n"
        "    int nonzero d = (int nonzero) (2 * i);\n"
        "    int nonzero e = (int nonzero) step;\n"
        "    int pos f = (int pos) step;\n"
        "    acc = acc + step * %d - i / 2 + acc / d + e - f;\n"
        "  }\n"
        "  return acc;\n"
        "}\n"
        "int main() {\n"
        "  int total = 0;\n"
        "  for (int r = 0; r < %d; r = r + 1) {\n"
        "    total = total + work(%d);\n"
        "  }\n"
        "  printf(\"%%d\", total %% %d);\n"
        "  return total %% %d;\n"
        "}\n" % (mul, rounds, n, mod, mod))


PROVE_SHAPES = ("const", "sum", "product")


def bound_sound(k, j, shape):
    """Whether a bound qualifier is sound, by integer arithmetic.

    The constant rule `C, where C > K` meets the invariant `value(E) > J`
    iff K >= J. A sum or product rule over two operands that are each > J
    (so >= J + 1) stays > J iff J >= -1: at J <= -2 both operands may be
    -1, whose sum is -2, or -1 and 2 - J, whose product is below J.
    """
    if k < j:
        return False
    return shape == "const" or j >= -1


def bound_qualifier(seed, n):
    """The n-th prove request's qualifier: (source, K, J, shape).

    K and J grow with n, so the constant-rule obligation of every request
    is new to the shared prover cache. Sum and product rules use J = 0
    (sound) or J <= -2 (unsound) only: the prover decides them with its
    sign axioms there, while J = -1 and J >= 1 are sound but beyond it.
    """
    rng = rng_for(seed, "prove", n)
    shape = PROVE_SHAPES[n % len(PROVE_SHAPES)]
    if shape == "const":
        j = 5 * n + rng.randint(0, 4)
        k = j + rng.choice([-2, -1, 0, 1, 2])
    else:
        j = 0 if rng.random() < 0.5 else -(2 + n)
        k = (n + 1) * rng.choice([-1, 1])
    src = ("value qualifier bnd(int Expr E)\n"
           "  case E of\n"
           "    decl int Const C:\n"
           "      C, where C > %d\n" % k)
    if shape != "const":
        op = "+" if shape == "sum" else "*"
        src += ("  | decl int Expr E1, E2:\n"
                "      E1 %s E2, where bnd(E1) && bnd(E2)\n" % op)
    src += "  invariant value(E) > %d\n" % j
    return src, k, j, shape
