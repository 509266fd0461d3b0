#!/usr/bin/env python3
"""The stq benchmark: one command for every end-to-end and per-layer metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds `stqc`, `stqd` and the
in-process replay tool (perfbench/replay.cpp) from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
reuse that build.

Workloads (see perfbench/README.md for why each was chosen):

  farm-clean  `stqc check` of a seeded multi-TU farm under a qualfile that
              derives every check, so diagnostics are nearly idle
  farm-flood  the same farm under builtin pos,neg: two thirds of the
              assignment checks warn, so diagnostics dominate
  stqd-edit   a closed loop of nproc clients against one `stqd`: mostly
              `recheck` after a seeded edit, plus a few percent each of
              `infer --apply`, `run` and `prove`

With --trace 0 the run drives the shipped binaries as child processes and
reports the end-to-end metrics. With --trace 1 it replays the same inputs
in-process through `stq-perfbench`, with a span around every layer call,
and reports the per-layer metrics. Every operation's output is checked
against a known answer; a mismatch is counted in "failed" and makes the
exit code nonzero. The last line of stdout is the JSON result.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import layers  # noqa: E402

ROOT = os.path.dirname(HERE)
WORKLOADS = ("farm-clean", "farm-flood", "stqd-edit")
BUILD_TYPE = "Release"
NPROC = os.cpu_count() or 1

# Each farm-workload run checks the farm this many times at least, and sets
# up (checks the one-function TU, or spawns stqd) this many times.
MIN_FARM_CHECKS = 5
SETUP_REPEATS = 25
# The traced farm run times this many shipped `stqc check`s beside its
# in-process replay.
TRACED_FARM_CHECKS = 3
# The traced stqd-edit run drives the closed loop for this share of
# --seconds, then replays what it sent twice in-process.
TRACED_LOOP_SHARE = 0.35
# stqd-edit runs its closed loop in slices of this many seconds, with one
# reference sample (see HostSpeed) between two slices.
EDIT_SLICE_S = 2.0
# Reference samples taken right after the set-up repeats.
SETUP_REFERENCE_SAMPLES = 5
CHILD_TIMEOUT_S = 60
RPC_TIMEOUT_S = 30
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    """Set-up failed: no result can be reported."""


# --- build -------------------------------------------------------------------

def build_dir():
    return os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "perfbench"))


def refuse_sanitizers():
    for var in ("CXXFLAGS", "CFLAGS", "LDFLAGS"):
        if "-fsanitize" in os.environ.get(var, ""):
            raise BenchError("refusing to measure a sanitizer build "
                             "(%s sets -fsanitize)" % var)


def cache_value(cache, key):
    m = re.search(r"^%s:[A-Z]+=(.*)$" % re.escape(key), cache, re.M)
    return m.group(1) if m else ""


def build():
    """Configures once, then brings stqc, stqd and stq-perfbench up to date."""
    refuse_sanitizers()
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no stq sources under %s" % ROOT)
    bdir = build_dir()
    cache_path = os.path.join(bdir, "CMakeCache.txt")
    if not os.path.isfile(cache_path):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE, "-DSTQ_SANITIZE="]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    with open(cache_path) as f:
        cache = f.read()
    flags = " ".join(cache_value(cache, k) for k in (
        "CMAKE_CXX_FLAGS", "CMAKE_EXE_LINKER_FLAGS", "STQ_SANITIZE"))
    if "sanitize" in flags or cache_value(cache, "STQ_SANITIZE"):
        raise BenchError("refusing to measure a sanitizer build (%s)" % flags)
    run_build_step(["cmake", "--build", bdir, "-j", str(NPROC), "--target",
                    "stqc", "stqd", "stq-perfbench", "stq-refkernel"])
    tools = os.path.join(bdir, "stq", "src", "tools")
    bins = {"stqc": os.path.join(tools, "stqc"),
            "stqd": os.path.join(tools, "stqd"),
            "replay": os.path.join(bdir, "stq-perfbench"),
            "refkernel": os.path.join(bdir, "stq-refkernel")}
    for path in bins.values():
        if not os.access(path, os.X_OK):
            raise BenchError("build produced no %s" % path)
    info = subprocess.run([bins["replay"], "build-info"], capture_output=True,
                          text=True, check=True).stdout.strip()
    host = json.loads(info)
    if host["sanitizer"] != "none":
        raise BenchError("refusing to measure a sanitizer build (%s)"
                         % host["sanitizer"])
    host.update(nproc=NPROC, build_type=cache_value(cache,
                                                     "CMAKE_BUILD_TYPE"))
    return bins, host


def run_build_step(cmd):
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-4000:])
        raise BenchError("build step failed: %s" % " ".join(cmd))


# --- statistics --------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(values):
    """The highest of p99/p90/p50 with at least ten samples beyond it."""
    for q in (99, 90, 50):
        if len(values) * (100 - q) / 100.0 >= 10:
            return q, layers.percentile(values, q)
    return 50, median(values)


# --- child processes ---------------------------------------------------------

def run_child(cmd, cwd=None, timeout=CHILD_TIMEOUT_S):
    """Runs cmd to completion: (exit code, stdout, stderr, wall s, max RSS MB,
    CPU s), where CPU is the child's user + system time.

    Output goes to unlinked temporary files, not pipes, so the child never
    waits on this process to drain its output while it is being timed.
    """
    with tempfile.TemporaryFile(dir=build_dir()) as out, \
            tempfile.TemporaryFile(dir=build_dir()) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read(), err.read(), wall,
                usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime)


# --- host speed --------------------------------------------------------------

class HostSpeed:
    """Samples the host's current speed with the reference computation.

    The machine is shared: other guests make the same code take 1.5x more
    CPU time in one minute than in the next, and every timed operation
    moves with them. stq-refkernel (refkernel.cpp) is fixed, so its CPU
    time measures the host alone. A CPU time t taken next to a reference
    sample r is reported as t * REFERENCE_CPU_S / r: the time it would
    take on a host where the reference takes REFERENCE_CPU_S.
    """

    REFERENCE_CPU_S = 0.15
    CHECKSUM = "14704492071443597814"

    def __init__(self, bins):
        self.cmd = [bins["refkernel"]]
        self.samples = []

    def sample(self):
        out = subprocess.run(self.cmd, capture_output=True, text=True,
                             check=True, timeout=CHILD_TIMEOUT_S).stdout
        cpu, checksum = out.split()
        if checksum != self.CHECKSUM:
            raise BenchError("stq-refkernel computed %s, not %s"
                             % (checksum, self.CHECKSUM))
        self.samples.append(float(cpu))
        return float(cpu)

    def scale(self, cpu, reference):
        return cpu * self.REFERENCE_CPU_S / reference

    def log(self, what):
        log("%s: %d reference samples, CPU p50 %.4f s (%.4f-%.4f)"
            % (what, len(self.samples), median(self.samples),
               min(self.samples), max(self.samples)))


# --- farm workloads ----------------------------------------------------------

WARNING_LINE = re.compile(rb": warning \[qualcheck\]: ", re.M)
VERDICT = re.compile(rb"^qualifier errors: (\d+) ", re.M)


def check_ok(code, out, err, expected):
    """A check or recheck printed `expected` qualifier errors, one warning
    each, and exited accordingly."""
    m = VERDICT.search(out)
    return (m is not None and int(m.group(1)) == expected
            and len(WARNING_LINE.findall(err)) == expected
            and code == (1 if expected else 0))


class FarmRun:
    """A generated farm plus the `stqc check` command and answer for it."""

    def __init__(self, bins, workload, seed, units=gen.FARM_UNITS,
                 fns=gen.FARM_FNS_PER_UNIT):
        self.bins = bins
        self.workload = workload
        self.dir = os.path.join(build_dir(), "work",
                                "%s-%d-%dx%d" % (workload, seed, units, fns))
        if os.path.isdir(self.dir):
            shutil.rmtree(self.dir)
        shape = json.loads(subprocess.run(
            [bins["replay"], "gen-farm", self.dir, str(seed), str(units),
             str(fns)], capture_output=True, text=True, check=True).stdout)
        self.lines = shape["lines"]
        self.expected = gen.farm_expected_errors(workload, shape["functions"],
                                                 shape["planted"])
        self.files = ["u%d.c" % u for u in range(shape["units"])] + ["main.c"]
        if workload == "farm-clean":
            qualfile = os.path.join(self.dir, "quals.stq")
            with open(qualfile, "w") as f:
                f.write(gen.POS_PLUS_QUALFILE)
            self.quals = ["--qualfile", qualfile]
            self.replay_quals = "file:" + qualfile
        else:
            self.quals = ["--builtins", "pos,neg"]
            self.replay_quals = "builtin:pos,neg"
        self.digests = set()

    def check_cmd(self, files):
        return ([self.bins["stqc"], "check", "-I", ".", "--jobs", str(NPROC)]
                + self.quals + files)

    def setup_seconds(self):
        """Median CPU time of `stqc check` on a one-function TU, same quals.
        """
        walls, cpus, ok = [], [], True
        setup_dir = os.path.join(self.dir, "setup")
        for _ in range(SETUP_REPEATS):
            code, out, err, wall, _, cpu = run_child(
                self.check_cmd(["u0.c"]), cwd=setup_dir)
            ok = ok and check_ok(
                code, out, err,
                gen.farm_expected_errors(self.workload, 1, 0))
            walls.append(wall)
            cpus.append(cpu)
        log("%s: set-up CPU p50 %.5f s, wall p50 %.5f s"
            % (self.workload, median(cpus), median(walls)))
        return median(cpus), ok

    def check_once(self):
        code, out, err, wall, rss, cpu = run_child(
            self.check_cmd(self.files), cwd=self.dir)
        ok = check_ok(code, out, err, self.expected)
        self.digests.add(hashlib.sha256(out + err).hexdigest())
        return ok, wall, rss, cpu, out + err


def farm_end_to_end(bins, workload, seed, seconds):
    farm = FarmRun(bins, workload, seed)
    speed = HostSpeed(bins)
    setup_cpu, setup_ok = farm.setup_seconds()
    setup_s = speed.scale(setup_cpu, median(
        [speed.sample() for _ in range(SETUP_REFERENCE_SAMPLES)]))
    attempted = failed = 0
    if not setup_ok:
        attempted, failed = 1, 1
    farm.check_once()  # Warm the page cache; not measured.
    farm.digests.clear()
    walls, rss, cpus, scaled = [], [], [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(walls) < MIN_FARM_CHECKS):
        ok, wall, peak, cpu, _ = farm.check_once()
        attempted += 1
        failed += not ok
        walls.append(wall)
        rss.append(peak)
        cpus.append(cpu)
        scaled.append(speed.scale(cpu, speed.sample()))
    if len(farm.digests) != 1:
        failed += 1
        log("finding: check outputs differ across the run (%d digests)"
            % len(farm.digests))
    q, tail = tail_percentile(walls)
    log("%s: %d checks of %d lines, expected %d qualifier errors each; "
        "check wall p50 %.4f s, p%d %.4f s; CPU p50 %.4f s"
        % (workload, len(walls), farm.lines, farm.expected, median(walls),
           q, tail, median(cpus)))
    speed.log(workload)
    metrics = {
        "setup_s": setup_s,
        "cpu_per_op_ms": median(scaled) * 1e3,
        "peak_rss_mb": max(rss),
    }
    return attempted, failed, metrics


def farm_traced(bins, workload, seed, seconds):
    farm = FarmRun(bins, workload, seed)
    attempted = failed = 0
    walls = []
    for _ in range(TRACED_FARM_CHECKS):
        ok, wall, _, _, shipped = farm.check_once()
        attempted += 1
        failed += not ok
        walls.append(wall)
    spans_path = os.path.join(farm.dir, "spans.jsonl")
    render_path = os.path.join(farm.dir, "replay-output.txt")
    p = subprocess.run([bins["replay"], "farm", farm.replay_quals, str(NPROC),
                        str(seconds), spans_path, render_path] + farm.files,
                       cwd=farm.dir, capture_output=True, text=True,
                       timeout=seconds + 120)
    if p.returncode != 0:
        raise BenchError("replay failed: " + p.stderr[-2000:])
    result = json.loads(p.stdout)
    reps = len(result["qual_errors"])
    attempted += reps
    failed += sum(1 for e in result["qual_errors"] if e != farm.expected)
    with open(render_path, "rb") as f:
        replayed = f.read()
    os.unlink(render_path)
    if replayed != shipped or len(set(result["digests"])) != 1:
        failed += 1
        log("finding: the replay's diagnostics differ from stqc's")
    metrics = layers.farm_metrics(layers.load_spans(spans_path), result,
                                  NPROC)
    # Unbounded wall figures: see "Run-to-run spread" in README.md.
    metrics["check_s"] = median(walls)
    metrics["requests_per_s"] = len(walls) / sum(walls)
    log("%s: %d traced and %d untraced in-process checks, wall p50 %.4f s "
        "and %.4f s" % (workload, len(result["traced_wall_s"]),
                         len(result["untraced_wall_s"]),
                         median(result["traced_wall_s"]),
                         median(result["untraced_wall_s"])))
    share = metrics["driver.attributed_share"]
    log("%s: driver.attributed_share = %.4f against the ROADMAP target "
        ">= 0.95: %s" % (workload, share,
                         "met" if share >= 0.95 else "SHORTFALL (finding)"))
    return attempted, failed, metrics


# --- stqd-edit ---------------------------------------------------------------

# Per client, op i is infer/run/prove at these positions of each cycle of
# MIX_CYCLE ops (shifted by client and seed); every other op is a recheck.
MIX_CYCLE = 25
MIX_SLOTS = {3: "infer", 11: "run", 19: "prove"}


def rpc(sock_path, payload, timeout=RPC_TIMEOUT_S):
    """One stq-rpc-v1 exchange; returns the decoded response or None."""
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(timeout)
            s.connect(sock_path)
            s.sendall(payload)
            chunks = []
            while True:
                chunk = s.recv(1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
                if chunk.endswith(b"\n"):
                    break
        return json.loads(b"".join(chunks))
    except (OSError, ValueError):
        return None


def request(command, source=None, **options):
    doc = {"v": "stq-rpc-v1", "command": command}
    if source is not None:
        doc["source"] = source
    if options:
        doc["options"] = options
    return (json.dumps(doc) + "\n").encode()


class Stqd:
    """One `stqd` with defaults and no cache file."""

    def __init__(self, bins, workdir, tag):
        # Socket paths are limited to ~108 bytes: name it relative to
        # stqd's working directory and to ours, never by absolute path.
        name = "stqd-%s.sock" % tag
        self.sock = os.path.relpath(os.path.join(workdir, name))
        if os.path.exists(self.sock):
            os.unlink(self.sock)
        start = time.perf_counter()
        self.proc = subprocess.Popen([bins["stqd"], "--socket", name],
                                     cwd=workdir, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.DEVNULL)
        status = request("status")
        while True:
            if os.path.exists(self.sock):
                resp = rpc(self.sock, status, timeout=5)
                if resp and resp.get("status") == "ok":
                    break
            if self.proc.poll() is not None:
                raise BenchError("stqd exited during start-up")
            if time.perf_counter() - start > 30:
                self.kill()
                raise BenchError("stqd did not answer status within 30 s")
            time.sleep(0.0005)
        self.setup_wall = time.perf_counter() - start
        self.setup_cpu = self.thread_cpu_seconds()

    def thread_cpu_seconds(self):
        """CPU time of stqd's live threads so far, to the nanosecond."""
        total = 0
        task_dir = "/proc/%d/task" % self.proc.pid
        for tid in os.listdir(task_dir):
            try:
                with open(os.path.join(task_dir, tid, "schedstat")) as f:
                    total += int(f.read().split()[0])
            except FileNotFoundError:
                pass  # The thread ended since the listing.
        return total * 1e-9

    def cpu_seconds(self):
        """User + system time stqd has used so far, all threads, to the
        clock tick."""
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS

    def stop(self):
        """Drains the server; returns its peak RSS in MB."""
        rpc(self.sock, request("shutdown"), timeout=10)
        timer = threading.Timer(30, self.proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return usage.ru_maxrss / 1024.0

    def kill(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
            self.proc.wait()


class EditClient:
    """One closed-loop client: its unit, its op stream and its records."""

    def __init__(self, seed, index, shared, keep_payloads):
        self.seed = seed
        # Only the traced run replays what was sent; a 20-second untraced
        # run would hold ~250 MB of request bytes.
        self.keep_payloads = keep_payloads
        self.unit = gen.EditUnit(seed, index)
        self.shared = shared
        self.offset = (index * 7 + seed) % MIX_CYCLE
        self.ops = 0
        self.records = []

    def next_op(self):
        """(kind, request bytes, expected answer) of the next op."""
        kind = MIX_SLOTS.get((self.ops + self.offset) % MIX_CYCLE, "recheck")
        self.ops += 1
        n = self.shared.next_serial()
        if kind == "recheck":
            self.unit.edit()
            return (kind, request("recheck", self.unit.source(),
                                  unit=self.unit.name),
                    self.unit.expected_errors())
        if kind == "infer":
            return (kind, request("infer", gen.infer_program(self.seed, n),
                                  infer_apply=True), None)
        if kind == "run":
            k = n % gen.RUN_PROGRAMS
            return (kind, request("run", self.shared.run_sources[k]),
                    self.shared.run_answers[k])
        src, k, j, shape = gen.bound_qualifier(self.seed, n)
        return (kind, request("prove", qualsources=[src]),
                gen.bound_sound(k, j, shape))

    def warm(self, sock):
        """The unit's first, cold check; not measured."""
        resp = rpc(sock, request("recheck", self.unit.source(),
                                 unit=self.unit.name))
        return recheck_ok(resp, self.unit.expected_errors())

    def loop(self, sock, deadline):
        while time.perf_counter() < deadline:
            kind, payload, expected = self.next_op()
            start = time.perf_counter()
            resp = rpc(sock, payload)
            latency = time.perf_counter() - start
            self.records.append((kind, payload if self.keep_payloads else
                                 None, expected, resp, latency))


class Shared:
    def __init__(self, run_sources, run_answers):
        self.run_sources = run_sources
        self.run_answers = run_answers
        self._serial = 0
        self._lock = threading.Lock()

    def next_serial(self):
        with self._lock:
            self._serial += 1
            return self._serial


def recheck_ok(resp, expected):
    return (resp is not None and resp.get("status") == "ok"
            and check_ok(resp.get("exit_code"),
                         resp.get("stdout", "").encode(),
                         resp.get("stderr", "").encode(), expected))


PROVE_VERDICT = re.compile(r"^bnd: (SOUND|UNSOUND) ", re.M)


def op_ok(kind, resp, expected):
    """Known-answer check for every op but infer (checked after the loop)."""
    if kind == "recheck":
        return recheck_ok(resp, expected)
    if not resp or resp.get("status") != "ok":
        return False
    if kind == "run":
        return (resp.get("exit_code"), resp.get("stdout")) == expected
    if kind == "prove":
        m = PROVE_VERDICT.search(resp.get("stdout", ""))
        return (m is not None and (m.group(1) == "SOUND") == expected
                and resp.get("exit_code") == (0 if expected else 1))
    return resp.get("exit_code") == 0 and resp.get("stdout")


def interp_answers(bins, workdir, seed):
    """Each run program's stdout and exit code under --backend interp."""
    sources, answers = [], []
    for k in range(gen.RUN_PROGRAMS):
        src = gen.run_program(seed, k)
        path = os.path.join(workdir, "run%d.c" % k)
        with open(path, "w") as f:
            f.write(src)
        code, out, err, _, _, _ = run_child(
            [bins["stqc"], "run", path, "--backend", "interp"])
        if err:
            raise BenchError("interp run of %s failed: %s" % (path, err))
        sources.append(src)
        answers.append((code, out.decode()))
    return sources, answers


def check_applied(sock, applied):
    """`infer --apply` output must re-check with zero errors."""
    resp = rpc(sock, request("check", applied))
    return recheck_ok(resp, 0)


def edit_loop(bins, seed, seconds, workdir, tag, keep_payloads=False):
    """Starts stqd, runs the closed loop, stops stqd.

    Returns (set-up CPU s, clients, elapsed loop wall s, stqd CPU s per
    request, failed, peak RSS MB); both CPU times at the reference speed
    (HostSpeed)."""
    run_sources, run_answers = interp_answers(bins, workdir, seed)
    shared = Shared(run_sources, run_answers)
    speed = HostSpeed(bins)
    walls, cpus = [], []
    for i in range(SETUP_REPEATS):
        server = Stqd(bins, workdir, "%s%d" % (tag, i))
        walls.append(server.setup_wall)
        cpus.append(server.setup_cpu)
        if i + 1 < SETUP_REPEATS:
            server.stop()
    log("stqd-edit: set-up CPU p50 %.5f s, wall p50 %.5f s"
        % (median(cpus), median(walls)))
    try:
        setup_s = speed.scale(median(cpus), median(
            [speed.sample() for _ in range(SETUP_REFERENCE_SAMPLES)]))
        clients = [EditClient(seed, c, shared, keep_payloads)
                   for c in range(NPROC)]
        failed = sum(not c.warm(server.sock) for c in clients)
        elapsed, loop_cpu, loop_ops, per_op = 0.0, 0.0, 0, []
        while elapsed < seconds:
            deadline = time.perf_counter() + min(EDIT_SLICE_S,
                                                 seconds - elapsed)
            threads = [threading.Thread(target=c.loop,
                                        args=(server.sock, deadline))
                       for c in clients]
            ops = sum(len(c.records) for c in clients)
            cpu = server.cpu_seconds()
            start = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            elapsed += time.perf_counter() - start
            cpu = server.cpu_seconds() - cpu
            ops = sum(len(c.records) for c in clients) - ops
            loop_cpu += cpu
            loop_ops += ops
            if ops:
                per_op.append(speed.scale(cpu / ops, speed.sample()))
        log("stqd-edit: stqd CPU %.2f s over %d requests, %.3f ms each"
            % (loop_cpu, loop_ops, loop_cpu / loop_ops * 1e3))
        speed.log("stqd-edit")
        for c in clients:
            for kind, payload, expected, resp, _ in c.records:
                if kind == "infer":
                    good = op_ok(kind, resp, expected) and check_applied(
                        server.sock, resp["stdout"])
                else:
                    good = op_ok(kind, resp, expected)
                failed += not good
        rss = server.stop()
    finally:
        server.kill()
    return setup_s, clients, elapsed, median(per_op), failed, rss


def latencies(clients, kind):
    return [r[4] * 1e3 for c in clients for r in c.records if r[0] == kind]


def edit_end_to_end(bins, seed, seconds):
    workdir = os.path.join(build_dir(), "work", "stqd-edit-%d" % seed)
    os.makedirs(workdir, exist_ok=True)
    setup_s, clients, elapsed, cpu_per_op, failed, rss = edit_loop(
        bins, seed, seconds, workdir, "e2e")
    attempted = sum(len(c.records) for c in clients) + len(clients)
    ops = attempted - len(clients)
    recheck = latencies(clients, "recheck")
    q, tail = tail_percentile(recheck)
    log("stqd-edit: %d clients, %d ops in %.2f s (%.1f/s); recheck p50 "
        "%.3f ms, p%d %.3f ms over %d samples; infer/run/prove p50 "
        "%.3f/%.3f/%.3f ms"
        % (len(clients), ops, elapsed, ops / elapsed, median(recheck),
           q, tail, len(recheck), median(latencies(clients, "infer")),
           median(latencies(clients, "run")),
           median(latencies(clients, "prove"))))
    metrics = {
        "setup_s": setup_s,
        "cpu_per_op_ms": cpu_per_op * 1e3,
        "peak_rss_mb": rss,
    }
    return attempted, failed, metrics


def edit_traced(bins, seed, seconds):
    workdir = os.path.join(build_dir(), "work", "stqd-edit-%d" % seed)
    os.makedirs(workdir, exist_ok=True)
    loop_s = max(1.0, seconds * TRACED_LOOP_SHARE)
    _, clients, elapsed, _, failed, _ = edit_loop(
        bins, seed, loop_s, workdir, "tr", keep_payloads=True)
    # Replay in per-client order: interleave clients by op index so each
    # unit's edits arrive in the order its client sent them.
    ordered = []
    for i in range(max(len(c.records) for c in clients)):
        for c in clients:
            if i < len(c.records):
                ordered.append(c.records[i])
    ops_path = os.path.join(workdir, "ops.jsonl")
    with open(ops_path, "wb") as f:
        for r in ordered:
            f.write(r[1])
    spans_path = os.path.join(workdir, "spans.jsonl")
    p = subprocess.run([bins["replay"], "ops", ops_path, spans_path],
                       capture_output=True, text=True, timeout=170)
    os.unlink(ops_path)
    if p.returncode != 0:
        raise BenchError("replay failed: " + p.stderr[-2000:])
    result = json.loads(p.stdout)
    attempted = len(ordered) + len(clients)
    mismatches = 0
    for r, u, t in zip(ordered, result["untraced_results"],
                       result["traced_results"]):
        if u != t or not same_answer(r[0], r[3], u):
            mismatches += 1
    if mismatches:
        log("finding: %d replayed ops differ from stqd's answers" % mismatches)
    failed += mismatches
    busy = sum(1 for r in ordered if r[3] and r[3].get("status") == "busy")
    client_ms = {kind: latencies(clients, kind)
                 for kind in ("recheck", "infer", "run", "prove")}
    metrics = layers.edit_metrics(layers.load_spans(spans_path), result,
                                  [(r[0], r[4]) for r in ordered], busy,
                                  client_ms)
    # Unbounded wall figures: see "Run-to-run spread" in README.md.
    metrics["check_s"] = median(client_ms["recheck"]) * 1e-3
    metrics["requests_per_s"] = len(ordered) / elapsed
    return attempted, failed, metrics


def same_answer(kind, resp, replayed):
    """The in-process op printed what stqd printed (prove: same verdicts)."""
    if not resp or resp.get("status") != "ok":
        return False
    if resp.get("exit_code") != replayed["exit_code"]:
        return False
    if kind == "prove":
        return (PROVE_VERDICT.findall(resp["stdout"])
                == [v.split(":")[1] for v in replayed["verdicts"].split()])
    return (resp.get("stdout") == replayed["out"]
            and resp.get("stderr") == replayed["err"])


# --- main --------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        bins, host = build()
        log("host: " + json.dumps(host, sort_keys=True))
        if args.workload == "stqd-edit":
            fn = edit_traced if args.trace else edit_end_to_end
            attempted, failed, metrics = fn(bins, args.seed, args.seconds)
        else:
            fn = farm_traced if args.trace else farm_end_to_end
            attempted, failed, metrics = fn(bins, args.workload, args.seed,
                                            args.seconds)
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        log("perfbench: %s" % e)
        return 2

    spec = layers.benchmark_spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
