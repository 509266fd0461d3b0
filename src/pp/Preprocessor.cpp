//===- Preprocessor.cpp ---------------------------------------------------===//

#include "pp/Preprocessor.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <string_view>
#include <unordered_map>

using namespace stq;
using namespace stq::pp;

FileResolver::~FileResolver() = default;

bool DiskResolver::read(const std::string &Path, std::string &Text) {
  // A directory opens "successfully" as an empty ifstream on POSIX; treat
  // it as not-a-header so quoted-include search falls through to the next
  // candidate (the -I dirs) instead of splicing in zero bytes.
  std::error_code EC;
  if (!std::filesystem::is_regular_file(Path, EC))
    return false;
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Text = SS.str();
  if (Record)
    (*Record)[Path] = Text;
  return true;
}

bool MemoryResolver::read(const std::string &Path, std::string &Text) {
  auto It = Files.find(Path);
  if (It == Files.end())
    return false;
  Text = It->second;
  return true;
}

std::string stq::pp::dirName(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  if (Slash == std::string::npos)
    return "";
  return Path.substr(0, Slash);
}

namespace {

//===----------------------------------------------------------------------===//
// Character classes (the C locale's, as one table lookup)
//===----------------------------------------------------------------------===//

enum : uint8_t {
  IdentStart = 1,
  IdentChar = 2,
  Digit = 4,
  Space = 8,
  CommentOrLiteral = 16, ///< `/`, `"` and `'`: what comment stripping stops at.
};

constexpr std::array<uint8_t, 256> CharClass = [] {
  std::array<uint8_t, 256> T{};
  for (int C = 'a'; C <= 'z'; ++C)
    T[C] = T[C - 'a' + 'A'] = IdentStart | IdentChar;
  T['_'] = IdentStart | IdentChar;
  for (int C = '0'; C <= '9'; ++C)
    T[C] = IdentChar | Digit;
  for (char C : {' ', '\t', '\n', '\v', '\f', '\r'})
    T[static_cast<unsigned char>(C)] = Space;
  for (char C : {'/', '"', '\''})
    T[static_cast<unsigned char>(C)] = CommentOrLiteral;
  return T;
}();

bool is(char C, uint8_t Class) {
  return CharClass[static_cast<unsigned char>(C)] & Class;
}
bool isIdentToken(std::string_view T) {
  return !T.empty() && is(T[0], IdentStart);
}

//===----------------------------------------------------------------------===//
// Comment stripping (phase preserving line/column coordinates)
//===----------------------------------------------------------------------===//

/// Replaces comment bytes with spaces, in place, so every surviving token
/// keeps its physical (line, col); newlines inside block comments are
/// preserved so line numbers stay aligned. String and char literals are
/// respected (each runs to its closing quote or the end of its line).
void stripComments(std::string &Text) {
  char *S = Text.data();
  const size_t N = Text.size();
  // The byte after I, or NUL past the end (a NUL escapes nothing).
  auto next = [&](size_t I) { return I + 1 < N ? S[I + 1] : '\0'; };
  size_t I = 0;
  while (I < N) {
    while (I < N && !is(S[I], CommentOrLiteral))
      ++I;
    if (I == N)
      break;
    const char C = S[I];
    if (C == '"' || C == '\'') {
      for (++I; I < N; ++I) {
        if (S[I] == '\\' && next(I) != '\0')
          ++I;
        else if (S[I] == C || S[I] == '\n')
          break;
      }
      ++I;
    } else if (next(I) == '/') {
      while (I < N && S[I] != '\n')
        S[I++] = ' ';
    } else if (next(I) == '*') {
      // From the '*' on (so `/*/` closes itself), blank all but newlines
      // through the closing `*/`.
      S[I++] = ' ';
      for (; I < N; ++I) {
        if (S[I] == '*' && next(I) == '/') {
          S[I] = S[I + 1] = ' ';
          I += 2;
          break;
        }
        if (S[I] != '\n')
          S[I] = ' ';
      }
    } else {
      ++I;
    }
  }
}

//===----------------------------------------------------------------------===//
// Logical lines
//===----------------------------------------------------------------------===//

/// One logical line: a view into its file's comment-stripped buffer, and
/// the physical line it starts on.
struct LogicalLine {
  std::string_view Text;
  unsigned Phys = 0;
};

/// Splits \p Text into logical lines (backslash-newline spliced). Lines
/// without a splice are views of \p Text as it stands; a spliced line is
/// compacted in place over its own physical lines (splicing only ever
/// shrinks it), so no line is copied. \p PhysCount counts the physical
/// lines consumed.
void splitLogicalLines(std::string &Text, std::vector<LogicalLine> &Lines,
                       uint64_t &PhysCount) {
  char *Buf = Text.data();
  const size_t N = Text.size();
  auto newline = [&](size_t From) {
    const void *P = From < N ? std::memchr(Buf + From, '\n', N - From)
                             : nullptr;
    return P ? static_cast<size_t>(static_cast<const char *>(P) - Buf) : N;
  };
  size_t Pos = 0;
  unsigned Phys = 1;
  while (Pos < N) {
    size_t NL = newline(Pos);
    ++PhysCount;
    if (NL == N || NL == Pos || Buf[NL - 1] != '\\') {
      Lines.push_back({std::string_view(Buf + Pos, NL - Pos), Phys++});
      Pos = NL + 1;
      continue;
    }
    // A splice: drop each backslash-newline, moving the following
    // physical line's bytes down to the end of the line so far. A line
    // ending in a backslash after that continues the splice (even an
    // empty physical line, when the bytes before it end in `\`).
    const size_t Begin = Pos;
    const unsigned Start = Phys++;
    size_t Out = NL - 1, In = NL + 1;
    while (true) {
      size_t End = newline(In);
      std::memmove(Buf + Out, Buf + In, End - In);
      Out += End - In;
      ++PhysCount; // At End == N: the final, unterminated physical line.
      if (End == N) {
        Pos = N;
        break;
      }
      In = End + 1;
      ++Phys;
      if (Out > Begin && Buf[Out - 1] == '\\') {
        --Out;
        continue;
      }
      Pos = In;
      break;
    }
    Lines.push_back({std::string_view(Buf + Begin, Out - Begin), Start});
  }
}

//===----------------------------------------------------------------------===//
// The pp tokenizer
//===----------------------------------------------------------------------===//

/// Returns the preprocessing token of \p S at or after \p I (whitespace
/// skipped) and moves \p I past it; empty at the end of \p S. Strings and
/// chars are single tokens (an unterminated one runs to the end);
/// punctuation is matched greedily so `->`, `==`, `...` survive
/// re-rendering. Text lines, directives and macro bodies all go through
/// this one scanner.
std::string_view nextToken(std::string_view S, size_t &I) {
  const size_t N = S.size();
  while (I < N && is(S[I], Space))
    ++I;
  if (I >= N)
    return {};
  const size_t Begin = I;
  const char C = S[I];
  size_t J = I + 1;
  if (is(C, IdentStart)) {
    while (J < N && is(S[J], IdentChar))
      ++J;
  } else if (is(C, Digit)) {
    // A pp-number: digits, letters, underscores, dots (covers hex).
    while (J < N && (is(S[J], IdentChar) || S[J] == '.'))
      ++J;
  } else if (C == '"' || C == '\'') {
    while (J < N && S[J] != C) {
      if (S[J] == '\\' && J + 1 < N)
        ++J;
      ++J;
    }
    J = std::min(J + 1, N);
  } else {
    const char D = J < N ? S[J] : '\0';
    if (C == '.' && D == '.' && J + 1 < N && S[J + 1] == '.')
      J += 2;
    else if ((C == '-' && D == '>') || (C == '=' && (D == '=' || D == '>')) ||
             (C == '!' && D == '=') ||
             (C == '<' && (D == '=' || D == '<')) ||
             (C == '>' && (D == '=' || D == '>')) ||
             (C == '&' && D == '&') || (C == '|' && D == '|'))
      J += 1;
  }
  I = J;
  return S.substr(Begin, J - Begin);
}

//===----------------------------------------------------------------------===//
// Pp tokens, hide sets and macros
//===----------------------------------------------------------------------===//

/// One preprocessing token during expansion: its spelling (a view into a
/// file buffer or a macro body) plus the hide set that implements the C99
/// no-reexpansion rule (a macro already expanded on this token's
/// derivation path never expands again).
struct PTok {
  std::string_view Text;
  /// Index into HideSets; 0 is the empty set.
  uint32_t Hide = 0;
};

/// Interned hide sets. Every set is a sorted list of macro ids, stored
/// once; tokens carry the set's index, so giving a whole expansion the
/// same hide set is one integer per token.
class HideSets {
public:
  HideSets() { intern({}); }

  bool contains(uint32_t S, uint32_t Macro) const {
    const std::vector<uint32_t> &V = Sets[S];
    return std::binary_search(V.begin(), V.end(), Macro);
  }

  /// S with \p Macro added.
  uint32_t with(uint32_t S, uint32_t Macro) {
    auto [It, New] = WithMemo.try_emplace(key(S, Macro), S);
    if (New && !contains(S, Macro)) {
      std::vector<uint32_t> V = Sets[S];
      V.insert(std::lower_bound(V.begin(), V.end(), Macro), Macro);
      It->second = intern(std::move(V));
    }
    return It->second;
  }

  /// A ∪ B.
  uint32_t unite(uint32_t A, uint32_t B) {
    if (A == B || B == 0)
      return A;
    if (A == 0)
      return B;
    auto [It, New] = UniteMemo.try_emplace(key(A, B), 0);
    if (New) {
      std::vector<uint32_t> V;
      std::set_union(Sets[A].begin(), Sets[A].end(), Sets[B].begin(),
                     Sets[B].end(), std::back_inserter(V));
      It->second = intern(std::move(V));
    }
    return It->second;
  }

private:
  static uint64_t key(uint32_t A, uint32_t B) {
    return (static_cast<uint64_t>(A) << 32) | B;
  }
  uint32_t intern(std::vector<uint32_t> V) {
    auto [It, New] =
        Index.try_emplace(V, static_cast<uint32_t>(Sets.size()));
    if (New)
      Sets.push_back(std::move(V));
    return It->second;
  }

  std::vector<std::vector<uint32_t>> Sets;
  std::map<std::vector<uint32_t>, uint32_t> Index;
  std::unordered_map<uint64_t, uint32_t> WithMemo, UniteMemo;
};

/// A macro body token, scanned once at its #define.
struct BodyTok {
  std::string Text;
  /// Index of the parameter this token names, or -1.
  int Param = -1;
};

struct Macro {
  std::string Name;
  /// Unique per definition: the element hide sets hold.
  uint32_t Id = 0;
  bool FunctionLike = false;
  std::vector<std::string> Params;
  std::vector<BodyTok> Body;
};

/// Macro-table hashing that accepts a string_view, so an identifier is
/// looked up in place without building a string.
struct NameHash {
  using is_transparent = void;
  size_t operator()(std::string_view S) const {
    return std::hash<std::string_view>()(S);
  }
};

//===----------------------------------------------------------------------===//
// The preprocessor state machine
//===----------------------------------------------------------------------===//

/// FNV-1a over two independent 64-bit streams (the incremental layer's
/// Hash128 shape, computed locally so pp stays dependency-light).
struct StreamHasher {
  uint64_t A = 0xcbf29ce484222325ULL;
  uint64_t B = 0x9e3779b97f4a7c15ULL;
  void bytes(const std::string &S) {
    u64(S.size());
    for (char C : S)
      byte(static_cast<uint8_t>(C));
  }
  void byte(uint8_t X) {
    A = (A ^ X) * 0x100000001b3ULL;
    B = (B ^ X) * 0xff51afd7ed558ccdULL;
  }
  void u64(uint64_t X) {
    for (int I = 0; I < 8; ++I)
      byte(static_cast<uint8_t>(X >> (I * 8)));
  }
};

/// One #if/#ifdef level.
struct Cond {
  bool ParentActive = true;
  /// The branch currently selected at this level.
  bool ThisActive = false;
  /// Some branch at this level has already been taken (gates #elif/#else).
  bool Taken = false;
  bool SeenElse = false;
  unsigned Line = 0; ///< Where the #if sits, for unterminated diagnostics.
};

/// One file being processed. The include stack is fixed for the frame's
/// whole life (an #include pushes and pops around the nested frame), so
/// its file and stack ids are interned once, at the first emitted line.
struct Frame {
  const std::string &Name;
  const std::vector<LogicalLine> &Lines;
  /// The line being processed; a multi-line macro invocation advances it.
  size_t Idx = 0;
  bool IdsKnown = false;
  uint32_t FileId = 0;
  uint32_t StackId = 0;
};

class Pp {
public:
  Pp(FileResolver &Resolver, const PpOptions &Options,
     DiagnosticEngine &Diags)
      : Resolver(Resolver), Opts(Options), Diags(Diags) {
    Result.Map.Stacks.emplace_back(); // Stacks[0] = the empty chain.
  }

  PpResult run(const std::string &MainName, const std::string &MainText) {
    for (const std::string &D : Opts.Defines)
      predefine(D);
    processFile(MainName, std::string(MainText));
    StreamHasher H;
    H.bytes(Result.Text);
    for (const std::string &F : ClosureNames)
      H.bytes(F);
    Result.StreamHashA = H.A;
    Result.StreamHashB = H.B;
    Result.Ok = ErrorCount == 0;
    return std::move(Result);
  }

private:
  //===--------------------------------------------------------------------===//
  // Diagnostics
  //===--------------------------------------------------------------------===//

  void error(const std::string &File, unsigned Line, const std::string &Msg) {
    ++ErrorCount;
    if (ErrorCount > Opts.MaxErrors)
      return;
    if (ErrorCount == Opts.MaxErrors) {
      Diags.error(SourceLoc(), "pp",
                  "too many preprocessor errors; suppressing the rest");
      return;
    }
    Diagnostic D;
    D.Severity = DiagSeverity::Error;
    D.File = File;
    D.Loc = SourceLoc(Line, 1);
    D.Phase = "pp";
    D.Message = Msg;
    Diags.report(std::move(D));
    noteIncludeChain();
  }

  /// Emits one "in file included from ..." note per active include frame,
  /// innermost includer first — the rendering the multi-TU front end also
  /// uses for parse/sema/check diagnostics on included lines.
  void noteIncludeChain() {
    for (auto It = Stack.rbegin(); It != Stack.rend(); ++It)
      Diags.note(SourceLoc(), "pp",
                 "in file included from " + It->File + ":" +
                     std::to_string(It->Line));
  }

  //===--------------------------------------------------------------------===//
  // Output
  //===--------------------------------------------------------------------===//

  uint32_t fileId(const std::string &Name) {
    for (uint32_t I = 0; I < Result.Map.Files.size(); ++I)
      if (Result.Map.Files[I] == Name)
        return I;
    Result.Map.Files.push_back(Name);
    return static_cast<uint32_t>(Result.Map.Files.size() - 1);
  }

  uint32_t stackId() {
    if (Stack.empty())
      return 0;
    // Linear intern: include chains are few and shallow.
    for (uint32_t I = 1; I < Result.Map.Stacks.size(); ++I) {
      const auto &S = Result.Map.Stacks[I];
      if (S.size() == Stack.size() &&
          std::equal(S.begin(), S.end(), Stack.begin(),
                     [](const IncludeFrame &A, const IncludeFrame &B) {
                       return A.File == B.File && A.Line == B.Line;
                     }))
        return I;
    }
    Result.Map.Stacks.push_back(Stack);
    return static_cast<uint32_t>(Result.Map.Stacks.size() - 1);
  }

  /// Ends the output line whose text was just appended to Result.Text.
  void endLine(Frame &F, unsigned PhysLine, const Macro *FirstMacro) {
    Result.Text += '\n';
    if (!F.IdsKnown) {
      F.FileId = fileId(F.Name);
      F.StackId = stackId();
      F.IdsKnown = true;
    }
    LineInfo &Info = Result.Map.Lines.emplace_back();
    Info.FileId = F.FileId;
    Info.PhysLine = PhysLine;
    Info.StackId = F.StackId;
    if (FirstMacro)
      Info.Macro = FirstMacro->Name;
    ++Result.Stats.LinesOut;
  }

  //===--------------------------------------------------------------------===//
  // Macro table
  //===--------------------------------------------------------------------===//

  const Macro *findMacro(std::string_view Name) const {
    auto It = Macros.find(Name);
    return It == Macros.end() ? nullptr : &It->second;
  }

  void define(Macro M) {
    M.Id = NextMacroId++;
    ++Result.Stats.MacrosDefined;
    std::string Name = M.Name;
    Macros.insert_or_assign(std::move(Name), std::move(M));
  }

  void predefine(const std::string &Spec) {
    size_t Eq = Spec.find('=');
    Macro M;
    M.Name = Eq == std::string::npos ? Spec : Spec.substr(0, Eq);
    std::string Value = Eq == std::string::npos ? "1" : Spec.substr(Eq + 1);
    size_t I = 0;
    for (std::string_view T; !(T = nextToken(Value, I)).empty();)
      M.Body.push_back({std::string(T)});
    if (M.Name.empty() || !isIdentToken(M.Name)) {
      error("<command line>", 0, "bad -D macro name '" + M.Name + "'");
      return;
    }
    define(std::move(M));
  }

  //===--------------------------------------------------------------------===//
  // One file
  //===--------------------------------------------------------------------===//

  void processFile(const std::string &Name, std::string Text) {
    ++Result.Stats.Files;
    ClosureNames.push_back(Name);
    ActiveFiles.push_back(Name);
    stripComments(Text);
    std::vector<LogicalLine> Lines;
    splitLogicalLines(Text, Lines, Result.Stats.LinesIn);

    std::vector<Cond> Conds;
    bool Active = true;
    Frame F{Name, Lines};
    for (; F.Idx < Lines.size(); ++F.Idx) {
      std::string_view Line = Lines[F.Idx].Text;
      unsigned Phys = Lines[F.Idx].Phys;
      size_t NonWs = Line.find_first_not_of(" \t");
      if (NonWs != std::string_view::npos && Line[NonWs] == '#') {
        handleDirective(Name, Line.substr(NonWs + 1), Phys, Conds, Active);
        Active = std::all_of(Conds.begin(), Conds.end(), [](const Cond &C) {
          return C.ParentActive && C.ThisActive;
        });
        continue;
      }
      if (Active)
        processTextLine(F, Line, Phys);
    }

    for (const Cond &C : Conds)
      error(Name, C.Line, "unterminated conditional directive");
    ActiveFiles.pop_back();
  }

  /// True when \p Line names a macro that would expand: an object-like
  /// one, or a function-like one followed by `(` or ending the line (its
  /// arguments may start on the next line). Scans in place.
  bool invokesMacro(std::string_view Line) const {
    size_t I = 0;
    for (std::string_view T; !(T = nextToken(Line, I)).empty();) {
      if (!is(T[0], IdentStart))
        continue;
      const Macro *M = findMacro(T);
      if (!M)
        continue;
      if (!M->FunctionLike)
        return true;
      size_t J = I;
      std::string_view Next = nextToken(Line, J);
      if (Next.empty() || Next == "(")
        return true;
    }
    return false;
  }

  static void scanTokens(std::string_view Line, std::vector<PTok> &Out) {
    size_t I = 0;
    for (std::string_view T; !(T = nextToken(Line, I)).empty();)
      Out.push_back({T, 0});
  }

  /// Emits one in-conditional source line, expanding macros when any are
  /// invoked on it. Function-like invocations may consume following lines
  /// (arguments spanning lines); the frame's line index advances past
  /// them.
  void processTextLine(Frame &F, std::string_view Line, unsigned Phys) {
    // Fast path: no expandable macro on the line — emit verbatim, keeping
    // the user's exact columns.
    if (!invokesMacro(Line)) {
      Result.Text.append(Line);
      endLine(F, Phys, nullptr);
      return;
    }

    std::vector<PTok> &Toks = level(0).In;
    Toks.clear();
    scanTokens(Line, Toks);
    LineOut.clear();
    unsigned Budget = Opts.MaxExpansionsPerLine;
    const Macro *FirstMacro = nullptr;
    expand(0, LineOut, F.Name, Phys, Budget, &FirstMacro, &F);
    for (size_t I = 0; I < LineOut.size(); ++I) {
      if (I)
        Result.Text += ' ';
      Result.Text.append(LineOut[I].Text);
    }
    endLine(F, Phys, FirstMacro);
  }

  /// Appends the next logical line's tokens to \p Toks (a function-like
  /// invocation whose arguments span lines). Directives inside an
  /// invocation are not supported: a directive line ends it.
  static bool refill(Frame &F, std::vector<PTok> &Toks) {
    if (F.Idx + 1 >= F.Lines.size())
      return false;
    std::string_view Next = F.Lines[F.Idx + 1].Text;
    size_t NonWs = Next.find_first_not_of(" \t");
    if (NonWs != std::string_view::npos && Next[NonWs] == '#')
      return false;
    ++F.Idx;
    scanTokens(Next, Toks);
    return true;
  }

  //===--------------------------------------------------------------------===//
  // Macro expansion
  //===--------------------------------------------------------------------===//

  /// Reused buffers for one level of expand(): level 0 expands a text
  /// line or an #if, level N + 1 pre-expands the arguments of a level N
  /// invocation. Once warm, expansion allocates nothing.
  struct Level {
    /// The tokens to expand.
    std::vector<PTok> In;
    /// Replacements awaiting rescan; the back is the next token.
    std::vector<PTok> Pending;
    /// Every token an invocation took, so a failed one can put them back.
    std::vector<PTok> Consumed;
    /// An invocation's arguments back to back (argument I ends at
    /// ArgEnd[I]), and their pre-expansions likewise.
    std::vector<PTok> Args, ExpArgs;
    std::vector<size_t> ArgEnd, ExpArgEnd;
  };

  Level &level(unsigned D) {
    while (Levels.size() <= D)
      Levels.emplace_back();
    return Levels[D];
  }

  /// Expands level \p D's input onto \p Out in one forward pass until no
  /// expandable macro remains (hide sets guarantee termination; \p Budget
  /// caps pathological growth). A replacement is pushed onto the pending
  /// stack and rescanned ahead of the rest of the input. With
  /// \p RefillFrom, a function-like invocation may pull that frame's
  /// following lines onto the end of the input.
  void expand(unsigned D, std::vector<PTok> &Out, const std::string &File,
              unsigned Phys, unsigned &Budget, const Macro **FirstMacro,
              Frame *RefillFrom) {
    Level &L = level(D);
    std::vector<PTok> &Toks = L.In, &Pending = L.Pending;
    Pending.clear();
    size_t Next = 0;
    auto atEnd = [&] { return Pending.empty() && Next >= Toks.size(); };
    auto peek = [&] { return Pending.empty() ? Toks[Next] : Pending.back(); };
    auto pop = [&] {
      if (Pending.empty())
        return Toks[Next++];
      PTok T = Pending.back();
      Pending.pop_back();
      return T;
    };
    auto more = [&] { return RefillFrom && refill(*RefillFrom, Toks); };

    bool BudgetDiagnosed = false;
    while (!atEnd()) {
      PTok T = pop();
      const Macro *M = is(T.Text[0], IdentStart) ? findMacro(T.Text) : nullptr;
      if (!M || Hide.contains(T.Hide, M->Id)) {
        Out.push_back(T);
        continue;
      }
      if (Budget == 0) {
        if (!BudgetDiagnosed) {
          BudgetDiagnosed = true;
          error(File, Phys, "macro expansion limit exceeded on this line");
        }
        Out.push_back(T);
        continue;
      }

      if (!M->FunctionLike) {
        --Budget;
        ++Result.Stats.Expansions;
        if (FirstMacro && !*FirstMacro)
          *FirstMacro = M;
        uint32_t HS = Hide.with(T.Hide, M->Id);
        for (auto B = M->Body.rbegin(); B != M->Body.rend(); ++B)
          Pending.push_back({B->Text, HS});
        continue;
      }

      // Function-like: require '(' (possibly on a following line).
      if (atEnd())
        more();
      if (atEnd() || peek().Text != "(") {
        Out.push_back(T);
        continue;
      }

      // Collect arguments, balancing parentheses.
      L.Consumed.assign(1, pop());
      L.Args.clear();
      L.ArgEnd.clear();
      int Depth = 1;
      bool Closed = false;
      while (true) {
        if (atEnd()) {
          if (more())
            continue;
          break;
        }
        PTok A = pop();
        L.Consumed.push_back(A);
        if (A.Text == "(") {
          ++Depth;
        } else if (A.Text == ")") {
          if (--Depth == 0) {
            Closed = true;
            break;
          }
        } else if (A.Text == "," && Depth == 1) {
          L.ArgEnd.push_back(L.Args.size());
          continue;
        }
        L.Args.push_back(A);
      }
      auto reject = [&] {
        Out.push_back(T);
        Pending.insert(Pending.end(), L.Consumed.rbegin(), L.Consumed.rend());
      };
      if (!Closed) {
        error(File, Phys,
              "unterminated invocation of macro '" + M->Name + "'");
        reject();
        continue;
      }
      L.ArgEnd.push_back(L.Args.size());
      // `M()` with one empty argument means zero arguments.
      if (L.ArgEnd.size() == 1 && L.Args.empty() && M->Params.empty())
        L.ArgEnd.clear();
      if (L.ArgEnd.size() != M->Params.size()) {
        error(File, Phys,
              "macro '" + M->Name + "' expects " +
                  std::to_string(M->Params.size()) + " argument(s), got " +
                  std::to_string(L.ArgEnd.size()));
        reject();
        continue;
      }

      --Budget;
      ++Result.Stats.Expansions;
      if (FirstMacro && !*FirstMacro)
        *FirstMacro = M;

      // Arguments are fully expanded before substitution (C99 6.10.3.1).
      L.ExpArgs.clear();
      L.ExpArgEnd.clear();
      for (size_t I = 0; I < L.ArgEnd.size(); ++I) {
        size_t Begin = I ? L.ArgEnd[I - 1] : 0;
        level(D + 1).In.assign(L.Args.begin() + Begin,
                               L.Args.begin() + L.ArgEnd[I]);
        expand(D + 1, L.ExpArgs, File, Phys, Budget, nullptr, nullptr);
        L.ExpArgEnd.push_back(L.ExpArgs.size());
      }

      uint32_t HS = Hide.with(T.Hide, M->Id);
      for (auto B = M->Body.rbegin(); B != M->Body.rend(); ++B) {
        if (B->Param < 0) {
          Pending.push_back({B->Text, HS});
          continue;
        }
        size_t P = static_cast<size_t>(B->Param);
        size_t Begin = P ? L.ExpArgEnd[P - 1] : 0;
        for (size_t I = L.ExpArgEnd[P]; I > Begin; --I) {
          const PTok &A = L.ExpArgs[I - 1];
          Pending.push_back({A.Text, Hide.unite(A.Hide, HS)});
        }
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // Directives
  //===--------------------------------------------------------------------===//

  /// The offset in \p Tail just past \p Tok, a token scanned from it.
  static size_t after(std::string_view Tail, std::string_view Tok) {
    return static_cast<size_t>(Tok.data() + Tok.size() - Tail.data());
  }

  void handleDirective(const std::string &File, std::string_view Tail,
                       unsigned Phys, std::vector<Cond> &Conds,
                       bool Active) {
    std::vector<PTok> Toks;
    scanTokens(Tail, Toks);
    if (Toks.empty())
      return; // The null directive (`#`) is legal and ignored.
    const std::string_view Name = Toks[0].Text;

    // Conditional-flow directives act even in skipped regions.
    if (Name == "if" || Name == "ifdef" || Name == "ifndef") {
      if (Conds.size() >= Opts.MaxConditionalDepth) {
        error(File, Phys, "conditional nesting too deep (max " +
                              std::to_string(Opts.MaxConditionalDepth) + ")");
        // Keep the stack balanced so the matching #endif pops cleanly.
      }
      Cond C;
      C.ParentActive = Active && Conds.size() < Opts.MaxConditionalDepth;
      C.Line = Phys;
      if (C.ParentActive) {
        ++Result.Stats.Conditionals;
        bool V = false;
        if (Name == "if") {
          V = evalCondition(File, Phys, Toks);
        } else {
          if (Toks.size() < 2 || !isIdentToken(Toks[1].Text))
            error(File, Phys,
                  "expected macro name after #" + std::string(Name));
          else
            V = findMacro(Toks[1].Text) != nullptr;
          if (Name == "ifndef")
            V = !V;
        }
        C.ThisActive = V;
        C.Taken = V;
      }
      Conds.push_back(C);
      return;
    }
    if (Name == "elif") {
      if (Conds.empty() || Conds.back().SeenElse) {
        error(File, Phys, "#elif without matching #if");
        return;
      }
      Cond &C = Conds.back();
      if (!C.ParentActive)
        return;
      if (C.Taken) {
        C.ThisActive = false;
        return;
      }
      bool V = evalCondition(File, Phys, Toks);
      C.ThisActive = V;
      C.Taken = V;
      return;
    }
    if (Name == "else") {
      if (Conds.empty() || Conds.back().SeenElse) {
        error(File, Phys, "#else without matching #if");
        return;
      }
      Cond &C = Conds.back();
      C.SeenElse = true;
      if (!C.ParentActive)
        return;
      C.ThisActive = !C.Taken;
      C.Taken = true;
      return;
    }
    if (Name == "endif") {
      if (Conds.empty()) {
        error(File, Phys, "#endif without matching #if");
        return;
      }
      Conds.pop_back();
      return;
    }

    if (!Active)
      return; // Everything below is skipped in a false branch.

    if (Name == "include") {
      handleInclude(File, Tail.substr(after(Tail, Name)), Phys);
      return;
    }
    if (Name == "define") {
      handleDefine(File, Tail, Phys, Toks);
      return;
    }
    if (Name == "undef") {
      if (Toks.size() < 2 || !isIdentToken(Toks[1].Text)) {
        error(File, Phys, "expected macro name after #undef");
        return;
      }
      if (auto It = Macros.find(Toks[1].Text); It != Macros.end())
        Macros.erase(It);
      return;
    }
    if (Name == "error") {
      std::string_view Msg = Tail.substr(after(Tail, Name));
      size_t S = Msg.find_first_not_of(" \t");
      error(File, Phys,
            "#error" + (S == std::string_view::npos
                            ? std::string()
                            : ": " + std::string(Msg.substr(S))));
      return;
    }
    if (Name == "pragma")
      return; // Accepted and ignored.
    error(File, Phys,
          "unknown preprocessor directive '#" + std::string(Name) + "'");
  }

  void handleDefine(const std::string &File, std::string_view Tail,
                    unsigned Phys, const std::vector<PTok> &Toks) {
    if (Toks.size() < 2 || !isIdentToken(Toks[1].Text)) {
      error(File, Phys, "expected macro name after #define");
      return;
    }
    Macro M;
    M.Name = std::string(Toks[1].Text);
    size_t BodyStart = 2;
    // Function-like iff '(' immediately follows the name (no whitespace).
    size_t NameEnd = after(Tail, Toks[1].Text);
    if (NameEnd < Tail.size() && Tail[NameEnd] == '(') {
      M.FunctionLike = true;
      size_t I = 2;
      if (I >= Toks.size() || Toks[I].Text != "(") {
        error(File, Phys, "malformed macro parameter list");
        return;
      }
      ++I;
      if (I < Toks.size() && Toks[I].Text == ")") {
        ++I;
      } else {
        while (true) {
          if (I >= Toks.size()) {
            error(File, Phys, "unterminated macro parameter list");
            return;
          }
          std::string_view P = Toks[I].Text;
          if (P == "...") {
            error(File, Phys, "variadic macros are not supported");
            return;
          }
          if (!isIdentToken(P)) {
            error(File, Phys,
                  "expected parameter name in macro parameter list");
            return;
          }
          if (std::find(M.Params.begin(), M.Params.end(), P) !=
              M.Params.end())
            error(File, Phys,
                  "duplicate macro parameter '" + std::string(P) + "'");
          M.Params.emplace_back(P);
          ++I;
          if (I < Toks.size() && Toks[I].Text == ",") {
            ++I;
            continue;
          }
          if (I < Toks.size() && Toks[I].Text == ")") {
            ++I;
            break;
          }
          error(File, Phys, "expected ',' or ')' in macro parameter list");
          return;
        }
      }
      BodyStart = I;
    }
    for (size_t I = BodyStart; I < Toks.size(); ++I) {
      std::string_view T = Toks[I].Text;
      if (T == "#" || T == "##")
        error(File, Phys,
              "'" + std::string(T) +
                  "' (stringize/paste) is not supported in macro bodies");
      BodyTok B{std::string(T)};
      if (isIdentToken(T)) {
        auto P = std::find(M.Params.begin(), M.Params.end(), T);
        if (P != M.Params.end())
          B.Param = static_cast<int>(P - M.Params.begin());
      }
      M.Body.push_back(std::move(B));
    }
    if (findMacro(M.Name))
      Diags.warning(SourceLoc(Phys, 1), "pp",
                    "macro '" + M.Name + "' redefined");
    define(std::move(M));
  }

  /// \p Rest is the directive's text after `include`.
  void handleInclude(const std::string &File, std::string_view Rest,
                     unsigned Phys) {
    // Parse `"name"` or `<name>` from the raw text (the token scanner
    // would split <a/b.h> at punctuation).
    size_t Pos = 0;
    while (Pos < Rest.size() && is(Rest[Pos], Space))
      ++Pos;
    if (Pos >= Rest.size() || (Rest[Pos] != '"' && Rest[Pos] != '<')) {
      error(File, Phys, "expected \"file\" or <file> after #include");
      return;
    }
    bool Angled = Rest[Pos] == '<';
    char Close = Angled ? '>' : '"';
    size_t End = Rest.find(Close, Pos + 1);
    if (End == std::string_view::npos) {
      error(File, Phys, "unterminated #include file name");
      return;
    }
    std::string Name(Rest.substr(Pos + 1, End - Pos - 1));
    if (Name.empty()) {
      error(File, Phys, "empty #include file name");
      return;
    }

    if (Stack.size() >= Opts.MaxIncludeDepth) {
      error(File, Phys,
            "include depth exceeds " + std::to_string(Opts.MaxIncludeDepth) +
                " (possible include cycle) while including '" + Name + "'");
      return;
    }

    std::vector<std::string> Candidates;
    if (Name[0] == '/') {
      Candidates.push_back(Name);
    } else {
      if (!Angled) {
        std::string Dir = dirName(File);
        Candidates.push_back(Dir.empty() ? Name : Dir + "/" + Name);
      }
      for (const std::string &D : Opts.IncludeDirs)
        Candidates.push_back(D.empty() ? Name : D + "/" + Name);
    }

    std::string Text, Resolved;
    for (const std::string &C : Candidates)
      if (Resolver.read(C, Text)) {
        Resolved = C;
        break;
      }
    if (Resolved.empty()) {
      std::string Tried;
      for (const std::string &C : Candidates)
        Tried += (Tried.empty() ? "" : ", ") + C;
      error(File, Phys,
            Angled ? "<" + Name + ">: no such header (searched: " + Tried +
                         ")"
                   : "\"" + Name + "\": no such header (searched: " + Tried +
                         ")");
      return;
    }
    for (const std::string &A : ActiveFiles)
      if (A == Resolved) {
        error(File, Phys, "circular include of '" + Resolved + "'");
        return;
      }

    ++Result.Stats.Includes;
    Stack.push_back({File, Phys});
    processFile(Resolved, std::move(Text));
    Stack.pop_back();
  }

  //===--------------------------------------------------------------------===//
  // #if constant expressions
  //===--------------------------------------------------------------------===//

  /// `defined X` / `defined(X)` replacement, then macro expansion, then
  /// the constant-expression parser over the directive's tokens after its
  /// name. Unknown identifiers evaluate to 0 (the C semantics).
  bool evalCondition(const std::string &File, unsigned Phys,
                     const std::vector<PTok> &Toks) {
    std::vector<PTok> Replaced;
    for (size_t I = 1; I < Toks.size(); ++I) {
      if (Toks[I].Text != "defined") {
        Replaced.push_back(Toks[I]);
        continue;
      }
      std::string_view Target;
      if (I + 1 < Toks.size() && isIdentToken(Toks[I + 1].Text)) {
        Target = Toks[I + 1].Text;
        I += 1;
      } else if (I + 3 < Toks.size() && Toks[I + 1].Text == "(" &&
                 isIdentToken(Toks[I + 2].Text) && Toks[I + 3].Text == ")") {
        Target = Toks[I + 2].Text;
        I += 3;
      } else {
        error(File, Phys, "expected macro name after 'defined'");
        return false;
      }
      Replaced.push_back({findMacro(Target) ? "1" : "0", 0});
    }
    unsigned Budget = Opts.MaxExpansionsPerLine;
    std::vector<PTok> Expanded;
    level(0).In = std::move(Replaced);
    expand(0, Expanded, File, Phys, Budget, nullptr, nullptr);
    CondParser P{Expanded, 0, File, Phys, this};
    int64_t V = P.parseTernary();
    if (P.Pos != Expanded.size())
      error(File, Phys, "trailing tokens in #if expression");
    return V != 0;
  }

  struct CondParser {
    const std::vector<PTok> &Toks;
    size_t Pos;
    const std::string &File;
    unsigned Phys;
    Pp *Owner;
    static constexpr unsigned MaxDepth = 200;
    unsigned Depth = 0;

    std::string_view peek() const {
      return Pos < Toks.size() ? Toks[Pos].Text : std::string_view();
    }
    bool eat(std::string_view S) {
      if (peek() == S) {
        ++Pos;
        return true;
      }
      return false;
    }
    void err(const std::string &M) { Owner->error(File, Phys, M); }
    /// #if arithmetic wraps (two's complement) instead of overflowing:
    /// an #if line must not be able to trap the host.
    static int64_t wrap(uint64_t V) { return static_cast<int64_t>(V); }

    int64_t parseTernary() {
      int64_t C = parseLOr();
      if (eat("?")) {
        int64_t A = parseTernary();
        if (!eat(":"))
          err("expected ':' in #if expression");
        int64_t B = parseTernary();
        return C ? A : B;
      }
      return C;
    }
    int64_t parseLOr() {
      int64_t V = parseLAnd();
      while (eat("||"))
        V = (V != 0) | (parseLAnd() != 0);
      return V;
    }
    int64_t parseLAnd() {
      int64_t V = parseEq();
      while (eat("&&"))
        V = (V != 0) & (parseEq() != 0);
      return V;
    }
    int64_t parseEq() {
      int64_t V = parseRel();
      while (true) {
        if (eat("=="))
          V = V == parseRel();
        else if (eat("!="))
          V = V != parseRel();
        else
          return V;
      }
    }
    int64_t parseRel() {
      int64_t V = parseAdd();
      while (true) {
        if (eat("<"))
          V = V < parseAdd();
        else if (eat(">"))
          V = V > parseAdd();
        else if (eat("<="))
          V = V <= parseAdd();
        else if (eat(">="))
          V = V >= parseAdd();
        else
          return V;
      }
    }
    int64_t parseAdd() {
      int64_t V = parseMul();
      while (true) {
        if (eat("+"))
          V = wrap(uint64_t(V) + uint64_t(parseMul()));
        else if (eat("-"))
          V = wrap(uint64_t(V) - uint64_t(parseMul()));
        else
          return V;
      }
    }
    int64_t parseMul() {
      int64_t V = parseUnary();
      while (true) {
        if (eat("*")) {
          V = wrap(uint64_t(V) * uint64_t(parseUnary()));
        } else if (eat("/")) {
          int64_t R = parseUnary();
          if (R == 0) {
            err("division by zero in #if expression");
            V = 0;
          } else {
            V = R == -1 ? wrap(0 - uint64_t(V)) : V / R;
          }
        } else if (eat("%")) {
          int64_t R = parseUnary();
          if (R == 0) {
            err("remainder by zero in #if expression");
            V = 0;
          } else {
            V = R == -1 ? 0 : V % R;
          }
        } else {
          return V;
        }
      }
    }
    int64_t parseUnary() {
      if (Depth >= MaxDepth) {
        err("#if expression too deeply nested");
        Pos = Toks.size();
        return 0;
      }
      ++Depth;
      int64_t V;
      if (eat("!"))
        V = parseUnary() == 0;
      else if (eat("-"))
        V = wrap(0 - uint64_t(parseUnary()));
      else if (eat("~"))
        V = ~parseUnary();
      else if (eat("+"))
        V = parseUnary();
      else
        V = parsePrimary();
      --Depth;
      return V;
    }
    int64_t parsePrimary() {
      if (eat("(")) {
        int64_t V = parseTernary();
        if (!eat(")"))
          err("expected ')' in #if expression");
        return V;
      }
      std::string_view T = peek();
      if (T.empty()) {
        err("unexpected end of #if expression");
        return 0;
      }
      ++Pos;
      if (is(T[0], Digit)) {
        // Decimal or hex; trailing u/U/l/L suffixes tolerated.
        size_t End = T.size();
        while (End > 0 && (T[End - 1] == 'u' || T[End - 1] == 'U' ||
                           T[End - 1] == 'l' || T[End - 1] == 'L'))
          --End;
        errno = 0;
        char *Stop = nullptr;
        std::string Num(T.substr(0, End));
        long long V = std::strtoll(Num.c_str(), &Stop, 0);
        if (Stop != Num.c_str() + Num.size())
          err("bad integer literal '" + std::string(T) +
              "' in #if expression");
        return V;
      }
      if (T.size() >= 3 && T[0] == '\'')
        return static_cast<int64_t>(
            T[1] == '\\' && T.size() >= 4 ? T[2] : T[1]);
      if (isIdentToken(T))
        return 0; // Undefined identifiers are 0 in #if.
      err("unexpected token '" + std::string(T) + "' in #if expression");
      return 0;
    }
  };

  FileResolver &Resolver;
  const PpOptions &Opts;
  DiagnosticEngine &Diags;
  PpResult Result;
  std::unordered_map<std::string, Macro, NameHash, std::equal_to<>> Macros;
  uint32_t NextMacroId = 1;
  HideSets Hide;
  /// Expansion buffers, reused across lines.
  std::deque<Level> Levels;
  std::vector<PTok> LineOut;
  /// Active include chain (frames: includer file + line).
  std::vector<IncludeFrame> Stack;
  /// Resolved paths currently being processed (cycle detection).
  std::vector<std::string> ActiveFiles;
  /// Every file entered, in inclusion order (folded into the stream hash).
  std::vector<std::string> ClosureNames;
  unsigned ErrorCount = 0;
};

} // namespace

PpResult stq::pp::preprocess(const std::string &MainName,
                             const std::string &MainText,
                             FileResolver &Resolver, const PpOptions &Options,
                             DiagnosticEngine &Diags) {
  Pp P(Resolver, Options, Diags);
  return P.run(MainName, MainText);
}

FileMap stq::pp::collectIncludeClosure(
    const std::vector<std::pair<std::string, std::string>> &Inputs,
    const PpOptions &Options) {
  FileMap Out;
  for (const auto &[Name, Text] : Inputs) {
    DiskResolver Resolver(&Out);
    DiagnosticEngine Scratch; // Real diagnostics come from the real run.
    preprocess(Name, Text, Resolver, Options, Scratch);
  }
  return Out;
}
