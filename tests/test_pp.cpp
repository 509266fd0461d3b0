//===- test_pp.cpp - Preprocessor and multi-TU front-end tests ------------===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
// The preprocessor's hardening contracts (include cycles, recursive
// macros, conditional nesting, missing headers, diagnostic floods: all
// capped and diagnosed, never crashed on), its macro/conditional
// semantics, the line map's provenance, and the multi-TU front end's
// diagnostic remapping and link-time qualifier-signature checks.
//
//===----------------------------------------------------------------------===//

#include "frontend/Frontend.h"
#include "pp/Preprocessor.h"
#include "workloads/Workloads.h"

#include "TestTempDir.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <random>
#include <sstream>

using namespace stq;

namespace {

struct PpRun {
  DiagnosticEngine Diags;
  pp::PpResult Result;
};

/// Preprocesses \p Main against an in-memory file map.
PpRun run(const std::string &Main, const pp::FileMap &Files,
          pp::PpOptions Options = {}) {
  PpRun R;
  pp::MemoryResolver Resolver(Files);
  R.Result = pp::preprocess("main.c", Main, Resolver, Options, R.Diags);
  return R;
}

bool anyDiagContains(const DiagnosticEngine &Diags, const std::string &Text) {
  for (const Diagnostic &D : Diags.diagnostics())
    if (D.Message.find(Text) != std::string::npos)
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// Macro semantics
//===----------------------------------------------------------------------===//

TEST(PpMacros, ObjectAndFunctionLike) {
  PpRun R = run("#define N 10\n"
                "#define SQ(x) ((x) * (x))\n"
                "int v = SQ(N);\n",
                {});
  EXPECT_TRUE(R.Result.Ok);
  EXPECT_NE(R.Result.Text.find("( ( 10 ) * ( 10 ) )"), std::string::npos);
  EXPECT_EQ(R.Result.Stats.MacrosDefined, 2u);
  EXPECT_GE(R.Result.Stats.Expansions, 2u);
}

TEST(PpMacros, UndefStopsExpansion) {
  PpRun R = run("#define N 10\n"
                "int a = N;\n"
                "#undef N\n"
                "int b = N;\n",
                {});
  EXPECT_TRUE(R.Result.Ok);
  EXPECT_NE(R.Result.Text.find("int a = 10 ;"), std::string::npos);
  EXPECT_NE(R.Result.Text.find("int b = N;"), std::string::npos);
}

TEST(PpMacros, SelfReferentialMacroDoesNotLoop) {
  // C99 no-reexpansion: FOO inside its own expansion is not rescanned.
  PpRun R = run("#define FOO (FOO + 1)\n"
                "int v = FOO;\n",
                {});
  EXPECT_TRUE(R.Result.Ok);
  EXPECT_NE(R.Result.Text.find("( FOO + 1 )"), std::string::npos);
}

TEST(PpMacros, MutuallyRecursiveMacrosDoNotLoop) {
  PpRun R = run("#define A B\n"
                "#define B A\n"
                "int v = A;\n",
                {});
  EXPECT_TRUE(R.Result.Ok);
  // A -> B -> A, and the rescan of A is blocked: the token survives.
  EXPECT_NE(R.Result.Text.find("int v = A ;"), std::string::npos);
}

TEST(PpMacros, ExpansionsPerLineCapped) {
  // Each Xk doubles the work; X8 needs 2^8 - 1 > 16 expansions.
  std::string Src = "#define X0 z\n";
  for (int K = 1; K <= 8; ++K)
    Src += "#define X" + std::to_string(K) + " X" + std::to_string(K - 1) +
           " X" + std::to_string(K - 1) + "\n";
  Src += "int v = X8;\n";
  pp::PpOptions Options;
  Options.MaxExpansionsPerLine = 16;
  PpRun R = run(Src, {}, Options);
  EXPECT_FALSE(R.Result.Ok);
  EXPECT_TRUE(R.Diags.hasErrors());
  EXPECT_GE(R.Result.Stats.Expansions, 1u);
}

//===----------------------------------------------------------------------===//
// Includes
//===----------------------------------------------------------------------===//

TEST(PpIncludes, SearchPathAndLineMap) {
  pp::FileMap Files = {{"inc/ten.h", "#define TEN 10\nint ten = TEN;\n"}};
  pp::PpOptions Options;
  Options.IncludeDirs = {"inc"};
  PpRun R = run("#include \"ten.h\"\nint v = TEN;\n", Files, Options);
  ASSERT_TRUE(R.Result.Ok);
  EXPECT_EQ(R.Result.Stats.Includes, 1u);
  EXPECT_NE(R.Result.Text.find("int ten = 10 ;"), std::string::npos);

  // The spliced line's provenance points into the header, include stack
  // rooted at the main file.
  size_t Line = 0, At = 0;
  std::istringstream In(R.Result.Text);
  for (std::string L; std::getline(In, L);) {
    ++At;
    if (L.find("int ten") != std::string::npos)
      Line = At;
  }
  ASSERT_NE(Line, 0u);
  const pp::LineInfo *Info = R.Result.Map.info(static_cast<unsigned>(Line));
  ASSERT_NE(Info, nullptr);
  EXPECT_EQ(R.Result.Map.file(*Info), "inc/ten.h");
  ASSERT_EQ(R.Result.Map.stack(*Info).size(), 1u);
  EXPECT_EQ(R.Result.Map.stack(*Info)[0].File, "main.c");
}

TEST(PpIncludes, QuotedIncludeTriesIncluderDirFirst) {
  pp::FileMap Files = {{"sub/near.h", "int which = 1;\n"},
                       {"far/near.h", "int which = 2;\n"},
                       {"sub/main2.c", "#include \"near.h\"\n"}};
  pp::PpOptions Options;
  Options.IncludeDirs = {"far"};
  pp::MemoryResolver Resolver(Files);
  DiagnosticEngine Diags;
  pp::PpResult Result = pp::preprocess("sub/main2.c", Files["sub/main2.c"],
                                       Resolver, Options, Diags);
  ASSERT_TRUE(Result.Ok);
  EXPECT_NE(Result.Text.find("int which = 1;"), std::string::npos);
}

TEST(PpIncludes, QuotedIncludeFallsBackToSearchPath) {
  // Lookup order for `#include "x.h"`: the including file's directory
  // first, then each -I dir in command-line order. Here the includer's
  // directory (sub/) has no nested.h, so resolution must fall through to
  // the -I dirs — and must take them in order (first/ before second/).
  pp::FileMap Files = {{"first/nested.h", "int which = 1;\n"},
                       {"second/nested.h", "int which = 2;\n"},
                       {"sub/main3.c", "#include \"nested.h\"\n"}};
  pp::PpOptions Options;
  Options.IncludeDirs = {"first", "second"};
  pp::MemoryResolver Resolver(Files);
  DiagnosticEngine Diags;
  pp::PpResult Result = pp::preprocess("sub/main3.c", Files["sub/main3.c"],
                                       Resolver, Options, Diags);
  ASSERT_TRUE(Result.Ok);
  EXPECT_NE(Result.Text.find("int which = 1;"), std::string::npos);
  EXPECT_EQ(Result.Text.find("int which = 2;"), std::string::npos);
}

TEST(PpIncludes, DirectoryDoesNotSatisfyQuotedInclude) {
  // POSIX lets ifstream "open" a directory (it just reads zero bytes). A
  // subdirectory named like the header must not shadow the real one: the
  // includer-dir candidate fails and the -I fallback finds include/util.h.
  stq::testing::TempDir Tmp;
  ASSERT_TRUE(Tmp.valid());
  namespace fs = std::filesystem;
  fs::create_directories(Tmp.path("include"));
  fs::create_directories(Tmp.path("util.h")); // decoy directory
  {
    std::ofstream H(Tmp.path("include/util.h"));
    H << "#define FROM_INCLUDE 1\nint util_marker = FROM_INCLUDE;\n";
  }
  std::string Main = "#include \"util.h\"\nint v = util_marker;\n";
  pp::PpOptions Options;
  Options.IncludeDirs = {Tmp.path("include")};
  pp::DiskResolver Resolver;
  DiagnosticEngine Diags;
  pp::PpResult Result =
      pp::preprocess(Tmp.path("main.c"), Main, Resolver, Options, Diags);
  ASSERT_TRUE(Result.Ok);
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_NE(Result.Text.find("int util_marker = 1 ;"), std::string::npos);
}

TEST(PpIncludes, MissingHeaderDiagnosedAndRecovered) {
  PpRun R = run("#include \"nope.h\"\nint after = 1;\n", {});
  EXPECT_FALSE(R.Result.Ok);
  EXPECT_TRUE(R.Diags.hasErrors());
  EXPECT_TRUE(anyDiagContains(R.Diags, "nope.h"));
  // Processing continues past the bad directive.
  EXPECT_NE(R.Result.Text.find("int after = 1;"), std::string::npos);
}

TEST(PpIncludes, IncludeCycleCapped) {
  pp::FileMap Files = {{"a.h", "#include \"b.h\"\nint a;\n"},
                       {"b.h", "#include \"a.h\"\nint b;\n"}};
  pp::PpOptions Options;
  Options.MaxIncludeDepth = 8;
  PpRun R = run("#include \"a.h\"\n", Files, Options);
  EXPECT_FALSE(R.Result.Ok);
  EXPECT_TRUE(R.Diags.hasErrors());
}

TEST(PpIncludes, SelfIncludeCapped) {
  pp::FileMap Files = {{"self.h", "#include \"self.h\"\n"}};
  pp::PpOptions Options;
  Options.MaxIncludeDepth = 4;
  PpRun R = run("#include \"self.h\"\n", Files, Options);
  EXPECT_FALSE(R.Result.Ok);
  EXPECT_TRUE(R.Diags.hasErrors());
}

TEST(PpIncludes, GuardedHeaderIncludedTwiceIsIdempotent) {
  pp::FileMap Files = {
      {"g.h", "#ifndef G_H\n#define G_H\nint g = 1;\n#endif\n"}};
  PpRun R = run("#include \"g.h\"\n#include \"g.h\"\nint v = g;\n", Files);
  ASSERT_TRUE(R.Result.Ok);
  size_t First = R.Result.Text.find("int g = 1;");
  ASSERT_NE(First, std::string::npos);
  EXPECT_EQ(R.Result.Text.find("int g = 1;", First + 1), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Conditionals
//===----------------------------------------------------------------------===//

TEST(PpConditionals, ElifChainAndDefined) {
  PpRun R = run("#define A 3\n"
                "#if A > 5\n"
                "int picked = 1;\n"
                "#elif (A * 2) == 6 && defined(A)\n"
                "int picked = 2;\n"
                "#else\n"
                "int picked = 3;\n"
                "#endif\n",
                {});
  ASSERT_TRUE(R.Result.Ok);
  EXPECT_NE(R.Result.Text.find("int picked = 2;"), std::string::npos);
  EXPECT_EQ(R.Result.Text.find("int picked = 1;"), std::string::npos);
  EXPECT_EQ(R.Result.Text.find("int picked = 3;"), std::string::npos);
}

TEST(PpConditionals, PredefinesFromOptions) {
  pp::PpOptions Options;
  Options.Defines = {"FLAG", "VAL=7"};
  PpRun R = run("#ifdef FLAG\nint v = VAL;\n#endif\n", {}, Options);
  ASSERT_TRUE(R.Result.Ok);
  EXPECT_NE(R.Result.Text.find("int v = 7 ;"), std::string::npos);
}

TEST(PpConditionals, NestingDepthCapped) {
  pp::PpOptions Options;
  Options.MaxConditionalDepth = 4;
  std::string Src;
  for (int I = 0; I < 6; ++I)
    Src += "#if 1\n";
  Src += "int v = 1;\n";
  for (int I = 0; I < 6; ++I)
    Src += "#endif\n";
  PpRun R = run(Src, {}, Options);
  EXPECT_FALSE(R.Result.Ok);
  EXPECT_TRUE(R.Diags.hasErrors());
}

TEST(PpConditionals, UnterminatedConditionalDiagnosed) {
  PpRun R = run("#if 1\nint v = 1;\n", {});
  EXPECT_FALSE(R.Result.Ok);
  EXPECT_TRUE(R.Diags.hasErrors());
}

TEST(PpConditionals, ArithmeticWrapsInsteadOfTrapping) {
  // INT64_MIN / -1 used to raise SIGFPE; overflow was host UB.
  PpRun R = run("#if (-9223372036854775807 - 1) / -1 < 0\n"
                "int quotient;\n"
                "#endif\n"
                "#if (-9223372036854775807 - 1) % -1 == 0\n"
                "int remainder;\n"
                "#endif\n"
                "#if 9223372036854775807 + 1 < 0 &&\\\n"
                "    -(-9223372036854775807 - 1) < 0 &&\\\n"
                "    4294967296 * 4294967296 == 0\n"
                "int wrapped;\n"
                "#endif\n",
                {});
  ASSERT_TRUE(R.Result.Ok);
  EXPECT_EQ(R.Result.Text, "int quotient;\nint remainder;\nint wrapped;\n");
}

TEST(PpConditionals, ErrorDirectiveOnlyFiresInLiveBranch) {
  PpRun Skipped = run("#if 0\n#error dead\n#endif\nint v = 1;\n", {});
  EXPECT_TRUE(Skipped.Result.Ok);
  PpRun Live = run("#error boom\n", {});
  EXPECT_FALSE(Live.Result.Ok);
  EXPECT_TRUE(anyDiagContains(Live.Diags, "boom"));
}

//===----------------------------------------------------------------------===//
// Robustness and hashing
//===----------------------------------------------------------------------===//

TEST(PpRobustness, DiagnosticFloodCapped) {
  pp::PpOptions Options;
  Options.MaxErrors = 3;
  std::string Src;
  for (int I = 0; I < 20; ++I)
    Src += "#include \"missing" + std::to_string(I) + ".h\"\n";
  PpRun R = run(Src, {}, Options);
  EXPECT_FALSE(R.Result.Ok);
  // Capped: nowhere near one error per missing header (the +1 allows a
  // trailing "too many errors" style note).
  EXPECT_LE(R.Diags.diagnostics().size(), 8u);
}

TEST(PpRobustness, CommentBytesBecomeSpaces) {
  PpRun R = run("int /* gone */ x = 1;\n", {});
  ASSERT_TRUE(R.Result.Ok);
  // Line length and the column of 'x' survive comment stripping.
  EXPECT_NE(R.Result.Text.find("int            x = 1;"), std::string::npos);
}

TEST(PpRobustness, StreamHashTracksHeaderEdits) {
  pp::FileMap V1 = {{"h.h", "#define TEN 10\n"}};
  pp::FileMap V2 = {{"h.h", "#define TEN 12\n"}};
  std::string Main = "#include \"h.h\"\nint v = TEN;\n";
  PpRun A = run(Main, V1);
  PpRun B = run(Main, V2);
  PpRun C = run(Main, V1);
  ASSERT_TRUE(A.Result.Ok);
  ASSERT_TRUE(B.Result.Ok);
  EXPECT_TRUE(A.Result.StreamHashA != B.Result.StreamHashA ||
              A.Result.StreamHashB != B.Result.StreamHashB);
  EXPECT_EQ(A.Result.StreamHashA, C.Result.StreamHashA);
  EXPECT_EQ(A.Result.StreamHashB, C.Result.StreamHashB);
}

TEST(PpRobustness, CollectIncludeClosureRecordsHeaders) {
  stq::testing::TempDir Dir;
  ASSERT_TRUE(Dir.valid());
  {
    std::ofstream H(Dir.path("dep.h"));
    H << "int dep = 1;\n";
  }
  pp::PpOptions Options;
  Options.IncludeDirs = {Dir.str()};
  pp::FileMap Closure = pp::collectIncludeClosure(
      {{"main.c", "#include \"dep.h\"\nint v = dep;\n"}}, Options);
  ASSERT_EQ(Closure.size(), 1u);
  EXPECT_EQ(Closure.begin()->first, Dir.path("dep.h"));
  EXPECT_EQ(Closure.begin()->second, "int dep = 1;\n");
}

//===----------------------------------------------------------------------===//
// The no-expansion fast path and the expansion path
//===----------------------------------------------------------------------===//

/// The output lines of \p R, in order (no trailing newlines).
std::vector<std::string> outputLines(const pp::PpResult &R) {
  std::vector<std::string> Out;
  std::istringstream In(R.Text);
  for (std::string L; std::getline(In, L);)
    Out.push_back(L);
  return Out;
}

TEST(PpFastPath, MacroNameInsideLongerIdentifierDoesNotExpand) {
  PpRun R = run("#define FARM_BIAS 3\n"
                "int FARM_BIASX = XFARM_BIAS + FARM_BIAS_ + 1FARM_BIAS;\n"
                "int y = FARM_BIASX + FARM_BIAS;\n",
                {});
  ASSERT_TRUE(R.Result.Ok);
  std::vector<std::string> Lines = outputLines(R.Result);
  ASSERT_EQ(Lines.size(), 2u);
  // No whole-identifier use: emitted verbatim, no macro provenance.
  EXPECT_EQ(Lines[0], "int FARM_BIASX = XFARM_BIAS + FARM_BIAS_ + 1FARM_BIAS;");
  EXPECT_EQ(R.Result.Map.Lines[0].Macro, "");
  EXPECT_EQ(Lines[1], "int y = FARM_BIASX + 3 ;");
  EXPECT_EQ(R.Result.Map.Lines[1].Macro, "FARM_BIAS");
  EXPECT_EQ(R.Result.Stats.Expansions, 1u);
}

TEST(PpFastPath, MacroNameInsideLiteralDoesNotExpand) {
  PpRun R = run("#define N 10\n"
                "#define F(x) x\n"
                "char *s = \"N F(1)\"; char c = 'N';\n"
                "char *t = \"N\" N;\n",
                {});
  ASSERT_TRUE(R.Result.Ok);
  std::vector<std::string> Lines = outputLines(R.Result);
  ASSERT_EQ(Lines.size(), 2u);
  EXPECT_EQ(Lines[0], "char *s = \"N F(1)\"; char c = 'N';");
  EXPECT_EQ(R.Result.Map.Lines[0].Macro, "");
  EXPECT_EQ(Lines[1], "char * t = \"N\" 10 ;");
  EXPECT_EQ(R.Result.Stats.Expansions, 1u);
}

TEST(PpFastPath, BackslashContinuedLinesKeepPhysicalLineMap) {
  PpRun R = run("int a = 1 + \\\n    2;\n"
                "#define N \\\n  7\n"
                "int b = N;\n"
                "int c;\n",
                {});
  ASSERT_TRUE(R.Result.Ok);
  std::vector<std::string> Lines = outputLines(R.Result);
  ASSERT_EQ(Lines.size(), 3u);
  EXPECT_EQ(Lines[0], "int a = 1 +     2;");
  EXPECT_EQ(Lines[1], "int b = 7 ;");
  EXPECT_EQ(Lines[2], "int c;");
  // Each logical line maps to the physical line it starts on.
  ASSERT_EQ(R.Result.Map.Lines.size(), 3u);
  EXPECT_EQ(R.Result.Map.Lines[0].PhysLine, 1u);
  EXPECT_EQ(R.Result.Map.Lines[1].PhysLine, 5u);
  EXPECT_EQ(R.Result.Map.Lines[2].PhysLine, 6u);
  EXPECT_EQ(R.Result.Stats.LinesIn, 6u);
}

TEST(PpExpansion, FunctionLikeArgumentsSpanLines) {
  PpRun R = run("#define ADD(a, b) ((a) + (b))\n"
                "int v = ADD(1,\n"
                "            2);\n"
                "int w = ADD\n"
                "  (3, 4);\n"
                "int z;\n",
                {});
  ASSERT_TRUE(R.Result.Ok);
  std::vector<std::string> Lines = outputLines(R.Result);
  ASSERT_EQ(Lines.size(), 3u);
  // The invocation's lines fold into the line it starts on.
  EXPECT_EQ(Lines[0], "int v = ( ( 1 ) + ( 2 ) ) ;");
  EXPECT_EQ(Lines[1], "int w = ( ( 3 ) + ( 4 ) ) ;");
  EXPECT_EQ(Lines[2], "int z;");
  EXPECT_EQ(R.Result.Map.Lines[0].PhysLine, 2u);
  EXPECT_EQ(R.Result.Map.Lines[1].PhysLine, 4u);
  EXPECT_EQ(R.Result.Map.Lines[2].PhysLine, 6u);
  EXPECT_EQ(R.Result.Map.Lines[0].Macro, "ADD");
}

TEST(PpExpansion, NameEndingLineWithoutArgumentsIsKept) {
  // The next line is pulled in to look for `(`; it is not there, so the
  // name stays and the pulled line's tokens join this output line.
  PpRun R = run("#define F(a) [a]\n"
                "int v = F\n"
                "int w;\n"
                "int u;\n",
                {});
  ASSERT_TRUE(R.Result.Ok);
  std::vector<std::string> Lines = outputLines(R.Result);
  ASSERT_EQ(Lines.size(), 2u);
  EXPECT_EQ(Lines[0], "int v = F int w ;");
  EXPECT_EQ(Lines[1], "int u;");
  EXPECT_EQ(R.Result.Map.Lines[1].PhysLine, 4u);
  EXPECT_EQ(R.Result.Stats.Expansions, 0u);
}

TEST(PpExpansion, ExpansionCapDiagnosedOncePerLine) {
  std::string Src = "#define X0 z\n";
  for (int K = 1; K <= 6; ++K)
    Src += "#define X" + std::to_string(K) + " X" + std::to_string(K - 1) +
           " X" + std::to_string(K - 1) + "\n";
  Src += "int ok = X1;\nint v = X6;\n";
  pp::PpOptions Options;
  Options.MaxExpansionsPerLine = 8;
  PpRun R = run(Src, {}, Options);
  EXPECT_FALSE(R.Result.Ok);
  ASSERT_EQ(R.Diags.diagnostics().size(), 1u);
  const Diagnostic &D = R.Diags.diagnostics()[0];
  EXPECT_EQ(D.Message, "macro expansion limit exceeded on this line");
  EXPECT_EQ(D.File, "main.c");
  EXPECT_EQ(D.Loc.Line, 9u);
  // The budget runs out after exactly 8 expansions on the capped line;
  // the unexpanded rest of the line is emitted as it stands.
  EXPECT_EQ(R.Result.Stats.Expansions, 3u + 8u);
  std::vector<std::string> Lines = outputLines(R.Result);
  ASSERT_EQ(Lines.size(), 2u);
  EXPECT_EQ(Lines[0], "int ok = z z ;");
  EXPECT_NE(Lines[1].find("X"), std::string::npos);
}

TEST(PpFastPath, MacroFreeSourceIsEmittedVerbatim) {
  // Property: without a macro use, a directive, a comment or a line
  // splice, preprocessing is the identity and the line map is too. The
  // defined macros' names only appear inside longer identifiers and
  // literals.
  static const char *Pieces[] = {
      "int",   "x",  "FARM_BIASX", "_N",   "N_",   "NN",   "F2",    "42",
      "0x1F",  "1N", "\"N F(\"",   "'N'",  "'\\''", "(",   ")",     ",",
      ";",     "+",  "->",         "...",  "==",   "<<",   "{",     "}",
      "*",     "&&", "a.b",        "\\n",  "[",    "]",    "\"\\\"\"",
  };
  static const char *Gaps[] = {" ", "", "  ", "\t", " \t "};
  pp::PpOptions Options;
  Options.Defines = {"N=1", "FARM_BIAS=2", "F=3"};
  std::mt19937 Rng(20050612);
  for (int Trial = 0; Trial < 200; ++Trial) {
    std::string Src;
    unsigned NLines = 1 + Rng() % 12;
    for (unsigned L = 0; L < NLines; ++L) {
      unsigned NPieces = Rng() % 10;
      for (unsigned P = 0; P < NPieces; ++P) {
        Src += Gaps[Rng() % std::size(Gaps)];
        // Two identifier pieces never abut, or they would fuse into one.
        std::string Piece = Pieces[Rng() % std::size(Pieces)];
        if (!Src.empty() && (std::isalnum(static_cast<unsigned char>(
                                 Src.back())) ||
                             Src.back() == '_'))
          Src += ' ';
        Src += Piece;
      }
      Src += '\n';
    }
    PpRun R = run(Src, {}, Options);
    ASSERT_TRUE(R.Result.Ok) << Src;
    EXPECT_EQ(R.Result.Text, Src);
    EXPECT_EQ(R.Result.Stats.Expansions, 0u) << Src;
    ASSERT_EQ(R.Result.Map.Lines.size(), NLines) << Src;
    ASSERT_EQ(R.Result.Map.Files, std::vector<std::string>{"main.c"});
    EXPECT_EQ(R.Result.Map.Stacks.size(), 1u);
    for (unsigned L = 0; L < NLines; ++L) {
      const pp::LineInfo &Info = R.Result.Map.Lines[L];
      EXPECT_EQ(Info.FileId, 0u);
      EXPECT_EQ(Info.PhysLine, L + 1);
      EXPECT_EQ(Info.StackId, 0u);
      EXPECT_EQ(Info.Macro, "");
    }
  }
}

//===----------------------------------------------------------------------===//
// Golden PpResult digests
//===----------------------------------------------------------------------===//

/// FNV-1a over a length-prefixed serialization.
struct Digest {
  uint64_t H = 0xcbf29ce484222325ULL;
  void byte(uint8_t X) { H = (H ^ X) * 0x100000001b3ULL; }
  void num(uint64_t X) {
    for (int I = 0; I < 8; ++I)
      byte(static_cast<uint8_t>(X >> (I * 8)));
  }
  void str(const std::string &S) {
    num(S.size());
    for (char C : S)
      byte(static_cast<uint8_t>(C));
  }
  std::string hex() const {
    char Buf[17];
    std::snprintf(Buf, sizeof Buf, "%016llx",
                  static_cast<unsigned long long>(H));
    return Buf;
  }
};

/// Everything preprocess() returns or reports, folded into one digest:
/// the text, every LineInfo field, the file and stack tables, the stats,
/// the stream hash, Ok, and the rendered diagnostics in report order.
void digestRun(Digest &D, const pp::PpResult &R,
               const DiagnosticEngine &Diags) {
  D.str(R.Text);
  D.num(R.Map.Lines.size());
  for (const pp::LineInfo &L : R.Map.Lines) {
    D.num(L.FileId);
    D.num(L.PhysLine);
    D.num(L.StackId);
    D.str(L.Macro);
  }
  D.num(R.Map.Files.size());
  for (const std::string &F : R.Map.Files)
    D.str(F);
  D.num(R.Map.Stacks.size());
  for (const auto &S : R.Map.Stacks) {
    D.num(S.size());
    for (const pp::IncludeFrame &F : S) {
      D.str(F.File);
      D.num(F.Line);
    }
  }
  const pp::PpStats &S = R.Stats;
  for (uint64_t X : {S.Files, S.Includes, S.MacrosDefined, S.Expansions,
                     S.Conditionals, S.LinesIn, S.LinesOut})
    D.num(X);
  D.num(R.StreamHashA);
  D.num(R.StreamHashB);
  D.num(R.Ok);
  D.num(Diags.diagnostics().size());
  for (const Diagnostic &Diag : Diags.diagnostics())
    D.str(Diag.str());
}

/// One golden input: a main file, the files #include can reach, options.
struct GoldenCase {
  std::string Name;
  std::string MainName = "main.c";
  std::string Main;
  pp::FileMap Files;
  pp::PpOptions Options = {};
};

/// tests/corpus/c: every .c file is a TU; subject directories search
/// their include/ and lib/ directories like the corpus checks do.
void addCorpusCases(std::vector<GoldenCase> &Cases) {
  namespace fs = std::filesystem;
  const fs::path Root = STQ_C_CORPUS_DIR;
  pp::FileMap Files;
  for (const auto &E : fs::recursive_directory_iterator(Root)) {
    std::string Ext = E.path().extension().string();
    if (!E.is_regular_file() || (Ext != ".c" && Ext != ".h"))
      continue;
    std::ifstream In(E.path(), std::ios::binary);
    std::ostringstream SS;
    SS << In.rdbuf();
    Files[fs::relative(E.path(), Root).generic_string()] = SS.str();
  }
  ASSERT_GE(Files.size(), 20u);
  for (const auto &[Name, Text] : Files) {
    if (Name.size() < 2 || Name.compare(Name.size() - 2, 2, ".c") != 0)
      continue;
    GoldenCase C;
    C.Name = "corpus/" + Name;
    C.MainName = Name;
    C.Main = Text;
    C.Files = Files;
    std::string Dir = pp::dirName(Name);
    if (!Dir.empty())
      C.Options.IncludeDirs = {Dir + "/include", Dir + "/lib"};
    Cases.push_back(std::move(C));
  }
}

/// A small seeded farm (seed 3 plants a warning): every unit and main.
void addFarmCases(std::vector<GoldenCase> &Cases) {
  workloads::MultiTuProgram P = workloads::makeMultiTuFarm(6, 4, 3);
  pp::FileMap Headers;
  for (const auto &H : P.Headers)
    Headers[H.Name] = H.Text;
  for (const auto &U : P.Units)
    Cases.push_back({"farm/" + U.Name, U.Name, U.Text, Headers});
}

/// The inputs of the behavioral tests in this file (in-memory where the
/// test used the disk, so the digest does not depend on a temp path).
void addUnitTestCases(std::vector<GoldenCase> &Cases) {
  auto add = [&](std::string Name, std::string Main, pp::FileMap Files = {},
                 pp::PpOptions Options = {}) {
    Cases.push_back({"unit/" + Name, "main.c", std::move(Main),
                     std::move(Files), std::move(Options)});
  };
  add("ObjectAndFunctionLike",
      "#define N 10\n#define SQ(x) ((x) * (x))\nint v = SQ(N);\n");
  add("UndefStopsExpansion",
      "#define N 10\nint a = N;\n#undef N\nint b = N;\n");
  add("SelfReferential", "#define FOO (FOO + 1)\nint v = FOO;\n");
  add("MutuallyRecursive", "#define A B\n#define B A\nint v = A;\n");
  {
    std::string Src = "#define X0 z\n";
    for (int K = 1; K <= 8; ++K)
      Src += "#define X" + std::to_string(K) + " X" + std::to_string(K - 1) +
             " X" + std::to_string(K - 1) + "\n";
    Src += "int v = X8;\n";
    pp::PpOptions O;
    O.MaxExpansionsPerLine = 16;
    add("ExpansionsPerLineCapped", Src, {}, O);
  }
  {
    pp::PpOptions O;
    O.IncludeDirs = {"inc"};
    add("SearchPathAndLineMap", "#include \"ten.h\"\nint v = TEN;\n",
        {{"inc/ten.h", "#define TEN 10\nint ten = TEN;\n"}}, O);
  }
  {
    pp::FileMap Files = {{"sub/near.h", "int which = 1;\n"},
                         {"far/near.h", "int which = 2;\n"},
                         {"sub/main2.c", "#include \"near.h\"\n"}};
    pp::PpOptions O;
    O.IncludeDirs = {"far"};
    Cases.push_back({"unit/QuotedIncludeTriesIncluderDirFirst", "sub/main2.c",
                     Files["sub/main2.c"], Files, O});
  }
  {
    pp::FileMap Files = {{"first/nested.h", "int which = 1;\n"},
                         {"second/nested.h", "int which = 2;\n"},
                         {"sub/main3.c", "#include \"nested.h\"\n"}};
    pp::PpOptions O;
    O.IncludeDirs = {"first", "second"};
    Cases.push_back({"unit/QuotedIncludeFallsBackToSearchPath", "sub/main3.c",
                     Files["sub/main3.c"], Files, O});
  }
  {
    pp::PpOptions O;
    O.IncludeDirs = {"include"};
    add("DirectoryDoesNotSatisfyQuotedInclude",
        "#include \"util.h\"\nint v = util_marker;\n",
        {{"include/util.h",
          "#define FROM_INCLUDE 1\nint util_marker = FROM_INCLUDE;\n"}},
        O);
  }
  add("MissingHeader", "#include \"nope.h\"\nint after = 1;\n");
  {
    pp::PpOptions O;
    O.MaxIncludeDepth = 8;
    add("IncludeCycleCapped", "#include \"a.h\"\n",
        {{"a.h", "#include \"b.h\"\nint a;\n"},
         {"b.h", "#include \"a.h\"\nint b;\n"}},
        O);
    O.MaxIncludeDepth = 4;
    add("SelfIncludeCapped", "#include \"self.h\"\n",
        {{"self.h", "#include \"self.h\"\n"}}, O);
  }
  add("GuardedHeaderTwice", "#include \"g.h\"\n#include \"g.h\"\nint v = g;\n",
      {{"g.h", "#ifndef G_H\n#define G_H\nint g = 1;\n#endif\n"}});
  add("ElifChainAndDefined", "#define A 3\n#if A > 5\nint picked = 1;\n"
                             "#elif (A * 2) == 6 && defined(A)\n"
                             "int picked = 2;\n#else\nint picked = 3;\n"
                             "#endif\n");
  {
    pp::PpOptions O;
    O.Defines = {"FLAG", "VAL=7"};
    add("PredefinesFromOptions", "#ifdef FLAG\nint v = VAL;\n#endif\n", {}, O);
  }
  {
    pp::PpOptions O;
    O.MaxConditionalDepth = 4;
    std::string Src;
    for (int I = 0; I < 6; ++I)
      Src += "#if 1\n";
    Src += "int v = 1;\n";
    for (int I = 0; I < 6; ++I)
      Src += "#endif\n";
    add("NestingDepthCapped", Src, {}, O);
  }
  add("UnterminatedConditional", "#if 1\nint v = 1;\n");
  add("ErrorDirectiveSkipped", "#if 0\n#error dead\n#endif\nint v = 1;\n");
  add("ErrorDirectiveLive", "#error boom\n");
  {
    pp::PpOptions O;
    O.MaxErrors = 3;
    std::string Src;
    for (int I = 0; I < 20; ++I)
      Src += "#include \"missing" + std::to_string(I) + ".h\"\n";
    add("DiagnosticFloodCapped", Src, {}, O);
  }
  add("CommentBytesBecomeSpaces", "int /* gone */ x = 1;\n");
  add("StreamHashV1", "#include \"h.h\"\nint v = TEN;\n",
      {{"h.h", "#define TEN 10\n"}});
  add("StreamHashV2", "#include \"h.h\"\nint v = TEN;\n",
      {{"h.h", "#define TEN 12\n"}});
  {
    pp::PpOptions O;
    O.IncludeDirs = {"dir"};
    add("CollectIncludeClosure", "#include \"dep.h\"\nint v = dep;\n",
        {{"dir/dep.h", "int dep = 1;\n"}}, O);
  }
  add("RemapAddsMacroExpansionNote", "#include \"m.h\"\nint v = BAD;\n",
      {{"m.h", "#define BAD ] ]\n"}});
  add("LinkDef", "int pos f(int pos a) { return a; }\n");
  add("LinkUse", "int pos f(int pos a);\nint main() { return f(3) % 2; }\n");
  add("LinkMismatch", "int f(int pos a);\nint main() { return f(3) % 2; }\n");
  add("LinkDuplicate", "int pos f(int pos a) { return a * a; }\n");
}

/// Corner cases of line splicing, tokenizing, invocation collection,
/// hide sets, budgets, directives and #if evaluation.
void addEdgeCases(std::vector<GoldenCase> &Cases) {
  auto add = [&](std::string Name, std::string Main, pp::FileMap Files = {},
                 pp::PpOptions Options = {}) {
    Cases.push_back({"edge/" + Name, "main.c", std::move(Main),
                     std::move(Files), std::move(Options)});
  };
  add("Continuation", "int a = 1 + \\\n 2;\nint b;\n");
  add("DoubleBackslashSplice", "a\\\\\n\nb\n#define N 1\\\\\n\nN\n");
  add("TrailingBackslashNoNewline", "int x\\");
  add("TrailingSplice", "int y\\\n");
  add("EmptySplices", "\\\n\\\n\n\\\nint z;\n");
  add("NoTrailingNewline", "#define N 4\nint a = N");
  add("Empty", "");
  add("BlankLines", "\n\n  \n\t\n");
  add("CarriageReturns", "\t#\tdefine\tN\t2\r\nint v = N;\r\nint w;\r\n");
  add("NameAtEndThenParen", "#define F(a) [a]\nint v = F\n(1);\n");
  add("NameAtEndThenOther", "#define F(a) [a]\nint v = F\nint w;\nint u;\n");
  add("NameAtEndOfFile", "#define F(a) [a]\nint v = F\n");
  add("DirectiveInsideInvocation",
      "#define F(a) [a]\nint v = F(1,\n#define Q 1\n2);\nQ\n");
  add("UnterminatedAtEof", "#define F(x) x\nF(\n");
  add("UnterminatedInArgument", "#define F(x) x\n#define G(x) x\nF(G(1)\n");
  add("ArgumentCounts",
      "#define F(a) [a]\nF(1,2) F() F((1,2)) F(F(3)) F(,)\n"
      "#define E() e\nE() E( ) E(x) E(())\n"
      "#define T(a,b,c) a|b|c\nT(1,2,3) T(,,) T(1) T((a,b),[c,d],{e)\n");
  add("NestedInvocations",
      "#define F(a,b) a b\n#define G(x) F(x, x) G\nG(G(1))\n"
      "#define H(x) x(1)\nH(G) H(H) H(F)\n");
  add("ArgumentHideSets",
      "#define f(a) a*g\n#define g(a) f(a)\nf(2)(9)\n"
      "#define AA BB\n#define BB(x) x AA\nAA(1) AA (2) AA\n(3)\n");
  add("LiteralsAndIdentifiers",
      "#define STR \"A\"\n#define A 1\n#define FARM_BIAS 3\n"
      "char *s = \"A\" STR 'A' A '\\'' A \"\\\"A\" A;\n"
      "int FARM_BIASX = XFARM_BIAS + 1FARM_BIAS + FARM_BIAS;\n"
      "char *u = \"A A\nint A;\n");
  add("PpNumbers",
      "#define e 1\n#define x 2\nint v = 1e+e 0x1e 1.e x1 .5e x;\n");
  add("Punctuation",
      "#define P a->b...c==d!=e<=f>=g&&h||i=>j<<k>>l.m..n%o^p\nP\n"
      "#define Q(a) a\nQ(->)Q(...)Q(<<=)Q(>>=)Q(=)Q(.)\n");
  add("NonAscii", "#define N 1\nint \xc3\xa9 = N;\nint \xff\xfe;\n");
  add("ObjectLikeParenBody", "#define F (a) a\nF\nF(1)\n");
  add("Redefinition", "#define A 1\n#define A 2\nA\n#undef A\nA\n");
  add("BadDirectives",
      "#define\n#define 1\n#define F(\n#define F(a\n#define F(a,\n"
      "#define F(1)\n#define F(a,a) a\nF(1,2)\n#define V(...) x\n"
      "#define P # x ## y\nP\n#undef\n#undef 3\n#ifdef\n#endif\n#ifndef 4\n"
      "#endif\n#bogus\n#\n  #  \n#pragma once\n#error\n#error  some text\n"
      "#include\n#include x\n#include \"unterminated\n#include <>\n"
      "#include \"\"\n#elif 1\n#else\n#endif\n#if 1\n#else\n#else\n#elif 1\n"
      "#endif\n");
  add("Conditions",
      "#define A 1\n#define B(x) x\n#define C A + B(2)\n"
      "#if A == 1 && defined A && !defined(Z) && defined ( B )\nint a1;\n"
      "#elif X\nint a2;\n#else\nint a3;\n#endif\n"
      "#if C == 3 && 'a' == 97 && '\\n' == 'n' && 0x10 == 16 && 10u == 10L\n"
      "int b1;\n#endif\n"
      "#if (1 ? 2 : 0) == 2 && -1 < 0 && ~0 == -1 && 7 % 3 == 1 && 7 / 2 == 3"
      " && (1 << 0) == 1\nint c1;\n#endif\n"
      "#if 1 +\n#endif\n#if (1\n#endif\n#if 1 ? 2\n#endif\n#if 1 / 0\n"
      "#endif\n#if 1 % 0\n#endif\n#if 1 2\n#endif\n#if 12abc\n#endif\n"
      "#if defined\n#endif\n#if defined(\n#endif\n#if \"s\"\n#endif\n#if\n"
      "#endif\n#if B(\n#endif\n#if 0\n#if garbage((\n#else\n#error no\n"
      "#endif\n#elif 1\nint d1;\n#endif\n");
  {
    std::string Deep = "#if ";
    for (int I = 0; I < 300; ++I)
      Deep += "(";
    Deep += "1\n#endif\n#if ";
    for (int I = 0; I < 300; ++I)
      Deep += "- ";
    Deep += "1\n#endif\n";
    add("DeepCondition", Deep);
  }
  {
    std::string Src = "#define X0 z\n";
    for (int K = 1; K <= 5; ++K)
      Src += "#define X" + std::to_string(K) + " X" + std::to_string(K - 1) +
             " X" + std::to_string(K - 1) + "\n";
    Src += "#define F(a) a a\n#define G(a, b) F(a) b\n"
           "F(X4) F(X4)\nG(X3, X3) X1\nG(F(X2), G(X2, X2)) F\n(X1)\n"
           "#if X5 + F(X3)\n#endif\n";
    pp::PpOptions O;
    O.MaxExpansionsPerLine = 5;
    add("NestedBudget", Src, {}, O);
    O.MaxExpansionsPerLine = 0;
    add("ZeroBudget", Src, {}, O);
  }
  {
    pp::PpOptions O;
    O.MaxErrors = 3;
    add("ErrorFloodFromMacros",
        "#define F(a) a\nF(1,2) F(1,2)\nF(1,2)\nF(1,2)\nF(1,2)\n", {}, O);
  }
  {
    pp::PpOptions O;
    O.Defines = {"A", "B=A+1", "=x", "1x=2", "C=", "D=F(", "a-b=3", "A=9"};
    add("Predefines", "A B C D a-b\n#if B == 10\nint ok;\n#endif\n", {}, O);
  }
  {
    pp::FileMap Files = {
        {"inc/a.h", "#define AH 1\nint a = AH;\n#include \"b/b.h\"\nint a2;\n"},
        {"inc/b/b.h", "#pragma once\nint b = BH;\n#include \"../c.h\"\n"},
        {"inc/c.h", "#if 0\nint hidden;\n#endif\n#define BH 2\n"},
        {"inc/empty.h", ""},
        {"inc/noline.h", "int noline"},
        {"inc/skipped.h", "#if 0\nint s;\n#endif\n"}};
    pp::PpOptions O;
    O.IncludeDirs = {"inc"};
    add("IncludeStacks",
        "#include \"a.h\"\nint m = AH + BH;\n#include <b/b.h>\n"
        "#include \"skipped.h\"\n#include \"empty.h\"\n#include \"noline.h\"\n"
        "#include \"a.h\"\n#include </abs.h>\n#include <missing.h>\nint end;\n",
        Files, O);
  }
  add("CommentsAndLiterals",
      "int a = 1; // N F(\n#define N /* x */ 2 // y\n"
      "int b = N /* N */ + \"/* N */\" + '/' + N; /* multi\nline N\n */ N\n"
      "char *c = \"//\" N; // \\\nstill comment N\nint d = N;\n");
}

/// Deterministic random sources over a small alphabet of macro uses,
/// directives, literals, comments and splices (std::mt19937 output is
/// fixed by the standard, so the inputs are the same on every host).
void addRandomCases(std::vector<GoldenCase> &Cases) {
  static const char *Pieces[] = {
      "A",  "B",  "F",   "G",    "H",    "x",     "AA",   "A_",   "_A",
      "1",  "0x2", "\"A F(\"", "'A'", "'\\''", "(",  ")",    "(",    ")",
      ",",  ",",  "+",   "*",    ";",    "->",    "...",  "#",    "##",
      "/* A */", "// F(", "\\\n", "\n", "\n",  "  ",   "\t",   "\"",   "'",
  };
  static const char *Lines[] = {
      "#define A B\n",       "#define A 1\n",         "#define B A x\n",
      "#define F(a,b) a+b\n", "#define G(x) F(x,x)\n", "#define H() A\n",
      "#define F(a) G(a) a\n", "#undef A\n",           "#undef F\n",
      "#if defined(A) && B\n", "#ifdef F\n",           "#ifndef G\n",
      "#else\n",             "#endif\n",              "#elif 1\n",
      "#if F(1,2)\n",        "#error x A\n",          "#include \"h.h\"\n",
      "#pragma x\n",         "#bogus\n",              "# define G(x) [x]\n",
  };
  pp::FileMap Files = {
      {"h.h", "#define H() (A)\nint h = H() + G(1);\n#define x y\n"}};
  std::mt19937 Rng(71);
  for (int Trial = 0; Trial < 300; ++Trial) {
    std::string Src;
    unsigned N = 5 + Rng() % 60;
    for (unsigned I = 0; I < N; ++I) {
      if (Rng() % 5 == 0)
        Src += Lines[Rng() % std::size(Lines)];
      else {
        Src += Pieces[Rng() % std::size(Pieces)];
        Src += Rng() % 2 ? " " : "";
      }
    }
    pp::PpOptions O;
    unsigned Budgets[] = {4096, 7, 2};
    O.MaxExpansionsPerLine = Budgets[Rng() % 3];
    O.MaxErrors = Rng() % 2 ? 64 : 4;
    O.MaxIncludeDepth = 3;
    Cases.push_back({"random/" + std::to_string(Trial), "main.c", Src, Files,
                     O});
  }
}

/// Digests recorded from the token-vector preprocessor the in-place one
/// replaced; any change to what preprocess() returns or reports shows up
/// here. The old code read a freed token when a function-like macro name
/// ended a line and the next line did not open its arguments (it dropped
/// or garbled the name); edge/NameAtEndThenOther and random/all are
/// recorded with that read corrected, every other digest as it was.
const std::map<std::string, std::string> &goldenDigests() {
  static const std::map<std::string, std::string> Golden = {
      {"corpus/alpha.c", "31a893863d253490"},
      {"corpus/beta.c", "0460b9dc7f97bec9"},
      {"corpus/bftpd/commands.c", "634d12797427487b"},
      {"corpus/bftpd/list.c", "efdcc5531dfaee46"},
      {"corpus/bftpd/log.c", "37dee5a704653c14"},
      {"corpus/bftpd/main.c", "f3cf5638c9052324"},
      {"corpus/chain.c", "465fb08273584f1e"},
      {"corpus/dfa.c", "5633fefc183d2f96"},
      {"corpus/grep-dfa/dfa_analyze.c", "84170a11ae747414"},
      {"corpus/grep-dfa/dfa_build.c", "376c3bbf5ba96d83"},
      {"corpus/grep-dfa/dfa_lookup.c", "17beee7415964a64"},
      {"corpus/grep-dfa/main.c", "6632f5738de653d9"},
      {"corpus/identd/main.c", "18b12d6eea230bc8"},
      {"corpus/identd/reply.c", "2cdc3193d414c372"},
      {"corpus/identd/request.c", "da9c5f4db005d6fd"},
      {"corpus/main.c", "a3ac9cd408745c27"},
      {"corpus/mingetty/getty.c", "6e7719ea3d90a15e"},
      {"corpus/mingetty/log.c", "e711ceb04006ee0b"},
      {"corpus/mingetty/main.c", "2119201caf435147"},
      {"edge/ArgumentCounts", "1c6863623178a563"},
      {"edge/ArgumentHideSets", "5e270187df540fd5"},
      {"edge/BadDirectives", "8907845dfd246048"},
      {"edge/BlankLines", "4e1ae7f8c14a741b"},
      {"edge/CarriageReturns", "ad2ebda9d27076f7"},
      {"edge/CommentsAndLiterals", "dbbc44f3fd8105ad"},
      {"edge/Conditions", "2f574174eae6521c"},
      {"edge/Continuation", "fbe55deb468cb5ac"},
      {"edge/DeepCondition", "227fc90eefd7170b"},
      {"edge/DirectiveInsideInvocation", "53bca8c4d1e6d68b"},
      {"edge/DoubleBackslashSplice", "b76ee93013e7267b"},
      {"edge/Empty", "9e4288275fbe4c84"},
      {"edge/EmptySplices", "7ad7224d040b3a90"},
      {"edge/ErrorFloodFromMacros", "48fb72dd2c1bc69a"},
      {"edge/IncludeStacks", "984c5e3e93378a3d"},
      {"edge/LiteralsAndIdentifiers", "8755a83cca61bf06"},
      {"edge/NameAtEndOfFile", "8e8229f1c5766ccb"},
      {"edge/NameAtEndThenOther", "299882ed18f4db70"},
      {"edge/NameAtEndThenParen", "fd3a1789aaf93e82"},
      {"edge/NestedBudget", "20f5a1d61daef59f"},
      {"edge/NestedInvocations", "6e9fbd8b74b9287e"},
      {"edge/NoTrailingNewline", "708dd3f1e8c14e48"},
      {"edge/NonAscii", "485f876e07446c51"},
      {"edge/ObjectLikeParenBody", "9e29fdfc513802ed"},
      {"edge/PpNumbers", "57df8e757cbcce6f"},
      {"edge/Predefines", "4d865216a9ba5844"},
      {"edge/Punctuation", "f7feaca9e30988a1"},
      {"edge/Redefinition", "8ef9e9235ce13c87"},
      {"edge/TrailingBackslashNoNewline", "f10b85e77b9add94"},
      {"edge/TrailingSplice", "450d998a2787200b"},
      {"edge/UnterminatedAtEof", "7bf560c7d10e2bad"},
      {"edge/UnterminatedInArgument", "ded4e1674fa38ada"},
      {"edge/ZeroBudget", "468a62865aa26242"},
      {"farm/main.c", "4e14fc6d2baa7e7d"},
      {"farm/u0.c", "e379f7518ac89afa"},
      {"farm/u1.c", "b074627985593e2b"},
      {"farm/u2.c", "c8d81b14b6df3b43"},
      {"farm/u3.c", "7127b96205511025"},
      {"farm/u4.c", "e6fef4d783a970ee"},
      {"farm/u5.c", "2294bd0da9d03d03"},
      {"random/all", "8935df189a5c4080"},
      {"unit/CollectIncludeClosure", "1cf8d802327899f6"},
      {"unit/CommentBytesBecomeSpaces", "8a0c6405f31bee45"},
      {"unit/DiagnosticFloodCapped", "17cc98ab3f49c201"},
      {"unit/DirectoryDoesNotSatisfyQuotedInclude", "7ac7fe32b001850b"},
      {"unit/ElifChainAndDefined", "db330a8465ae3ce3"},
      {"unit/ErrorDirectiveLive", "576800acc35441c1"},
      {"unit/ErrorDirectiveSkipped", "5a7cfdf9878e3437"},
      {"unit/ExpansionsPerLineCapped", "a7b77edb4045dc12"},
      {"unit/GuardedHeaderTwice", "478c2a60fa4aa9e5"},
      {"unit/IncludeCycleCapped", "653dbeb5a17ee509"},
      {"unit/LinkDef", "74df8feff4e1c1d2"},
      {"unit/LinkDuplicate", "5dad841eb0829127"},
      {"unit/LinkMismatch", "8be6321204ed9488"},
      {"unit/LinkUse", "90264b87d671c34f"},
      {"unit/MissingHeader", "cf3b2346ba1fc540"},
      {"unit/MutuallyRecursive", "88a26ad0ffb94e7e"},
      {"unit/NestingDepthCapped", "7d0346aedc2a2f57"},
      {"unit/ObjectAndFunctionLike", "58e60db706ff2c65"},
      {"unit/PredefinesFromOptions", "21ef0045d6f74892"},
      {"unit/QuotedIncludeFallsBackToSearchPath", "cd085e35017cbd60"},
      {"unit/QuotedIncludeTriesIncluderDirFirst", "8be92b58aa38889a"},
      {"unit/RemapAddsMacroExpansionNote", "4aa4d2916bcc0d1a"},
      {"unit/SearchPathAndLineMap", "405bb114e4d471eb"},
      {"unit/SelfIncludeCapped", "0c1738b6922013bd"},
      {"unit/SelfReferential", "07aada2911a03b82"},
      {"unit/StreamHashV1", "d737469c94bd36fb"},
      {"unit/StreamHashV2", "7a2369183ec22084"},
      {"unit/UndefStopsExpansion", "23de9fdc480cb536"},
      {"unit/UnterminatedConditional", "d0c0187ded3daf7a"},
  };
  return Golden;
}

TEST(PpGolden, ResultDigestsMatchRecorded) {
  std::vector<GoldenCase> Cases;
  addCorpusCases(Cases);
  addFarmCases(Cases);
  addUnitTestCases(Cases);
  addEdgeCases(Cases);
  addRandomCases(Cases);

  // Random cases fold into one digest; every other case has its own.
  std::map<std::string, std::string> Actual;
  Digest RandomAll;
  for (const GoldenCase &C : Cases) {
    pp::MemoryResolver Resolver(C.Files);
    DiagnosticEngine Diags;
    pp::PpResult R =
        pp::preprocess(C.MainName, C.Main, Resolver, C.Options, Diags);
    if (C.Name.rfind("random/", 0) == 0) {
      digestRun(RandomAll, R, Diags);
      continue;
    }
    Digest D;
    digestRun(D, R, Diags);
    Actual[C.Name] = D.hex();
  }
  Actual["random/all"] = RandomAll.hex();

  std::string Table;
  for (const auto &[Name, Hex] : Actual)
    Table += "      {\"" + Name + "\", \"" + Hex + "\"},\n";
  EXPECT_EQ(Actual, goldenDigests()) << "actual digests:\n" << Table;
}

//===----------------------------------------------------------------------===//
// Multi-TU front end: remapping and link checks
//===----------------------------------------------------------------------===//

frontend::CompileOptions compileOpts(const pp::FileMap *Files = nullptr) {
  frontend::CompileOptions CO;
  CO.Files = Files;
  CO.QualNames = {"pos", "neg"};
  return CO;
}

TEST(Frontend, RemapAddsMacroExpansionNote) {
  // BAD expands to a parse error, so the TU-local diagnostic lands on a
  // macro-rewritten line; the remap must attribute it to tu.c line 2 and
  // append the macro-expansion note.
  pp::FileMap Files = {{"m.h", "#define BAD ] ]\n"}};
  frontend::CompileOptions CO = compileOpts(&Files);
  DiagnosticEngine Diags;
  frontend::TUnit U = frontend::compileUnit(
      "tu.c", "#include \"m.h\"\nint v = BAD;\n", CO, Diags);
  EXPECT_FALSE(U.FrontEndOk);
  ASSERT_FALSE(Diags.diagnostics().empty());
  std::vector<Diagnostic> Ds = Diags.diagnostics();
  frontend::remapDiagnostics(Ds, 0, U.Name, U.Pp.Map);
  bool SawRemapped = false, SawNote = false;
  for (const Diagnostic &D : Ds) {
    if (D.Severity == DiagSeverity::Error && D.File == "tu.c" &&
        D.Loc.Line == 2)
      SawRemapped = true;
    if (D.Severity == DiagSeverity::Note &&
        D.Message.find("macro 'BAD'") != std::string::npos)
      SawNote = true;
  }
  EXPECT_TRUE(SawRemapped);
  EXPECT_TRUE(SawNote);
}

TEST(Frontend, RemapKeepsOrderAndFollowsEachDiagnosticWithItsNotes) {
  pp::LineMap Map;
  Map.Files = {"tu.c", "h.h"};
  Map.Stacks = {{}, {{"tu.c", 4}}};
  Map.Lines = {{0, 1, 0, ""}, {1, 7, 1, ""}, {0, 3, 0, "M"}};
  auto diag = [](DiagSeverity S, unsigned Line, std::string Msg) {
    Diagnostic D;
    D.Severity = S;
    D.Loc = Line ? SourceLoc(Line, 2) : SourceLoc();
    D.Message = std::move(Msg);
    return D;
  };
  std::vector<Diagnostic> Ds = {
      diag(DiagSeverity::Error, 2, "before From"),
      diag(DiagSeverity::Warning, 2, "in header"),
      diag(DiagSeverity::Note, 0, "bare note"),
      diag(DiagSeverity::Error, 3, "in macro"),
      diag(DiagSeverity::Error, 1, "plain"),
      diag(DiagSeverity::Error, 0, "unit-level"),
      diag(DiagSeverity::Error, 9, "past the map")};
  Ds[1].Phase = "qualcheck";
  frontend::remapDiagnostics(Ds, 1, "tu.c", Map);
  std::vector<std::string> Got;
  for (const Diagnostic &D : Ds)
    Got.push_back(D.str());
  EXPECT_EQ(Got, (std::vector<std::string>{
                     "2:2: error: before From",
                     "h.h:7:2: warning [qualcheck]: in header",
                     "note [frontend]: in file included from tu.c:4",
                     "note: bare note",
                     "tu.c:3:2: error: in macro",
                     "note [frontend]: in expansion of macro 'M' (column is "
                     "post-expansion)",
                     "tu.c:1:2: error: plain",
                     "tu.c: error: unit-level",
                     "tu.c:9:2: error: past the map",
                 }));
}

/// Compiles each (name, text) pair as its own TU and links them; returns
/// every link diagnostic rendered as stqc prints it.
std::vector<std::string>
linkMessages(const std::vector<std::pair<std::string, std::string>> &Srcs,
             bool ExpectOk) {
  frontend::CompileOptions CO = compileOpts();
  std::vector<frontend::TUnit> TUs;
  for (const auto &[Name, Text] : Srcs) {
    DiagnosticEngine D;
    TUs.push_back(frontend::compileUnit(Name, Text, CO, D));
    EXPECT_TRUE(TUs.back().FrontEndOk) << Name;
  }
  DiagnosticEngine Link;
  EXPECT_EQ(frontend::linkUnits(TUs, Link), ExpectOk);
  std::vector<std::string> Out;
  for (const Diagnostic &D : Link.diagnostics()) {
    EXPECT_EQ(D.Phase, "link");
    Out.push_back(D.str());
  }
  return Out;
}

TEST(Frontend, LinkAcceptsAgreeingPrototype) {
  EXPECT_EQ(
      linkMessages({{"def.c", "int pos f(int pos a) { return a; }\n"},
                    {"use.c", "int pos f(int pos a);\n"
                              "int main() { return f(3) % 2; }\n"}},
                   true),
      std::vector<std::string>{});
}

TEST(Frontend, LinkRejectsQualifierSignatureMismatch) {
  // The caller's prototype drops the return qualifier: exactly the
  // cross-TU bug the link step exists to catch.
  EXPECT_EQ(
      linkMessages({{"def.c", "int pos f(int pos a) { return a; }\n"},
                    {"use.c", "int f(int pos a);\n"
                              "int main() { return f(3) % 2; }\n"}},
                   false),
      std::vector<std::string>{
          "use.c:1:1: error [link]: qualifier signature mismatch for "
          "function 'f': 'int pos (int pos)' (def.c) vs 'int (int pos)' "
          "(use.c)"});
}

TEST(Frontend, LinkRejectsDuplicateDefinition) {
  EXPECT_EQ(
      linkMessages({{"one.c", "int pos f(int pos a) { return a; }\n"},
                    {"two.c", "int pos f(int pos a) { return a * a; }\n"}},
                   false),
      std::vector<std::string>{"two.c:1:1: error [link]: duplicate "
                               "definition of function 'f' (already "
                               "defined in one.c)"});
}

TEST(Frontend, LinkRejectsConflictingGlobals) {
  EXPECT_EQ(linkMessages({{"a.c", "int pos g = 1;\nint* h;\n"},
                          {"b.c", "int g = 2;\nint* h;\n"}},
                         false),
            (std::vector<std::string>{
                "b.c:1:1: error [link]: conflicting definitions of global "
                "'g': 'int pos' (a.c) vs 'int' (b.c)",
                "b.c:2:1: error [link]: duplicate definition of global 'h' "
                "(already defined in a.c)"}));
}

TEST(Frontend, LinkRejectsConflictingStructs) {
  EXPECT_EQ(
      linkMessages({{"a.c", "struct s { int a; char* b; };\n"},
                    {"b.c", "struct s { int a; char* b; };\n"},
                    {"c.c", "struct s { int pos a; char* b; };\n"}},
                   false),
      std::vector<std::string>{
          "c.c:1:1: error [link]: conflicting definitions of struct 's': "
          "'{ int a; char* b; }' (a.c) vs '{ int pos a; char* b; }' (c.c)"});
}

/// Collects every declared type of \p P.
void collectTypes(const cminus::Program &P,
                  std::vector<cminus::TypePtr> &Out) {
  for (const cminus::VarDecl *G : P.Globals)
    Out.push_back(G->DeclaredTy);
  for (const cminus::StructDef *S : P.Structs)
    for (const auto &F : S->Fields)
      Out.push_back(F.Ty);
  for (const cminus::FuncDecl *F : P.Functions) {
    Out.push_back(F->RetTy);
    for (const cminus::VarDecl *Param : F->Params)
      Out.push_back(Param->DeclaredTy);
  }
}

TEST(Frontend, StructuralLinkVerdictMatchesRenderedSignatures) {
  // The link step compares declarations structurally instead of by their
  // rendered spelling; over random pairs drawn from two farm TUs (each with
  // its own type context), both verdicts must agree.
  workloads::FarmSpec Spec;
  Spec.Units = 4;
  Spec.FnsPerUnit = 16;
  Spec.Seed = 3;
  Spec.CallFanOut = 3;
  pp::FileMap Headers = {{"farm.h", workloads::makeFarmHeader(Spec)}};
  frontend::CompileOptions CO = compileOpts(&Headers);
  std::vector<frontend::TUnit> TUs;
  for (unsigned U = 1; U < Spec.Units; U += 2) {
    workloads::MultiTuProgram::File F = workloads::makeFarmUnit(Spec, U);
    DiagnosticEngine D;
    TUs.push_back(frontend::compileUnit(F.Name, F.Text, CO, D));
    ASSERT_TRUE(TUs.back().FrontEndOk) << F.Name;
  }
  // Prototypes whose signatures differ from the farm's in one place each.
  DiagnosticEngine VD;
  TUs.push_back(frontend::compileUnit(
      "variants.c",
      "int f0(int pos a);\nint pos f1(int a);\nint pos f2(int pos a, ...);\n"
      "int pos f3(int pos a, int b);\nint pos* f4(int pos a);\n"
      "void f5(void);\nvoid f6(...);\nchar* neg f7(char* pos* p);\n",
      CO, VD));
  ASSERT_TRUE(TUs.back().FrontEndOk);
  std::vector<cminus::TypePtr> Types;
  std::vector<const cminus::FuncDecl *> Fns;
  for (const frontend::TUnit &U : TUs) {
    collectTypes(*U.Program, Types);
    Fns.insert(Fns.end(), U.Program->Functions.begin(),
               U.Program->Functions.end());
  }
  // Derived types widen the pool: qualifier sets the farm leaves out.
  size_t Declared = Types.size();
  for (size_t I = 0; I < Declared; ++I) {
    Types.push_back(cminus::Type::withQual(Types[I], "neg"));
    Types.push_back(cminus::Type::getPointer(Types[I]));
  }
  std::mt19937 Rng(3);
  unsigned Equal = 0;
  for (unsigned I = 0; I < 4000; ++I) {
    cminus::TypePtr A = Types[Rng() % Types.size()];
    cminus::TypePtr B = Types[Rng() % Types.size()];
    bool Same = A->str() == B->str();
    Equal += Same;
    EXPECT_EQ(cminus::Type::equals(A, B), Same)
        << A->str() << " vs " << B->str();
  }
  unsigned SameSig = 0;
  for (unsigned I = 0; I < 4000; ++I) {
    const cminus::FuncDecl *F = Fns[Rng() % Fns.size()];
    const cminus::FuncDecl *G = Fns[Rng() % Fns.size()];
    bool Same = frontend::signatureOf(*F) == frontend::signatureOf(*G);
    SameSig += Same;
    EXPECT_EQ(frontend::sameSignature(*F, *G), Same)
        << frontend::signatureOf(*F) << " vs " << frontend::signatureOf(*G);
  }
  // Both outcomes occur, so neither verdict is vacuous.
  EXPECT_GT(Equal, 0u);
  EXPECT_LT(Equal, 4000u);
  EXPECT_GT(SameSig, 0u);
  EXPECT_LT(SameSig, 4000u);
}

} // namespace
