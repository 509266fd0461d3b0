//===- test_parser_robustness.cpp - Error recovery on malformed input -----===//
//
// Both front ends (the C-minus parser and the qualifier-DSL parser) are
// fuzzed continuously by stq-fuzz; these tests pin the specific hardening
// contracts directly: recursion depth is capped (no native-stack overflow
// on adversarial nesting), diagnostic floods are capped, and truncated or
// byte-garbled input is diagnosed, never crashed on.
//
//===----------------------------------------------------------------------===//

#include "cminus/Parser.h"
#include "qual/QualParser.h"
#include "support/Lexer.h"

#include <gtest/gtest.h>

#include <string>

using namespace stq;

namespace {

/// Parse diagnostics only (the recovery caps count per parser run).
unsigned countDiags(const DiagnosticEngine &Diags) {
  return static_cast<unsigned>(Diags.diagnostics().size());
}

//===----------------------------------------------------------------------===//
// C-minus parser: nesting depth
//===----------------------------------------------------------------------===//

TEST(ParserRobustness, DeepParensAreDiagnosedNotOverflowed) {
  std::string Src = "int main() {\n  int x = " + std::string(2000, '(') +
                    "1" + std::string(2000, ')') + ";\n  return x;\n}\n";
  DiagnosticEngine Diags;
  auto Prog = cminus::parseProgram(Src, {}, Diags);
  ASSERT_NE(Prog, nullptr);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(ParserRobustness, DeepUnaryTowerIsDiagnosedNotOverflowed) {
  // Unary operators recurse into parseUnary directly, bypassing
  // parseExpr — the guard must cover that path too.
  std::string Src = "int main() {\n  int x = ";
  for (int I = 0; I < 2000; ++I)
    Src += "- ";
  Src += "1;\n  return x;\n}\n";
  DiagnosticEngine Diags;
  auto Prog = cminus::parseProgram(Src, {}, Diags);
  ASSERT_NE(Prog, nullptr);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(ParserRobustness, DeepBlocksAreDiagnosedNotOverflowed) {
  std::string Src = "int main() {\n";
  for (int I = 0; I < 1500; ++I)
    Src += "{\n";
  Src += "int x = 1;\n";
  for (int I = 0; I < 1500; ++I)
    Src += "}\n";
  Src += "  return 0;\n}\n";
  DiagnosticEngine Diags;
  auto Prog = cminus::parseProgram(Src, {}, Diags);
  ASSERT_NE(Prog, nullptr);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(ParserRobustness, ModerateNestingStaysClean) {
  // The cap must not bite ordinary programs: 50 levels is deep by human
  // standards and far below the limit.
  std::string Src = "int main() {\n  int x = " + std::string(50, '(') + "1" +
                    std::string(50, ')') + ";\n  return x;\n}\n";
  DiagnosticEngine Diags;
  auto Prog = cminus::parseProgram(Src, {}, Diags);
  ASSERT_NE(Prog, nullptr);
  EXPECT_FALSE(Diags.hasErrors());
}

//===----------------------------------------------------------------------===//
// C-minus parser: floods, truncation, byte garbage
//===----------------------------------------------------------------------===//

TEST(ParserRobustness, DiagnosticFloodIsCapped) {
  // Thousands of malformed statements; without the cap this would emit
  // one diagnostic per token.
  std::string Src = "int main() {\n";
  for (int I = 0; I < 3000; ++I)
    Src += "  @ # $ ;\n";
  Src += "}\n";
  DiagnosticEngine Diags;
  auto Prog = cminus::parseProgram(Src, {}, Diags);
  ASSERT_NE(Prog, nullptr);
  EXPECT_TRUE(Diags.hasErrors());
  // Lexer + parser each cap independently; the point is the flood stays
  // bounded instead of scaling with input size.
  EXPECT_LE(countDiags(Diags), 200u);
}

TEST(ParserRobustness, TruncatedProgramsNeverCrash) {
  const std::string Full = "struct S {\n"
                           "  int pos count;\n"
                           "  int* next;\n"
                           "};\n"
                           "int pos get(struct S* nonnull p) {\n"
                           "  return p->count;\n"
                           "}\n"
                           "int main() {\n"
                           "  struct S s;\n"
                           "  s.count = 3;\n"
                           "  return get(&s);\n"
                           "}\n";
  for (size_t Len = 0; Len <= Full.size(); Len += 7) {
    DiagnosticEngine Diags;
    auto Prog =
        cminus::parseProgram(Full.substr(0, Len), {"pos", "nonnull"}, Diags);
    ASSERT_NE(Prog, nullptr) << "prefix length " << Len;
  }
}

TEST(ParserRobustness, StrayBytesAreDiagnosedNotCrashedOn) {
  std::string Src = "int main() {\n  int x = 1;\n";
  Src += '\0';
  Src += "\xff\x01\x80";
  Src += "\n  return x;\n}\n";
  DiagnosticEngine Diags;
  auto Prog = cminus::parseProgram(Src, {}, Diags);
  ASSERT_NE(Prog, nullptr);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(ParserRobustness, IntegerLiteralRangeIsChecked) {
  // The largest representable literal lexes exactly, in either base.
  for (const char *Src : {"9223372036854775807", "0x7fffffffffffffff",
                          "0x7FFFFFFFFFFFFFFF"}) {
    DiagnosticEngine Diags;
    std::vector<Token> Toks = Lexer(Src, Diags).tokenize();
    EXPECT_FALSE(Diags.hasErrors()) << Src;
    ASSERT_EQ(Toks.size(), 2u) << Src;
    EXPECT_EQ(Toks[0].IntValue, INT64_MAX) << Src;
  }
  // One past it, and far past it, are diagnosed instead of wrapping
  // (18446744073709551615 used to come out as -1). The literal in
  // `-9223372036854775808` is out of range too: the minus is a separate
  // operator.
  for (const char *Src :
       {"9223372036854775808", "18446744073709551615", "0x8000000000000000",
        "0xffffffffffffffffff", "123456789012345678901234567890",
        "-9223372036854775808"}) {
    DiagnosticEngine Diags;
    Lexer(Src, Diags).tokenize();
    ASSERT_EQ(Diags.diagnostics().size(), 1u) << Src;
    EXPECT_EQ(Diags.diagnostics()[0].Message, "integer literal out of range")
        << Src;
  }
  // Through the parser: the program is rejected, not silently miscompiled.
  DiagnosticEngine Diags;
  auto Prog = cminus::parseProgram(
      "int main() { int x = 18446744073709551615; return x; }\n", {}, Diags);
  ASSERT_NE(Prog, nullptr);
  EXPECT_TRUE(Diags.hasErrors());
}

//===----------------------------------------------------------------------===//
// Qualifier-DSL parser
//===----------------------------------------------------------------------===//

TEST(QualParserRobustness, DeepPredicateNestingIsDiagnosed) {
  std::string Src = "value qualifier deep(int Expr E)\n"
                    "  case E of\n"
                    "    decl int Const C:\n"
                    "      C, where " +
                    std::string(1200, '(') + "C > 0" +
                    std::string(1200, ')') + "\n";
  qual::QualifierSet Set;
  DiagnosticEngine Diags;
  EXPECT_FALSE(qual::parseQualifiers(Src, Set, Diags));
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(QualParserRobustness, DeepInvariantNestingIsDiagnosed) {
  std::string Src = "value qualifier deepinv(int Expr E)\n"
                    "  case E of\n"
                    "    decl int Const C:\n"
                    "      C, where C > 0\n"
                    "  invariant " +
                    std::string(1200, '(') + "value(E) > 0" +
                    std::string(1200, ')') + "\n";
  qual::QualifierSet Set;
  DiagnosticEngine Diags;
  EXPECT_FALSE(qual::parseQualifiers(Src, Set, Diags));
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(QualParserRobustness, ModeratePredicateNestingStaysClean) {
  std::string Src = "value qualifier ok(int Expr E)\n"
                    "  case E of\n"
                    "    decl int Const C:\n"
                    "      C, where " +
                    std::string(50, '(') + "C > 0" + std::string(50, ')') +
                    "\n";
  qual::QualifierSet Set;
  DiagnosticEngine Diags;
  EXPECT_TRUE(qual::parseQualifiers(Src, Set, Diags)) << "50 levels is fine";
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(QualParserRobustness, DiagnosticFloodIsCapped) {
  std::string Src;
  for (int I = 0; I < 2000; ++I)
    Src += "case where | : decl\n";
  qual::QualifierSet Set;
  DiagnosticEngine Diags;
  EXPECT_FALSE(qual::parseQualifiers(Src, Set, Diags));
  EXPECT_LE(countDiags(Diags), 200u);
}

TEST(QualParserRobustness, TruncatedDefinitionsNeverCrash) {
  const std::string Full = "value qualifier q(int Expr E)\n"
                           "  case E of\n"
                           "    decl int Const C:\n"
                           "      C, where C > 0\n"
                           "  restrict\n"
                           "    decl int Expr E1, E2:\n"
                           "      E1 / E2, where q(E2)\n"
                           "  invariant value(E) > 0\n"
                           "ref qualifier r(T Ref R)\n"
                           "  ondecl\n"
                           "  disallow &X\n";
  for (size_t Len = 0; Len <= Full.size(); Len += 5) {
    qual::QualifierSet Set;
    DiagnosticEngine Diags;
    // Any verdict is fine; the contract is no crash, and a parse that
    // claims success must produce a set the well-formedness pass can read.
    if (qual::parseQualifiers(Full.substr(0, Len), Set, Diags))
      qual::checkWellFormed(Set, Diags);
  }
  SUCCEED();
}

} // namespace
