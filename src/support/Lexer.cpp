//===- Lexer.cpp ----------------------------------------------------------===//

#include "support/Lexer.h"

#include <cassert>
#include <cctype>
#include <limits>

using namespace stq;

const char *stq::tokenKindName(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::EndOfFile:
    return "end of file";
  case TokenKind::Identifier:
    return "identifier";
  case TokenKind::IntLiteral:
    return "integer literal";
  case TokenKind::StringLiteral:
    return "string literal";
  case TokenKind::CharLiteral:
    return "character literal";
  case TokenKind::LParen:
    return "'('";
  case TokenKind::RParen:
    return "')'";
  case TokenKind::LBrace:
    return "'{'";
  case TokenKind::RBrace:
    return "'}'";
  case TokenKind::LBracket:
    return "'['";
  case TokenKind::RBracket:
    return "']'";
  case TokenKind::Semi:
    return "';'";
  case TokenKind::Comma:
    return "','";
  case TokenKind::Dot:
    return "'.'";
  case TokenKind::Ellipsis:
    return "'...'";
  case TokenKind::Arrow:
    return "'->'";
  case TokenKind::Amp:
    return "'&'";
  case TokenKind::AmpAmp:
    return "'&&'";
  case TokenKind::Pipe:
    return "'|'";
  case TokenKind::PipePipe:
    return "'||'";
  case TokenKind::Bang:
    return "'!'";
  case TokenKind::BangEq:
    return "'!='";
  case TokenKind::Eq:
    return "'='";
  case TokenKind::EqEq:
    return "'=='";
  case TokenKind::FatArrow:
    return "'=>'";
  case TokenKind::Less:
    return "'<'";
  case TokenKind::LessEq:
    return "'<='";
  case TokenKind::Greater:
    return "'>'";
  case TokenKind::GreaterEq:
    return "'>='";
  case TokenKind::Plus:
    return "'+'";
  case TokenKind::Minus:
    return "'-'";
  case TokenKind::Star:
    return "'*'";
  case TokenKind::Slash:
    return "'/'";
  case TokenKind::Percent:
    return "'%'";
  case TokenKind::Colon:
    return "':'";
  case TokenKind::Question:
    return "'?'";
  case TokenKind::Tilde:
    return "'~'";
  }
  return "unknown token";
}

Lexer::Lexer(std::string Source, DiagnosticEngine &Diags)
    : Source(std::move(Source)), Diags(Diags) {}

void Lexer::error(SourceLoc Loc, const std::string &Message) {
  ++ErrorCount;
  if (ErrorCount > MaxLexErrors)
    return;
  if (ErrorCount == MaxLexErrors) {
    Diags.error(Loc, "lex",
                "too many lexical errors; suppressing further diagnostics");
    return;
  }
  Diags.error(Loc, "lex", Message);
}

char Lexer::peek(unsigned Ahead) const {
  if (Pos + Ahead >= Source.size())
    return '\0';
  return Source[Pos + Ahead];
}

char Lexer::advance() {
  assert(!atEnd() && "advance past end of buffer");
  char C = Source[Pos++];
  if (C == '\n') {
    ++Line;
    Col = 1;
  } else {
    ++Col;
  }
  return C;
}

bool Lexer::match(char Expected) {
  if (peek() != Expected)
    return false;
  advance();
  return true;
}

std::vector<Token> Lexer::tokenize() {
  std::vector<Token> Out;
  while (!atEnd())
    lexToken(Out);
  Token Eof;
  Eof.Kind = TokenKind::EndOfFile;
  Eof.Loc = loc();
  Out.push_back(Eof);
  return Out;
}

static Token makeTok(TokenKind Kind, SourceLoc Loc) {
  Token T;
  T.Kind = Kind;
  T.Loc = Loc;
  return T;
}

void Lexer::lexToken(std::vector<Token> &Out) {
  SourceLoc Start = loc();
  char C = advance();
  switch (C) {
  case ' ':
  case '\t':
  case '\r':
  case '\n':
    return;
  case '(':
    Out.push_back(makeTok(TokenKind::LParen, Start));
    return;
  case ')':
    Out.push_back(makeTok(TokenKind::RParen, Start));
    return;
  case '{':
    Out.push_back(makeTok(TokenKind::LBrace, Start));
    return;
  case '}':
    Out.push_back(makeTok(TokenKind::RBrace, Start));
    return;
  case '[':
    Out.push_back(makeTok(TokenKind::LBracket, Start));
    return;
  case ']':
    Out.push_back(makeTok(TokenKind::RBracket, Start));
    return;
  case ';':
    Out.push_back(makeTok(TokenKind::Semi, Start));
    return;
  case ',':
    Out.push_back(makeTok(TokenKind::Comma, Start));
    return;
  case '.':
    if (peek() == '.' && peek(1) == '.') {
      advance();
      advance();
      Out.push_back(makeTok(TokenKind::Ellipsis, Start));
      return;
    }
    Out.push_back(makeTok(TokenKind::Dot, Start));
    return;
  case '&':
    Out.push_back(
        makeTok(match('&') ? TokenKind::AmpAmp : TokenKind::Amp, Start));
    return;
  case '|':
    Out.push_back(
        makeTok(match('|') ? TokenKind::PipePipe : TokenKind::Pipe, Start));
    return;
  case '!':
    Out.push_back(
        makeTok(match('=') ? TokenKind::BangEq : TokenKind::Bang, Start));
    return;
  case '=':
    if (match('='))
      Out.push_back(makeTok(TokenKind::EqEq, Start));
    else if (match('>'))
      Out.push_back(makeTok(TokenKind::FatArrow, Start));
    else
      Out.push_back(makeTok(TokenKind::Eq, Start));
    return;
  case '<':
    Out.push_back(
        makeTok(match('=') ? TokenKind::LessEq : TokenKind::Less, Start));
    return;
  case '>':
    Out.push_back(makeTok(
        match('=') ? TokenKind::GreaterEq : TokenKind::Greater, Start));
    return;
  case '+':
    Out.push_back(makeTok(TokenKind::Plus, Start));
    return;
  case '-':
    if (match('>'))
      Out.push_back(makeTok(TokenKind::Arrow, Start));
    else
      Out.push_back(makeTok(TokenKind::Minus, Start));
    return;
  case '*':
    Out.push_back(makeTok(TokenKind::Star, Start));
    return;
  case '/':
    if (peek() == '/') {
      while (!atEnd() && peek() != '\n')
        advance();
      return;
    }
    if (peek() == '*') {
      advance();
      while (!atEnd() && !(peek() == '*' && peek(1) == '/'))
        advance();
      if (atEnd()) {
        error(Start, "unterminated block comment");
        return;
      }
      advance();
      advance();
      return;
    }
    Out.push_back(makeTok(TokenKind::Slash, Start));
    return;
  case '%':
    Out.push_back(makeTok(TokenKind::Percent, Start));
    return;
  case ':':
    Out.push_back(makeTok(TokenKind::Colon, Start));
    return;
  case '?':
    Out.push_back(makeTok(TokenKind::Question, Start));
    return;
  case '~':
    Out.push_back(makeTok(TokenKind::Tilde, Start));
    return;
  case '"':
    lexString(Out, Start);
    return;
  case '\'':
    lexChar(Out, Start);
    return;
  default:
    if (std::isdigit(static_cast<unsigned char>(C))) {
      lexNumber(Out, Start, C);
      return;
    }
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      lexIdentifier(Out, Start, C);
      return;
    }
    error(Start, std::string("unexpected character '") + C + "'");
    return;
  }
}

void Lexer::lexNumber(std::vector<Token> &Out, SourceLoc Start, char First) {
  // Accumulated unsigned and checked, so a literal past INT64_MAX is
  // diagnosed instead of overflowing.
  constexpr uint64_t Max = std::numeric_limits<int64_t>::max();
  uint64_t Value = 0;
  bool OutOfRange = false;
  auto push = [&](unsigned Base, unsigned Digit) {
    if (Value > (Max - Digit) / Base)
      OutOfRange = true;
    else
      Value = Value * Base + Digit;
  };
  if (First == '0' && (peek() == 'x' || peek() == 'X')) {
    advance();
    bool AnyDigit = false;
    while (std::isxdigit(static_cast<unsigned char>(peek()))) {
      char D = advance();
      push(16, std::isdigit(static_cast<unsigned char>(D))
                   ? D - '0'
                   : std::tolower(static_cast<unsigned char>(D)) - 'a' + 10);
      AnyDigit = true;
    }
    if (!AnyDigit)
      error(Start, "hex literal requires at least one digit");
  } else {
    push(10, First - '0');
    while (std::isdigit(static_cast<unsigned char>(peek())))
      push(10, advance() - '0');
  }
  if (OutOfRange) {
    error(Start, "integer literal out of range");
    Value = 0;
  }
  Token T;
  T.Kind = TokenKind::IntLiteral;
  T.Loc = Start;
  T.IntValue = static_cast<int64_t>(Value);
  Out.push_back(T);
}

void Lexer::lexIdentifier(std::vector<Token> &Out, SourceLoc Start,
                          char First) {
  std::string Text(1, First);
  while (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '_')
    Text += advance();
  Token T;
  T.Kind = TokenKind::Identifier;
  T.Loc = Start;
  T.Text = std::move(Text);
  Out.push_back(T);
}

char Lexer::lexEscape() {
  if (atEnd())
    return '\\';
  char C = advance();
  switch (C) {
  case 'n':
    return '\n';
  case 't':
    return '\t';
  case 'r':
    return '\r';
  case '0':
    return '\0';
  case '\\':
    return '\\';
  case '\'':
    return '\'';
  case '"':
    return '"';
  default:
    error(loc(), std::string("unknown escape sequence '\\") + C + "'");
    return C;
  }
}

void Lexer::lexString(std::vector<Token> &Out, SourceLoc Start) {
  std::string Text;
  while (!atEnd() && peek() != '"') {
    char C = advance();
    if (C == '\n') {
      error(Start, "unterminated string literal");
      break;
    }
    Text += (C == '\\') ? lexEscape() : C;
  }
  if (!atEnd() && peek() == '"')
    advance();
  else if (atEnd())
    error(Start, "unterminated string literal");
  Token T;
  T.Kind = TokenKind::StringLiteral;
  T.Loc = Start;
  T.Text = std::move(Text);
  Out.push_back(T);
}

void Lexer::lexChar(std::vector<Token> &Out, SourceLoc Start) {
  char Value = '\0';
  if (atEnd()) {
    error(Start, "unterminated character literal");
  } else {
    char C = advance();
    Value = (C == '\\') ? lexEscape() : C;
    if (!match('\''))
      error(Start, "unterminated character literal");
  }
  Token T;
  T.Kind = TokenKind::CharLiteral;
  T.Loc = Start;
  T.IntValue = Value;
  T.Text = std::string(1, Value);
  Out.push_back(T);
}
