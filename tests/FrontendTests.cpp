//===- tests/FrontendTests.cpp - Lexer/Parser/Printer tests ---------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "frontend/Printer.h"

#include "analysis/ContextPolicy.h"
#include "analysis/PrecisionMetrics.h"
#include "analysis/Solver.h"
#include "ir/Validator.h"
#include "workload/DaCapo.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

using namespace intro;
using namespace intro::testing;

TEST(Lexer, TokenKinds) {
  auto Tokens = tokenize("class Foo { x = (A) y  a.B#f = z  C::m(a, b) }");
  std::vector<TokenKind> Kinds;
  for (const Token &T : Tokens)
    Kinds.push_back(T.Kind);
  std::vector<TokenKind> Expected = {
      TokenKind::Identifier, TokenKind::Identifier, TokenKind::LBrace,
      TokenKind::Identifier, TokenKind::Equals,     TokenKind::LParen,
      TokenKind::Identifier, TokenKind::RParen,     TokenKind::Identifier,
      TokenKind::Identifier, TokenKind::Dot,        TokenKind::Identifier,
      TokenKind::Hash,       TokenKind::Identifier, TokenKind::Equals,
      TokenKind::Identifier, TokenKind::Identifier, TokenKind::ColonColon,
      TokenKind::Identifier, TokenKind::LParen,     TokenKind::Identifier,
      TokenKind::Comma,      TokenKind::Identifier, TokenKind::RParen,
      TokenKind::RBrace,     TokenKind::EndOfFile};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, CommentsAndLines) {
  auto Tokens = tokenize("// a comment\nfoo // trailing\nbar");
  ASSERT_EQ(Tokens.size(), 3u);
  EXPECT_EQ(Tokens[0].Text, "foo");
  EXPECT_EQ(Tokens[0].Line, 2u);
  EXPECT_EQ(Tokens[1].Text, "bar");
  EXPECT_EQ(Tokens[1].Line, 3u);
}

TEST(Lexer, ArrowAndDollarNames) {
  auto Tokens = tokenize("method f() -> $ret");
  ASSERT_GE(Tokens.size(), 6u);
  EXPECT_EQ(Tokens[4].Kind, TokenKind::Arrow);
  EXPECT_EQ(Tokens[5].Text, "$ret");
}

TEST(Lexer, ErrorTokenIsAlwaysFollowedByEndOfFile) {
  // The stream must end with EndOfFile even after an Error token: parser
  // loops keyed on EndOfFile would otherwise spin forever (the hang the
  // first mutation-fuzz campaign found).
  auto Tokens = tokenize("foo @");
  ASSERT_GE(Tokens.size(), 3u);
  EXPECT_EQ(Tokens[Tokens.size() - 2].Kind, TokenKind::Error);
  EXPECT_EQ(Tokens.back().Kind, TokenKind::EndOfFile);
}

namespace {

const char *TwoBoxesSource = R"(
// The classic container example.
class Object
class Box extends Object {
  field f
  method set(p) {
    this.Box#f = p
  }
  method get() -> r {
    r = this.Box#f
  }
}
class A extends Object
class B extends Object
class Main extends Object {
  entry static method main() {
    b1 = new Box
    b2 = new Box
    a = new A
    b = new B
    b1.set(a)
    b2.set(b)
    oa = b1.get()
    ob = b2.get()
    ca = (A) oa
  }
}
)";

} // namespace

TEST(Parser, ParsesTwoBoxes) {
  ParseResult Result = parseProgram(TwoBoxesSource);
  ASSERT_TRUE(Result.ok()) << Result.Errors[0];
  EXPECT_TRUE(validateProgram(Result.Prog).empty());
  EXPECT_EQ(Result.Prog.numTypes(), 5u);
  EXPECT_EQ(Result.Prog.numHeaps(), 4u);
  EXPECT_EQ(Result.Prog.numSites(), 4u);

  // The parsed program behaves like the builder-made TwoBoxes: insens says
  // the cast may fail, 2objH proves it safe.
  auto Insens = makeInsensitivePolicy();
  ContextTable T1;
  PointsToResult RI = solvePointsTo(Result.Prog, *Insens, T1);
  EXPECT_EQ(computePrecision(Result.Prog, RI).CastsThatMayFail, 1u);
  auto Obj = makeObjectPolicy(Result.Prog, 2, 1);
  ContextTable T2;
  PointsToResult RO = solvePointsTo(Result.Prog, *Obj, T2);
  EXPECT_EQ(computePrecision(Result.Prog, RO).CastsThatMayFail, 0u);
}

TEST(Parser, ForwardReferences) {
  // Subclass before superclass; static call to a later method.
  const char *Source = R"(
class Late extends Root {
  method m() { }
}
class Root
class Main extends Root {
  entry static method main() {
    x = Main::helper()
    l = new Late
    l.m()
  }
  static method helper() -> r {
    r = new Late
  }
}
)";
  ParseResult Result = parseProgram(Source);
  ASSERT_TRUE(Result.ok()) << Result.Errors[0];
  EXPECT_TRUE(validateProgram(Result.Prog).empty());
}

TEST(Parser, ReturnStatement) {
  const char *Source = R"(
class Object {
  entry static method main() {
    v = Object::mk()
  }
  static method mk() {
    x = new Object
    return x
  }
}
)";
  ParseResult Result = parseProgram(Source);
  ASSERT_TRUE(Result.ok()) << Result.Errors[0];
  auto Insens = makeInsensitivePolicy();
  ContextTable Table;
  PointsToResult R = solvePointsTo(Result.Prog, *Insens, Table);
  // main's v receives the object allocated in mk.
  bool Found = false;
  for (uint32_t VarRaw = 0; VarRaw < Result.Prog.numVars(); ++VarRaw)
    if (Result.Prog.varName(VarId(VarRaw)) == "v" &&
        !R.pointsTo(VarId(VarRaw)).empty())
      Found = true;
  EXPECT_TRUE(Found);
}

TEST(Parser, ErrorUnknownClass) {
  ParseResult Result = parseProgram(R"(
class Object {
  entry static method main() {
    x = new Missing
  }
}
)");
  ASSERT_FALSE(Result.ok());
  EXPECT_NE(Result.Errors[0].find("unknown class 'Missing'"),
            std::string::npos);
}

TEST(Parser, ErrorUnknownField) {
  ParseResult Result = parseProgram(R"(
class Object {
  entry static method main() {
    x = new Object
    y = x.Object#nope
  }
}
)");
  ASSERT_FALSE(Result.ok());
  EXPECT_NE(Result.Errors[0].find("unknown field"), std::string::npos);
}

TEST(Parser, ErrorCyclicInheritance) {
  ParseResult Result = parseProgram(R"(
class A extends B
class B extends A
)");
  ASSERT_FALSE(Result.ok());
  EXPECT_NE(Result.Errors[0].find("cyclic"), std::string::npos);
}

TEST(Parser, ErrorDuplicateClass) {
  ParseResult Result = parseProgram("class A\nclass A\n");
  ASSERT_FALSE(Result.ok());
  EXPECT_NE(Result.Errors[0].find("duplicate class"), std::string::npos);
}

TEST(Parser, ErrorDuplicateMethod) {
  // Same name and arity: virtual twice, or one virtual and one static
  // (bodies are looked up by name and arity alone).
  for (const char *Second :
       {"  method m(a) { }\n", "  static method m(b) { }\n"}) {
    std::string Source = "class Object\nclass A extends Object {\n"
                         "  method m(x) { }\n";
    Source += Second;
    Source += "  method m() { }\n}\n";
    ParseResult Result = parseProgram(Source);
    ASSERT_FALSE(Result.ok()) << Second;
    ASSERT_EQ(Result.Errors.size(), 1u);
    EXPECT_EQ(Result.Errors[0], "line 4: duplicate method 'A.m/1'");
  }
}

TEST(Parser, ErrorVirtualEntry) {
  ParseResult Result = parseProgram(R"(
class A {
  entry method main() { }
}
)");
  ASSERT_FALSE(Result.ok());
  EXPECT_NE(Result.Errors[0].find("must be static"), std::string::npos);
}

TEST(Printer, RoundTripPreservesStructureAndSemantics) {
  TwoBoxes T1 = makeTwoBoxes();
  Dispatch T2 = makeDispatch();
  Mixed T3 = makeMixed();
  for (const Program *Original : {&T1.Prog, &T2.Prog, &T3.Prog}) {
    std::string Text = printProgram(*Original);
    ParseResult Reparsed = parseProgram(Text);
    ASSERT_TRUE(Reparsed.ok()) << Reparsed.Errors[0] << "\nsource:\n" << Text;
    EXPECT_TRUE(validateProgram(Reparsed.Prog).empty());

    EXPECT_EQ(Reparsed.Prog.numTypes(), Original->numTypes());
    EXPECT_EQ(Reparsed.Prog.numMethods(), Original->numMethods());
    EXPECT_EQ(Reparsed.Prog.numHeaps(), Original->numHeaps());
    EXPECT_EQ(Reparsed.Prog.numSites(), Original->numSites());
    EXPECT_EQ(Reparsed.Prog.numInstructions(), Original->numInstructions());

    // Identical analysis outcomes (precision metrics are name-independent).
    auto Insens = makeInsensitivePolicy();
    ContextTable T1;
    ContextTable T2;
    PointsToResult R1 = solvePointsTo(*Original, *Insens, T1);
    PointsToResult R2 = solvePointsTo(Reparsed.Prog, *Insens, T2);
    PrecisionMetrics M1 = computePrecision(*Original, R1);
    PrecisionMetrics M2 = computePrecision(Reparsed.Prog, R2);
    EXPECT_EQ(M1.PolymorphicVirtualCallSites, M2.PolymorphicVirtualCallSites);
    EXPECT_EQ(M1.ReachableMethods, M2.ReachableMethods);
    EXPECT_EQ(M1.CastsThatMayFail, M2.CastsThatMayFail);
    EXPECT_EQ(R1.Stats.VarPointsToTuples, R2.Stats.VarPointsToTuples);
  }
}

TEST(Printer, PrintParseReprintIsIdempotent) {
  TwoBoxes T = makeTwoBoxes();
  std::string Once = printProgram(T.Prog);
  ParseResult Reparsed = parseProgram(Once);
  ASSERT_TRUE(Reparsed.ok());
  std::string Twice = printProgram(Reparsed.Prog);
  EXPECT_EQ(Once, Twice);
}

TEST(Printer, RoundTripsGeneratedWorkload) {
  // The whole synthetic antlr benchmark survives a round trip.
  Program Original = generateWorkload(dacapoProfile("antlr"));
  std::string Text = printProgram(Original);
  ParseResult Reparsed = parseProgram(Text);
  ASSERT_TRUE(Reparsed.ok()) << Reparsed.Errors[0];
  EXPECT_TRUE(validateProgram(Reparsed.Prog).empty());
  EXPECT_EQ(Reparsed.Prog.numInstructions(), Original.numInstructions());
  EXPECT_EQ(printProgram(Reparsed.Prog), Text);
}

TEST(Parser, ExceptionSyntaxErrors) {
  // catch without '('.
  ParseResult R1 = parseProgram(R"(
class Object {
  entry static method main() {
    Object::f() catch Object e
  }
  static method f() { }
}
)");
  ASSERT_FALSE(R1.ok());
  EXPECT_NE(R1.Errors[0].find("expected '(' after 'catch'"),
            std::string::npos);

  // catch with an unknown type.
  ParseResult R2 = parseProgram(R"(
class Object {
  entry static method main() {
    Object::f() catch (Nope) e
  }
  static method f() { }
}
)");
  ASSERT_FALSE(R2.ok());
  EXPECT_NE(R2.Errors[0].find("unknown class 'Nope'"), std::string::npos);
}

TEST(Parser, StaticFieldSyntaxErrors) {
  // Static store to an unknown field.
  ParseResult R = parseProgram(R"(
class Object {
  entry static method main() {
    x = new Object
    Object#missing = x
  }
}
)");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Errors[0].find("unknown field"), std::string::npos);
}

TEST(Parser, ThrowRequiresVariable) {
  ParseResult R = parseProgram(R"(
class Object {
  entry static method main() {
    throw {
  }
}
)");
  EXPECT_FALSE(R.ok());
}

TEST(Parser, StaticLoadStoreRoundTrip) {
  const char *Source = R"(
class Object
class G extends Object {
  field cell
}
class Main extends Object {
  entry static method main() {
    x = new G
    G#cell = x
    y = G#cell
  }
}
)";
  ParseResult R = parseProgram(Source);
  ASSERT_TRUE(R.ok()) << R.Errors[0];
  std::string Once = printProgram(R.Prog);
  EXPECT_NE(Once.find("G#cell = x"), std::string::npos);
  EXPECT_NE(Once.find("y = G#cell"), std::string::npos);
  ParseResult Again = parseProgram(Once);
  ASSERT_TRUE(Again.ok());
  EXPECT_EQ(printProgram(Again.Prog), Once);
}

// --- Hostile input: the frontend is the untrusted boundary -------------------
//
// intro_batch feeds arbitrary files into parseProgram inside a sandboxed
// child; the parser must turn anything — truncated programs, binary
// garbage, pathological nesting — into line-numbered diagnostics, never a
// crash or an abort.

TEST(Parser, EveryTruncationOfAValidProgramFailsGracefully) {
  const char *Source = R"(
class Object
class Box extends Object {
  field f
  method set(p) {
    this.Box#f = p
  }
}
class Main extends Object {
  entry static method main() {
    b = new Box
    b.set(b)
  }
}
)";
  std::string Full(Source);
  for (size_t Length = 0; Length < Full.size(); ++Length) {
    std::string Cut = Full.substr(0, Length);
    ParseResult Result = parseProgram(Cut);
    if (Result.ok())
      continue; // Some prefixes are complete programs; that is fine.
    ASSERT_FALSE(Result.Errors.empty()) << "length " << Length;
    EXPECT_EQ(Result.Errors[0].rfind("line ", 0), 0u)
        << "no line number at truncation length " << Length << ": "
        << Result.Errors[0];
  }
}

TEST(Parser, BinaryGarbageIsRejectedWithLineNumberedDiagnostics) {
  const std::vector<std::string> Garbage = {
      std::string("\x01\x02\x03\xff\xfe"),
      std::string("class\0Object", 12),
      std::string(256, '\xff'),
      "\x7f" "ELF\x02\x01\x01\x00",
      "class Object\n\xde\xad\xbe\xef\n",
  };
  for (const std::string &Bytes : Garbage) {
    ParseResult Result = parseProgram(Bytes);
    ASSERT_FALSE(Result.ok());
    ASSERT_FALSE(Result.Errors.empty());
    EXPECT_EQ(Result.Errors[0].rfind("line ", 0), 0u) << Result.Errors[0];
  }
}

TEST(Parser, DiagnosticsPointAtTheOffendingLine) {
  // The garbage byte sits on line 3; the diagnostic must say so.
  ParseResult Result = parseProgram("class Object\nclass A extends Object\n@");
  ASSERT_FALSE(Result.ok());
  EXPECT_EQ(Result.Errors[0].rfind("line 3:", 0), 0u) << Result.Errors[0];
}

TEST(Parser, PathologicalNestingDoesNotOverflowOrHang) {
  // 100k unmatched openers: the parser must fail fast, not recurse per
  // brace or scan quadratically.
  for (char Opener : {'{', '(', '}'}) {
    std::string Bomb = "class Object " + std::string(100000, Opener);
    ParseResult Result = parseProgram(Bomb);
    EXPECT_FALSE(Result.ok());
    EXPECT_FALSE(Result.Errors.empty());
  }
  // A long but well-formed inheritance chain still parses.
  std::string Chain = "class C0\n";
  for (int Index = 1; Index < 2000; ++Index)
    Chain += "class C" + std::to_string(Index) + " extends C" +
             std::to_string(Index - 1) + "\n";
  EXPECT_TRUE(parseProgram(Chain).ok());
}

TEST(Lexer, GarbageBytesBecomeErrorTokensWithLines) {
  auto Tokens = tokenize("foo\n\x01\nbar");
  bool SawError = false;
  for (const Token &T : Tokens)
    if (T.Kind == TokenKind::Error) {
      SawError = true;
      EXPECT_EQ(T.Line, 2u);
    }
  EXPECT_TRUE(SawError);
}
