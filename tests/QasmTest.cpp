//===- tests/QasmTest.cpp - OpenQASM frontend tests -------------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "qasm/Importer.h"
#include "qasm/Lexer.h"
#include "qasm/Parser.h"
#include "qasm/Printer.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace qlosure;
using namespace qlosure::qasm;

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(LexerTest, BasicTokens) {
  auto Tokens = tokenize("cx q[0],q[1];");
  ASSERT_GE(Tokens.size(), 9u);
  EXPECT_EQ(Tokens[0].Kind, TokenKind::Identifier);
  EXPECT_EQ(Tokens[0].Text, "cx");
  EXPECT_EQ(Tokens[2].Kind, TokenKind::LBracket);
  EXPECT_EQ(Tokens[3].Kind, TokenKind::Integer);
  EXPECT_EQ(Tokens.back().Kind, TokenKind::EndOfFile);
}

TEST(LexerTest, CommentsSkipped) {
  auto Tokens = tokenize("// line\nh /* block */ q;");
  EXPECT_EQ(Tokens[0].Text, "h");
  EXPECT_EQ(Tokens[1].Text, "q");
}

TEST(LexerTest, NumbersAndArrow) {
  auto Tokens = tokenize("3.25e-2 -> 7");
  EXPECT_EQ(Tokens[0].Kind, TokenKind::Real);
  EXPECT_EQ(Tokens[1].Kind, TokenKind::Arrow);
  EXPECT_EQ(Tokens[2].Kind, TokenKind::Integer);
}

TEST(LexerTest, PositionsTracked) {
  auto Tokens = tokenize("h q;\ncx a,b;");
  EXPECT_EQ(Tokens[0].Line, 1u);
  EXPECT_EQ(Tokens[3].Line, 2u); // "cx".
  EXPECT_EQ(Tokens[3].Column, 1u);
}

TEST(LexerTest, ErrorToken) {
  auto Tokens = tokenize("h q; $");
  EXPECT_EQ(Tokens.back().Kind, TokenKind::Error);
}

TEST(LexerTest, MalformedExponentIsError) {
  // An exponent marker with no digits must not lex as Real ("1e" used to
  // reach std::stod downstream and throw).
  for (const char *Source : {"1e", "1e+", "2.5E-", "rx(1e) q[0];"}) {
    auto Tokens = tokenize(Source);
    EXPECT_EQ(Tokens.back().Kind, TokenKind::Error) << Source;
    EXPECT_NE(Tokens.back().Text.find("exponent"), std::string::npos)
        << Source;
  }
}

TEST(LexerTest, WellFormedExponentsStillLex) {
  for (const char *Source : {"1e5", "1e+5", "2.5E-3", "0.5e0"}) {
    auto Tokens = tokenize(Source);
    ASSERT_EQ(Tokens.size(), 2u) << Source; // Real + EndOfFile.
    EXPECT_EQ(Tokens[0].Kind, TokenKind::Real) << Source;
    EXPECT_EQ(Tokens[0].Text, Source);
  }
}

TEST(LexerTest, UnterminatedStringIsError) {
  auto Tokens = tokenize("include \"qelib1.inc;\n");
  EXPECT_EQ(Tokens.back().Kind, TokenKind::Error);
  EXPECT_NE(Tokens.back().Text.find("unterminated"), std::string::npos);
}

TEST(ParserTest, MalformedExponentSurfacesAsParseError) {
  auto R = parseQasm("OPENQASM 2.0;\nqreg q[1];\nrx(1e) q[0];\n");
  EXPECT_FALSE(R.succeeded());
  EXPECT_NE(R.Error.find("exponent"), std::string::npos) << R.Error;
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

TEST(ParserTest, HeaderAndRegisters) {
  auto R = parseQasm("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[5];\n"
                     "creg c[5];\n");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  EXPECT_EQ(R.Prog->Version, "2.0");
  ASSERT_EQ(R.Prog->Includes.size(), 1u);
  EXPECT_EQ(R.Prog->Statements.size(), 2u);
  EXPECT_TRUE(R.Prog->Statements[0].Reg.IsQuantum);
  EXPECT_EQ(R.Prog->Statements[0].Reg.Size, 5u);
}

TEST(ParserTest, GateCallWithParams) {
  auto R = parseQasm("qreg q[2]; rz(pi/4) q[1];");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  const GateCall &Call = R.Prog->Statements[1].Call;
  EXPECT_EQ(Call.Name, "rz");
  ASSERT_EQ(Call.Params.size(), 1u);
  auto V = Call.Params[0]->evaluate({});
  ASSERT_TRUE(V.has_value());
  EXPECT_NEAR(*V, M_PI / 4, 1e-12);
}

TEST(ParserTest, ExpressionPrecedence) {
  auto R = parseQasm("qreg q[1]; rz(1+2*3) q[0];");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  auto V = R.Prog->Statements[1].Call.Params[0]->evaluate({});
  EXPECT_DOUBLE_EQ(*V, 7.0);
}

TEST(ParserTest, UnaryMinusAndPower) {
  auto R = parseQasm("qreg q[1]; rz(-2^2) q[0];");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  auto V = R.Prog->Statements[1].Call.Params[0]->evaluate({});
  EXPECT_DOUBLE_EQ(*V, -4.0);
}

TEST(ParserTest, GateDefinition) {
  auto R = parseQasm("gate majority a,b,c { cx c,b; cx c,a; ccx a,b,c; }\n"
                     "qreg q[3]; majority q[0],q[1],q[2];");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  const GateDef &Def = R.Prog->Statements[0].Gate;
  EXPECT_EQ(Def.Name, "majority");
  EXPECT_EQ(Def.QubitNames.size(), 3u);
  EXPECT_EQ(Def.Body.size(), 3u);
}

TEST(ParserTest, MeasureAndBarrier) {
  auto R = parseQasm("qreg q[2]; creg c[2]; measure q[0] -> c[0]; "
                     "barrier q;");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  EXPECT_EQ(R.Prog->Statements[2].StmtKind, Statement::Kind::Measure);
  EXPECT_EQ(R.Prog->Statements[3].StmtKind, Statement::Kind::Barrier);
}

TEST(ParserTest, ErrorsCarryPosition) {
  auto R = parseQasm("qreg q[2];\ncx q[0] q[1];"); // Missing comma.
  ASSERT_FALSE(R.succeeded());
  EXPECT_NE(R.Error.find("line 2"), std::string::npos);
}

TEST(ParserTest, RejectsClassicalControl) {
  auto R = parseQasm("qreg q[1]; creg c[1]; if (c==1) x q[0];");
  EXPECT_FALSE(R.succeeded());
}

//===----------------------------------------------------------------------===//
// Importer
//===----------------------------------------------------------------------===//

TEST(ImporterTest, SimpleProgram) {
  auto R = importQasm("OPENQASM 2.0; qreg q[3]; h q[0]; cx q[0],q[1]; "
                      "cx q[1],q[2];");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  EXPECT_EQ(R.Circ->numQubits(), 3u);
  EXPECT_EQ(R.Circ->size(), 3u);
  EXPECT_EQ(R.Circ->gate(1).Kind, GateKind::CX);
}

TEST(ImporterTest, MultipleQregsFlatten) {
  auto R = importQasm("qreg a[2]; qreg b[3]; cx a[1],b[0];");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  EXPECT_EQ(R.Circ->numQubits(), 5u);
  EXPECT_EQ(R.Circ->gate(0).Qubits[0], 1);
  EXPECT_EQ(R.Circ->gate(0).Qubits[1], 2); // b[0] is flat index 2.
}

TEST(ImporterTest, BroadcastSingleQubitGate) {
  auto R = importQasm("qreg q[4]; h q;");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  EXPECT_EQ(R.Circ->size(), 4u);
}

TEST(ImporterTest, BroadcastTwoQubitGate) {
  auto R = importQasm("qreg a[3]; qreg b[3]; cx a,b;");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  EXPECT_EQ(R.Circ->size(), 3u);
  EXPECT_EQ(R.Circ->gate(2).Qubits[0], 2);
  EXPECT_EQ(R.Circ->gate(2).Qubits[1], 5);
}

TEST(ImporterTest, UserGateInlining) {
  auto R = importQasm("gate entangle(t) a,b { h a; cx a,b; rz(t) b; }\n"
                      "qreg q[2]; entangle(0.5) q[0],q[1];");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  ASSERT_EQ(R.Circ->size(), 3u);
  EXPECT_EQ(R.Circ->gate(0).Kind, GateKind::H);
  EXPECT_EQ(R.Circ->gate(2).Kind, GateKind::RZ);
  EXPECT_DOUBLE_EQ(R.Circ->gate(2).Params[0], 0.5);
}

TEST(ImporterTest, NestedUserGates) {
  auto R = importQasm(
      "gate inner a,b { cx a,b; }\n"
      "gate outer a,b,c { inner a,b; inner b,c; }\n"
      "qreg q[3]; outer q[0],q[1],q[2];");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  EXPECT_EQ(R.Circ->size(), 2u);
}

TEST(ImporterTest, MeasureLowered) {
  auto R = importQasm("qreg q[2]; creg c[2]; measure q -> c;");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  EXPECT_EQ(R.Circ->size(), 2u);
  EXPECT_EQ(R.Circ->gate(0).Kind, GateKind::Measure);
}

TEST(ImporterTest, ErrorsOnUnknownGate) {
  auto R = importQasm("qreg q[1]; frobnicate q[0];");
  ASSERT_FALSE(R.succeeded());
  EXPECT_NE(R.Error.find("frobnicate"), std::string::npos);
}

TEST(ImporterTest, ErrorsOnRepeatedOperand) {
  auto R = importQasm("qreg q[2]; cx q[1],q[1];");
  ASSERT_FALSE(R.succeeded());
}

TEST(ImporterTest, ErrorsOnIndexOutOfRange) {
  auto R = importQasm("qreg q[2]; h q[5];");
  ASSERT_FALSE(R.succeeded());
}

TEST(ImporterTest, ErrorsOnArityMismatch) {
  auto R = importQasm("qreg q[3]; cx q[0];");
  ASSERT_FALSE(R.succeeded());
}

TEST(ImporterTest, RejectsRegisterValuesBeyondInt32) {
  struct Case {
    const char *Text;
    const char *Expected;
  };
  const Case Cases[] = {
      // Used to wrap the unsigned qubit total to 1 and import qubit -1.
      {"qreg q[4294967295]; qreg r[2]; cx r[0],r[1];",
       "line 1, column 8: register size exceeds 2147483647"},
      // Used to saturate strtoul and import 4294967295 qubits.
      {"qreg q[99999999999999999999];",
       "line 1, column 8: register size exceeds 2147483647"},
      {"qreg a[2147483647]; qreg b[1];",
       "line 1, column 28: total qubit count exceeds 2147483647"},
      // Used to wrap to q[0] and import.
      {"qreg q[2]; h q[4294967296];",
       "line 1, column 16: register index exceeds 2147483647"},
  };
  for (const Case &C : Cases) {
    auto R = importQasm(C.Text);
    EXPECT_FALSE(R.succeeded()) << C.Text;
    EXPECT_EQ(R.Error, C.Expected);
  }
  auto Largest = importQasm("qreg a[2147483646]; qreg b[1];");
  ASSERT_TRUE(Largest.succeeded()) << Largest.Error;
  EXPECT_EQ(Largest.Circ->numQubits(), 2147483647u);
}

TEST(ImporterTest, QubitBoundRefusesBeforeLowering) {
  // 24 bytes that broadcast to 20M gates without the bound.
  auto Big = importQasm("qreg q[20000000]; h q;", "", 127);
  EXPECT_FALSE(Big.succeeded());
  EXPECT_TRUE(Big.TooLarge);
  EXPECT_EQ(Big.NumQubits, 20000000u);
  // The total counts every qreg, wherever it is declared.
  auto Split = importQasm("qreg a[100]; h a[0]; qreg b[100];", "", 127);
  EXPECT_TRUE(Split.TooLarge);
  EXPECT_EQ(Split.NumQubits, 200u);
  // Over the bound and otherwise malformed: too large wins.
  EXPECT_TRUE(importQasm("qreg q[200]; frobnicate q;", "", 127).TooLarge);
  // A syntax error still wins.
  auto Syntax = importQasm("qreg q[200]; h q", "", 127);
  EXPECT_FALSE(Syntax.TooLarge);
  EXPECT_NE(Syntax.Error.find("expected ';'"), std::string::npos);
  // At the bound, nothing changes.
  auto Fits = importQasm("qreg q[2]; qreg r[3]; h q;", "", 5);
  ASSERT_TRUE(Fits.succeeded()) << Fits.Error;
  EXPECT_FALSE(Fits.TooLarge);
  EXPECT_EQ(Fits.Circ->size(), 2u);
}

TEST(ImporterTest, RejectsNonFiniteAngles) {
  for (const char *Call : {"rz(1/0) q[0];", "rz(0/0) q[0];", "rz(-1e999) q[0];"}) {
    auto R = importQasm(std::string("qreg q[1];\n") + Call);
    EXPECT_FALSE(R.succeeded()) << Call;
    EXPECT_EQ(R.Error, "line 2: parameter of 'rz' is not finite") << Call;
  }
  auto Inlined = importQasm("gate g(t) a { rz(t/0) a; }\nqreg q[1];\n"
                            "g(1) q[0];");
  EXPECT_FALSE(Inlined.succeeded());
  EXPECT_EQ(Inlined.Error, "line 1: parameter of 'rz' is not finite");
}

TEST(ImporterTest, EmptyRegisterOperandIsAnError) {
  // A zero-size register broadcast used to read an empty operand list.
  auto R = importQasm("qreg q[0];\nh q;");
  EXPECT_FALSE(R.succeeded());
  EXPECT_EQ(R.Error, "line 2: empty register operand in 'h'");
  // Measuring or fencing it still does nothing.
  auto Ok = importQasm("qreg q[0]; creg c[0]; measure q -> c; barrier q;");
  ASSERT_TRUE(Ok.succeeded()) << Ok.Error;
  EXPECT_TRUE(Ok.Circ->empty());
}

/// \p Levels + 1 nested definitions, each calling the previous one twice,
/// then one call of the last: 2^Levels copies of \p Leaf's body.
std::string doublingGates(int Levels, const char *Leaf = "cx a,b;") {
  std::string Text = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n"
                     "gate g0 a,b { " +
                     std::string(Leaf) + " }\n";
  for (int I = 1; I <= Levels; ++I)
    Text += "gate g" + std::to_string(I) + " a,b { g" + std::to_string(I - 1) +
            " a,b; g" + std::to_string(I - 1) + " b,a; }\n";
  return Text + "g" + std::to_string(Levels) + " q[0],q[1];\n";
}

TEST(ImporterTest, BoundsUserGateExpansion) {
  // 1.4 KB of text that inlines to 2^40 gates: refused before inlining.
  std::string Huge = doublingGates(40);
  EXPECT_LT(Huge.size(), 1500u);
  const char *Expected = "line 45: 'g40' lowers to more than 16777216 gates";
  auto R = importQasm(Huge);
  EXPECT_FALSE(R.succeeded());
  EXPECT_EQ(R.Error, Expected);
  ParseResult Parsed = parseQasm(Huge);
  ASSERT_TRUE(Parsed.succeeded()) << Parsed.Error;
  EXPECT_EQ(importProgram(*Parsed.Prog).Error, Expected);
  // Calls that lower to no gate still count: 2^40 empty inlinings.
  EXPECT_EQ(importQasm(doublingGates(40, "")).Error, Expected);
  // A chain that fits still inlines in full.
  auto Fits = importQasm(doublingGates(10));
  ASSERT_TRUE(Fits.succeeded()) << Fits.Error;
  EXPECT_EQ(Fits.Circ->size(), 1024u);
  // Register broadcasts count against the same bound.
  EXPECT_EQ(importQasm("qreg q[16777217]; x q;").Error,
            "line 1: 'x' lowers to more than 16777216 gates");
  EXPECT_EQ(importQasm("qreg q[16777217]; barrier q;").Error,
            "circuit lowers to more than 16777216 gates");
}

TEST(ParserTest, BoundsExpressionSize) {
  auto nested = [](size_t Depth) {
    return "qreg q[1]; rz(" + std::string(Depth, '(') + "1" +
           std::string(Depth, ')') + ") q[0];";
  };
  // Each of these used to overflow the stack in the parser or in the
  // evaluation of its tree.
  std::string Chain = "1";
  for (int I = 0; I < 200000; ++I)
    Chain += "+1";
  for (const std::string &Text :
       {nested(200000),
        "qreg q[1]; rz(" + std::string(200000, '-') + "1) q[0];",
        "qreg q[1]; rz(" + Chain + ") q[0];"}) {
    auto R = importQasm(Text);
    EXPECT_FALSE(R.succeeded());
    EXPECT_NE(R.Error.find("expression has more than 1024 terms"),
              std::string::npos)
        << R.Error;
    EXPECT_FALSE(parseQasm(Text).succeeded());
  }
  EXPECT_TRUE(importQasm(nested(1000)).succeeded());
}

TEST(ParserTest, LexErrorInsideBodyBarrierTerminates) {
  // The barrier skip inside a gate body used to spin on a lexical error.
  auto R = parseQasm("gate g a { barrier $ } qreg q[1];");
  EXPECT_FALSE(R.succeeded());
  EXPECT_NE(R.Error.find("unexpected character '$'"), std::string::npos)
      << R.Error;
}

//===----------------------------------------------------------------------===//
// Printer round trip
//===----------------------------------------------------------------------===//

TEST(PrinterTest, RoundTripPreservesGates) {
  Circuit C(3, "rt");
  C.add1Q(GateKind::H, 0);
  C.add1Q(GateKind::RZ, 1, 0.25);
  C.addCx(0, 2);
  C.addSwap(1, 2);
  std::string Text = printQasm(C);
  auto R = importQasm(Text);
  ASSERT_TRUE(R.succeeded()) << R.Error;
  ASSERT_EQ(R.Circ->size(), C.size());
  for (size_t I = 0; I < C.size(); ++I) {
    EXPECT_EQ(R.Circ->gate(I).Kind, C.gate(I).Kind);
    EXPECT_EQ(R.Circ->gate(I).Qubits, C.gate(I).Qubits);
    EXPECT_NEAR(R.Circ->gate(I).Params[0], C.gate(I).Params[0], 1e-15);
  }
}

TEST(PrinterTest, EmitsMeasureWithCreg) {
  Circuit C(2);
  C.addGate(Gate(GateKind::Measure, 1));
  std::string Text = printQasm(C);
  EXPECT_NE(Text.find("creg c[2];"), std::string::npos);
  EXPECT_NE(Text.find("measure q[1] -> c[1];"), std::string::npos);
}
