//===- tests/QasmDifferentialTest.cpp - One-pass vs two-pass QASM import ----===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential tests of the two import paths: importQasm, which lowers
/// each statement as it parses, against importProgram(parseQasm(x)), which
/// lowers a whole parsed Program in two passes. Every input must give the
/// same Circuit bit for bit, or the same error text. The corpus is the
/// committed test data, every QASMBench-style generator, QUEKO, the
/// structured workloads, a hand-written text that touches every statement
/// form, and a seeded mutation corpus built from them: truncation at every
/// statement boundary, byte flips, and swapped and duplicated lines.
///
//===----------------------------------------------------------------------===//

#include "qasm/Importer.h"
#include "qasm/Parser.h"
#include "qasm/Printer.h"
#include "support/Random.h"
#include "topology/Backends.h"
#include "workloads/QasmBench.h"
#include "workloads/Queko.h"
#include "workloads/Structured.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace qlosure;
using namespace qlosure::qasm;

namespace {

/// Every statement form, user gates with parameters, comments, the
/// expression grammar, broadcasting and several registers.
const char *const RichText = R"(OPENQASM 2.0;
include "qelib1.inc";
// A line comment.
gate rot(theta, phi) a, b {
  rz(theta / 2) a;
  cx a, b;
  u3(phi, -theta, pi^2 - sqrt(2)) b;
  barrier a, b;
}
gate pair a, b { rot(pi / 4, cos(0.5) * 2) a, b; h b; }
qreg q[4];
qreg anc[3];
creg c[4];
/* A block
   comment. */
h q;
cx q[0], anc[1];
pair q[1], q[2];
rz(-2^-3 + ln(exp(1.5e-1)) / tan(.25)) anc[2];
cx anc, q[1];
barrier q[0], anc;
reset q[3];
measure q -> c;
measure anc[0] -> c[1];
)";

std::string readFile(const std::filesystem::path &Path) {
  std::ifstream In(Path);
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

std::string describe(const ImportResult &R) {
  if (R.succeeded())
    return "ok";
  return (R.TooLarge ? "too large (" + std::to_string(R.NumQubits) + "): "
                     : std::string()) +
         R.Error;
}

/// Imports \p Text both ways under \p MaxQubits; returns "" when the two
/// agree bit for bit, else what differs.
std::string diffImports(const std::string &Text,
                        unsigned MaxQubits = MaxImportQubits) {
  ImportResult OnePass = importQasm(Text, "diff", MaxQubits);
  ParseResult Parsed = parseQasm(Text);
  ImportResult TwoPass;
  if (Parsed.succeeded())
    TwoPass = importProgram(*Parsed.Prog, "diff", MaxQubits);
  else
    TwoPass.Error = Parsed.Error;
  if (OnePass.succeeded() != TwoPass.succeeded() ||
      OnePass.Error != TwoPass.Error || OnePass.TooLarge != TwoPass.TooLarge ||
      OnePass.NumQubits != TwoPass.NumQubits)
    return "importQasm: " + describe(OnePass) +
           "\nimportProgram(parseQasm): " + describe(TwoPass);
  if (!OnePass.succeeded())
    return "";
  const Circuit &A = *OnePass.Circ, &B = *TwoPass.Circ;
  if (A.numQubits() != B.numQubits() || A.size() != B.size() ||
      A.name() != B.name())
    return "circuits differ in shape";
  for (size_t I = 0; I < A.size(); ++I) {
    const Gate &GA = A.gate(I), &GB = B.gate(I);
    if (GA.Kind != GB.Kind || GA.Qubits != GB.Qubits ||
        std::memcmp(GA.Params.data(), GB.Params.data(),
                    sizeof(GA.Params)) != 0)
      return "gate " + std::to_string(I) + " differs: " + GA.toString() +
             " vs " + GB.toString();
  }
  return "";
}

/// Checks every text, reporting at most a few mismatches in full.
void expectAllAgree(const std::vector<std::string> &Texts,
                    unsigned MaxQubits = MaxImportQubits) {
  size_t Mismatches = 0;
  for (const std::string &Text : Texts) {
    std::string Diff = diffImports(Text, MaxQubits);
    if (!Diff.empty() && ++Mismatches <= 3)
      ADD_FAILURE() << Diff << "\n--- input ---\n" << Text;
  }
  EXPECT_EQ(Mismatches, 0u) << "of " << Texts.size() << " inputs";
}

/// The unmutated corpus.
std::vector<std::string> baseCorpus() {
  std::vector<std::string> Texts = {RichText};
  for (const auto &Entry :
       std::filesystem::directory_iterator(QLOSURE_TEST_DATA_DIR))
    if (Entry.path().extension() == ".qasm")
      Texts.push_back(readFile(Entry.path()));
  for (const Circuit &C :
       {makeQft(6), makeQft(5, /*DecomposeCp=*/false), makeAdder(6),
        makeMultiplier(6), makeQugan(5, 2), makeQram(7), makeGhz(5),
        makeCat(5), makeBv(6), makeWState(5), makeIsing(6, 2),
        makeSwapTest(5), makeQpe(5), makeQaoa(6, 2), qftLikeKernel(6, 3),
        layeredConveyor(makeAspen16(), 3, 3, 5)})
    Texts.push_back(printQasm(C));
  QuekoSpec Spec;
  Spec.Depth = 6;
  Spec.Seed = 9;
  Texts.push_back(printQasm(generateQueko(makeAspen16(), Spec).Circ));
  return Texts;
}

std::vector<std::string> splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  std::istringstream In(Text);
  for (std::string Line; std::getline(In, Line);)
    Lines.push_back(Line + "\n");
  return Lines;
}

std::string joinLines(const std::vector<std::string> &Lines) {
  std::string Text;
  for (const std::string &Line : Lines)
    Text += Line;
  return Text;
}

/// Seeded mutants of \p Text.
std::vector<std::string> mutants(const std::string &Text, Rng &R) {
  std::vector<std::string> Out;
  // Truncation at every statement boundary, and just before it.
  for (size_t I = 0; I < Text.size(); ++I)
    if (Text[I] == ';' || Text[I] == '}') {
      Out.push_back(Text.substr(0, I + 1));
      Out.push_back(Text.substr(0, I));
    }
  static const char Alphabet[] = " \n;,()[]{}-+*/^>=\"qcrhx0129.eEpi_\0";
  for (int I = 0; I < 200; ++I) {
    std::string M = Text;
    size_t Pos = R.nextBounded(M.size());
    if (I % 2)
      M[Pos] = static_cast<char>(M[Pos] ^ (1 << R.nextBounded(8)));
    else
      M[Pos] = Alphabet[R.nextBounded(sizeof(Alphabet) - 1)];
    Out.push_back(std::move(M));
  }
  std::vector<std::string> Lines = splitLines(Text);
  for (int I = 0; I < 100 && Lines.size() > 1; ++I) {
    std::vector<std::string> Swapped = Lines;
    std::swap(Swapped[R.nextBounded(Lines.size())],
              Swapped[R.nextBounded(Lines.size())]);
    Out.push_back(joinLines(Swapped));
    std::vector<std::string> Duplicated = Lines;
    size_t From = R.nextBounded(Lines.size());
    Duplicated.insert(Duplicated.begin() +
                          static_cast<ptrdiff_t>(R.nextBounded(Lines.size())),
                      Lines[From]);
    Out.push_back(joinLines(Duplicated));
  }
  return Out;
}

} // namespace

TEST(QasmDifferentialTest, CorpusImportsIdentically) {
  std::vector<std::string> Texts = baseCorpus();
  for (const NamedCircuit &NC : standardQasmBenchSuite())
    Texts.push_back(printQasm(NC.Circ));
  expectAllAgree(Texts);
  // Under a bound, part of the corpus is too large for it.
  expectAllAgree(Texts, 16);
}

TEST(QasmDifferentialTest, MutationCorpusImportsIdentically) {
  Rng R(1307);
  std::vector<std::string> Texts;
  for (const std::string &Base : baseCorpus())
    for (std::string &M : mutants(Base, R))
      Texts.push_back(std::move(M));
  ASSERT_GT(Texts.size(), 8000u);
  expectAllAgree(Texts);
  expectAllAgree(Texts, 5);
}

TEST(QasmDifferentialTest, RegisterAndGateUsedBeforeDeclaration) {
  const std::string Text = "h q[1];\n"
                           "g q[0], r[0];\n"
                           "qreg q[2];\n"
                           "gate g a, b { cx a, b; }\n"
                           "qreg r[1];\n";
  EXPECT_EQ(diffImports(Text), "");
  ImportResult R = importQasm(Text);
  ASSERT_TRUE(R.succeeded()) << R.Error;
  ASSERT_EQ(R.Circ->size(), 2u);
  EXPECT_EQ(R.Circ->numQubits(), 3u);
  EXPECT_EQ(R.Circ->gate(0).Qubits[0], 1);
  EXPECT_EQ(R.Circ->gate(1).Kind, GateKind::CX);
  EXPECT_EQ(R.Circ->gate(1).Qubits[1], 2);
}

TEST(QasmDifferentialTest, LastGateDefinitionWinsForEveryCall) {
  const std::string Text = "gate g a { h a; }\n"
                           "qreg q[1];\n"
                           "g q[0];\n"
                           "gate g a { x a; }\n"
                           "g q[0];\n";
  EXPECT_EQ(diffImports(Text), "");
  ImportResult R = importQasm(Text);
  ASSERT_TRUE(R.succeeded()) << R.Error;
  ASSERT_EQ(R.Circ->size(), 2u);
  EXPECT_EQ(R.Circ->gate(0).Kind, GateKind::X);
  EXPECT_EQ(R.Circ->gate(1).Kind, GateKind::X);
}

TEST(QasmDifferentialTest, ErrorsRankParseThenDeclarationThenLowering) {
  struct Case {
    const char *Text;
    const char *Expected;
  };
  const Case Cases[] = {
      // A parse error anywhere beats an earlier lowering error.
      {"qreg q[1];\nh q[5];\nh q[0]\n", "line 4, column 1: expected ';'"},
      // A declaration error beats an earlier lowering error.
      {"qreg q[1];\nh q[5];\nqreg q[2];\n", "duplicate qreg 'q'"},
      {"qreg q[1];\nfoo q[0];\nopaque g a;\n",
       "opaque gate 'g' has no definition to inline"},
      {"qreg q[1];\nh q[0];\nopaque g a;\ng q[0];\n",
       "opaque gate 'g' has no definition to inline"},
      // The first lowering error wins.
      {"qreg q[1];\nh q[5];\ncx q[0];\n",
       "index 5 out of range for register q[1]"},
  };
  for (const Case &C : Cases) {
    EXPECT_EQ(diffImports(C.Text), "") << C.Text;
    EXPECT_EQ(importQasm(C.Text).Error, C.Expected) << C.Text;
  }
  // Under a bound, too large beats a declaration error made before the
  // bound was crossed.
  const std::string Over = "qreg q[2];\nqreg q[2];\nqreg r[10];\n";
  EXPECT_EQ(diffImports(Over, 5), "");
  EXPECT_TRUE(importQasm(Over, "", 5).TooLarge);
}

TEST(QasmDifferentialTest, LiteralsRoundLikeStrtod) {
  Rng R(99);
  auto digits = [&R](size_t N) {
    std::string S;
    for (size_t I = 0; I < N; ++I)
      S += static_cast<char>('0' + R.nextBounded(10));
    return S;
  };
  for (int I = 0; I < 20000; ++I) {
    std::string Literal = digits(1 + R.nextBounded(20));
    if (R.nextBounded(2))
      Literal += "." + digits(R.nextBounded(25));
    if (R.nextBounded(2))
      Literal += std::string(R.nextBounded(2) ? "e-" : "E+") +
                 std::to_string(R.nextBounded(400));
    double Expected = std::strtod(Literal.c_str(), nullptr);
    ImportResult Imported =
        importQasm("qreg q[1];\nrz(" + Literal + ") q[0];\n");
    if (!std::isfinite(Expected)) {
      EXPECT_FALSE(Imported.succeeded()) << Literal;
      continue;
    }
    ASSERT_TRUE(Imported.succeeded()) << Literal << ": " << Imported.Error;
    double Got = Imported.Circ->gate(0).Params[0];
    EXPECT_EQ(std::memcmp(&Got, &Expected, sizeof(Got)), 0) << Literal;
  }
}
