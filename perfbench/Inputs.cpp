//===- perfbench/Inputs.cpp - Workload definitions and inputs ------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "Common.h"

#include "qasm/Importer.h"
#include "qasm/Printer.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "topology/Backends.h"
#include "workloads/QasmBench.h"
#include "workloads/Queko.h"
#include "workloads/Structured.h"

#include <algorithm>
#include <numeric>
#include <random>
#include <stdexcept>

using namespace qlosure;

namespace perfbench {

namespace {

std::string jsonEscaped(const std::string &Text) {
  std::string Out;
  Out.reserve(Text.size() + Text.size() / 8);
  json::escapeString(Text, Out);
  return Out;
}

/// The freshening gate of nonce \p Fresh in a run seeded \p Seed. Distinct
/// nonces print distinct angles, so the circuits' fingerprints differ.
std::string freshGate(uint64_t Seed, uint64_t Fresh) {
  return formatString("rz(%.6f) q[0];\n",
                      double(Seed % 1000) + double(Fresh) * 1e-6);
}

Circuit importLogical(const std::string &Qasm) {
  qasm::ImportResult Imported = qasm::importQasm(Qasm, "request");
  if (!Imported.succeeded())
    throw std::runtime_error("generated QASM does not import: " +
                             Imported.Error);
  // The same normalization the daemon applies after import.
  return Imported.Circ->withoutNonUnitaries().decomposeThreeQubitGates();
}

Base makeBase(std::string Name, const Circuit &Circ) {
  Base B;
  B.Name = std::move(Name);
  std::string Text = qasm::printQasm(Circ);
  size_t Reg = Text.find("qreg ");
  size_t Split = Reg == std::string::npos ? Reg : Text.find('\n', Reg);
  if (Split == std::string::npos)
    throw std::runtime_error("printed QASM has no register declaration");
  B.Head = Text.substr(0, Split + 1);
  B.HeadJson = jsonEscaped(B.Head);
  B.TailJson = jsonEscaped(Text.substr(Split + 1));
  Circuit Logical = importLogical(Text);
  // The response checker counts every routed SWAP as inserted.
  for (const Gate &G : Logical.gates())
    if (G.isSwap())
      throw std::runtime_error(B.Name + " contains a program SWAP");
  B.Logical = std::make_shared<const Circuit>(std::move(Logical));
  return B;
}

Base quekoBase(uint64_t Seed, size_t Index, unsigned Depth) {
  static const CouplingGraph Sycamore = makeSycamore54();
  QuekoSpec Spec;
  Spec.Depth = Depth;
  Spec.Seed = mixSeed(Seed, Index);
  QuekoInstance Inst = generateQueko(Sycamore, Spec);
  return makeBase(formatString("queko54-d%u-%zu", Depth, Index), Inst.Circ);
}

const std::vector<std::string> RouteMappers = {"qlosure", "sabre", "cirq",
                                               "tket"};

} // namespace

Workload makeWorkload(const std::string &Name, uint64_t Seed, bool Small) {
  Workload W;
  if (Name == "cold-queko54") {
    // Four circuits per depth (one in small mode), each routed by all
    // four mappers: 48 combinations that the timed loop cycles through.
    const std::vector<unsigned> Depths =
        Small ? std::vector<unsigned>{20, 40, 60}
              : std::vector<unsigned>{100, 300, 500};
    size_t PerDepth = Small ? 1 : 4;
    for (size_t I = 0; I < Depths.size() * PerDepth; ++I)
      W.Bases.push_back(quekoBase(Seed, I, Depths[I % Depths.size()]));
    W.Mappers = RouteMappers;
  } else if (Name == "warm-router-hits") {
    size_t Count = Small ? 2 : 6;
    for (size_t I = 0; I < Count; ++I)
      W.Bases.push_back(quekoBase(Seed, I, Small ? 60 : 500));
    W.Mappers = RouteMappers;
    W.ViaRouter = true;
    W.RepeatsReference = true;
  } else if (Name == "affine-batch") {
    // Loop circuits that the period detector recognizes. The first item
    // (32k gates) is past the 30k-gate ExactGateLimit, so its omega runs
    // on the affine engine; a QFT-like kernel on 16 qubits lifts cheaply,
    // unlike wider kernels whose lift takes seconds. The circuits do not
    // depend on the seed (only the freshening angles do), so the quality
    // metrics of this workload are the same for every seed.
    if (Small) {
      W.Bases.push_back(makeBase("qft16x100", qftLikeKernel(16, 100)));
      W.Bases.push_back(makeBase("ising16x20", makeIsing(16, 20)));
      W.Bases.push_back(makeBase("qaoa16x10", makeQaoa(16, 10)));
    } else {
      W.Bases.push_back(makeBase("qft16x1000", qftLikeKernel(16, 1000)));
      W.Bases.push_back(makeBase("qft8x200", qftLikeKernel(8, 200)));
      W.Bases.push_back(makeBase("ising16x100", makeIsing(16, 100)));
      W.Bases.push_back(makeBase("qaoa16x50", makeQaoa(16, 50)));
      W.Bases.push_back(makeBase("qugan16x100", makeQugan(16, 100)));
      W.Bases.push_back(
          makeBase("conveyor24x40", layeredConveyor(makeLine(24), 3, 40, 1)));
    }
    W.Mappers = {"qlosure"};
    // One client and one worker: a batch's items run one after another,
    // so its latency is the sum of its items' layers.
    W.Clients = 1;
    W.Workers = 1;
    W.Affine = true;
  } else {
    return Workload();
  }
  W.Name = Name;
  W.Seed = Seed;
  W.NumCombos = W.Affine ? 1 : W.Bases.size() * W.Mappers.size();
  for (size_t C = 0; C < W.NumCombos; ++C)
    W.Reference.push_back(
        W.makeRequest(formatString("ref%zu", C), C, /*Fresh=*/0));
  return W;
}

Request Workload::timed(size_t I) const {
  // Every cycle visits each combination once, in a seeded order, so which
  // requests overlap in the daemon keeps changing within a run instead of
  // settling into one pattern per run.
  std::vector<size_t> Order(NumCombos);
  std::iota(Order.begin(), Order.end(), 0);
  std::mt19937_64 Rng(mixSeed(Seed, 1000 + I / NumCombos));
  std::shuffle(Order.begin(), Order.end(), Rng);
  size_t Combo = Order[I % NumCombos];
  if (RepeatsReference)
    return Reference[Combo];
  return makeRequest(formatString("t%zu", I), Combo, I + 1);
}

Request Workload::makeRequest(const std::string &Id, size_t Combo,
                              uint64_t Fresh) const {
  Request R;
  R.Id = Id;
  R.Combo = Combo;
  R.Fresh = Fresh;
  R.Mapper = Mappers[Combo % Mappers.size()];
  std::string Gate = Fresh ? jsonEscaped(freshGate(Seed, Fresh)) : std::string();
  std::string &L = R.Line;
  if (Affine) {
    R.Op = "batch";
    L = "{\"op\":\"batch\",\"id\":\"" + Id + "\",\"mapper\":\"" + R.Mapper +
        "\",\"backend\":\"" + Backend + "\",\"affine\":true,\"items\":[";
    for (size_t B = 0; B < Bases.size(); ++B) {
      R.Items.push_back(B);
      L += (B ? ",{\"name\":\"" : "{\"name\":\"") + Bases[B].Name +
           "\",\"qasm\":\"" + Bases[B].HeadJson + Gate + Bases[B].TailJson +
           "\"}";
    }
    L += "]}";
    return R;
  }
  R.Op = "route";
  const Base &B = Bases[Combo / Mappers.size()];
  R.Items.push_back(Combo / Mappers.size());
  L = "{\"op\":\"route\",\"id\":\"" + Id + "\",\"mapper\":\"" + R.Mapper +
      "\",\"backend\":\"" + Backend + "\",\"qasm\":\"" + B.HeadJson + Gate +
      B.TailJson + "\"}";
  return R;
}

Circuit Workload::itemLogical(const Request &R, size_t Item) const {
  const Base &B = Bases[R.Items[Item]];
  if (!R.Fresh)
    return *B.Logical;
  // Import the fresh gate through the same lexer the daemon uses, so its
  // angle is bit-identical, then splice it in front of the base.
  Circuit Gate = importLogical(B.Head + freshGate(Seed, R.Fresh));
  Circuit Out(B.Logical->numQubits(), B.Logical->name());
  Out.addGate(Gate.gate(0));
  for (const qlosure::Gate &G : B.Logical->gates())
    Out.addGate(G);
  return Out;
}

} // namespace perfbench
