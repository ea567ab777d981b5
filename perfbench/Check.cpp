//===- perfbench/Check.cpp - Response checker ----------------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Check.h"

#include "qasm/Importer.h"
#include "route/Verify.h"
#include "support/Json.h"
#include "support/StringUtils.h"

using namespace qlosure;

namespace perfbench {

namespace {

size_t count(const json::Value &Stats, const char *Key) {
  const json::Value *V = Stats.get(Key);
  return V ? static_cast<size_t>(V->asNumber()) : SIZE_MAX;
}

/// Checks one routed answer (a route response or a batch_item frame).
std::string checkAnswer(const json::Value &Frame, const Circuit &Logical,
                        const CouplingGraph &Hw, Routed &Out) {
  const json::Value *Stats = Frame.get("stats");
  const json::Value *Qasm = Frame.get("qasm");
  if (!Stats || !Stats->isObject() || !Qasm || !Qasm->isString())
    return "answer lacks stats or qasm";
  const json::Value *Verified = Stats->get("verified");
  if (!Verified || !Verified->asBool())
    return "daemon did not set verified";

  qasm::ImportResult Imported = qasm::importQasm(Qasm->asString(), "routed");
  if (!Imported.succeeded())
    return "returned QASM does not import: " + Imported.Error;
  RoutingResult Result;
  Result.Routed = std::move(*Imported.Circ);
  const Circuit &Phys = Result.Routed;
  if (Phys.numQubits() != Hw.numQubits())
    return formatString("returned circuit has %u qubits, backend %u",
                        Phys.numQubits(), Hw.numQubits());

  Result.InitialMapping =
      QubitMapping::identity(Logical.numQubits(), Hw.numQubits());
  Result.FinalMapping = Result.InitialMapping;
  Result.InsertedSwapFlags.reserve(Phys.size());
  for (const Gate &G : Phys.gates()) {
    if (G.isTwoQubit() && !Hw.areAdjacent(static_cast<unsigned>(G.Qubits[0]),
                                          static_cast<unsigned>(G.Qubits[1])))
      return "two-qubit gate off the backend's edges: " + G.toString();
    Result.InsertedSwapFlags.push_back(G.isSwap());
    if (G.isSwap()) {
      Result.FinalMapping.swapPhysical(G.Qubits[0], G.Qubits[1]);
      ++Result.NumSwaps;
    }
  }
  VerifyResult Check = verifyRouting(Logical, Hw, Result);
  if (!Check.Ok)
    return "per-wire replay failed: " + Check.Message;

  Out.Swaps = Result.NumSwaps;
  Out.DepthAfter = Phys.depth();
  Out.DepthBefore = Logical.depth();
  if (count(*Stats, "swaps") != Out.Swaps ||
      count(*Stats, "depth_after") != Out.DepthAfter ||
      count(*Stats, "depth_before") != Out.DepthBefore)
    return formatString("stats disagree with the circuits: swaps %zu/%zu, "
                        "depth_after %zu/%zu, depth_before %zu/%zu",
                        count(*Stats, "swaps"), Out.Swaps,
                        count(*Stats, "depth_after"), Out.DepthAfter,
                        count(*Stats, "depth_before"), Out.DepthBefore);
  return "";
}

bool isOk(const json::Value &Frame) {
  const json::Value *Ok = Frame.get("ok");
  return Ok && Ok->asBool();
}

} // namespace

std::string checkResponse(const Workload &W, const CouplingGraph &Hw,
                          const Request &R,
                          const std::vector<std::string> &Frames,
                          std::vector<Routed> &Out) {
  Out.assign(R.Items.size(), Routed());
  if (Frames.size() != (R.Op == "batch" ? R.Items.size() + 1 : 1))
    return formatString("%s %s: %zu frames", R.Op.c_str(), R.Id.c_str(),
                        Frames.size());
  json::ParseResult Final = json::parse(Frames.back());
  if (!Final.Ok || !isOk(Final.V))
    return R.Op + " " + R.Id + " failed: " + Frames.back().substr(0, 300);

  if (R.Op == "route") {
    std::string Error = checkAnswer(Final.V, W.itemLogical(R, 0), Hw, Out[0]);
    return Error.empty() ? Error : R.Id + ": " + Error;
  }
  const json::Value *Succeeded = Final.V.get("succeeded");
  if (!Succeeded || Succeeded->asNumber() != R.Items.size())
    return R.Id + ": batch summary reports failed items";
  std::vector<bool> Seen(R.Items.size(), false);
  for (size_t F = 0; F + 1 < Frames.size(); ++F) {
    json::ParseResult Item = json::parse(Frames[F]);
    const json::Value *Index = Item.Ok ? Item.V.get("index") : nullptr;
    size_t I = Index ? static_cast<size_t>(Index->asNumber()) : SIZE_MAX;
    if (I >= R.Items.size() || Seen[I])
      return R.Id + ": bad or repeated batch_item index";
    Seen[I] = true;
    std::string Error = checkAnswer(Item.V, W.itemLogical(R, I), Hw, Out[I]);
    if (!Error.empty())
      return formatString("%s item %zu: %s", R.Id.c_str(), I, Error.c_str());
  }
  return "";
}

} // namespace perfbench
