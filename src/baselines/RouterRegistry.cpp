//===- baselines/RouterRegistry.cpp - Mapper factory ------------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "baselines/RouterRegistry.h"

#include "baselines/CirqGreedy.h"
#include "baselines/QmapAstar.h"
#include "baselines/Sabre.h"
#include "baselines/TketBounded.h"
#include "core/Qlosure.h"
#include "support/Error.h"

using namespace qlosure;

namespace {

template <typename R> std::unique_ptr<Router> make() {
  return std::make_unique<R>();
}

/// Every mapper by name, in the paper's table order.
const struct {
  const char *Name;
  std::unique_ptr<Router> (*Make)();
} Registry[] = {{"sabre", make<SabreRouter>},
                {"qmap", make<QmapAstarRouter>},
                {"cirq", make<CirqGreedyRouter>},
                {"tket", make<TketBoundedRouter>},
                {"qlosure", make<QlosureRouter>}};

} // namespace

bool qlosure::isRouterName(const std::string &Name) {
  for (const auto &Entry : Registry)
    if (Name == Entry.Name)
      return true;
  return false;
}

std::unique_ptr<Router> qlosure::makeRouterByName(const std::string &Name) {
  for (const auto &Entry : Registry)
    if (Name == Entry.Name)
      return Entry.Make();
  reportFatalError("unknown router name: " + Name);
}

std::unique_ptr<Router> qlosure::makeServiceRouter(const std::string &Name,
                                                   bool ErrorAware,
                                                   bool Affine) {
  if (Name != "qlosure")
    return makeRouterByName(Name);
  QlosureOptions Opts;
  Opts.ErrorAware = ErrorAware;
  Opts.AffineReplay = Affine;
  // Replay is only exact under the unweighted scoring profile (omega is
  // aperiodic even on periodic traces, so weighted anchors rarely recur);
  // requesting affine selects that profile.
  if (Affine)
    Opts.UseDependencyWeights = false;
  return std::make_unique<QlosureRouter>(Opts);
}

std::vector<std::string> qlosure::paperRouterNames() {
  std::vector<std::string> Names;
  for (const auto &Entry : Registry)
    Names.push_back(Entry.Name);
  return Names;
}

std::vector<std::unique_ptr<Router>> qlosure::makePaperRouters() {
  std::vector<std::unique_ptr<Router>> Routers;
  for (const auto &Entry : Registry)
    Routers.push_back(Entry.Make());
  return Routers;
}
