//===- baselines/RouterRegistry.h - Mapper factory -----------------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Factory for the five mappers of the paper's evaluation (Qlosure plus
/// the four baselines). It owns the one list of mapper names that the
/// daemon, the command-line tools, the harness and the examples accept.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_BASELINES_ROUTERREGISTRY_H
#define QLOSURE_BASELINES_ROUTERREGISTRY_H

#include "route/Router.h"

#include <memory>
#include <string>
#include <vector>

namespace qlosure {

/// True for the names makeRouterByName accepts: "qlosure", "sabre",
/// "qmap", "cirq", "tket".
bool isRouterName(const std::string &Name);

/// Creates a mapper by name. Aborts on names isRouterName rejects.
std::unique_ptr<Router> makeRouterByName(const std::string &Name);

/// The mapper a route request names: qlosure in its error-aware and
/// affine-replay modes as asked, the baselines as makeRouterByName makes
/// them (they have neither mode, and route a calibrated graph with plain
/// distances). Aborts on names isRouterName rejects.
std::unique_ptr<Router> makeServiceRouter(const std::string &Name,
                                          bool ErrorAware, bool Affine);

/// The evaluation order used throughout the paper's tables:
/// SABRE, QMAP, Cirq, Pytket, Qlosure.
std::vector<std::string> paperRouterNames();

/// Instantiates all five mappers in paper order.
std::vector<std::unique_ptr<Router>> makePaperRouters();

} // namespace qlosure

#endif // QLOSURE_BASELINES_ROUTERREGISTRY_H
