//===- tools/qlosure-queko.cpp - QUEKO instance generator ----------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates one QUEKO benchmark circuit (Tan & Cong: known-optimal-depth
/// layout-synthesis instances; src/workloads/Queko.h) as OpenQASM 2.0, so
/// scripts, smoke tests and load generators can create circuits of any
/// size on the fly instead of committing megabytes of QASM:
///
///   qlosure-queko [--device NAME] [--depth N] [--seed N]
///                 [--two-qubit-density F] [--one-qubit-density F]
///                 [--output FILE]
///
///   --device NAME   generation device (any qlosure-route backend name;
///                   default sycamore54). The instance's optimal depth is
///                   provable on this device.
///   --depth N       optimal depth to pin (default 100)
///   --seed N        generation seed (default 1)
///   --output FILE   write QASM to FILE instead of stdout
///
/// The optimal depth is emitted as a trailing "// optimal_depth N"
/// comment on stderr for scripts that want the ground truth.
///
//===----------------------------------------------------------------------===//

#include "qasm/Printer.h"
#include "topology/Backends.h"
#include "workloads/Queko.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

using namespace qlosure;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--device NAME] [--depth N] [--seed N] "
               "[--two-qubit-density F] [--one-qubit-density F] "
               "[--output FILE]\n",
               Argv0);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Device = "sycamore54";
  std::string OutputPath;
  QuekoSpec Spec;

  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--device") && I + 1 < Argc) {
      Device = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--depth") && I + 1 < Argc) {
      Spec.Depth = static_cast<unsigned>(std::strtoul(Argv[++I], nullptr, 10));
    } else if (!std::strcmp(Argv[I], "--seed") && I + 1 < Argc) {
      Spec.Seed = std::strtoull(Argv[++I], nullptr, 10);
    } else if (!std::strcmp(Argv[I], "--two-qubit-density") && I + 1 < Argc) {
      Spec.TwoQubitDensity = std::strtod(Argv[++I], nullptr);
    } else if (!std::strcmp(Argv[I], "--one-qubit-density") && I + 1 < Argc) {
      Spec.OneQubitDensity = std::strtod(Argv[++I], nullptr);
    } else if (!std::strcmp(Argv[I], "--output") && I + 1 < Argc) {
      OutputPath = Argv[++I];
    } else {
      return usage(Argv[0]);
    }
  }
  if (Spec.Depth == 0)
    return usage(Argv[0]);
  if (!isBackendName(Device)) {
    std::string Known;
    for (const std::string &Name : backendNames())
      Known += " " + Name;
    std::fprintf(stderr, "qlosure-queko: error: unknown device \"%s\"; "
                         "known:%s\n",
                 Device.c_str(), Known.c_str());
    return 2;
  }

  CouplingGraph GenDevice = makeBackendByName(Device);
  QuekoInstance Inst = generateQueko(GenDevice, Spec);
  std::string Qasm = qasm::printQasm(Inst.Circ);

  if (OutputPath.empty()) {
    std::fputs(Qasm.c_str(), stdout);
  } else {
    std::ofstream Out(OutputPath);
    if (!Out) {
      std::fprintf(stderr, "qlosure-queko: error: cannot write %s\n",
                   OutputPath.c_str());
      return 2;
    }
    Out << Qasm;
  }
  std::fprintf(stderr, "// optimal_depth %u\n", Inst.OptimalDepth);
  return 0;
}
