//===- tests/GoldenRouteTest.cpp - Pinned routed-output digests -------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Golden digests of routed output. Each case imports its input as QASM
/// text, strips it the way the daemon does, routes it on sherbrooke (or
/// ankaa3, where a row names it) from the identity placement, and checks (swaps, routed depth,
/// fingerprintString(printQasm(routed))) against committed values. Any
/// change to the frontend, a mapper or the printer that alters a routed
/// response byte fails here. The error-aware rows route on a sherbrooke
/// copy calibrated as the daemon calibrates it for `"calibration":1`, so
/// they pin the edge-error tie-break too. Further rows pin the kernel
/// paths the daemon does not take by default: the Fig. 8 distance-only
/// variant (window = front), a two-swap escape threshold (forced
/// shortest-path chains), a bidirectionally derived placement (Fig. 8
/// variant (d)) and ankaa3's 82 qubits. The qaoa64 row pins weighted
/// Qlosure on a circuit of 46,564 gates. QMAP runs with an unlimited
/// wall-clock budget, so its rows cannot depend on machine load; the
/// daemon's QMAP, which stops on a budget, is not pinned here.
///
/// The printer renders angles with std::to_chars (general, precision 17);
/// the last test checks that this matches printf's "%.17g" on a seeded
/// sample of doubles, which is what keeps old and new output identical.
///
//===----------------------------------------------------------------------===//

#include "baselines/QmapAstar.h"
#include "baselines/RouterRegistry.h"
#include "core/Qlosure.h"
#include "qasm/Importer.h"
#include "qasm/Printer.h"
#include "route/InitialMapping.h"
#include "route/RoutingContext.h"
#include "support/Fingerprint.h"
#include "support/Random.h"
#include "topology/Backends.h"
#include "workloads/QasmBench.h"
#include "workloads/Queko.h"
#include "workloads/Structured.h"

#include <gtest/gtest.h>

#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace qlosure;

namespace {

std::string readTestData(const char *File) {
  std::ifstream In(std::string(QLOSURE_TEST_DATA_DIR) + "/" + File);
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// The QASM text of each golden input, as a client would send it.
std::string goldenInput(const std::string &Name) {
  if (Name == "queko16")
    return readTestData("queko-16qbt-d25-s42.qasm");
  if (Name == "qft-kernel")
    return qasm::printQasm(qftLikeKernel(16, 100));
  if (Name == "queko54") {
    QuekoSpec Spec;
    Spec.Depth = 500;
    Spec.Seed = 2026;
    return qasm::printQasm(generateQueko(makeSycamore54(), Spec).Circ);
  }
  if (Name == "qaoa64")
    return qasm::printQasm(makeQaoa(64, 300));
  return qasm::printQasm(makeQaoa(16, 10));
}

/// The mappers under test; "qlosure-affine" and "qlosure-error-aware"
/// are qlosure as the daemon builds it for an `"affine":true` and an
/// `"error_aware":true` request, and "qmap" never stops on its
/// wall-clock budget. "qlosure-distance-only" is Fig. 8 variant (a) as
/// bench_fig8_ablation builds it, "qlosure-forced" forces a shortest-path
/// chain after every two swaps without progress, and
/// "qlosure-bidirectional" is default qlosure routed from the placement
/// deriveBidirectionalMapping derives (Fig. 8 variant (d)).
std::unique_ptr<Router> goldenMapper(const std::string &Name) {
  if (Name == "qmap") {
    QmapOptions Opts;
    Opts.TimeBudgetSeconds = 1e9;
    return std::make_unique<QmapAstarRouter>(Opts);
  }
  QlosureOptions Opts;
  if (Name == "qlosure-error-aware") {
    Opts.ErrorAware = true;
  } else if (Name == "qlosure-affine") {
    Opts.AffineReplay = true;
    Opts.UseDependencyWeights = false;
  } else if (Name == "qlosure-distance-only") {
    Opts.UseLayerStructure = false;
    Opts.UseDependencyWeights = false;
    Opts.DecayIncrement = 0.0;
  } else if (Name == "qlosure-forced") {
    Opts.MaxSwapsWithoutProgress = 2;
  } else if (Name != "qlosure-bidirectional") {
    return makeRouterByName(Name);
  }
  return std::make_unique<QlosureRouter>(Opts);
}

struct GoldenCase {
  const char *Input;
  const char *Mapper;
  size_t Swaps;
  size_t Depth;
  uint64_t Digest;
  const char *Backend = "sherbrooke";
};

const GoldenCase GoldenCases[] = {
    {"queko16", "qlosure", 83, 57, 0xa41dfa0f2f63eb60ull},
    {"queko16", "sabre", 83, 63, 0x5df21569a472598dull},
    {"queko16", "qmap", 132, 88, 0x5b664b81705757b8ull},
    {"queko16", "cirq", 85, 63, 0x4b5faaca39de219full},
    {"queko16", "tket", 103, 99, 0xbac2aee1b78e2ba4ull},
    {"queko16", "qlosure-affine", 80, 85, 0x1f70f51b3e4e5219ull},
    {"queko16", "qlosure-error-aware", 83, 57, 0xa41dfa0f2f63eb60ull},
    {"qft-kernel", "qlosure", 1595, 3475, 0xb4d8465846a55886ull},
    {"qft-kernel", "sabre", 1604, 3474, 0xe7e253fbff3e90acull},
    {"qft-kernel", "qmap", 2770, 3858, 0x36e8c89c095ed42eull},
    {"qft-kernel", "cirq", 1594, 3567, 0xa777d49c56be8548ull},
    {"qft-kernel", "tket", 1594, 3567, 0xcc588d5e2fe2556cull},
    {"qft-kernel", "qlosure-affine", 1595, 3475, 0xb4d8465846a55886ull},
    {"qaoa", "qlosure", 205, 193, 0xcd259e2ba1884cadull},
    {"qaoa", "sabre", 231, 198, 0x54123b6a2a0cf820ull},
    {"qaoa", "qmap", 555, 478, 0x33897febaa122b27ull},
    {"qaoa", "cirq", 280, 245, 0x5ec60c0a6e07c292ull},
    {"qaoa", "tket", 212, 205, 0x7aadb9f125d4eac7ull},
    {"qaoa", "qlosure-affine", 200, 169, 0xaaf2cb9aa15513dcull},
    {"qaoa", "qlosure-error-aware", 205, 193, 0x9dc757520a7f828aull},
    {"queko54", "qlosure", 8206, 3129, 0xeecfcb98a79b2af5ull},
    {"queko54", "sabre", 7631, 2832, 0x0e915f18d0831688ull},
    {"queko54", "qmap", 19272, 5282, 0x8bc55eeb8b8042e3ull},
    {"queko54", "cirq", 10535, 4702, 0x63b49d0610808263ull},
    {"queko54", "tket", 10486, 3963, 0x1c98d1cd4b7d9d33ull},
    {"queko16", "qlosure-distance-only", 105, 78, 0x000237870db4030bull},
    {"qft-kernel", "qlosure-distance-only", 2389, 3132, 0xf2c0575738ff9c9full},
    {"qaoa", "qlosure-distance-only", 463, 308, 0x944e5e6e02e48c93ull},
    {"queko54", "qlosure-distance-only", 12257, 3043, 0xea8924edb058df82ull},
    {"queko16", "qlosure-forced", 84, 63, 0xa4061b7987a725ecull},
    {"qft-kernel", "qlosure-forced", 1602, 3576, 0xd9312277c7023869ull},
    {"qaoa", "qlosure-forced", 463, 379, 0xa3f03d35b15eafe4ull},
    {"queko54", "qlosure-forced", 8505, 2622, 0xdcfda3df5e12d47full},
    {"queko16", "qlosure-bidirectional", 41, 44, 0xa860422c9396ea92ull},
    {"qft-kernel", "qlosure-bidirectional", 1591, 3473, 0xa3474709e3e5bd92ull},
    {"qaoa", "qlosure-bidirectional", 174, 158, 0xf26e59484e619924ull},
    {"queko54", "qlosure-bidirectional", 6888, 2650, 0xb0012fe66006338bull},
    {"queko54", "qlosure", 4002, 1991, 0xbc801a13b6677477ull, "ankaa3"},
    {"queko54", "sabre", 4384, 2260, 0x40eec080d8c90260ull, "ankaa3"},
    {"queko54", "cirq", 6036, 3586, 0xdc162e4c0c9da9b0ull, "ankaa3"},
    {"queko54", "tket", 5752, 2864, 0x56484869fe40a481ull, "ankaa3"},
    {"qaoa64", "qlosure", 29452, 7101, 0x5a542bdad4864badull},
};

/// A fingerprint of the rows above and the routing-semantics version they
/// were recorded under (GoldenRouteTest.RowsMatchTheRecordedVersion).
constexpr uint64_t GoldenTableFingerprint = 0x666b62a397055123ull;

uint64_t goldenTableFingerprint() {
  uint64_t Fp = 0;
  for (const GoldenCase &Case : GoldenCases) {
    Fp = hashCombine(Fp, fingerprintString(Case.Input));
    Fp = hashCombine(Fp, fingerprintString(Case.Mapper));
    Fp = hashCombine(Fp, Case.Swaps);
    Fp = hashCombine(Fp, Case.Depth);
    Fp = hashCombine(Fp, Case.Digest);
    Fp = hashCombine(Fp, fingerprintString(Case.Backend));
  }
  return hashCombine(Fp, RoutingSemanticsVersion);
}

} // namespace

TEST(GoldenRouteTest, RoutedOutputMatchesCommittedDigests) {
  CouplingGraph Sherbrooke = makeBackendByName("sherbrooke");
  CouplingGraph Calibrated = Sherbrooke;
  applySyntheticErrorModel(Calibrated, /*Seed=*/1);
  CouplingGraph Ankaa3 = makeBackendByName("ankaa3");
  for (const GoldenCase &Case : GoldenCases) {
    qasm::ImportResult Imported =
        qasm::importQasm(goldenInput(Case.Input), "golden");
    ASSERT_TRUE(Imported.succeeded()) << Case.Input << ": " << Imported.Error;
    Circuit Logical =
        Imported.Circ->withoutNonUnitaries().decomposeThreeQubitGates();
    std::unique_ptr<Router> Mapper = goldenMapper(Case.Mapper);
    bool OnAnkaa3 = std::strcmp(Case.Backend, "ankaa3") == 0;
    bool ErrorAware = std::strcmp(Case.Mapper, "qlosure-error-aware") == 0;
    RoutingContext Ctx = RoutingContext::build(
        Logical, OnAnkaa3 ? Ankaa3 : ErrorAware ? Calibrated : Sherbrooke);
    ASSERT_TRUE(Ctx.valid()) << Case.Input;
    RoutingResult Result =
        std::strcmp(Case.Mapper, "qlosure-bidirectional") == 0
            ? Mapper->route(Ctx, deriveBidirectionalMapping(*Mapper, Ctx))
            : Mapper->routeWithIdentity(Ctx);
    size_t Depth = Result.Routed.depth();
    uint64_t Digest = fingerprintString(qasm::printQasm(Result.Routed));
    char Actual[192];
    std::snprintf(Actual, sizeof(Actual),
                  "{\"%s\", \"%s\", %zu, %zu, 0x%016" PRIx64 "ull%s%s%s},",
                  Case.Input, Case.Mapper, Result.NumSwaps, Depth, Digest,
                  OnAnkaa3 ? ", \"" : "", OnAnkaa3 ? Case.Backend : "",
                  OnAnkaa3 ? "\"" : "");
    EXPECT_EQ(Result.NumSwaps, Case.Swaps) << Actual;
    EXPECT_EQ(Depth, Case.Depth) << Actual;
    EXPECT_EQ(Digest, Case.Digest) << Actual;
  }
}

TEST(GoldenRouteTest, RowsMatchTheRecordedVersion) {
  // Stored results are keyed by RoutingSemanticsVersion, so a daemon
  // restarted on an old store serves the old code's routes unless every
  // change that moves a route bumps it. The moved route shows here first.
  char Recorded[32];
  std::snprintf(Recorded, sizeof(Recorded), "0x%016" PRIx64 "ull",
                goldenTableFingerprint());
  EXPECT_EQ(goldenTableFingerprint(), GoldenTableFingerprint)
      << "The golden table or RoutingSemanticsVersion changed. If an "
         "existing row's swaps, depth or digest moved, routes moved: bump "
         "RoutingSemanticsVersion (src/route/Router.h), so stores written "
         "by the old code start cold. If rows were only added, the version "
         "stays. Either way, record GoldenTableFingerprint = "
      << Recorded;
}

TEST(GoldenRouteTest, UnstrippedImportPrintsStably) {
  // barriered_ghz.qasm keeps its creg, barrier and measures through
  // import, so this pins the printer's non-unitary lines.
  qasm::ImportResult Imported =
      qasm::importQasm(readTestData("barriered_ghz.qasm"), "ghz");
  ASSERT_TRUE(Imported.succeeded()) << Imported.Error;
  EXPECT_EQ(qasm::printQasm(*Imported.Circ), "OPENQASM 2.0;\n"
                                             "include \"qelib1.inc\";\n"
                                             "qreg q[4];\n"
                                             "creg c[4];\n"
                                             "h q[0];\n"
                                             "cx q[0],q[1];\n"
                                             "cx q[1],q[2];\n"
                                             "barrier q[0];\n"
                                             "barrier q[1];\n"
                                             "barrier q[2];\n"
                                             "barrier q[3];\n"
                                             "cx q[2],q[3];\n"
                                             "measure q[0] -> c[0];\n"
                                             "measure q[1] -> c[1];\n"
                                             "measure q[2] -> c[2];\n"
                                             "measure q[3] -> c[3];\n");
}

TEST(GoldenRouteTest, ToCharsMatchesPrintfPrecision17) {
  Rng R(20260401);
  auto bits = [](uint64_t B) {
    double D;
    std::memcpy(&D, &B, sizeof(D));
    return D;
  };
  size_t Checked = 0, Mismatches = 0;
  auto check = [&](double V) {
    char Want[64], Got[64];
    std::snprintf(Want, sizeof(Want), "%.17g", V);
    auto [End, Ec] = std::to_chars(Got, Got + sizeof(Got), V,
                                   std::chars_format::general, 17);
    ASSERT_EQ(Ec, std::errc());
    *End = '\0';
    ++Checked;
    if (std::strcmp(Want, Got) != 0 && ++Mismatches <= 5)
      ADD_FAILURE() << "%.17g gives " << Want << ", to_chars " << Got;
  };
  for (double V : {0.0, -0.0, 1.0, -1.0, M_PI, -M_PI, 1e16, 1e17, 1e-5,
                   1e-4, 123456789012345678.0, 5e-324, -5e-324,
                   2.2250738585072014e-308, 1.7976931348623157e308})
    check(V);
  for (int I = 0; I < 400000; ++I) // Random bit patterns, NaN/inf included.
    check(bits(R.next()));
  for (int I = 0; I < 200000; ++I) // Subnormals of either sign.
    check(bits((R.next() & 0x800fffffffffffffull)));
  for (int I = 0; I < 200000; ++I) { // Integers, small and near 2^53.
    int64_t N = static_cast<int64_t>(R.next() >> (I % 2 ? 11 : 40));
    check(static_cast<double>(I % 3 ? N : -N));
  }
  for (int I = 0; I < 200000; ++I) { // k * pi / 2^n, as QFT angles are.
    int64_t K = static_cast<int64_t>(R.next() % 4097) - 2048;
    check(static_cast<double>(K) * M_PI / std::ldexp(1.0, I % 64));
  }
  EXPECT_GE(Checked, 1000000u);
  EXPECT_EQ(Mismatches, 0u);
}
