//===- perfbench/Layers.cpp - Traced per-layer pass ----------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "Service.h"

#include "baselines/RouterRegistry.h"
#include "core/Qlosure.h"
#include "qasm/Importer.h"
#include "qasm/Lexer.h"
#include "qasm/Parser.h"
#include "qasm/Printer.h"
#include "route/Verify.h"
#include "service/Client.h"
#include "service/Protocol.h"
#include "service/SocketIO.h"
#include "service/Transport.h"
#include "support/Fingerprint.h"
#include "support/StringUtils.h"

#include <thread>
#include <unistd.h>

using namespace qlosure;
using namespace qlosure::service;

namespace perfbench {

namespace {

enum Layer : unsigned {
  Decode,
  Lex,
  ParseAll, ///< parseQasm, which lexes again.
  Lower,
  CircuitFp,
  RawFp,
  CtxBuild,
  Omega,
  Period,
  LoopQlosure,
  LoopSabre,
  LoopCirq,
  LoopTket,
  VerifyLayer,
  Print,
  Encode,
  NumLayers
};

const char *const Mappers[] = {"qlosure", "sabre", "cirq", "tket"};

unsigned loopLayer(const std::string &Mapper) {
  for (unsigned I = 0; I < 4; ++I)
    if (Mapper == Mappers[I])
      return LoopQlosure + I;
  return LoopQlosure;
}

/// Spans of the traced pass, kept in memory until it ends.
class SpanLog {
public:
  struct Span {
    unsigned Layer;
    uint32_t Request;
    int64_t StartNs, DurNs;
  };
  SpanLog() : Epoch(Clock::now()) { Spans.reserve(1 << 16); }
  void add(unsigned L, uint32_t Request, Clock::time_point Start,
           Clock::time_point End) {
    Spans.push_back({L, Request, ns(Start), ns(End) - ns(Start)});
  }
  const std::vector<Span> &spans() const { return Spans; }

private:
  int64_t ns(Clock::time_point T) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(T - Epoch)
        .count();
  }
  Clock::time_point Epoch;
  std::vector<Span> Spans;
};

/// Times one call into a layer when a log is attached; costs a pointer
/// test otherwise.
class SpanScope {
public:
  SpanScope(SpanLog *Log, unsigned L, uint32_t Request)
      : Log(Log), L(L), Request(Request) {
    if (Log)
      Start = Clock::now();
  }
  ~SpanScope() {
    if (Log)
      Log->add(L, Request, Start, Clock::now());
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  SpanLog *Log;
  unsigned L;
  uint32_t Request;
  Clock::time_point Start;
};

/// The mapper the daemon builds for a request (service/Server.cpp).
std::unique_ptr<Router> makeMapper(const std::string &Name, bool Affine) {
  if (Name != "qlosure")
    return makeRouterByName(Name);
  QlosureOptions Opts;
  Opts.AffineReplay = Affine;
  if (Affine)
    Opts.UseDependencyWeights = false;
  return std::make_unique<QlosureRouter>(Opts);
}

/// Counts of one pipeline run, outside the spans.
struct ItemCounts {
  size_t Tokens = 0, QasmBytes = 0, Swaps = 0, RoutedGates = 0;
  size_t Replayed = 0, Fallback = 0;
  bool AffineOmega = false;
  double Compression = 1;
};

struct RunCounts {
  std::vector<ItemCounts> Items;
  size_t BytesOut = 0;
  std::string Error;
};

/// The daemon's call sequence for one request. \p Log is null on the
/// untraced run.
RunCounts runPipeline(const Workload &W, const CouplingGraph &Hw,
                      const Request &R, uint32_t Index, RoutingScratch &Scratch,
                      SpanLog *Log) {
  RunCounts Out;
  RequestParse Parsed;
  {
    SpanScope S(Log, Decode, Index);
    Parsed = parseRequest(R.Line);
  }
  if (!Parsed.Ok) {
    Out.Error = R.Id + ": parseRequest failed: " + Parsed.ErrorMessage;
    return Out;
  }
  const bool Batch = R.Op == "batch";
  std::vector<std::string> ItemNames, ItemStatus;
  if (Batch)
    for (const BatchItem &Item : Parsed.Req.Items)
      ItemNames.push_back(Item.Name);
  const size_t NumItems = Batch ? ItemNames.size() : 1;
  for (size_t I = 0; I < NumItems; ++I) {
    const std::string &Qasm =
        Batch ? Parsed.Req.Items[I].Qasm : Parsed.Req.Route.Qasm;
    ItemCounts C;
    C.QasmBytes = Qasm.size();
    {
      SpanScope S(Log, Lex, Index);
      C.Tokens = qasm::tokenize(Qasm).size();
    }
    qasm::ParseResult Program;
    {
      SpanScope S(Log, ParseAll, Index);
      Program = qasm::parseQasm(Qasm);
    }
    if (!Program.succeeded()) {
      Out.Error = R.Id + ": parseQasm failed: " + Program.Error;
      return Out;
    }
    std::optional<Circuit> Logical;
    {
      SpanScope S(Log, Lower, Index);
      qasm::ImportResult Imported =
          qasm::importProgram(*Program.Prog, "request");
      if (Imported.succeeded())
        Logical = Imported.Circ->withoutNonUnitaries()
                      .decomposeThreeQubitGates();
    }
    if (!Logical) {
      Out.Error = R.Id + ": importProgram failed";
      return Out;
    }
    {
      SpanScope S(Log, CircuitFp, Index);
      fingerprint(*Logical);
    }
    {
      SpanScope S(Log, RawFp, Index);
      fingerprintString(Qasm);
    }
    std::unique_ptr<Router> Mapper = makeMapper(R.Mapper, W.Affine);
    std::optional<RoutingContext> Ctx;
    {
      SpanScope S(Log, CtxBuild, Index);
      Ctx.emplace(RoutingContext::build(*Logical, Hw, Mapper->contextOptions()));
    }
    if (!Ctx->valid()) {
      Out.Error = R.Id + ": invalid context: " + Ctx->status().message();
      return Out;
    }
    {
      // The daemon computes omega eagerly for every context it caches.
      SpanScope S(Log, Omega, Index);
      Ctx->dependenceWeights();
    }
    C.AffineOmega =
        Ctx->dependenceWeightResult().UsedEngine == WeightEngine::Affine;
    C.Compression = Ctx->dependenceWeightResult().CompressionRatio;
    {
      SpanScope S(Log, Period, Index);
      Ctx->periodStructure();
    }
    RoutingResult Result;
    {
      SpanScope S(Log, loopLayer(R.Mapper), Index);
      Result = Mapper->route(*Ctx, Ctx->identityMapping(), Scratch);
    }
    C.Swaps = Result.NumSwaps;
    C.RoutedGates = Result.Routed.size();
    C.Replayed = Result.AffineReplayedPeriods;
    C.Fallback = Result.AffineFallbackPeriods;
    VerifyResult Check;
    {
      SpanScope S(Log, VerifyLayer, Index);
      Check = verifyRouting(*Logical, Hw, Result);
    }
    if (!Check.Ok) {
      Out.Error = R.Id + ": verifyRouting failed: " + Check.Message;
      return Out;
    }
    std::string Printed;
    {
      SpanScope S(Log, Print, Index);
      Printed = qasm::printQasm(Result.Routed);
    }
    if (W.Affine) {
      // Off the request path: the baselines on the same items, so every
      // workload reports every mapper's loop time.
      for (const char *Baseline : {"sabre", "cirq", "tket"}) {
        std::unique_ptr<Router> Other = makeRouterByName(Baseline);
        SpanScope S(Log, loopLayer(Baseline), Index);
        Other->route(*Ctx, Ctx->identityMapping(), Scratch);
      }
    }
    RouteStats Stats;
    Stats.LogicalGates = Logical->size();
    Stats.RoutedGates = Result.Routed.size();
    Stats.Swaps = Result.NumSwaps;
    Stats.DepthBefore = Logical->depth();
    Stats.DepthAfter = Result.Routed.depth();
    Stats.MappingSeconds = Result.MappingSeconds;
    Stats.Verified = true;
    {
      SpanScope S(Log, Encode, Index);
      std::string Frame =
          Batch ? formatBatchItemResult(R.Id, I, ItemNames[I], R.Mapper,
                                        W.Backend, Stats, false, false,
                                        Printed, true)
                : formatRouteResponse(R.Id, R.Mapper, W.Backend, Stats, false,
                                      false, Printed, true);
      Out.BytesOut += Frame.size() + 1;
    }
    ItemStatus.push_back("ok");
    Out.Items.push_back(C);
  }
  if (Batch) {
    SpanScope S(Log, Encode, Index);
    Out.BytesOut += formatBatchSummaryResponse(R.Id, R.Mapper, W.Backend,
                                               ItemNames, ItemStatus)
                        .size() +
                    1;
  }
  return Out;
}

} // namespace

LayerPass runLayerPass(const Workload &W, const CouplingGraph &Hw,
                       double Seconds,
                       const std::vector<std::vector<Routed>> &RefRouted) {
  LayerPass Out;
  SpanLog Log;
  RoutingScratch Scratch;
  std::vector<std::string> Mapper; // Per request.
  std::vector<double> BytesIn, BytesOut, Tokens, QasmBytes, Compression;
  size_t Items = 0, AffineOmega = 0, Swaps = 0, Gates = 0;
  size_t Replayed = 0, Fallback = 0;
  double TracedMs = 0, UntracedMs = 0;
  const auto Start = Clock::now();
  const size_t MinRequests = std::min<size_t>(W.Reference.size(), 3);
  for (size_t I = 0;; ++I) {
    if (I >= MinRequests && msBetween(Start, Clock::now()) >= Seconds * 1e3)
      break;
    // Reference requests first, then the timed loop's own inputs.
    Request R = I < W.Reference.size() ? W.Reference[I]
                                       : W.timed(I - W.Reference.size());
    uint32_t Index = static_cast<uint32_t>(I);
    RunCounts Traced;
    // Alternate which run goes first, so warm-up effects cancel.
    for (int Pass = 0; Pass < 2; ++Pass) {
      bool Trace = (Pass == 0) == (I % 2 == 0);
      const auto T0 = Clock::now();
      RunCounts Run =
          runPipeline(W, Hw, R, Index, Scratch, Trace ? &Log : nullptr);
      (Trace ? TracedMs : UntracedMs) += msBetween(T0, Clock::now());
      if (Trace)
        Traced = std::move(Run);
    }
    if (!Traced.Error.empty()) {
      Out.Errors.push_back(Traced.Error);
      break;
    }
    Mapper.push_back(R.Mapper);
    BytesIn.push_back(R.Line.size() + 1);
    BytesOut.push_back(Traced.BytesOut);
    double RequestTokens = 0, RequestBytes = 0;
    for (size_t It = 0; It < Traced.Items.size(); ++It) {
      const ItemCounts &C = Traced.Items[It];
      if (C.Swaps != RefRouted[R.Combo][It].Swaps)
        Out.Errors.push_back(formatString(
            "%s item %zu: library routed %zu swaps, the daemon %zu",
            R.Id.c_str(), It, C.Swaps, RefRouted[R.Combo][It].Swaps));
      RequestTokens += C.Tokens;
      RequestBytes += C.QasmBytes;
      Compression.push_back(C.Compression);
      ++Items;
      AffineOmega += C.AffineOmega;
      Swaps += C.Swaps;
      Gates += C.RoutedGates;
      Replayed += C.Replayed;
      Fallback += C.Fallback;
    }
    Tokens.push_back(RequestTokens);
    QasmBytes.push_back(RequestBytes);
  }
  const size_t N = Mapper.size();
  Out.Requests = N;

  // Per-request time in each layer.
  std::vector<std::vector<double>> Total(NumLayers, std::vector<double>(N, 0));
  for (const SpanLog::Span &S : Log.spans())
    if (S.Request < N)
      Total[S.Layer][S.Request] += S.DurNs / 1e6;
  std::vector<double> ParseOnly(N), LoopPath(N), MbPerS(N);
  for (size_t I = 0; I < N; ++I) {
    ParseOnly[I] = Total[ParseAll][I] - Total[Lex][I];
    LoopPath[I] = Total[loopLayer(Mapper[I])][I];
    double ImportMs = Total[ParseAll][I] + Total[Lower][I];
    MbPerS[I] = ImportMs > 0 ? QasmBytes[I] / 1e3 / ImportMs : 0;
  }
  auto p50 = [&](unsigned L) { return median(Total[L]); };
  /// p50 over the requests that ran mapper \p L.
  auto loopP50 = [&](unsigned L) {
    std::vector<double> V;
    for (size_t I = 0; I < N; ++I)
      if (W.Affine || loopLayer(Mapper[I]) == L)
        V.push_back(Total[L][I]);
    return median(V);
  };
  double LoopMs = 0;
  for (unsigned L = LoopQlosure; L <= LoopTket; ++L)
    for (size_t I = 0; I < N; ++I)
      if (loopLayer(Mapper[I]) == L)
        LoopMs += Total[L][I];

  auto add = [&Out](const char *Name, double Value, const char *Unit) {
    addMetric(Out.Metrics, Name, Value, Unit);
  };
  add("qasm.lex_ms", p50(Lex), "ms");
  add("qasm.parse_ms", median(ParseOnly), "ms");
  add("qasm.lower_ms", p50(Lower), "ms");
  add("qasm.tokens", median(Tokens), "count");
  add("qasm.import_mb_per_s", median(MbPerS), "MB/s");
  add("qasm.print_ms", p50(Print), "ms");
  add("key.circuit_fp_ms", p50(CircuitFp), "ms");
  add("key.raw_fp_ms", p50(RawFp), "ms");
  add("service.request_decode_ms", p50(Decode), "ms");
  add("service.response_encode_ms", p50(Encode), "ms");
  add("ctx.build_ms", p50(CtxBuild), "ms");
  add("ctx.omega_ms", p50(Omega), "ms");
  add("ctx.omega_affine_frac", Items ? double(AffineOmega) / Items : 0,
        "ratio");
  add("ctx.omega_compression", median(Compression), "ratio");
  add("ctx.period_ms", p50(Period), "ms");
  add("loop.ms.qlosure", loopP50(LoopQlosure), "ms");
  add("loop.ms.sabre", loopP50(LoopSabre), "ms");
  add("loop.ms.cirq", loopP50(LoopCirq), "ms");
  add("loop.ms.tket", loopP50(LoopTket), "ms");
  add("loop.swaps_per_s", LoopMs > 0 ? Swaps / (LoopMs / 1e3) : 0,
        "swaps/s");
  add("loop.gates_per_s", LoopMs > 0 ? Gates / (LoopMs / 1e3) : 0,
        "gates/s");
  add("affine.replayed_frac",
        Replayed + Fallback ? double(Replayed) / (Replayed + Fallback) : 0,
        "ratio");
  add("verify.ms", p50(VerifyLayer), "ms");
  add("tracing_overhead_pct",
        UntracedMs > 0 ? (TracedMs - UntracedMs) / UntracedMs * 100 : 0, "%");

  Out.BytesIn = median(BytesIn);
  Out.BytesOut = median(BytesOut);
  Out.PathMs = p50(Decode) + p50(Lex) + median(ParseOnly) + p50(Lower) +
               p50(CircuitFp) + p50(Encode);
  if (!W.RepeatsReference)
    Out.PathMs += p50(CtxBuild) + p50(Omega) + median(LoopPath) +
                  p50(VerifyLayer) + p50(Print);
  if (W.Affine)
    Out.PathMs += p50(Period);
  return Out;
}

double frameRttMs(size_t BytesIn, size_t BytesOut, unsigned Reps) {
  Endpoint Ep;
  Listener Echo;
  if (!parseEndpoint("tcp:127.0.0.1:0", Ep).ok() || !Echo.listen(Ep).ok())
    return 0;
  const std::string Reply(BytesOut > 1 ? BytesOut - 1 : 1, 'x');
  std::thread Server([&Echo, &Reply] {
    int Fd = Echo.acceptConnection();
    if (Fd < 0)
      return;
    std::string Pending, Line;
    char Buf[1 << 16];
    for (;;) {
      ssize_t Got = recvSome(Fd, Buf, sizeof(Buf));
      if (Got <= 0)
        break;
      Pending.append(Buf, static_cast<size_t>(Got));
      while (popLine(Pending, Line))
        sendAll(Fd, Reply + "\n");
    }
    ::close(Fd);
  });
  std::vector<double> Ms;
  {
    Client Conn;
    if (Conn.connect(Echo.endpoint().str(), 5).ok()) {
      const std::string Frame(BytesIn > 1 ? BytesIn - 1 : 1, 'x');
      std::string Line;
      for (unsigned I = 0; I < Reps; ++I) {
        const auto T0 = Clock::now();
        if (!Conn.sendLine(Frame).ok() || !Conn.recvLine(Line).ok())
          break;
        Ms.push_back(msBetween(T0, Clock::now()));
      }
    }
  } // Closing the client ends the echo loop.
  Echo.close();
  Server.join();
  return median(Ms);
}

double routerHopMs(const Request &R, const std::string &DaemonAddress,
                   const std::string &RouterAddress, unsigned Reps,
                   std::vector<std::string> &Errors) {
  Client Direct, Via;
  if (!Direct.connect(DaemonAddress, 5).ok() ||
      !Via.connect(RouterAddress, 5).ok()) {
    Errors.push_back("router hop: cannot connect");
    return 0;
  }
  std::vector<double> DirectMs, ViaMs;
  std::vector<std::string> Frames;
  for (unsigned I = 0; I < Reps; ++I) {
    for (Client *Conn : {&Direct, &Via}) {
      const auto T0 = Clock::now();
      if (!exchange(*Conn, R, Frames).ok()) {
        Errors.push_back("router hop: request failed");
        return 0;
      }
      (Conn == &Direct ? DirectMs : ViaMs)
          .push_back(msBetween(T0, Clock::now()));
    }
  }
  return median(ViaMs) - median(DirectMs);
}

} // namespace perfbench
