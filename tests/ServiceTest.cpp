//===- tests/ServiceTest.cpp - qlosured service subsystem tests -----------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the persistent-mapping-service stack, bottom-up: the JSON
/// library, the protocol codec, the sharded caches, the scheduler, and a
/// full in-process Server driven over a real Unix socket by the blocking
/// Client — including the CI-critical properties: repeated requests hit
/// the cache, responses are byte-identical to direct library calls, and
/// the daemon survives every flavor of malformed input with a structured
/// error instead of a crash or a wedged connection.
///
//===----------------------------------------------------------------------===//

#include "service/Client.h"
#include "service/ContextCache.h"
#include "service/Protocol.h"
#include "service/Scheduler.h"
#include "service/Server.h"

#include "baselines/RouterRegistry.h"
#include "qasm/Importer.h"
#include "qasm/Printer.h"
#include "route/Verify.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "topology/Backends.h"
#include "workloads/Queko.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <unistd.h>

using namespace qlosure;
using namespace qlosure::service;

namespace {

/// A short, unique Unix socket path (sun_path is ~108 bytes).
std::string testSocketPath() {
  static std::atomic<unsigned> Counter{0};
  return formatString("/tmp/qls-%d-%u.sock", static_cast<int>(getpid()),
                      Counter.fetch_add(1));
}

std::string sampleQasm() {
  return "OPENQASM 2.0;\n"
         "include \"qelib1.inc\";\n"
         "qreg q[5];\n"
         "h q[0];\n"
         "cx q[0],q[4];\n"
         "cx q[1],q[3];\n"
         "cx q[0],q[2];\n"
         "cx q[4],q[1];\n"
         "cx q[2],q[3];\n";
}

json::Value routeRequest(const std::string &Qasm,
                         const std::string &Mapper = "qlosure",
                         const std::string &Backend = "aspen16") {
  json::Value Req = json::Value::object();
  Req.set("op", "route");
  Req.set("qasm", Qasm);
  Req.set("mapper", Mapper);
  Req.set("backend", Backend);
  return Req;
}

json::Value cancelRequest(const std::string &Id) {
  json::Value Req = json::Value::object();
  Req.set("op", "cancel");
  Req.set("id", Id);
  return Req;
}

/// A QUEKO circuit whose `qmap` routing onto sherbrooke2x takes several
/// hundred milliseconds per 100 cycles of depth — the "reliably still in
/// flight when the cancel arrives" workload of the cancellation tests.
std::string deepQuekoQasm(unsigned Depth, uint64_t Seed = 3) {
  CouplingGraph Gen = makeKings9x9();
  QuekoSpec Spec;
  Spec.Depth = Depth;
  Spec.Seed = Seed;
  return qasm::printQasm(generateQueko(Gen, Spec).Circ);
}

json::Value slowRouteRequest(const std::string &Id, unsigned Depth = 400,
                             uint64_t Seed = 3) {
  json::Value Req = routeRequest(deepQuekoQasm(Depth, Seed), "qmap",
                                 "sherbrooke2x");
  Req.set("id", Id);
  Req.set("include_qasm", false);
  return Req;
}

/// Parses a response line and returns the document (fails the test on
/// malformed JSON).
json::Value parseResponse(const std::string &Line) {
  json::ParseResult Parsed = json::parse(Line);
  EXPECT_TRUE(Parsed.Ok) << Parsed.Error << " in: " << Line;
  return Parsed.V;
}

bool responseOk(const json::Value &Response) {
  const json::Value *Ok = Response.get("ok");
  return Ok && Ok->asBool();
}

std::string errorCode(const json::Value &Response) {
  const json::Value *Error = Response.get("error");
  if (!Error || !Error->isObject())
    return "";
  const json::Value *Code = Error->get("code");
  return Code ? Code->asString() : "";
}

} // namespace

//===----------------------------------------------------------------------===//
// JSON library
//===----------------------------------------------------------------------===//

TEST(JsonTest, RoundTripsValues) {
  json::Value Doc = json::Value::object();
  Doc.set("text", "line1\nline2\t\"quoted\"\\");
  Doc.set("int", 42);
  Doc.set("neg", -7);
  Doc.set("float", 2.5);
  Doc.set("flag", true);
  Doc.set("nil", json::Value());
  json::Value Arr = json::Value::array();
  Arr.push(1);
  Arr.push("two");
  Arr.push(false);
  Doc.set("arr", std::move(Arr));

  std::string Wire = Doc.dump();
  EXPECT_EQ(Wire.find('\n'), std::string::npos)
      << "dump() must stay on one line";
  json::ParseResult Back = json::parse(Wire);
  ASSERT_TRUE(Back.Ok) << Back.Error;
  EXPECT_EQ(Back.V.get("text")->asString(), "line1\nline2\t\"quoted\"\\");
  EXPECT_EQ(Back.V.get("int")->asNumber(), 42);
  EXPECT_EQ(Back.V.get("neg")->asNumber(), -7);
  EXPECT_EQ(Back.V.get("float")->asNumber(), 2.5);
  EXPECT_TRUE(Back.V.get("flag")->asBool());
  EXPECT_TRUE(Back.V.get("nil")->isNull());
  ASSERT_EQ(Back.V.get("arr")->items().size(), 3u);
  EXPECT_EQ(Back.V.get("arr")->items()[1].asString(), "two");
}

TEST(JsonTest, IntegersSerializeWithoutDecimalPoint) {
  json::Value Doc = json::Value::object();
  Doc.set("n", 1234567);
  EXPECT_NE(Doc.dump().find("\"n\":1234567"), std::string::npos);
}

TEST(JsonTest, ParserRejectsMalformedInput) {
  EXPECT_FALSE(json::parse("").Ok);
  EXPECT_FALSE(json::parse("{").Ok);
  EXPECT_FALSE(json::parse("{\"a\":}").Ok);
  EXPECT_FALSE(json::parse("[1,]").Ok);
  EXPECT_FALSE(json::parse("\"unterminated").Ok);
  EXPECT_FALSE(json::parse("{} trailing").Ok);
  EXPECT_FALSE(json::parse("nul").Ok);
  EXPECT_FALSE(json::parse("1e").Ok);
  EXPECT_FALSE(json::parse("\"bad \\x escape\"").Ok);
}

TEST(JsonTest, ParserSurvivesPathologicalNesting) {
  std::string Deep(100000, '[');
  json::ParseResult Result = json::parse(Deep);
  EXPECT_FALSE(Result.Ok);
  EXPECT_NE(Result.Error.find("nesting too deep"), std::string::npos);
}

TEST(JsonTest, UnicodeEscapesDecodeToUtf8) {
  json::ParseResult Result = json::parse("\"\\u00e9\\u20ac\"");
  ASSERT_TRUE(Result.Ok) << Result.Error;
  EXPECT_EQ(Result.V.asString(), "\xC3\xA9\xE2\x82\xAC");
}

TEST(JsonTest, StringsRoundTripWithEscapesAtEveryOffset) {
  // The string scanners read eight bytes per step: every character that
  // needs an escape must be found at every position within a word, next
  // to plain ASCII and to bytes above 0x7F.
  const std::string Specials = std::string("\"\\\n\r\t\b\f\x01\x1f", 9);
  for (char Special : Specials)
    for (size_t Offset = 0; Offset < 20; ++Offset) {
      std::string Text(Offset, 'a');
      Text += Special;
      Text += "\xC3\xA9 tail ";
      Text += Special;
      json::Value Doc = json::Value::object();
      Doc.set("s", Text);
      std::string Line = Doc.dump();
      EXPECT_EQ(Line.find('\n'), std::string::npos);
      json::ParseResult Back = json::parse(Line);
      ASSERT_TRUE(Back.Ok) << Back.Error;
      EXPECT_EQ(Back.V.get("s")->asString(), Text) << "offset " << Offset;
    }
}

//===----------------------------------------------------------------------===//
// Protocol codec
//===----------------------------------------------------------------------===//

TEST(ProtocolTest, ParsesRouteRequestWithDefaults) {
  RequestParse Parsed =
      parseRequest("{\"op\":\"route\",\"qasm\":\"OPENQASM 2.0;\"}");
  ASSERT_TRUE(Parsed.Ok) << Parsed.ErrorMessage;
  EXPECT_EQ(Parsed.Req.TheOp, Op::Route);
  EXPECT_EQ(Parsed.Req.Route.Mapper, "qlosure");
  EXPECT_EQ(Parsed.Req.Route.Backend, "sherbrooke");
  EXPECT_FALSE(Parsed.Req.Route.Bidirectional);
  EXPECT_TRUE(Parsed.Req.Route.IncludeQasm);
}

TEST(ProtocolTest, RejectsMissingAndMistypedFields) {
  EXPECT_EQ(parseRequest("{\"op\":\"route\"}").ErrorCode, errc::BadRequest);
  EXPECT_EQ(parseRequest("{\"op\":\"route\",\"qasm\":5}").ErrorCode,
            errc::BadRequest);
  EXPECT_EQ(
      parseRequest("{\"op\":\"route\",\"qasm\":\"x\",\"mapper\":false}")
          .ErrorCode,
      errc::BadRequest);
  EXPECT_EQ(parseRequest("{\"op\":\"route\",\"qasm\":\"x\","
                         "\"calibration\":-3}")
                .ErrorCode,
            errc::BadRequest);
  EXPECT_EQ(parseRequest("not json at all").ErrorCode, errc::BadJson);
  EXPECT_EQ(parseRequest("[]").ErrorCode, errc::BadRequest);
  EXPECT_EQ(parseRequest("{\"op\":\"frobnicate\"}").ErrorCode,
            errc::BadRequest);
  // Out-of-range calibration values must be rejected, not cast (the
  // double -> uint64_t conversion would be undefined past 2^64).
  EXPECT_EQ(parseRequest("{\"op\":\"route\",\"qasm\":\"x\","
                         "\"calibration\":1e300}")
                .ErrorCode,
            errc::BadRequest);
  EXPECT_EQ(parseRequest("{\"op\":\"route\",\"qasm\":\"x\","
                         "\"calibration\":1.5}")
                .ErrorCode,
            errc::BadRequest);
}

TEST(ProtocolTest, ResponsesCarryIdAndStableShape) {
  std::string Ping = formatPingResponse("abc");
  json::Value Doc = parseResponse(Ping);
  EXPECT_TRUE(responseOk(Doc));
  EXPECT_EQ(Doc.get("id")->asString(), "abc");

  std::string Error =
      formatErrorResponse("route", "r1", errc::BadQasm, "boom");
  json::Value ErrDoc = parseResponse(Error);
  EXPECT_FALSE(responseOk(ErrDoc));
  EXPECT_EQ(errorCode(ErrDoc), "bad_qasm");
  EXPECT_EQ(ErrDoc.get("error")->get("message")->asString(), "boom");
}

TEST(ProtocolTest, ParsesCancelAndProgress) {
  RequestParse Cancel = parseRequest("{\"op\":\"cancel\",\"id\":\"r7\"}");
  ASSERT_TRUE(Cancel.Ok) << Cancel.ErrorMessage;
  EXPECT_EQ(Cancel.Req.TheOp, Op::Cancel);
  EXPECT_EQ(Cancel.Req.Id, "r7");
  // cancel must name its target.
  EXPECT_EQ(parseRequest("{\"op\":\"cancel\"}").ErrorCode, errc::BadRequest);
  EXPECT_EQ(parseRequest("{\"op\":\"cancel\",\"id\":\"\"}").ErrorCode,
            errc::BadRequest);

  RequestParse Route = parseRequest(
      "{\"op\":\"route\",\"qasm\":\"x\",\"progress\":true,\"id\":\"p\"}");
  ASSERT_TRUE(Route.Ok) << Route.ErrorMessage;
  EXPECT_TRUE(Route.Req.Route.Progress);
}

TEST(ProtocolTest, RejectionsPreserveCorrelation) {
  // A shape error must not cost the client its (op, id) correlation —
  // a pipelined demultiplexer would otherwise wait forever.
  RequestParse Bad = parseRequest(
      "{\"op\":\"route\",\"id\":\"r1\",\"timeout_ms\":\"fast\"}");
  EXPECT_FALSE(Bad.Ok);
  EXPECT_EQ(Bad.ErrorCode, errc::BadRequest);
  EXPECT_EQ(Bad.OpName, "route");
  EXPECT_EQ(Bad.Req.Id, "r1");

  RequestParse Missing = parseRequest("{\"op\":\"route\",\"id\":\"r2\"}");
  EXPECT_FALSE(Missing.Ok);
  EXPECT_EQ(Missing.Req.Id, "r2");

  RequestParse UnknownOp = parseRequest("{\"op\":\"warp\",\"id\":\"r3\"}");
  EXPECT_FALSE(UnknownOp.Ok);
  EXPECT_EQ(UnknownOp.OpName, "warp");
  EXPECT_EQ(UnknownOp.Req.Id, "r3");

  // Unparseable JSON genuinely has no correlation to preserve.
  RequestParse NoJson = parseRequest("not json");
  EXPECT_FALSE(NoJson.Ok);
  EXPECT_TRUE(NoJson.OpName.empty());
  EXPECT_TRUE(NoJson.Req.Id.empty());
}

TEST(ProtocolTest, ParsesBatchRequest) {
  RequestParse Parsed = parseRequest(
      "{\"op\":\"batch\",\"id\":\"b1\",\"mapper\":\"sabre\","
      "\"items\":[{\"name\":\"a\",\"qasm\":\"x\"},{\"qasm\":\"y\"}]}");
  ASSERT_TRUE(Parsed.Ok) << Parsed.ErrorMessage;
  EXPECT_EQ(Parsed.Req.TheOp, Op::Batch);
  EXPECT_EQ(Parsed.Req.Id, "b1");
  EXPECT_EQ(Parsed.Req.Route.Mapper, "sabre");
  EXPECT_EQ(Parsed.Req.Route.Backend, "sherbrooke");
  ASSERT_EQ(Parsed.Req.Items.size(), 2u);
  EXPECT_EQ(Parsed.Req.Items[0].Name, "a");
  EXPECT_EQ(Parsed.Req.Items[0].Qasm, "x");
  EXPECT_TRUE(Parsed.Req.Items[1].Name.empty());
  EXPECT_EQ(Parsed.Req.Items[1].Qasm, "y");

  // A batch's per-item frames demultiplex by the batch id, so the id is
  // mandatory; items must be a non-empty array of {qasm[, name]} objects.
  const char *Rejected[] = {
      "{\"op\":\"batch\",\"items\":[{\"qasm\":\"x\"}]}",
      "{\"op\":\"batch\",\"id\":\"\",\"items\":[{\"qasm\":\"x\"}]}",
      "{\"op\":\"batch\",\"id\":\"b\"}",
      "{\"op\":\"batch\",\"id\":\"b\",\"items\":[]}",
      "{\"op\":\"batch\",\"id\":\"b\",\"items\":\"x\"}",
      "{\"op\":\"batch\",\"id\":\"b\",\"items\":[\"x\"]}",
      "{\"op\":\"batch\",\"id\":\"b\",\"items\":[{\"name\":\"a\"}]}",
      "{\"op\":\"batch\",\"id\":\"b\",\"items\":[{\"qasm\":7}]}",
      "{\"op\":\"batch\",\"id\":\"b\","
      "\"items\":[{\"qasm\":\"x\",\"name\":3}]}",
  };
  for (const char *Line : Rejected)
    EXPECT_EQ(parseRequest(Line).ErrorCode, errc::BadRequest) << Line;

  // The item cap rejects absurd batches up front.
  std::string Huge = "{\"op\":\"batch\",\"id\":\"b\",\"items\":[";
  for (size_t I = 0; I < 4097; ++I) {
    if (I)
      Huge += ",";
    Huge += "{\"qasm\":\"x\"}";
  }
  Huge += "]}";
  EXPECT_EQ(parseRequest(Huge).ErrorCode, errc::BadRequest);
}

TEST(ProtocolTest, BatchFrameShapes) {
  // Item frames are events: they carry "event" and no "ok", and signal
  // item success/failure by the presence of "stats" vs "error".
  RouteStats Stats;
  Stats.LogicalGates = 10;
  Stats.RoutedGates = 14;
  Stats.Swaps = 4;
  json::Value Good = parseResponse(formatBatchItemResult(
      "b1", 2, "ghz", "qlosure", "aspen16", Stats,
      /*ContextCacheHit=*/true, /*ResultCacheHit=*/false, "QASM...",
      /*IncludeQasm=*/true));
  EXPECT_EQ(Good.get("ok"), nullptr);
  EXPECT_EQ(Good.get("event")->asString(), "batch_item");
  EXPECT_EQ(Good.get("op")->asString(), "batch");
  EXPECT_EQ(Good.get("id")->asString(), "b1");
  EXPECT_EQ(Good.get("index")->asNumber(), 2);
  EXPECT_EQ(Good.get("name")->asString(), "ghz");
  ASSERT_NE(Good.get("stats"), nullptr);
  EXPECT_EQ(Good.get("error"), nullptr);
  EXPECT_TRUE(Good.get("cache_hit")->asBool());
  EXPECT_EQ(Good.get("qasm")->asString(), "QASM...");

  json::Value Bad = parseResponse(
      formatBatchItemError("b1", 0, "", errc::BadQasm, "boom"));
  EXPECT_EQ(Bad.get("ok"), nullptr);
  EXPECT_EQ(Bad.get("event")->asString(), "batch_item");
  EXPECT_EQ(Bad.get("index")->asNumber(), 0);
  EXPECT_EQ(Bad.get("name"), nullptr) << "empty names are omitted";
  EXPECT_EQ(Bad.get("stats"), nullptr);
  EXPECT_EQ(errorCode(Bad), "bad_qasm");

  json::Value Summary = parseResponse(formatBatchSummaryResponse(
      "b1", "qlosure", "aspen16", {"ghz", "", "qft"},
      {"ok", errc::Cancelled, errc::BadQasm}));
  EXPECT_TRUE(responseOk(Summary));
  EXPECT_EQ(Summary.get("op")->asString(), "batch");
  EXPECT_EQ(Summary.get("total")->asNumber(), 3);
  EXPECT_EQ(Summary.get("succeeded")->asNumber(), 1);
  EXPECT_EQ(Summary.get("failed")->asNumber(), 1);
  EXPECT_EQ(Summary.get("cancelled")->asNumber(), 1);
  ASSERT_EQ(Summary.get("items")->items().size(), 3u);
  EXPECT_EQ(Summary.get("items")->items()[1].get("status")->asString(),
            "cancelled");
  EXPECT_EQ(Summary.get("items")->items()[2].get("index")->asNumber(), 2);
}

TEST(ProtocolTest, V2FrameShapes) {
  // Ping advertises the protocol revision v1 clients simply ignore.
  json::Value Ping = parseResponse(formatPingResponse(""));
  ASSERT_NE(Ping.get("protocol"), nullptr);
  EXPECT_EQ(Ping.get("protocol")->asNumber(), 2);

  json::Value Ack = parseResponse(formatCancelResponse("r1", true));
  EXPECT_TRUE(responseOk(Ack));
  EXPECT_EQ(Ack.get("op")->asString(), "cancel");
  EXPECT_TRUE(Ack.get("cancelled")->asBool());

  // Events carry "event" and no "ok" — that is how clients demultiplex.
  json::Value Event = parseResponse(formatProgressEvent("r1", 512, 38469));
  EXPECT_EQ(Event.get("ok"), nullptr);
  EXPECT_EQ(Event.get("event")->asString(), "progress");
  EXPECT_EQ(Event.get("done")->asNumber(), 512);
  EXPECT_EQ(Event.get("total")->asNumber(), 38469);
}

//===----------------------------------------------------------------------===//
// Sharded LRU caches
//===----------------------------------------------------------------------===//

namespace {

struct FakeEntry {
  size_t Bytes;
  size_t approxBytes() const { return Bytes; }
};

CacheKey keyOf(uint64_t N) { return CacheKey{N, 0x42, 0x7}; }

} // namespace

TEST(ContextCacheTest, HitMissAndCounterAccounting) {
  ShardedLruCache<FakeEntry> Cache(CacheOptions{4, 1 << 20});
  bool Hit = true;
  auto First = Cache.getOrBuild(
      keyOf(1), [] { return std::make_shared<FakeEntry>(FakeEntry{100}); },
      &Hit);
  EXPECT_FALSE(Hit);
  auto Second = Cache.getOrBuild(
      keyOf(1),
      [] {
        ADD_FAILURE() << "builder must not run on a hit";
        return std::make_shared<FakeEntry>(FakeEntry{100});
      },
      &Hit);
  EXPECT_TRUE(Hit);
  EXPECT_EQ(First.get(), Second.get());

  CacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Hits, 1u);
  EXPECT_EQ(Stats.Misses, 1u);
  EXPECT_EQ(Stats.Entries, 1u);
  EXPECT_EQ(Stats.Bytes, 100u);
}

TEST(ContextCacheTest, ByteBudgetEvictsLeastRecentlyUsed) {
  // One shard so LRU order is global and the budget is exact.
  ShardedLruCache<FakeEntry> Cache(CacheOptions{1, 250});
  auto Build = [] { return std::make_shared<FakeEntry>(FakeEntry{100}); };
  Cache.getOrBuild(keyOf(1), Build);
  Cache.getOrBuild(keyOf(2), Build);
  // Touch key 1 so key 2 is the LRU victim.
  EXPECT_NE(Cache.lookup(keyOf(1)), nullptr);
  Cache.getOrBuild(keyOf(3), Build);

  CacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Evictions, 1u);
  EXPECT_EQ(Stats.Entries, 2u);
  EXPECT_LE(Stats.Bytes, 250u);
  EXPECT_NE(Cache.lookup(keyOf(1)), nullptr);
  EXPECT_EQ(Cache.lookup(keyOf(2)), nullptr) << "LRU entry must be evicted";
  EXPECT_NE(Cache.lookup(keyOf(3)), nullptr);
}

TEST(ContextCacheTest, OversizedEntryStillCaches) {
  ShardedLruCache<FakeEntry> Cache(CacheOptions{1, 10});
  auto Entry = Cache.getOrBuild(
      keyOf(1), [] { return std::make_shared<FakeEntry>(FakeEntry{999}); });
  ASSERT_NE(Entry, nullptr);
  EXPECT_NE(Cache.lookup(keyOf(1)), nullptr)
      << "each shard retains its most recent entry even over budget";
}

TEST(ContextCacheTest, EvictionKeepsInFlightReadersAlive) {
  ShardedLruCache<FakeEntry> Cache(CacheOptions{1, 150});
  auto Held = Cache.getOrBuild(
      keyOf(1), [] { return std::make_shared<FakeEntry>(FakeEntry{100}); });
  Cache.getOrBuild(keyOf(2), [] {
    return std::make_shared<FakeEntry>(FakeEntry{100});
  });
  EXPECT_EQ(Cache.lookup(keyOf(1)), nullptr);
  ASSERT_NE(Held, nullptr);
  EXPECT_EQ(Held->approxBytes(), 100u) << "evicted entry stays readable";
}

TEST(ContextCacheTest, CachedContextSharesAcrossThreads) {
  Circuit C(3, "t");
  C.addCx(0, 1);
  C.addCx(1, 2);
  auto Shared = std::make_shared<const Circuit>(C);
  auto Hw = std::make_shared<const CouplingGraph>(makeLine(3));
  ContextCache Cache(CacheOptions{2, 64 << 20});
  CacheKey Key{fingerprint(C), fingerprint(*Hw), 0};

  std::vector<std::shared_ptr<const CachedContext>> Results(8);
  std::vector<std::thread> Threads;
  for (size_t I = 0; I < Results.size(); ++I)
    Threads.emplace_back([&, I] {
      Results[I] = Cache.getOrBuild(Key, [&] {
        return CachedContext::build(Shared, Hw);
      });
    });
  for (std::thread &T : Threads)
    T.join();
  for (const auto &Bundle : Results) {
    ASSERT_NE(Bundle, nullptr);
    EXPECT_TRUE(Bundle->context().valid());
    // All callers converge on one shared bundle (racing first builders
    // may build twice, but the cache keeps exactly one).
    EXPECT_EQ(Bundle.get(), Results[0].get());
  }

  // The bundle holds no omega until a route reads it. Eight first readers
  // at once all get the one memoized vector.
  std::vector<const std::vector<uint64_t> *> Weights(Results.size());
  std::atomic<bool> Go{false};
  Threads.clear();
  for (size_t I = 0; I < Weights.size(); ++I)
    Threads.emplace_back([&, I] {
      while (!Go.load())
        std::this_thread::yield();
      Weights[I] = &Results[I]->context().dependenceWeights();
    });
  Go = true;
  for (std::thread &T : Threads)
    T.join();
  for (const std::vector<uint64_t> *W : Weights)
    EXPECT_EQ(W, Weights[0]);
  EXPECT_EQ(*Weights[0], computeDependenceWeights(C).Weights);

  // The bundle charges its DAG's own bytes: a longer circuit on the same
  // graph costs exactly its extra gates, their weights and the DAG growth.
  Circuit Longer = C;
  for (int I = 0; I < 40; ++I)
    Longer.addCx(I % 2, 2);
  auto Big = CachedContext::build(std::make_shared<const Circuit>(Longer), Hw);
  const CircuitDag &SmallDag = Results[0]->context().dag();
  const CircuitDag &BigDag = Big->context().dag();
  EXPECT_GT(BigDag.memoryBytes(), SmallDag.memoryBytes());
  EXPECT_EQ(Big->approxBytes() - Results[0]->approxBytes(),
            (Longer.size() - C.size()) * (sizeof(Gate) + sizeof(uint64_t)) +
                BigDag.memoryBytes() - SmallDag.memoryBytes());

  // Bundles share their inputs instead of copying them: two circuits on
  // one backend read one graph object, and a bundle's charge leaves the
  // backend (its N x N distances above all) to the pool that owns it.
  EXPECT_EQ(&Results[0]->circuit(), Shared.get());
  EXPECT_EQ(&Results[0]->hardware(), Hw.get());
  EXPECT_EQ(&Results[0]->context().hardware(), Hw.get());
  EXPECT_EQ(&Big->hardware(), &Results[0]->hardware());
  auto Sherbrooke =
      std::make_shared<const CouplingGraph>(makeBackendByName("sherbrooke"));
  auto OnSherbrooke = CachedContext::build(Shared, Sherbrooke);
  const size_t N = Sherbrooke->numQubits();
  EXPECT_EQ(OnSherbrooke->approxBytes(), Results[0]->approxBytes());
  EXPECT_LT(OnSherbrooke->approxBytes(), N * N * sizeof(uint32_t));
}

TEST(ContextCacheTest, CalibratedBackendIsChargedToTheBundle) {
  // The backend pool drops error-aware variants once it is full, and the
  // client picks the calibration seed, so a bundle on a calibrated graph
  // may be its last owner: it is charged for the N x N distances and the
  // error table, or routing under fresh seeds would pin graphs no budget
  // counts.
  Circuit C(3, "t");
  C.addCx(0, 1);
  C.addCx(1, 2);
  auto Shared = std::make_shared<const Circuit>(C);
  auto Plain =
      std::make_shared<const CouplingGraph>(makeBackendByName("sherbrooke"));
  auto Calibrated =
      std::make_shared<CouplingGraph>(makeBackendByName("sherbrooke"));
  applySyntheticErrorModel(*Calibrated, 7);
  auto OnPlain = CachedContext::build(Shared, Plain);
  auto OnCalibrated = CachedContext::build(Shared, Calibrated);
  EXPECT_EQ(&OnCalibrated->hardware(), Calibrated.get());
  const size_t N = Calibrated->numQubits();
  EXPECT_GE(OnCalibrated->approxBytes() - OnPlain->approxBytes(),
            N * N * sizeof(uint32_t) + Calibrated->errorModelBytes());
}

//===----------------------------------------------------------------------===//
// Scheduler
//===----------------------------------------------------------------------===//

TEST(SchedulerTest, RunsJobsAndDrainsOnShutdown) {
  std::atomic<int> Ran{0};
  {
    Scheduler Sched(SchedulerOptions{2, 64});
    for (int I = 0; I < 20; ++I) {
      SchedulerJob Job;
      Job.Run = [&](RoutingScratch &, CancellationToken &) { ++Ran; };
      ASSERT_TRUE(Sched.trySubmit(std::move(Job)) != nullptr);
    }
    Sched.shutdown();
  }
  EXPECT_EQ(Ran.load(), 20);
}

TEST(SchedulerTest, RejectsWhenQueueFull) {
  Scheduler Sched(SchedulerOptions{1, 2});
  std::mutex Mu;
  std::condition_variable Cv;
  bool Release = false;

  // Block the single worker so subsequent jobs stay queued.
  SchedulerJob Blocker;
  Blocker.Run = [&](RoutingScratch &, CancellationToken &) {
    std::unique_lock<std::mutex> Lock(Mu);
    Cv.wait(Lock, [&] { return Release; });
  };
  ASSERT_TRUE(Sched.trySubmit(std::move(Blocker)) != nullptr);
  // Give the worker a moment to pick the blocker up, then fill the queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  unsigned Accepted = 0;
  for (int I = 0; I < 8; ++I) {
    SchedulerJob Job;
    Job.Run = [](RoutingScratch &, CancellationToken &) {};
    if (Sched.trySubmit(std::move(Job)))
      ++Accepted;
  }
  EXPECT_LE(Accepted, 2u) << "bounded queue must reject overflow";
  EXPECT_GE(Sched.stats().Rejected, 6u);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Release = true;
  }
  Cv.notify_all();
  Sched.shutdown();
}

TEST(SchedulerTest, ExpiredJobsRunOnExpiredInsteadOfRun) {
  std::atomic<int> Expired{0};
  std::atomic<int> Ran{0};
  {
    Scheduler Sched(SchedulerOptions{1, 16});
    SchedulerJob Job;
    // Deadline already passed at submit time: the worker must take the
    // OnExpired path (steady_clock is monotonic, so now >= deadline).
    Job.Deadline = std::chrono::steady_clock::now();
    Job.Run = [&](RoutingScratch &, CancellationToken &) { ++Ran; };
    Job.OnExpired = [&] { ++Expired; };
    ASSERT_TRUE(Sched.trySubmit(std::move(Job)) != nullptr);
    Sched.shutdown();
  }
  EXPECT_EQ(Expired.load(), 1);
  EXPECT_EQ(Ran.load(), 0);
}

TEST(SchedulerTest, SubmitAfterShutdownIsRejected) {
  Scheduler Sched(SchedulerOptions{1, 4});
  Sched.shutdown();
  SchedulerJob Job;
  Job.Run = [](RoutingScratch &, CancellationToken &) {};
  EXPECT_EQ(Sched.trySubmit(std::move(Job)), nullptr);
}

TEST(SchedulerTest, CancelledQueuedJobNeverRuns) {
  std::atomic<int> Ran{0};
  std::mutex Mu;
  std::condition_variable Cv;
  bool Release = false;
  Scheduler Sched(SchedulerOptions{1, 16});

  SchedulerJob Blocker;
  Blocker.Run = [&](RoutingScratch &, CancellationToken &) {
    std::unique_lock<std::mutex> Lock(Mu);
    Cv.wait(Lock, [&] { return Release; });
  };
  ASSERT_TRUE(Sched.trySubmit(std::move(Blocker)) != nullptr);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  SchedulerJob Victim;
  Victim.Run = [&](RoutingScratch &, CancellationToken &) { ++Ran; };
  auto Ticket = Sched.trySubmit(std::move(Victim));
  ASSERT_TRUE(Ticket != nullptr);
  EXPECT_EQ(Sched.stats().QueueDepth, 1u);
  // The single worker is blocked, so the victim must still be queued:
  // cancel() atomically claims it away from the workers, removes it from
  // the queue (no tombstone occupying capacity), and it never runs.
  EXPECT_EQ(Sched.cancel(Ticket), JobTicket::State::Queued);
  EXPECT_EQ(Sched.stats().QueueDepth, 0u)
      << "a cancelled queued job must free its capacity slot immediately";
  // A duplicate cancel reports the already-cancelled state.
  EXPECT_EQ(Sched.cancel(Ticket), JobTicket::State::CancelledWhileQueued);

  {
    std::lock_guard<std::mutex> Lock(Mu);
    Release = true;
  }
  Cv.notify_all();
  Sched.shutdown();
  EXPECT_EQ(Ran.load(), 0);
  EXPECT_EQ(Sched.stats().Cancelled, 1u);
}

TEST(SchedulerTest, CancellingRunningJobFiresItsToken) {
  std::atomic<bool> Started{false};
  std::atomic<bool> SawCancel{false};
  CancellationToken::Reason Observed = CancellationToken::Reason::None;
  Scheduler Sched(SchedulerOptions{1, 4});

  SchedulerJob Job;
  Job.Run = [&](RoutingScratch &, CancellationToken &Token) {
    Started = true;
    // Simulates a routing kernel polling once per front-layer step.
    while (!Token.cancelled())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    Observed = Token.reason();
    SawCancel = true;
  };
  auto Ticket = Sched.trySubmit(std::move(Job));
  ASSERT_TRUE(Ticket != nullptr);
  while (!Started.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(Ticket->cancel(), JobTicket::State::Running);
  Sched.shutdown();
  EXPECT_TRUE(SawCancel.load());
  EXPECT_EQ(Observed, CancellationToken::Reason::Cancelled);
  EXPECT_EQ(Ticket->state(), JobTicket::State::Done);
}

TEST(SchedulerTest, DeadlineFiresMidRunThroughTheToken) {
  // The deadline is armed on the token at submission, so a job that is
  // already running still observes it — the mid-route enforcement the
  // pre-v2 scheduler lacked.
  CancellationToken::Reason Observed = CancellationToken::Reason::None;
  auto Begin = std::chrono::steady_clock::now();
  {
    Scheduler Sched(SchedulerOptions{1, 4});
    SchedulerJob Job;
    Job.Deadline = Begin + std::chrono::milliseconds(50);
    Job.Run = [&](RoutingScratch &, CancellationToken &Token) {
      while (!Token.cancelled())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      Observed = Token.reason();
    };
    ASSERT_TRUE(Sched.trySubmit(std::move(Job)) != nullptr);
    Sched.shutdown();
  }
  EXPECT_EQ(Observed, CancellationToken::Reason::DeadlineExceeded);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          Begin)
                .count(),
            5.0);
}

//===----------------------------------------------------------------------===//
// Server integration (real socket, blocking client)
//===----------------------------------------------------------------------===//

namespace {

/// Boots a server on a fresh endpoint of the requested transport
/// ("unix" = a fresh temp socket path, "tcp" = an ephemeral loopback
/// port); tears it down on scope exit. Clients connect to the *bound*
/// address, which for tcp carries the kernel-assigned port.
struct ServerFixture {
  ServerOptions Opts;
  std::unique_ptr<Server> Daemon;
  std::thread Waiter;

  explicit ServerFixture(unsigned Workers = 2,
                         const std::string &Transport = "unix") {
    Opts.Listen =
        Transport == "tcp" ? std::string("tcp:127.0.0.1:0") : testSocketPath();
    Opts.Workers = Workers;
    Opts.DefaultTimeoutSeconds = 30;
    Daemon = std::make_unique<Server>(Opts);
    Status Started = Daemon->start();
    EXPECT_TRUE(Started.ok()) << Started.message();
    Waiter = std::thread([this] { Daemon->wait(); });
  }

  ~ServerFixture() {
    Daemon->requestStop();
    if (Waiter.joinable())
      Waiter.join();
  }

  Client connect() {
    Client Conn;
    Status S = Conn.connect(Daemon->boundAddress(), 5.0);
    EXPECT_TRUE(S.ok()) << S.message();
    return Conn;
  }
};

} // namespace

/// The full Server integration suite runs once per transport: protocol
/// v2 behavior must be identical over unix: and tcp: endpoints.
class ServerTransportTest : public ::testing::TestWithParam<const char *> {};

INSTANTIATE_TEST_SUITE_P(Transports, ServerTransportTest,
                         ::testing::Values("unix", "tcp"),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           return std::string(I.param);
                         });

TEST_P(ServerTransportTest, PingStatsAndRouteRoundTrip) {
  ServerFixture Fixture(2, GetParam());
  Client Conn = Fixture.connect();

  std::string Response;
  ASSERT_TRUE(Conn.request("{\"op\":\"ping\"}", Response).ok());
  EXPECT_TRUE(responseOk(parseResponse(Response)));

  ASSERT_TRUE(
      Conn.request(routeRequest(sampleQasm()).dump(), Response).ok());
  json::Value Doc = parseResponse(Response);
  ASSERT_TRUE(responseOk(Doc)) << Response;
  EXPECT_FALSE(Doc.get("cache_hit")->asBool());
  const json::Value *Stats = Doc.get("stats");
  ASSERT_NE(Stats, nullptr);
  EXPECT_TRUE(Stats->get("verified")->asBool());
  EXPECT_GT(Stats->get("routed_gates")->asNumber(), 0);

  // The routed program re-imports and re-verifies client-side.
  const json::Value *Qasm = Doc.get("qasm");
  ASSERT_NE(Qasm, nullptr);
  qasm::ImportResult Routed = qasm::importQasm(Qasm->asString());
  ASSERT_TRUE(Routed.succeeded()) << Routed.Error;
  EXPECT_GT(Routed.Circ->size(), 0u);

  ASSERT_TRUE(Conn.request("{\"op\":\"stats\"}", Response).ok());
  json::Value StatsDoc = parseResponse(Response);
  EXPECT_TRUE(responseOk(StatsDoc));
  // "submitted" is bumped before the route response exists; "completed"
  // is bumped after, so it may or may not be visible yet.
  EXPECT_EQ(StatsDoc.get("scheduler")->get("submitted")->asNumber(), 1);
  EXPECT_EQ(StatsDoc.get("server")->get("route_requests")->asNumber(), 1);
}

TEST_P(ServerTransportTest, RepeatedRequestHitsCacheByteIdentically) {
  ServerFixture Fixture(2, GetParam());
  Client Conn = Fixture.connect();

  std::string First, Second;
  ASSERT_TRUE(
      Conn.request(routeRequest(sampleQasm()).dump(), First).ok());
  ASSERT_TRUE(
      Conn.request(routeRequest(sampleQasm()).dump(), Second).ok());
  json::Value FirstDoc = parseResponse(First);
  json::Value SecondDoc = parseResponse(Second);
  ASSERT_TRUE(responseOk(FirstDoc)) << First;
  ASSERT_TRUE(responseOk(SecondDoc)) << Second;
  EXPECT_FALSE(FirstDoc.get("cache_hit")->asBool());
  EXPECT_TRUE(SecondDoc.get("cache_hit")->asBool());
  EXPECT_TRUE(SecondDoc.get("result_cache_hit")->asBool());
  EXPECT_EQ(FirstDoc.get("qasm")->asString(),
            SecondDoc.get("qasm")->asString());

  // A different mapper shares the context but not the result.
  std::string Sabre;
  ASSERT_TRUE(
      Conn.request(routeRequest(sampleQasm(), "sabre").dump(), Sabre)
          .ok());
  json::Value SabreDoc = parseResponse(Sabre);
  ASSERT_TRUE(responseOk(SabreDoc)) << Sabre;
  EXPECT_FALSE(SabreDoc.get("result_cache_hit")->asBool());
  EXPECT_TRUE(SabreDoc.get("context_cache_hit")->asBool());
}

TEST_P(ServerTransportTest, ResponsesMatchDirectLibraryCalls) {
  // The acceptance-critical identity: what the service returns is what
  // the library produces, byte for byte. Each pass runs on a fresh
  // daemon, so the traced pass routes cold too: tracing a route must not
  // change a routed byte.
  CouplingGraph Gen = makeAspen16();
  QuekoSpec Spec;
  Spec.Depth = 20;
  Spec.Seed = 7;
  QuekoInstance Inst = generateQueko(Gen, Spec);
  std::string Qasm = qasm::printQasm(Inst.Circ);

  qasm::ImportResult Reparsed = qasm::importQasm(Qasm);
  ASSERT_TRUE(Reparsed.succeeded());
  Circuit Logical =
      Reparsed.Circ->withoutNonUnitaries().decomposeThreeQubitGates();
  CouplingGraph Backend = makeBackendByName("aspen16");
  RoutingContext Ctx = RoutingContext::build(Logical, Backend);

  for (bool Traced : {false, true}) {
    SCOPED_TRACE(Traced ? "traced" : "untraced");
    ServerFixture Fixture(2, GetParam());
    Client Conn = Fixture.connect();
    for (const char *Mapper : {"qlosure", "sabre", "cirq", "tket"}) {
      auto Direct = makeRouterByName(Mapper)->routeWithIdentity(Ctx);
      std::string Expected = qasm::printQasm(Direct.Routed);

      json::Value Req = routeRequest(Qasm, Mapper);
      if (Traced)
        Req.set("trace", true);
      std::string Response;
      ASSERT_TRUE(Conn.request(Req.dump(), Response).ok());
      json::Value Doc = parseResponse(Response);
      ASSERT_TRUE(responseOk(Doc)) << Response;
      EXPECT_FALSE(Doc.get("result_cache_hit")->asBool()) << Mapper;
      EXPECT_EQ(Doc.get("trace") != nullptr, Traced) << Mapper;
      EXPECT_EQ(Doc.get("qasm")->asString(), Expected) << Mapper;
    }
  }
}

TEST_P(ServerTransportTest, MalformedRequestsGetStructuredErrorsAndConnectionSurvives) {
  ServerFixture Fixture(2, GetParam());
  Client Conn = Fixture.connect();

  struct Case {
    std::string Line;
    std::string Code;
  };
  const Case Cases[] = {
      {"this is not json", errc::BadJson},
      {"{\"op\":\"route\"}", errc::BadRequest},
      {"{\"op\":\"warp\"}", errc::BadRequest},
      {routeRequest("qreg broken").dump(), errc::BadQasm},
      {routeRequest(sampleQasm(), "does-not-exist").dump(),
       errc::UnknownMapper},
      {routeRequest(sampleQasm(), "qlosure", "imaginary-qpu").dump(),
       errc::UnknownBackend},
      {routeRequest(sampleQasm(), "qlosure", "line").dump(),
       errc::UnknownBackend},
  };
  for (const Case &C : Cases) {
    std::string Response;
    ASSERT_TRUE(Conn.request(C.Line, Response).ok()) << C.Line;
    json::Value Doc = parseResponse(Response);
    EXPECT_FALSE(responseOk(Doc)) << Response;
    EXPECT_EQ(errorCode(Doc), C.Code) << Response;
    // The connection must stay usable after every error.
    ASSERT_TRUE(Conn.request("{\"op\":\"ping\"}", Response).ok());
    EXPECT_TRUE(responseOk(parseResponse(Response)));
  }

  // Oversized circuit for the chosen backend.
  std::string Response;
  std::string Wide = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"
                     "qreg q[40];\ncx q[0],q[39];\n";
  ASSERT_TRUE(Conn.request(routeRequest(Wide, "qlosure", "aspen16").dump(),
                           Response)
                  .ok());
  EXPECT_EQ(errorCode(parseResponse(Response)), errc::TooLarge);
}

TEST_P(ServerTransportTest, HostileGateExpansionIsRefusedAndDaemonSurvives) {
  ServerFixture Fixture(1, GetParam());
  Client Conn = Fixture.connect();
  // 41 nested definitions, each calling the previous one twice: 2^40
  // gates from 1.4 KB, which used to keep a worker busy with no end.
  std::string Qasm = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n"
                     "gate g0 a,b { cx a,b; }\n";
  for (int I = 1; I <= 40; ++I)
    Qasm += "gate g" + std::to_string(I) + " a,b { g" + std::to_string(I - 1) +
            " a,b; g" + std::to_string(I - 1) + " b,a; }\n";
  Qasm += "g40 q[0],q[1];\n";
  std::string Response;
  ASSERT_TRUE(Conn.request(routeRequest(Qasm, "sabre").dump(), Response).ok());
  json::Value Doc = parseResponse(Response);
  EXPECT_EQ(errorCode(Doc), errc::BadQasm) << Response;
  const json::Value *Error = Doc.get("error");
  ASSERT_NE(Error, nullptr) << Response;
  ASSERT_NE(Error->get("message"), nullptr) << Response;
  EXPECT_EQ(Error->get("message")->asString(),
            "line 45: 'g40' lowers to more than 16777216 gates");
  ASSERT_TRUE(Conn.request("{\"op\":\"ping\"}", Response).ok());
  EXPECT_TRUE(responseOk(parseResponse(Response)));
}

TEST_P(ServerTransportTest, HostileRegisterSizesAreRefusedAndDaemonSurvives) {
  ServerFixture Fixture(1, GetParam());
  Client Conn = Fixture.connect();
  const std::pair<const char *, const char *> Cases[] = {
      // Wrapped the qubit total to 1 and overflowed the DAG build.
      {"qreg q[4294967295]; qreg r[2]; cx r[0],r[1];", errc::BadQasm},
      // Broadcast 20M gates before the size check, then bad_alloc.
      {"qreg q[20000000]; h q;", errc::TooLarge},
      // Saturated strtoul into 4294967295 qubits.
      {"qreg q[99999999999999999999];", errc::BadQasm},
      // Imported as an infinite angle the response could not print back.
      {"qreg q[1]; rz(1/0) q[0];", errc::BadQasm},
  };
  for (const auto &[Qasm, Code] : Cases) {
    std::string Response;
    ASSERT_TRUE(Conn.request(routeRequest(Qasm).dump(), Response).ok()) << Qasm;
    EXPECT_EQ(errorCode(parseResponse(Response)), Code) << Response;
  }
  std::string Response;
  ASSERT_TRUE(Conn.request("{\"op\":\"ping\"}", Response).ok());
  EXPECT_TRUE(responseOk(parseResponse(Response)));
  // The refusal carries the message a valid oversized text always got.
  ASSERT_TRUE(
      Conn.request(routeRequest("qreg q[20000000]; h q;").dump(), Response)
          .ok());
  json::Value Doc = parseResponse(Response);
  const json::Value *Error = Doc.get("error");
  ASSERT_NE(Error, nullptr) << Response;
  ASSERT_NE(Error->get("message"), nullptr) << Response;
  EXPECT_EQ(Error->get("message")->asString(),
            "circuit has 20000000 qubits but aspen16 only has 16");
}

TEST_P(ServerTransportTest, AbsurdTimeoutIsClampedNotWrapped) {
  // Regression: a huge timeout_ms used to overflow the chrono deadline
  // arithmetic, wrapping it into the past and answering a *longer*
  // timeout with a spurious deadline_exceeded.
  ServerFixture Fixture(2, GetParam());
  Client Conn = Fixture.connect();
  json::Value Req = routeRequest(sampleQasm());
  Req.set("timeout_ms", 1e300);
  std::string Response;
  ASSERT_TRUE(Conn.request(Req.dump(), Response).ok());
  json::Value Doc = parseResponse(Response);
  EXPECT_TRUE(responseOk(Doc)) << Response;
}

TEST_P(ServerTransportTest, ZeroDeadlineReportsDeadlineExceeded) {
  ServerFixture Fixture(1, GetParam());
  Client Conn = Fixture.connect();
  json::Value Req = routeRequest(sampleQasm());
  // timeout_ms is interpreted relative to arrival; a microscopic budget
  // expires before any worker can pick the job up.
  Req.set("timeout_ms", 1e-6);
  std::string Response;
  ASSERT_TRUE(Conn.request(Req.dump(), Response).ok());
  EXPECT_EQ(errorCode(parseResponse(Response)), errc::DeadlineExceeded)
      << Response;
}

TEST(ServerTest, ShutdownOpStopsDaemonAndUnlinksSocket) {
  ServerOptions Opts;
  Opts.Listen = testSocketPath();
  Opts.Workers = 1;
  Server Daemon(Opts);
  ASSERT_TRUE(Daemon.start().ok());
  std::thread Waiter([&] { Daemon.wait(); });

  // Collect outcomes first and assert only after the waiter thread is
  // joined, so a failure cannot destroy a joinable std::thread.
  bool Connected = false, Requested = false;
  std::string Response;
  {
    Client Conn;
    Connected = Conn.connect(Opts.Listen, 5.0).ok();
    if (Connected)
      Requested = Conn.request("{\"op\":\"shutdown\"}", Response).ok();
  }
  Waiter.join();
  ASSERT_TRUE(Connected);
  ASSERT_TRUE(Requested) << "shutdown ack must arrive before teardown";
  json::Value Doc = parseResponse(Response);
  EXPECT_TRUE(responseOk(Doc));
  EXPECT_TRUE(Doc.get("stopping")->asBool());
  EXPECT_NE(::access(Opts.Listen.c_str(), F_OK), 0)
      << "socket file must be unlinked on shutdown";
}

TEST_P(ServerTransportTest, ConcurrentClientsShareTheCaches) {
  ServerFixture Fixture(2, GetParam());
  const unsigned NumClients = 4;
  std::vector<std::string> FirstResponses(NumClients);
  std::vector<std::thread> Clients;
  for (unsigned I = 0; I < NumClients; ++I)
    Clients.emplace_back([&, I] {
      Client Conn;
      if (!Conn.connect(Fixture.Daemon->boundAddress(), 5.0).ok())
        return;
      std::string Response;
      for (int R = 0; R < 3; ++R)
        if (!Conn.request(routeRequest(sampleQasm()).dump(), Response)
                 .ok())
          return;
      FirstResponses[I] = Response;
    });
  for (std::thread &T : Clients)
    T.join();

  // Every client converged on the same routed bytes.
  json::Value Reference = parseResponse(FirstResponses[0]);
  ASSERT_TRUE(responseOk(Reference));
  for (unsigned I = 1; I < NumClients; ++I) {
    json::Value Doc = parseResponse(FirstResponses[I]);
    ASSERT_TRUE(responseOk(Doc));
    EXPECT_EQ(Doc.get("qasm")->asString(),
              Reference.get("qasm")->asString());
  }
  // 12 route requests for one (circuit, backend, mapper): at most a few
  // racing first-misses, everything else served from cache.
  CacheStats Results = Fixture.Daemon->resultCacheStats();
  EXPECT_GE(Results.Hits, 8u);
}

//===----------------------------------------------------------------------===//
// Protocol v2: out-of-order responses, cancellation, progress
//===----------------------------------------------------------------------===//

TEST_P(ServerTransportTest, PipelinedFastResponseOvertakesSlowRoute) {
  ServerFixture Fixture(2, GetParam());
  Client Conn = Fixture.connect();

  // Prime the result cache so the "fast" request is served inline by the
  // connection thread.
  std::string Prime;
  ASSERT_TRUE(Conn.request(routeRequest(sampleQasm()).dump(), Prime).ok());
  ASSERT_TRUE(responseOk(parseResponse(Prime))) << Prime;

  // Pipeline: a slow cache-miss route first, the cached route second.
  json::Value Slow = slowRouteRequest("slow");
  json::Value Fast = routeRequest(sampleQasm());
  Fast.set("id", "fast");
  ASSERT_TRUE(Conn.sendLine(Slow.dump()).ok());
  ASSERT_TRUE(Conn.sendLine(Fast.dump()).ok());

  // The acceptance-critical ordering: the fast response must arrive
  // FIRST even though it was submitted second — no head-of-line block.
  std::string First;
  ASSERT_TRUE(Conn.recvLine(First).ok());
  json::Value FirstDoc = parseResponse(First);
  ASSERT_TRUE(responseOk(FirstDoc)) << First;
  EXPECT_EQ(FirstDoc.get("id")->asString(), "fast") << First;
  EXPECT_TRUE(FirstDoc.get("result_cache_hit")->asBool());

  // Abort the slow route instead of waiting seconds for it; its final
  // response must be the `cancelled` error, within a second.
  auto CancelAt = std::chrono::steady_clock::now();
  ASSERT_TRUE(Conn.sendLine(cancelRequest("slow").dump()).ok());
  std::string Ack, Final;
  ASSERT_TRUE(Conn.recvResponseFor("slow", Ack, {}, "cancel").ok());
  EXPECT_TRUE(parseResponse(Ack).get("cancelled")->asBool()) << Ack;
  ASSERT_TRUE(Conn.recvResponseFor("slow", Final, {}, "route").ok());
  double Elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - CancelAt)
                       .count();
  EXPECT_EQ(errorCode(parseResponse(Final)), errc::Cancelled) << Final;
  EXPECT_LT(Elapsed, 1.0)
      << "in-flight cancel must abort the route within one second";
}

TEST_P(ServerTransportTest, CancelAbortsQueuedJobWithoutWaitingForTheWorker) {
  // One worker: the first slow route occupies it, the second stays
  // queued. Cancelling the queued one must answer immediately — from the
  // connection thread — while the worker is still busy.
  ServerFixture Fixture(1, GetParam());
  Client Conn = Fixture.connect();

  ASSERT_TRUE(Conn.sendLine(slowRouteRequest("busy", 400, 3).dump()).ok());
  // A distinct circuit (different seed) so the queued job is no cache hit.
  ASSERT_TRUE(Conn.sendLine(slowRouteRequest("stuck", 400, 4).dump()).ok());
  // Give the connection thread a moment to submit both jobs.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  auto CancelAt = std::chrono::steady_clock::now();
  ASSERT_TRUE(Conn.sendLine(cancelRequest("stuck").dump()).ok());
  std::string Ack, Final;
  ASSERT_TRUE(Conn.recvResponseFor("stuck", Ack, {}, "cancel").ok());
  EXPECT_TRUE(parseResponse(Ack).get("cancelled")->asBool()) << Ack;
  ASSERT_TRUE(Conn.recvResponseFor("stuck", Final, {}, "route").ok());
  EXPECT_EQ(errorCode(parseResponse(Final)), errc::Cancelled) << Final;
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          CancelAt)
                .count(),
            1.0)
      << "a queued job's cancellation must not wait for the busy worker";

  // Cancelling an unknown id is an idempotent no-op ack.
  std::string NoOp;
  ASSERT_TRUE(Conn.sendLine(cancelRequest("never-existed").dump()).ok());
  ASSERT_TRUE(Conn.recvResponseFor("never-existed", NoOp, {}, "cancel").ok());
  EXPECT_FALSE(parseResponse(NoOp).get("cancelled")->asBool()) << NoOp;

  // Clean up the in-flight route too (also: cancel of a running job).
  ASSERT_TRUE(Conn.sendLine(cancelRequest("busy").dump()).ok());
  ASSERT_TRUE(Conn.recvResponseFor("busy", Final, {}, "route").ok());
  EXPECT_EQ(errorCode(parseResponse(Final)), errc::Cancelled) << Final;
}

TEST_P(ServerTransportTest, DeadlineExpiresMidRouteNotJustAtPickup) {
  ServerFixture Fixture(1, GetParam());
  Client Conn = Fixture.connect();

  // ~2.5 s of qmap routing with a 300 ms budget: the deadline fires while
  // the route is in flight, and the token aborts it within one poll.
  json::Value Req = slowRouteRequest("d");
  Req.set("timeout_ms", 300);
  auto SentAt = std::chrono::steady_clock::now();
  ASSERT_TRUE(Conn.sendLine(Req.dump()).ok());
  std::string Final;
  ASSERT_TRUE(Conn.recvResponseFor("d", Final, {}, "route").ok());
  double Elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - SentAt)
                       .count();
  EXPECT_EQ(errorCode(parseResponse(Final)), errc::DeadlineExceeded)
      << Final;
  EXPECT_LT(Elapsed, 1.3)
      << "deadline_exceeded must arrive within ~1 s of expiry, not after "
         "the full route";
}

TEST_P(ServerTransportTest, ProgressEventsStreamDuringRouting) {
  ServerFixture Fixture(1, GetParam());
  Client Conn = Fixture.connect();

  // A large circuit on the fast mapper: tens of thousands of gates, so
  // the ~5%-step throttle yields a healthy event stream.
  CouplingGraph Gen = makeSycamore54();
  QuekoSpec Spec;
  Spec.Depth = 2000;
  Spec.Seed = 5;
  std::string Qasm = qasm::printQasm(generateQueko(Gen, Spec).Circ);
  json::Value Req = routeRequest(Qasm, "qlosure", "sycamore54");
  Req.set("id", "p");
  Req.set("progress", true);
  Req.set("include_qasm", false);

  std::vector<std::string> Events;
  std::string Final;
  ASSERT_TRUE(Conn.sendLine(Req.dump()).ok());
  ASSERT_TRUE(Conn.recvResponseFor(
                      "p", Final,
                      [&](const std::string &Line) {
                        Events.push_back(Line);
                      },
                      "route")
                  .ok());
  json::Value Doc = parseResponse(Final);
  ASSERT_TRUE(responseOk(Doc)) << Final;
  ASSERT_FALSE(Events.empty())
      << "a progress-enabled route over 38k gates must emit events";
  size_t PrevDone = 0;
  for (const std::string &Line : Events) {
    json::Value Event = parseResponse(Line);
    EXPECT_EQ(Event.get("event")->asString(), "progress");
    EXPECT_EQ(Event.get("id")->asString(), "p");
    size_t Done = static_cast<size_t>(Event.get("done")->asNumber());
    size_t Total = static_cast<size_t>(Event.get("total")->asNumber());
    EXPECT_LE(Done, Total);
    EXPECT_GE(Done, PrevDone) << "progress must be monotone";
    PrevDone = Done;
  }
}

TEST(ServerTest, ShutdownStillAnswersPipelinedInFlightRoutes) {
  // The exactly-one-final-response guarantee must hold across shutdown:
  // a route in flight when the shutdown ack goes out is drained — and
  // its response delivered — before teardown severs the connection.
  ServerOptions Opts;
  Opts.Listen = testSocketPath();
  Opts.Workers = 1;
  Server Daemon(Opts);
  ASSERT_TRUE(Daemon.start().ok());
  std::thread Waiter([&] { Daemon.wait(); });

  bool GotAck = false, GotRoute = false, RouteOk = false;
  std::string Final;
  {
    Client Conn;
    if (Conn.connect(Opts.Listen, 5.0).ok()) {
      std::string Ack;
      GotAck = Conn.sendLine(slowRouteRequest("r1", 100).dump()).ok() &&
               Conn.sendLine("{\"op\":\"shutdown\",\"id\":\"s\"}").ok() &&
               Conn.recvResponseFor("s", Ack, {}, "shutdown").ok();
      if (GotAck && Conn.recvResponseFor("r1", Final, {}, "route").ok()) {
        GotRoute = true;
        RouteOk = responseOk(parseResponse(Final));
      }
    }
  }
  Waiter.join();
  ASSERT_TRUE(GotAck);
  ASSERT_TRUE(GotRoute)
      << "an in-flight route must receive its final response across "
         "shutdown, not be dropped by teardown";
  EXPECT_TRUE(RouteOk) << Final;
}

TEST_P(ServerTransportTest, DisconnectCancelsOrphanedJobs) {
  // A dropped pipelined connection must not leave workers routing dead
  // circuits: its queued jobs are discarded and its running job aborted.
  ServerFixture Fixture(1, GetParam());
  {
    Client Doomed = Fixture.connect();
    ASSERT_TRUE(Doomed.sendLine(slowRouteRequest("a", 400, 21).dump()).ok());
    ASSERT_TRUE(Doomed.sendLine(slowRouteRequest("b", 400, 22).dump()).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
  } // Connection drops with one job running and one queued.

  Client Probe = Fixture.connect();
  auto Begin = std::chrono::steady_clock::now();
  bool Freed = false;
  std::string Response;
  while (std::chrono::steady_clock::now() - Begin < std::chrono::seconds(5)) {
    ASSERT_TRUE(Probe.request("{\"op\":\"stats\"}", Response).ok());
    json::Value Doc = parseResponse(Response);
    const json::Value *Sched = Doc.get("scheduler");
    if (Sched->get("cancelled")->asNumber() >= 1 &&
        Sched->get("queue_depth")->asNumber() == 0) {
      Freed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(Freed)
      << "orphaned jobs must be cancelled promptly after disconnect: "
      << Response;
}

TEST(ServerTest, DroppedQueuedRouteIsNotCountedAsAnError) {
  // A queued route orphaned by its connection has no reader for a final
  // frame, so it is not counted in `errors`; the running one still
  // answers its own `cancelled` final, which is.
  ServerFixture Fixture(1);
  {
    Client Doomed = Fixture.connect();
    ASSERT_TRUE(Doomed.sendLine(slowRouteRequest("a", 400, 21).dump()).ok());
    ASSERT_TRUE(Doomed.sendLine(slowRouteRequest("b", 400, 22).dump()).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
  } // Connection drops with one job running and one queued.

  Client Probe = Fixture.connect();
  auto Begin = std::chrono::steady_clock::now();
  bool Settled = false;
  std::string Response;
  json::Value Doc;
  while (std::chrono::steady_clock::now() - Begin < std::chrono::seconds(10)) {
    ASSERT_TRUE(Probe.request("{\"op\":\"stats\"}", Response).ok());
    Doc = parseResponse(Response);
    const json::Value *Sched = Doc.get("scheduler");
    if (Sched->get("queue_depth")->asNumber() == 0 &&
        Sched->get("completed")->asNumber() +
                Sched->get("cancelled")->asNumber() ==
            Sched->get("submitted")->asNumber()) {
      Settled = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(Settled) << Response;
  const json::Value *Sched = Doc.get("scheduler");
  EXPECT_GE(Sched->get("cancelled")->asNumber(), 1) << Response;
  EXPECT_EQ(Doc.get("server")->get("errors")->asNumber(),
            Sched->get("completed")->asNumber())
      << Response;
}

TEST_P(ServerTransportTest, DuplicateInFlightIdIsRejected) {
  ServerFixture Fixture(1, GetParam());
  Client Conn = Fixture.connect();

  ASSERT_TRUE(Conn.sendLine(slowRouteRequest("dup").dump()).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Same id while the first is still routing: structured rejection.
  json::Value Again = routeRequest(sampleQasm());
  Again.set("id", "dup");
  ASSERT_TRUE(Conn.sendLine(Again.dump()).ok());
  std::string Rejection;
  ASSERT_TRUE(Conn.recvResponseFor("dup", Rejection, {}, "route").ok());
  EXPECT_EQ(errorCode(parseResponse(Rejection)), errc::BadRequest)
      << Rejection;

  // After the first completes (cancel it), the id is reusable.
  std::string Final;
  ASSERT_TRUE(Conn.sendLine(cancelRequest("dup").dump()).ok());
  ASSERT_TRUE(Conn.recvResponseFor("dup", Final, {}, "route").ok());
  EXPECT_EQ(errorCode(parseResponse(Final)), errc::Cancelled) << Final;
  ASSERT_TRUE(Conn.sendLine(Again.dump()).ok());
  ASSERT_TRUE(Conn.recvResponseFor("dup", Final, {}, "route").ok());
  EXPECT_TRUE(responseOk(parseResponse(Final))) << Final;
}

//===----------------------------------------------------------------------===//
// Batch sessions
//===----------------------------------------------------------------------===//

namespace {

json::Value batchRequest(
    const std::string &Id,
    const std::vector<std::pair<std::string, std::string>> &Items,
    const std::string &Mapper = "qlosure",
    const std::string &Backend = "aspen16") {
  json::Value Req = json::Value::object();
  Req.set("op", "batch");
  Req.set("id", Id);
  Req.set("mapper", Mapper);
  Req.set("backend", Backend);
  json::Value Arr = json::Value::array();
  for (const auto &[Name, Qasm] : Items) {
    json::Value Item = json::Value::object();
    if (!Name.empty())
      Item.set("name", Name);
    Item.set("qasm", Qasm);
    Arr.push(std::move(Item));
  }
  Req.set("items", std::move(Arr));
  return Req;
}

} // namespace

TEST_P(ServerTransportTest, BatchRoutesItemsAndSummaryArrivesLast) {
  ServerFixture Fixture(2, GetParam());
  Client Conn = Fixture.connect();

  // Two routable circuits plus one import failure: partial failure is
  // per-item, not batch-fatal.
  QuekoSpec Spec;
  Spec.Depth = 20;
  Spec.Seed = 9;
  CouplingGraph Gen = makeAspen16();
  std::string Third = qasm::printQasm(generateQueko(Gen, Spec).Circ);
  json::Value Req = batchRequest(
      "b1",
      {{"good", sampleQasm()}, {"broken", "qreg oops"}, {"", Third}});
  std::vector<std::string> ItemFrames;
  std::string Summary;
  ASSERT_TRUE(Conn.sendLine(Req.dump()).ok());
  ASSERT_TRUE(Conn.recvResponseFor(
                      "b1", Summary,
                      [&](const std::string &Line) {
                        ItemFrames.push_back(Line);
                      },
                      "batch")
                  .ok());

  // Ordering contract: by the time the summary is readable, every item
  // frame has already been delivered.
  ASSERT_EQ(ItemFrames.size(), 3u)
      << "the summary must arrive after all item frames";
  bool SawIndex[3] = {false, false, false};
  for (const std::string &Line : ItemFrames) {
    json::Value Frame = parseResponse(Line);
    EXPECT_EQ(Frame.get("ok"), nullptr) << Line;
    EXPECT_EQ(Frame.get("event")->asString(), "batch_item");
    EXPECT_EQ(Frame.get("id")->asString(), "b1");
    size_t Index = static_cast<size_t>(Frame.get("index")->asNumber());
    ASSERT_LT(Index, 3u);
    EXPECT_FALSE(SawIndex[Index]) << "one frame per item";
    SawIndex[Index] = true;
    if (Index == 1) {
      EXPECT_EQ(errorCode(Frame), errc::BadQasm) << Line;
      EXPECT_EQ(Frame.get("stats"), nullptr);
    } else {
      ASSERT_NE(Frame.get("stats"), nullptr) << Line;
      EXPECT_TRUE(Frame.get("stats")->get("verified")->asBool());
      EXPECT_EQ(Frame.get("error"), nullptr);
      ASSERT_NE(Frame.get("qasm"), nullptr);
    }
  }

  json::Value Doc = parseResponse(Summary);
  ASSERT_TRUE(responseOk(Doc)) << Summary;
  EXPECT_EQ(Doc.get("total")->asNumber(), 3);
  EXPECT_EQ(Doc.get("succeeded")->asNumber(), 2);
  EXPECT_EQ(Doc.get("failed")->asNumber(), 1);
  EXPECT_EQ(Doc.get("cancelled")->asNumber(), 0);
  ASSERT_EQ(Doc.get("items")->items().size(), 3u);
  EXPECT_EQ(Doc.get("items")->items()[0].get("status")->asString(), "ok");
  EXPECT_EQ(Doc.get("items")->items()[1].get("status")->asString(),
            "bad_qasm");
  EXPECT_EQ(Doc.get("items")->items()[0].get("name")->asString(), "good");

  // A batch item's routing populates the shared result cache: the same
  // circuit as a plain route is now a hit with identical bytes.
  std::string RouteLine;
  ASSERT_TRUE(
      Conn.request(routeRequest(sampleQasm()).dump(), RouteLine).ok());
  json::Value RouteDoc = parseResponse(RouteLine);
  ASSERT_TRUE(responseOk(RouteDoc)) << RouteLine;
  EXPECT_TRUE(RouteDoc.get("result_cache_hit")->asBool());
  for (const std::string &Line : ItemFrames) {
    json::Value Frame = parseResponse(Line);
    if (static_cast<size_t>(Frame.get("index")->asNumber()) == 0) {
      EXPECT_EQ(Frame.get("qasm")->asString(),
                RouteDoc.get("qasm")->asString());
    }
  }

  // Arrival-side counters.
  std::string StatsLine;
  ASSERT_TRUE(Conn.request("{\"op\":\"stats\"}", StatsLine).ok());
  json::Value Stats = parseResponse(StatsLine);
  EXPECT_EQ(Stats.get("server")->get("batch_requests")->asNumber(), 1);
  EXPECT_EQ(Stats.get("server")->get("batch_items")->asNumber(), 3);
}

TEST_P(ServerTransportTest, BatchCancelAbortsAllItems) {
  // One worker, three slow items: the first runs, the rest stay queued.
  // One cancel of the batch id must abort all of them — queued items
  // immediately from the connection thread, the running one through its
  // token — and the summary must still arrive last.
  ServerFixture Fixture(1, GetParam());
  Client Conn = Fixture.connect();

  json::Value Req = batchRequest("b1",
                                 {{"s0", deepQuekoQasm(300, 31)},
                                  {"s1", deepQuekoQasm(300, 32)},
                                  {"s2", deepQuekoQasm(300, 33)}},
                                 "qmap", "sherbrooke2x");
  ASSERT_TRUE(Conn.sendLine(Req.dump()).ok());
  // Let the connection thread submit and a worker pick up item 0.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  // The queued items' cancelled frames are written by the canceller
  // *before* the cancel ack, so the event callback must be installed on
  // both receives.
  std::vector<std::string> ItemFrames;
  auto Collect = [&](const std::string &Line) {
    ItemFrames.push_back(Line);
  };
  auto CancelAt = std::chrono::steady_clock::now();
  ASSERT_TRUE(Conn.sendLine(cancelRequest("b1").dump()).ok());
  std::string Ack;
  ASSERT_TRUE(Conn.recvResponseFor("b1", Ack, Collect, "cancel").ok());
  EXPECT_TRUE(parseResponse(Ack).get("cancelled")->asBool()) << Ack;

  std::string Summary;
  ASSERT_TRUE(Conn.recvResponseFor("b1", Summary, Collect, "batch").ok());
  double Elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - CancelAt)
                       .count();
  EXPECT_LT(Elapsed, 2.0)
      << "whole-batch cancel must not wait out the routes";

  json::Value Doc = parseResponse(Summary);
  ASSERT_TRUE(responseOk(Doc)) << Summary;
  EXPECT_EQ(Doc.get("total")->asNumber(), 3);
  EXPECT_EQ(Doc.get("cancelled")->asNumber(), 3);
  EXPECT_EQ(Doc.get("succeeded")->asNumber(), 0);
  EXPECT_EQ(ItemFrames.size(), 3u)
      << "every item reports before the summary";
  for (const std::string &Line : ItemFrames)
    EXPECT_EQ(errorCode(parseResponse(Line)), errc::Cancelled) << Line;

  // The id is released once the summary is out: reusable.
  std::string Reuse;
  ASSERT_TRUE(
      Conn.sendLine(
              batchRequest("b1", {{"ok", sampleQasm()}}).dump())
          .ok());
  ASSERT_TRUE(Conn.recvResponseFor("b1", Reuse, {}, "batch").ok());
  EXPECT_TRUE(responseOk(parseResponse(Reuse))) << Reuse;
}

TEST(ServerTest, BatchAdmissionIsAllOrNothing) {
  // Queue capacity 2, batch of 4 distinct circuits: the batch cannot be
  // enqueued contiguously, so it is rejected as a whole — one queue_full
  // response, zero item frames, nothing scheduled.
  ServerOptions Opts;
  Opts.Listen = testSocketPath();
  Opts.Workers = 1;
  Opts.QueueCapacity = 2;
  Server Daemon(Opts);
  ASSERT_TRUE(Daemon.start().ok());
  std::thread Waiter([&] { Daemon.wait(); });
  {
    Client Conn;
    ASSERT_TRUE(Conn.connect(Opts.Listen, 5.0).ok());

    // Four distinct backend-sized circuits, so every item genuinely
    // needs a queue slot (nothing is inline-disposed).
    CouplingGraph Gen = makeAspen16();
    std::vector<std::pair<std::string, std::string>> Items;
    for (uint64_t Seed = 41; Seed < 45; ++Seed) {
      QuekoSpec Spec;
      Spec.Depth = 20;
      Spec.Seed = Seed;
      Items.emplace_back(formatString("c%llu",
                                      static_cast<unsigned long long>(Seed)),
                         qasm::printQasm(generateQueko(Gen, Spec).Circ));
    }
    json::Value Req = batchRequest("big", Items);
    size_t ItemFrames = 0;
    std::string Response;
    ASSERT_TRUE(Conn.sendLine(Req.dump()).ok());
    ASSERT_TRUE(Conn.recvResponseFor(
                        "big", Response,
                        [&](const std::string &) { ++ItemFrames; },
                        "batch")
                    .ok());
    EXPECT_EQ(errorCode(parseResponse(Response)), errc::QueueFull)
        << Response;
    EXPECT_EQ(ItemFrames, 0u)
        << "a rejected batch must emit no item frames";

    std::string StatsLine;
    ASSERT_TRUE(Conn.request("{\"op\":\"stats\"}", StatsLine).ok());
    json::Value Stats = parseResponse(StatsLine);
    EXPECT_EQ(Stats.get("scheduler")->get("queue_depth")->asNumber(), 0)
        << "no partial batch may linger in the queue";

    // A batch that fits is accepted on the same connection.
    std::vector<std::string> Frames;
    json::Value Small = batchRequest("fits", {{"a", sampleQasm()}});
    ASSERT_TRUE(Conn.sendLine(Small.dump()).ok());
    ASSERT_TRUE(Conn.recvResponseFor(
                        "fits", Response,
                        [&](const std::string &Line) {
                          Frames.push_back(Line);
                        },
                        "batch")
                    .ok());
    EXPECT_TRUE(responseOk(parseResponse(Response))) << Response;
    EXPECT_EQ(Frames.size(), 1u);
  }
  Daemon.stop();
  Waiter.join();
}

TEST_P(ServerTransportTest, BatchIdSharesNamespaceWithRoutes) {
  // A live batch id cannot be taken by a route, nor a live route id by a
  // batch — per-connection ids are one namespace.
  ServerFixture Fixture(1, GetParam());
  Client Conn = Fixture.connect();

  ASSERT_TRUE(Conn.sendLine(slowRouteRequest("x", 300, 51).dump()).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::string Rejection;
  ASSERT_TRUE(
      Conn.sendLine(batchRequest("x", {{"a", sampleQasm()}}).dump()).ok());
  ASSERT_TRUE(Conn.recvResponseFor("x", Rejection, {}, "batch").ok());
  EXPECT_EQ(errorCode(parseResponse(Rejection)), errc::BadRequest)
      << Rejection;

  std::string Final;
  ASSERT_TRUE(Conn.sendLine(cancelRequest("x").dump()).ok());
  ASSERT_TRUE(Conn.recvResponseFor("x", Final, {}, "route").ok());
  EXPECT_EQ(errorCode(parseResponse(Final)), errc::Cancelled) << Final;
}

TEST(ServerTest, RouteAnswersLikeAOneItemBatch) {
  // A route is a one-item session. Each request goes to its own fresh
  // daemon, so neither answer comes from a cache the other warmed.
  std::ifstream In(QLOSURE_TEST_DATA_DIR "/queko-16qbt-d25-s42.qasm");
  ASSERT_TRUE(In.good());
  std::stringstream Text;
  Text << In.rdbuf();

  // Returns the route's final response and the batch's item frame.
  auto AnswerBothWays = [](const std::string &Qasm,
                           const std::string &Mapper) {
    ServerFixture RouteSide(1), BatchSide(1);
    Client RouteConn = RouteSide.connect(), BatchConn = BatchSide.connect();
    json::Value Route = routeRequest(Qasm, Mapper, "sherbrooke");
    Route.set("id", "x");
    std::string RouteLine, ItemLine, Summary;
    EXPECT_TRUE(RouteConn.request(Route.dump(), RouteLine).ok());
    EXPECT_TRUE(
        BatchConn
            .sendLine(
                batchRequest("x", {{"", Qasm}}, Mapper, "sherbrooke").dump())
            .ok());
    EXPECT_TRUE(BatchConn
                    .recvResponseFor(
                        "x", Summary,
                        [&](const std::string &Line) { ItemLine = Line; },
                        "batch")
                    .ok());
    return std::make_pair(parseResponse(RouteLine), parseResponse(ItemLine));
  };
  // mapping_seconds is the kernel's wall clock; every other stat is
  // deterministic.
  auto StatsWithoutClock = [](const json::Value &Frame) {
    json::Value Stats = *Frame.get("stats");
    Stats.set("mapping_seconds", 0);
    return Stats.dump();
  };

  for (const char *Mapper : {"qlosure", "sabre", "qmap", "cirq", "tket"}) {
    auto [Route, Item] = AnswerBothWays(Text.str(), Mapper);
    ASSERT_TRUE(responseOk(Route)) << Route.dump();
    ASSERT_NE(Item.get("stats"), nullptr) << Item.dump();
    EXPECT_EQ(StatsWithoutClock(Item), StatsWithoutClock(Route)) << Mapper;
    EXPECT_EQ(Item.get("qasm")->asString(), Route.get("qasm")->asString())
        << Mapper;
  }

  const std::pair<std::string, const char *> Refused[] = {
      {"qreg oops", errc::BadQasm},
      {"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[200];\n",
       errc::TooLarge}};
  for (const auto &[Qasm, Code] : Refused) {
    auto [Route, Item] = AnswerBothWays(Qasm, "qlosure");
    EXPECT_EQ(errorCode(Route), Code) << Route.dump();
    ASSERT_NE(Item.get("error"), nullptr) << Item.dump();
    EXPECT_EQ(Item.get("error")->dump(), Route.get("error")->dump());
  }
}

//===----------------------------------------------------------------------===//
// In-flight request coalescing + durable result store
//===----------------------------------------------------------------------===//

namespace {

/// Sends a progress-enabled slow route as \p Id and blocks until its
/// first progress event: the point where the leader is provably
/// mid-route, so an identical request sent from now on must coalesce
/// onto its flight rather than route again.
void startLeaderMidRoute(Client &Leader, const std::string &Id,
                         const std::string &Qasm) {
  json::Value Req = routeRequest(Qasm, "qmap", "sherbrooke2x");
  Req.set("id", Id);
  Req.set("progress", true);
  ASSERT_TRUE(Leader.sendLine(Req.dump()).ok());
  std::string Frame;
  ASSERT_TRUE(Leader.recvLine(Frame).ok());
  EXPECT_EQ(parseResponse(Frame).get("event")->asString(), "progress")
      << Frame;
}

/// Polls `stats` until the server-wide coalesced counter reaches
/// \p Want (the follower-attached handshake of the cancellation tests).
void awaitCoalescedCount(Client &Control, uint64_t Want) {
  for (int I = 0; I < 400; ++I) {
    std::string Line;
    ASSERT_TRUE(Control.request("{\"op\":\"stats\"}", Line).ok());
    if (parseResponse(Line).get("server")->get("coalesced")->asNumber() >=
        static_cast<double>(Want))
      return;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  FAIL() << "follower never attached to the leader's flight";
}

} // namespace

TEST(CoalescingTest, ConcurrentIdenticalRoutesShareOneJob) {
  ServerFixture Fixture(2);
  const std::string Qasm = deepQuekoQasm(300, 61);

  Client Leader = Fixture.connect();
  startLeaderMidRoute(Leader, "lead", Qasm);

  const unsigned NFollowers = 3;
  std::vector<Client> Followers;
  for (unsigned I = 0; I < NFollowers; ++I) {
    Followers.push_back(Fixture.connect());
    json::Value Req = routeRequest(Qasm, "qmap", "sherbrooke2x");
    Req.set("id", formatString("f%u", I));
    ASSERT_TRUE(Followers.back().sendLine(Req.dump()).ok());
  }

  // Followers are delivered before the leader's own response write, in
  // *attach* order — which across distinct connections is not the send
  // order. Drain them concurrently so no unread multi-hundred-KB
  // response can block the delivering worker on a full socket buffer.
  std::vector<std::string> FollowerResps(NFollowers);
  {
    std::vector<std::thread> Readers;
    for (unsigned I = 0; I < NFollowers; ++I)
      Readers.emplace_back([&, I] {
        Followers[I].recvResponseFor(formatString("f%u", I),
                                     FollowerResps[I], {}, "route");
      });
    for (std::thread &R : Readers)
      R.join();
  }
  std::vector<json::Value> FollowerDocs;
  for (unsigned I = 0; I < NFollowers; ++I) {
    json::Value Doc = parseResponse(FollowerResps[I]);
    ASSERT_TRUE(responseOk(Doc)) << FollowerResps[I];
    const json::Value *Coalesced = Doc.get("coalesced");
    ASSERT_NE(Coalesced, nullptr) << FollowerResps[I];
    EXPECT_TRUE(Coalesced->asBool());
    FollowerDocs.push_back(std::move(Doc));
  }

  std::string LeadResp;
  ASSERT_TRUE(Leader.recvResponseFor("lead", LeadResp, {}, "route").ok());
  json::Value LeadDoc = parseResponse(LeadResp);
  ASSERT_TRUE(responseOk(LeadDoc)) << LeadResp;
  EXPECT_EQ(LeadDoc.get("coalesced"), nullptr)
      << "the leader routed; only followers are coalesced";

  // Every follower carries the leader's payload byte for byte: same
  // routed program, same stats.
  for (const json::Value &Doc : FollowerDocs) {
    EXPECT_EQ(Doc.get("qasm")->asString(), LeadDoc.get("qasm")->asString());
    EXPECT_EQ(Doc.get("stats")->dump(), LeadDoc.get("stats")->dump());
  }

  Client Control = Fixture.connect();
  std::string StatsLine;
  ASSERT_TRUE(Control.request("{\"op\":\"stats\"}", StatsLine).ok());
  json::Value Stats = parseResponse(StatsLine);
  EXPECT_EQ(Stats.get("scheduler")->get("submitted")->asNumber(), 1)
      << "N identical concurrent routes must execute exactly one job";
  EXPECT_EQ(Stats.get("server")->get("coalesced")->asNumber(), NFollowers);
}

TEST(CoalescingTest, FollowerCancelLeavesLeaderRunning) {
  ServerFixture Fixture(2);
  const std::string Qasm = deepQuekoQasm(300, 62);

  Client Leader = Fixture.connect();
  startLeaderMidRoute(Leader, "lead", Qasm);

  Client Follower = Fixture.connect();
  json::Value Req = routeRequest(Qasm, "qmap", "sherbrooke2x");
  Req.set("id", "f");
  ASSERT_TRUE(Follower.sendLine(Req.dump()).ok());
  Client Control = Fixture.connect();
  awaitCoalescedCount(Control, 1);

  // Cancelling the follower answers it immediately — and only it.
  ASSERT_TRUE(Follower.sendLine(cancelRequest("f").dump()).ok());
  std::string Ack, Final;
  ASSERT_TRUE(Follower.recvResponseFor("f", Ack, {}, "cancel").ok());
  ASSERT_TRUE(Follower.recvResponseFor("f", Final, {}, "route").ok());
  EXPECT_EQ(errorCode(parseResponse(Final)), errc::Cancelled) << Final;

  // The leader is untouched: its route completes normally.
  std::string LeadResp;
  ASSERT_TRUE(Leader.recvResponseFor("lead", LeadResp, {}, "route").ok());
  EXPECT_TRUE(responseOk(parseResponse(LeadResp))) << LeadResp;
}

TEST(CoalescingTest, LeaderFailurePropagatesStructuredErrorToFollowers) {
  ServerFixture Fixture(2);
  const std::string Qasm = deepQuekoQasm(300, 63);

  Client Leader = Fixture.connect();
  startLeaderMidRoute(Leader, "lead", Qasm);

  Client Follower = Fixture.connect();
  json::Value Req = routeRequest(Qasm, "qmap", "sherbrooke2x");
  Req.set("id", "f");
  ASSERT_TRUE(Follower.sendLine(Req.dump()).ok());
  Client Control = Fixture.connect();
  awaitCoalescedCount(Control, 1);

  // Killing the leader mid-route fails the flight: the follower gets the
  // leader's error as a structured response, not a hang or a crash.
  ASSERT_TRUE(Leader.sendLine(cancelRequest("lead").dump()).ok());
  std::string Ack, LeadFinal;
  ASSERT_TRUE(Leader.recvResponseFor("lead", Ack, {}, "cancel").ok());
  ASSERT_TRUE(Leader.recvResponseFor("lead", LeadFinal, {}, "route").ok());
  EXPECT_EQ(errorCode(parseResponse(LeadFinal)), errc::Cancelled)
      << LeadFinal;

  std::string Final;
  ASSERT_TRUE(Follower.recvResponseFor("f", Final, {}, "route").ok());
  json::Value Doc = parseResponse(Final);
  EXPECT_EQ(errorCode(Doc), errc::Cancelled) << Final;
  const json::Value *Error = Doc.get("error");
  ASSERT_NE(Error, nullptr);
  EXPECT_NE(Error->get("message")->asString().find("coalesced leader"),
            std::string::npos)
      << Final;
}

TEST(CoalescingTest, DuplicateBatchItemsCoalesce) {
  ServerFixture Fixture(2);
  Client Conn = Fixture.connect();
  const std::string Slow = deepQuekoQasm(200, 64);
  json::Value Req =
      batchRequest("b", {{"a", Slow}, {"b", Slow}}, "qmap", "sherbrooke2x");

  std::vector<std::string> Frames;
  std::string Summary;
  ASSERT_TRUE(Conn.sendLine(Req.dump()).ok());
  ASSERT_TRUE(Conn.recvResponseFor(
                      "b", Summary,
                      [&](const std::string &L) { Frames.push_back(L); },
                      "batch")
                  .ok());
  ASSERT_TRUE(responseOk(parseResponse(Summary))) << Summary;
  ASSERT_EQ(Frames.size(), 2u);

  unsigned Deduped = 0;
  std::vector<std::string> Qasms;
  for (const std::string &Frame : Frames) {
    json::Value Item = parseResponse(Frame);
    ASSERT_EQ(Item.get("error"), nullptr) << Frame;
    Qasms.push_back(Item.get("qasm")->asString());
    const json::Value *Coalesced = Item.get("coalesced");
    const json::Value *CacheHit = Item.get("result_cache_hit");
    if ((Coalesced && Coalesced->asBool()) ||
        (CacheHit && CacheHit->asBool()))
      ++Deduped;
  }
  ASSERT_EQ(Qasms.size(), 2u);
  EXPECT_EQ(Qasms[0], Qasms[1]) << "identical items, identical programs";
  // One item routed; the duplicate coalesced onto its flight (or, if the
  // route outran the attach, was served from the result cache). Either
  // way exactly one job executed.
  EXPECT_EQ(Deduped, 1u);
  std::string StatsLine;
  ASSERT_TRUE(Conn.request("{\"op\":\"stats\"}", StatsLine).ok());
  json::Value Stats = parseResponse(StatsLine);
  EXPECT_EQ(Stats.get("scheduler")->get("submitted")->asNumber(), 1)
      << "a duplicate batch item must not route twice";
}

TEST(ResultStoreServiceTest, WarmResultsSurviveRestart) {
  std::string StorePath = formatString("/tmp/qls-store-%d-%u.qstore",
                                       static_cast<int>(getpid()), 0u);
  std::remove(StorePath.c_str());
  ServerOptions Opts;
  Opts.Workers = 2;
  Opts.DefaultTimeoutSeconds = 30;
  Opts.StorePath = StorePath;

  std::string FirstQasm;
  {
    Opts.Listen = testSocketPath();
    Server Daemon(Opts);
    Status Started = Daemon.start();
    ASSERT_TRUE(Started.ok()) << Started.message();
    std::thread Waiter([&] { Daemon.wait(); });
    Client Conn;
    ASSERT_TRUE(Conn.connect(Daemon.boundAddress(), 5.0).ok());
    std::string Resp;
    ASSERT_TRUE(Conn.request(routeRequest(sampleQasm()).dump(), Resp).ok());
    json::Value Doc = parseResponse(Resp);
    ASSERT_TRUE(responseOk(Doc)) << Resp;
    EXPECT_FALSE(Doc.get("result_cache_hit")->asBool());
    FirstQasm = Doc.get("qasm")->asString();
    Daemon.requestStop();
    Waiter.join();
  }

  // A fresh daemon on the same store serves the routed result as a warm
  // hit — byte-identical to the pre-restart response.
  {
    Opts.Listen = testSocketPath();
    Server Daemon(Opts);
    Status Started = Daemon.start();
    ASSERT_TRUE(Started.ok()) << Started.message();
    std::thread Waiter([&] { Daemon.wait(); });
    Client Conn;
    ASSERT_TRUE(Conn.connect(Daemon.boundAddress(), 5.0).ok());
    std::string Resp;
    ASSERT_TRUE(Conn.request(routeRequest(sampleQasm()).dump(), Resp).ok());
    json::Value Doc = parseResponse(Resp);
    ASSERT_TRUE(responseOk(Doc)) << Resp;
    EXPECT_TRUE(Doc.get("result_cache_hit")->asBool())
        << "a stored result must survive the restart";
    EXPECT_EQ(Doc.get("qasm")->asString(), FirstQasm);

    std::string StatsLine;
    ASSERT_TRUE(Conn.request("{\"op\":\"stats\"}", StatsLine).ok());
    const json::Value StatsDoc = parseResponse(StatsLine);
    const json::Value *Store = StatsDoc.get("store");
    ASSERT_NE(Store, nullptr) << StatsLine;
    EXPECT_GE(Store->get("records")->asNumber(), 1);
    EXPECT_GE(Store->get("hits")->asNumber(), 1);
    Daemon.requestStop();
    Waiter.join();
  }
  std::remove(StorePath.c_str());
}

TEST(ResultStoreServiceTest, RecordsOfOlderRoutingSemanticsAreNeverServed) {
  // A store written before the routing-semantics version joined the key:
  // its record for the sample circuit sits under the key that code
  // computed, the mapper name and flags alone. Its routes may have moved
  // since, so a daemon on that store must route the circuit again.
  std::string StorePath = formatString("/tmp/qls-store-%d-%u.qstore",
                                       static_cast<int>(getpid()), 1u);
  std::remove(StorePath.c_str());
  qasm::ImportResult Imported = qasm::importQasm(sampleQasm(), "request");
  ASSERT_TRUE(Imported.succeeded()) << Imported.Error;
  Circuit Logical =
      Imported.Circ->withoutNonUnitaries().decomposeThreeQubitGates();
  const CacheKey OldKey{fingerprint(Logical),
                        fingerprint(makeBackendByName("aspen16")),
                        hashCombine(fingerprintString("qlosure"), 0)};
  const std::string Sentinel = "// routed by older code\n";
  {
    ResultStoreOptions StoreOpts;
    StoreOpts.Path = StorePath;
    Status Err;
    std::unique_ptr<ResultStore> Store = ResultStore::open(StoreOpts, Err);
    ASSERT_NE(Store, nullptr) << Err.message();
    CachedResult Old;
    Old.RoutedQasm = Sentinel;
    Old.LogicalGates = Logical.size();
    Old.Verified = true;
    ASSERT_TRUE(Store->put(OldKey, Old));
  }

  ServerOptions Opts;
  Opts.Workers = 2;
  Opts.DefaultTimeoutSeconds = 30;
  Opts.StorePath = StorePath;
  Opts.Listen = testSocketPath();
  Server Daemon(Opts);
  Status Started = Daemon.start();
  ASSERT_TRUE(Started.ok()) << Started.message();
  std::thread Waiter([&] { Daemon.wait(); });
  Client Conn;
  ASSERT_TRUE(Conn.connect(Daemon.boundAddress(), 5.0).ok());
  std::string First, Repeat;
  ASSERT_TRUE(Conn.request(routeRequest(sampleQasm()).dump(), First).ok());
  ASSERT_TRUE(Conn.request(routeRequest(sampleQasm()).dump(), Repeat).ok());
  json::Value FirstDoc = parseResponse(First);
  json::Value RepeatDoc = parseResponse(Repeat);
  ASSERT_TRUE(responseOk(FirstDoc)) << First;
  ASSERT_TRUE(responseOk(RepeatDoc)) << Repeat;
  EXPECT_FALSE(FirstDoc.get("result_cache_hit")->asBool())
      << "a record keyed without the routing-semantics version was served";
  EXPECT_NE(FirstDoc.get("qasm")->asString(), Sentinel);
  EXPECT_TRUE(RepeatDoc.get("result_cache_hit")->asBool());
  EXPECT_EQ(RepeatDoc.get("qasm")->asString(),
            FirstDoc.get("qasm")->asString());
  Daemon.requestStop();
  Waiter.join();
  std::remove(StorePath.c_str());
}

//===----------------------------------------------------------------------===//
// Request keys and the raw-text alias tier
//===----------------------------------------------------------------------===//

TEST(RequestKeyTest, AliasKeySeparatesEveryRoutingInput) {
  const std::string Qasm = sampleQasm();
  RouteRequest Params;
  const CacheKey Base = aliasKey(Qasm, /*BackendFp=*/7, Params);
  EXPECT_EQ(aliasKey(Qasm, 7, Params), Base);
  EXPECT_NE(aliasKey(Qasm + " ", 7, Params), Base);
  EXPECT_NE(aliasKey(Qasm, 8, Params), Base);

  std::vector<RouteRequest> Variants(4, Params);
  Variants[0].Mapper = "sabre";
  Variants[1].Affine = true;
  Variants[2].Bidirectional = true;
  Variants[3].ErrorAware = true;
  for (const RouteRequest &V : Variants)
    EXPECT_NE(aliasKey(Qasm, 7, V), Base);

  // Fields that do not change the routed program share one alias.
  RouteRequest Cosmetic = Params;
  Cosmetic.IncludeQasm = false;
  Cosmetic.TimeoutMs = 5;
  Cosmetic.Progress = true;
  Cosmetic.Trace = true;
  EXPECT_EQ(aliasKey(Qasm, 7, Cosmetic), Base);

  // An alias and a result key differ only in their circuit half.
  const CacheKey Result = resultKey(/*CircuitFp=*/123, 7, Params);
  EXPECT_EQ(Result.BackendFp, Base.BackendFp);
  EXPECT_EQ(Result.ConfigFp, Base.ConfigFp);
}

TEST(RequestKeyTest, RawTextFingerprintSeesEveryByteAndTheLength) {
  const std::string Text(37, 'x');
  const uint64_t Base = rawTextFingerprint(Text);
  for (size_t I = 0; I < Text.size(); ++I) {
    std::string Flipped = Text;
    Flipped[I] = 'y';
    EXPECT_NE(rawTextFingerprint(Flipped), Base) << "byte " << I;
  }
  EXPECT_NE(rawTextFingerprint(Text + std::string(1, '\0')), Base);
  EXPECT_NE(rawTextFingerprint(""), rawTextFingerprint(std::string(1, '\0')));
}

TEST(RequestKeyTest, OneItemBatchShardsWithItsRoute) {
  Request Route;
  Route.TheOp = Op::Route;
  Route.Route.Backend = "aspen16";
  Route.Route.Qasm = sampleQasm();
  Request Batch;
  Batch.TheOp = Op::Batch;
  Batch.Route.Backend = "aspen16";
  Batch.Items.resize(1);
  Batch.Items[0].Qasm = sampleQasm();
  EXPECT_EQ(shardKeyForRequest(Batch), shardKeyForRequest(Route));
}

TEST(AliasTest, RepeatedBytesSkipImportAndAnswerLikeTheParsedKey) {
  ServerFixture Fixture(2);
  Client Conn = Fixture.connect();
  const std::string Qasm = sampleQasm();

  std::string Cold, Aliased, Reparsed;
  ASSERT_TRUE(Conn.request(routeRequest(Qasm).dump(), Cold).ok());
  ASSERT_TRUE(Conn.request(routeRequest(Qasm).dump(), Aliased).ok());
  // The same circuit in other bytes misses the alias and finds the
  // result under its parsed key.
  ASSERT_TRUE(Conn.request(routeRequest(Qasm + "// same circuit\n").dump(),
                           Reparsed)
                  .ok());
  const json::Value ColdDoc = parseResponse(Cold);
  const json::Value AliasedDoc = parseResponse(Aliased);
  ASSERT_TRUE(responseOk(ColdDoc)) << Cold;
  ASSERT_TRUE(responseOk(AliasedDoc)) << Aliased;
  EXPECT_FALSE(ColdDoc.get("result_cache_hit")->asBool());
  EXPECT_TRUE(AliasedDoc.get("result_cache_hit")->asBool());
  EXPECT_EQ(AliasedDoc.get("qasm")->asString(),
            ColdDoc.get("qasm")->asString());
  EXPECT_EQ(Aliased, Reparsed) << "both hit paths answer the same bytes";

  std::string StatsLine;
  ASSERT_TRUE(Conn.request("{\"op\":\"stats\"}", StatsLine).ok());
  const json::Value Stats = parseResponse(StatsLine);
  const json::Value *Alias = Stats.get("alias_cache");
  ASSERT_NE(Alias, nullptr) << StatsLine;
  EXPECT_EQ(Alias->get("hits")->asNumber(), 1);
  EXPECT_EQ(Alias->get("misses")->asNumber(), 2);
  EXPECT_EQ(Alias->get("entries")->asNumber(), 2);
  EXPECT_EQ(Stats.get("result_cache")->get("hits")->asNumber(), 2);
  EXPECT_EQ(Stats.get("result_cache")->get("misses")->asNumber(), 1);
  EXPECT_EQ(Stats.get("scheduler")->get("submitted")->asNumber(), 1);
}

TEST(AliasTest, TracedAliasHitRecordsNoImport) {
  ServerFixture Fixture(1);
  Client Conn = Fixture.connect();
  json::Value Req = routeRequest(sampleQasm());
  Req.set("trace", true);
  auto SpanNames = [&Conn, &Req]() {
    std::string Line;
    EXPECT_TRUE(Conn.request(Req.dump(), Line).ok());
    std::vector<std::string> Names;
    const json::Value Doc = parseResponse(Line);
    const json::Value *T = Doc.get("trace");
    EXPECT_NE(T, nullptr) << Line;
    if (T)
      for (const json::Value &S : T->get("spans")->items())
        Names.push_back(S.get("name")->asString());
    return Names;
  };
  auto Has = [](const std::vector<std::string> &Names, const char *Name) {
    return std::find(Names.begin(), Names.end(), Name) != Names.end();
  };
  const std::vector<std::string> Cold = SpanNames();
  EXPECT_TRUE(Has(Cold, "alias_lookup"));
  EXPECT_TRUE(Has(Cold, "import_qasm"));
  const std::vector<std::string> Warm = SpanNames();
  EXPECT_TRUE(Has(Warm, "alias_lookup"));
  EXPECT_TRUE(Has(Warm, "result_cache_hit"));
  EXPECT_FALSE(Has(Warm, "import_qasm"));
}

TEST(AliasTest, BatchItemsAndRoutesShareAliases) {
  ServerFixture Fixture(2);
  Client Conn = Fixture.connect();
  const std::string Other = sampleQasm() + "h q[1];\n";
  auto RunBatch = [&Conn](const std::string &Id, const std::string &Qasm) {
    std::vector<std::string> Frames;
    std::string Summary;
    EXPECT_TRUE(Conn.sendLine(batchRequest(Id, {{"x", Qasm}}).dump()).ok());
    EXPECT_TRUE(Conn.recvResponseFor(
                        Id, Summary,
                        [&](const std::string &L) { Frames.push_back(L); },
                        "batch")
                    .ok());
    EXPECT_TRUE(responseOk(parseResponse(Summary))) << Summary;
    EXPECT_EQ(Frames.size(), 1u);
    return Frames.empty() ? json::Value() : parseResponse(Frames[0]);
  };

  // A route's alias serves a batch item...
  std::string Routed;
  ASSERT_TRUE(Conn.request(routeRequest(sampleQasm()).dump(), Routed).ok());
  const json::Value Item = RunBatch("b1", sampleQasm());
  ASSERT_NE(Item.get("result_cache_hit"), nullptr) << Item.dump();
  EXPECT_TRUE(Item.get("result_cache_hit")->asBool());
  EXPECT_EQ(Item.get("qasm")->asString(),
            parseResponse(Routed).get("qasm")->asString());

  // ...and a batch item's alias serves a route.
  RunBatch("b2", Other);
  std::string Again;
  ASSERT_TRUE(Conn.request(routeRequest(Other).dump(), Again).ok());
  EXPECT_TRUE(parseResponse(Again).get("result_cache_hit")->asBool()) << Again;
  EXPECT_EQ(Fixture.Daemon->aliasCacheStats().Hits, 2u);
}

TEST(AliasTest, AliasOfAnEvictedResultRoutesAgain) {
  ServerOptions Opts;
  Opts.Listen = testSocketPath();
  Opts.Workers = 1;
  Opts.DefaultTimeoutSeconds = 30;
  Opts.CacheShards = 1;
  Opts.ResultCacheBytes = 1; // Keeps only the newest result.
  Server Daemon(Opts);
  ASSERT_TRUE(Daemon.start().ok());
  std::thread Waiter([&] { Daemon.wait(); });
  Client Conn;
  ASSERT_TRUE(Conn.connect(Daemon.boundAddress(), 5.0).ok());

  const std::string A = sampleQasm();
  const std::string B = sampleQasm() + "cx q[3],q[4];\n";
  std::string First, Evictor, Again;
  ASSERT_TRUE(Conn.request(routeRequest(A).dump(), First).ok());
  ASSERT_TRUE(Conn.request(routeRequest(B).dump(), Evictor).ok());
  ASSERT_TRUE(Conn.request(routeRequest(A).dump(), Again).ok());
  const json::Value AgainDoc = parseResponse(Again);
  ASSERT_TRUE(responseOk(AgainDoc)) << Again;
  EXPECT_FALSE(AgainDoc.get("result_cache_hit")->asBool())
      << "the aliased result was evicted, so the circuit routes again";
  EXPECT_EQ(AgainDoc.get("qasm")->asString(),
            parseResponse(First).get("qasm")->asString());
  EXPECT_EQ(Daemon.aliasCacheStats().Hits, 1u);
  // One miss per request: the alias hit's miss is not counted twice.
  EXPECT_EQ(Daemon.resultCacheStats().Misses, 3u);
  Daemon.requestStop();
  Waiter.join();
}
