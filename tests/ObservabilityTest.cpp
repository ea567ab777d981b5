//===- tests/ObservabilityTest.cpp - Tracing, histograms, logging --------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The observability stack end to end: the span recorder (support/Trace.h),
// the log-scale latency histograms (service/Histogram.h), the structured
// logger (support/Log.h), the Prometheus walker on adversarial stats
// documents (service/Metrics.h), and the traced `route` request against a
// live server.
//
//===----------------------------------------------------------------------===//

#include "service/Client.h"
#include "service/Histogram.h"
#include "service/Metrics.h"
#include "service/Protocol.h"
#include "service/Server.h"
#include "support/Json.h"
#include "support/Log.h"
#include "support/StringUtils.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace qlosure;
using namespace qlosure::service;

namespace {

std::string testSocketPath() {
  static std::atomic<unsigned> Counter{0};
  return formatString("/tmp/qlo-%d-%u.sock", static_cast<int>(getpid()),
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

json::Value parseLine(const std::string &Line) {
  json::ParseResult Parsed = json::parse(Line);
  EXPECT_TRUE(Parsed.Ok) << Parsed.Error << " in: " << Line;
  return Parsed.V;
}

bool responseOk(const json::Value &Response) {
  const json::Value *Ok = Response.get("ok");
  return Ok && Ok->asBool();
}

} // namespace

//===----------------------------------------------------------------------===//
// Trace
//===----------------------------------------------------------------------===//

TEST(TraceTest, RecordsNestedSpansWithDepths) {
  Trace T;
  T.reset("t1");
  int Outer = T.begin("outer");
  int Inner = T.begin("inner");
  T.end(Inner);
  T.end(Outer);
  int Sibling = T.begin("sibling");
  T.end(Sibling);

  ASSERT_EQ(T.spans().size(), 3u);
  EXPECT_STREQ(T.spans()[0].Name, "outer");
  EXPECT_EQ(T.spans()[0].Depth, 0);
  EXPECT_STREQ(T.spans()[1].Name, "inner");
  EXPECT_EQ(T.spans()[1].Depth, 1);
  EXPECT_EQ(T.spans()[2].Depth, 0);
  for (const Trace::Span &S : T.spans()) {
    EXPECT_GE(S.StartNs, 0);
    EXPECT_GE(S.DurNs, 0);
  }
  // Containment: the inner span lies within the outer one.
  EXPECT_GE(T.spans()[1].StartNs, T.spans()[0].StartNs);
  EXPECT_LE(T.spans()[1].StartNs + T.spans()[1].DurNs,
            T.spans()[0].StartNs + T.spans()[0].DurNs);
}

TEST(TraceTest, OutOfOrderEndClosesDeeperSpans) {
  Trace T;
  T.reset("t1");
  int Outer = T.begin("outer");
  (void)T.begin("leaked"); // Never ended explicitly.
  T.end(Outer);
  ASSERT_EQ(T.spans().size(), 2u);
  EXPECT_GE(T.spans()[1].DurNs, 0) << "leaked span must be closed";
  // The stack is empty again: the next span nests at depth 0.
  int Next = T.begin("next");
  T.end(Next);
  EXPECT_EQ(T.spans()[2].Depth, 0);
}

TEST(TraceTest, PoolCapCountsDropsInsteadOfGrowing) {
  Trace T;
  T.reset("t1");
  for (size_t I = 0; I < Trace::MaxSpans + 10; ++I)
    T.addNs("x", 0, 1);
  EXPECT_EQ(T.spans().size(), Trace::MaxSpans);
  EXPECT_EQ(T.dropped(), 10u);
  EXPECT_EQ(T.begin("over"), -1);
  T.end(-1); // No-op, must not crash.
  json::Value Doc = T.toJson();
  ASSERT_NE(Doc.get("dropped_spans"), nullptr);
  EXPECT_GT(Doc.get("dropped_spans")->asNumber(), 10);
}

TEST(TraceTest, ToJsonCarriesScheduleInMicroseconds) {
  Trace T;
  const auto Epoch = Trace::Clock::now();
  T.reset("abc123", Epoch);
  T.addNs("phase", 5000, 2000); // 5us in, 2us long.
  json::Value Doc = T.toJson(Epoch + std::chrono::milliseconds(1));
  EXPECT_EQ(Doc.get("trace_id")->asString(), "abc123");
  const json::Value *Spans = Doc.get("spans");
  ASSERT_NE(Spans, nullptr);
  ASSERT_EQ(Spans->items().size(), 1u);
  const json::Value &S = Spans->items()[0];
  EXPECT_EQ(S.get("name")->asString(), "phase");
  EXPECT_EQ(S.get("start_us")->asNumber(), 5);
  EXPECT_EQ(S.get("dur_us")->asNumber(), 2);
  EXPECT_EQ(S.get("depth")->asNumber(), 0);
}

TEST(TraceTest, ResetRearmsForANewRequest) {
  Trace T;
  T.reset("first");
  T.addNs("a", 0, 1);
  T.reset("second");
  EXPECT_TRUE(T.spans().empty());
  EXPECT_EQ(T.traceId(), "second");
  EXPECT_EQ(T.dropped(), 0u);
}

TEST(TraceTest, ScopedSpanIsNullSafe) {
  { ScopedSpan S(nullptr, "nothing"); } // Must not crash.
  Trace T;
  T.reset("t");
  {
    ScopedSpan S(&T, "scoped");
    S.done();
    S.done(); // Idempotent.
  }
  ASSERT_EQ(T.spans().size(), 1u);
  EXPECT_GE(T.spans()[0].DurNs, 0);
}

TEST(TraceTest, GeneratedIdsAreDistinctHexStrings) {
  std::set<std::string> Seen;
  for (int I = 0; I < 100; ++I) {
    std::string Id = generateTraceId();
    EXPECT_EQ(Id.size(), 16u);
    for (char C : Id)
      EXPECT_TRUE((C >= '0' && C <= '9') || (C >= 'a' && C <= 'f')) << Id;
    Seen.insert(Id);
  }
  EXPECT_EQ(Seen.size(), 100u);
}

//===----------------------------------------------------------------------===//
// LatencyHistogram
//===----------------------------------------------------------------------===//

TEST(HistogramTest, BucketBoundariesArePowersOfTwoMicros) {
  // 1ns..1us land in the first bucket (ceil to us).
  EXPECT_EQ(LatencyHistogram::bucketFor(1), 0);
  EXPECT_EQ(LatencyHistogram::bucketFor(1000), 0);
  EXPECT_EQ(LatencyHistogram::bucketFor(1001), 1);   // 2us bucket
  EXPECT_EQ(LatencyHistogram::bucketFor(2000), 1);
  EXPECT_EQ(LatencyHistogram::bucketFor(2001), 2);   // 4us bucket
  EXPECT_EQ(LatencyHistogram::bucketFor(0), 0);
  // Past the last finite bound: overflow bucket.
  EXPECT_EQ(LatencyHistogram::bucketFor(int64_t(1) << 62),
            LatencyHistogram::NumBounds);
}

TEST(HistogramTest, RecordsAndSerializes) {
  LatencyHistogram H;
  H.recordNs(500);                    // 1us bucket
  H.recordNs(1500);                   // 2us bucket
  H.recordSeconds(0.001);             // 1ms = 1024us bucket
  EXPECT_EQ(H.count(), 3u);

  json::Value Doc = H.toJson();
  ASSERT_TRUE(isHistogramJson(Doc));
  EXPECT_EQ(Doc.get("count")->asNumber(), 3);
  EXPECT_NEAR(Doc.get("sum_seconds")->asNumber(), 0.001002, 1e-6);
  ASSERT_EQ(Doc.get("le_us")->items().size(),
            size_t(LatencyHistogram::NumBounds));
  ASSERT_EQ(Doc.get("bucket_counts")->items().size(),
            size_t(LatencyHistogram::NumBounds) + 1);
  EXPECT_EQ(Doc.get("bucket_counts")->items()[0].asNumber(), 1);
  EXPECT_EQ(Doc.get("bucket_counts")->items()[1].asNumber(), 1);
  EXPECT_EQ(Doc.get("le_us")->items()[10].asNumber(), 1024);
  EXPECT_EQ(Doc.get("bucket_counts")->items()[10].asNumber(), 1);
}

TEST(HistogramTest, MergeAddsBucketWise) {
  LatencyHistogram A, B;
  A.recordNs(500);
  A.recordNs(3000);
  B.recordNs(700);
  json::Value DocA = A.toJson();
  json::Value DocB = B.toJson();
  mergeHistogramJson(DocA, DocB);
  EXPECT_EQ(DocA.get("count")->asNumber(), 3);
  EXPECT_EQ(DocA.get("bucket_counts")->items()[0].asNumber(), 2);
  EXPECT_EQ(DocA.get("bucket_counts")->items()[2].asNumber(), 1);
  EXPECT_NEAR(DocA.get("sum_seconds")->asNumber(), 4200e-9, 1e-12);
}

TEST(HistogramTest, IsHistogramJsonRejectsLookalikes) {
  EXPECT_FALSE(isHistogramJson(json::Value()));
  EXPECT_FALSE(isHistogramJson(json::Value(3.0)));
  EXPECT_FALSE(isHistogramJson(json::Value::array()));
  json::Value NoTag = json::Value::object();
  NoTag.set("le_us", json::Value::array());
  NoTag.set("bucket_counts", json::Value::array());
  EXPECT_FALSE(isHistogramJson(NoTag));
  json::Value WrongTag = NoTag;
  WrongTag.set("type", "gauge");
  EXPECT_FALSE(isHistogramJson(WrongTag));
  json::Value MissingArrays = json::Value::object();
  MissingArrays.set("type", "histogram");
  EXPECT_FALSE(isHistogramJson(MissingArrays));
}

//===----------------------------------------------------------------------===//
// Structured logging
//===----------------------------------------------------------------------===//

TEST(LogTest, ParsesLevelsAndRejectsJunk) {
  log::Level L = log::Level::Off;
  EXPECT_TRUE(log::parseLevel("debug", L));
  EXPECT_EQ(L, log::Level::Debug);
  EXPECT_TRUE(log::parseLevel("warn", L));
  EXPECT_EQ(L, log::Level::Warn);
  EXPECT_TRUE(log::parseLevel("off", L));
  EXPECT_EQ(L, log::Level::Off);
  log::Level Unchanged = log::Level::Info;
  EXPECT_FALSE(log::parseLevel("verbose", Unchanged));
  EXPECT_EQ(Unchanged, log::Level::Info);
  EXPECT_STREQ(log::levelName(log::Level::Error), "error");
}

TEST(LogTest, ThresholdGatesAndFileSinkEmitsParseableJson) {
  std::string Path = formatString("/tmp/qlo-log-%d.jsonl",
                                  static_cast<int>(getpid()));
  std::remove(Path.c_str());
  ASSERT_TRUE(log::configure(log::Level::Warn, Path));
  EXPECT_FALSE(log::enabled(log::Level::Info));
  EXPECT_TRUE(log::enabled(log::Level::Warn));
  EXPECT_TRUE(log::enabled(log::Level::Error));

  log::Event(log::Level::Info, "filtered").num("n", 1);
  {
    json::Value Sub = json::Value::object();
    Sub.set("inner", 7);
    log::Event(log::Level::Error, "kept\nnewline\"quote")
        .str("text", "a\tb")
        .num("value", 2.5)
        .boolean("flag", true)
        .json("sub", std::move(Sub));
  }
  log::flush();

  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::vector<std::string> Lines;
  for (std::string Line; std::getline(In, Line);)
    Lines.push_back(Line);
  ASSERT_EQ(Lines.size(), 1u) << "info line must be filtered";
  json::Value Doc = parseLine(Lines[0]);
  EXPECT_EQ(Doc.get("level")->asString(), "error");
  EXPECT_EQ(Doc.get("msg")->asString(), "kept\nnewline\"quote");
  EXPECT_EQ(Doc.get("text")->asString(), "a\tb");
  EXPECT_EQ(Doc.get("value")->asNumber(), 2.5);
  EXPECT_TRUE(Doc.get("flag")->asBool());
  EXPECT_EQ(Doc.get("sub")->get("inner")->asNumber(), 7);
  EXPECT_GT(Doc.get("ts")->asNumber(), 1.5e9);

  // Restore the default so later tests in this process log nothing.
  log::configure(log::Level::Off, "");
  std::remove(Path.c_str());
}

TEST(LogTest, ConfigureFailsOnUnopenablePathAndKeepsOldSink) {
  ASSERT_FALSE(log::configure(log::Level::Info,
                              "/nonexistent-dir-qlo/x/y/z.log"));
  log::configure(log::Level::Off, "");
}

//===----------------------------------------------------------------------===//
// Prometheus walker on adversarial stats documents (and label escaping)
//===----------------------------------------------------------------------===//

TEST(MetricsWalkerTest, SkipsNonNumericLeavesAndEmptyObjects) {
  json::ParseResult Doc = json::parse(
      "{\"name\":\"qlosured\",\"empty\":{},\"list\":[1,2,3],"
      "\"nil\":null,\"nested\":{\"also_empty\":{},\"n\":4},"
      "\"flag\":true}");
  ASSERT_TRUE(Doc.Ok);
  std::string Text = prometheusText(Doc.V, "q");
  EXPECT_EQ(Text.find("q_name"), std::string::npos);
  EXPECT_EQ(Text.find("q_empty"), std::string::npos);
  EXPECT_EQ(Text.find("q_list"), std::string::npos);
  EXPECT_EQ(Text.find("q_nil"), std::string::npos);
  EXPECT_NE(Text.find("q_nested_n 4\n"), std::string::npos) << Text;
  EXPECT_NE(Text.find("q_flag 1\n"), std::string::npos) << Text;
}

TEST(MetricsWalkerTest, SanitizesHostileMemberNames) {
  json::Value Doc = json::Value::object();
  json::Value Inner = json::Value::object();
  Inner.set("weird name-2.0", 7);
  Doc.set("ca$he", std::move(Inner));
  std::string Text = prometheusText(Doc, "q");
  EXPECT_NE(Text.find("q_ca_he_weird_name_2_0 7\n"), std::string::npos)
      << Text;
}

TEST(MetricsWalkerTest, MergesDisjointCounterSets) {
  json::ParseResult A = json::parse(
      "{\"server\":{\"requests\":3,\"errors\":1},\"only_a\":2}");
  json::ParseResult B = json::parse(
      "{\"server\":{\"requests\":5,\"cancels\":4},\"only_b\":true,"
      "\"label\":\"x\"}");
  ASSERT_TRUE(A.Ok && B.Ok);
  json::Value Merged = mergeStatsDocs({A.V, B.V});
  EXPECT_EQ(Merged.get("server")->get("requests")->asNumber(), 8);
  EXPECT_EQ(Merged.get("server")->get("errors")->asNumber(), 1);
  EXPECT_EQ(Merged.get("server")->get("cancels")->asNumber(), 4);
  EXPECT_EQ(Merged.get("only_a")->asNumber(), 2);
  EXPECT_EQ(Merged.get("only_b")->asNumber(), 1) << "bool counts as 0/1";
  EXPECT_EQ(Merged.get("label")->asString(), "x");
}

TEST(MetricsWalkerTest, RendersHistogramsCumulatively) {
  LatencyHistogram H;
  H.recordNs(500);     // bucket 0 (le 1us)
  H.recordNs(1500);    // bucket 1 (le 2us)
  H.recordNs(1800);    // bucket 1
  json::Value Doc = json::Value::object();
  json::Value Lat = json::Value::object();
  Lat.set("route", H.toJson());
  Doc.set("latency", std::move(Lat));
  std::string Text = prometheusText(Doc, "q");
  EXPECT_NE(Text.find("# TYPE q_latency_route histogram"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("q_latency_route_bucket{le=\"1e-06\"} 1\n"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("q_latency_route_bucket{le=\"2e-06\"} 3\n"),
            std::string::npos)
      << "buckets must accumulate: " << Text;
  EXPECT_NE(Text.find("q_latency_route_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("q_latency_route_count 3\n"), std::string::npos)
      << Text;
  EXPECT_NE(Text.find("q_latency_route_sum"), std::string::npos);
  // With labels, the le label is appended after them.
  std::string Labeled;
  appendPrometheusText(Labeled, Doc, "q", "shard=\"0\"");
  EXPECT_NE(Labeled.find("q_latency_route_bucket{shard=\"0\",le=\"1e-06\"}"),
            std::string::npos)
      << Labeled;
  EXPECT_NE(Labeled.find("q_latency_route_count{shard=\"0\"}"),
            std::string::npos)
      << Labeled;
}

TEST(MetricsWalkerTest, HistogramLeavesMergeInsideStatsDocs) {
  LatencyHistogram A, B;
  A.recordNs(500);
  B.recordNs(500);
  B.recordNs(5000);
  json::Value DocA = json::Value::object();
  DocA.set("latency", A.toJson());
  json::Value DocB = json::Value::object();
  DocB.set("latency", B.toJson());
  json::Value Merged = mergeStatsDocs({DocA, DocB});
  const json::Value *H = Merged.get("latency");
  ASSERT_NE(H, nullptr);
  ASSERT_TRUE(isHistogramJson(*H));
  EXPECT_EQ(H->get("count")->asNumber(), 3);
  EXPECT_EQ(H->get("bucket_counts")->items()[0].asNumber(), 2);
  // Bounds stay identification, not doubled by the merge.
  EXPECT_EQ(H->get("le_us")->items()[0].asNumber(), 1);
}

TEST(MetricsWalkerTest, LabelValuesEscapePerExpositionFormat) {
  EXPECT_EQ(prometheusLabelValue("plain"), "plain");
  EXPECT_EQ(prometheusLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(prometheusLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(prometheusLabelValue("a\nb"), "a\\nb");
  // NOT JSON escaping: tabs and other controls pass through verbatim.
  EXPECT_EQ(prometheusLabelValue("a\tb"), "a\tb");
}

//===----------------------------------------------------------------------===//
// Traced requests against a live server
//===----------------------------------------------------------------------===//

namespace {

struct TracedServerFixture {
  ServerOptions Opts;
  std::unique_ptr<Server> Daemon;
  std::thread Waiter;

  explicit TracedServerFixture(double SlowMs = 0) {
    Opts.Listen = testSocketPath();
    Opts.Workers = 2;
    Opts.DefaultTimeoutSeconds = 30;
    Opts.SlowRequestMs = SlowMs;
    Daemon = std::make_unique<Server>(Opts);
    Status Started = Daemon->start();
    EXPECT_TRUE(Started.ok()) << Started.message();
    Waiter = std::thread([this] { Daemon->wait(); });
  }

  ~TracedServerFixture() {
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

json::Value tracedRouteRequest(const std::string &Id,
                               const std::string &Mapper = "qlosure") {
  json::Value Req = json::Value::object();
  Req.set("op", "route");
  Req.set("qasm", sampleQasm());
  Req.set("mapper", Mapper);
  Req.set("backend", "aspen16");
  Req.set("id", Id);
  Req.set("trace", true);
  return Req;
}

/// The first span named \p Name in \p Spans, or null.
const json::Value *findSpan(const json::Value &Spans,
                           const std::string &Name) {
  for (const json::Value &S : Spans.items())
    if (S.get("name")->asString() == Name)
      return &S;
  return nullptr;
}

/// True when \p Inner lies within \p Outer, one level deeper. Offsets are
/// whole microseconds, truncated, so an end may read up to 2 us late.
bool nestedIn(const json::Value &Inner, const json::Value &Outer) {
  auto num = [](const json::Value &S, const char *Key) {
    return S.get(Key)->asNumber();
  };
  return num(Inner, "depth") == num(Outer, "depth") + 1 &&
         num(Inner, "start_us") >= num(Outer, "start_us") &&
         num(Inner, "start_us") + num(Inner, "dur_us") <=
             num(Outer, "start_us") + num(Outer, "dur_us") + 2;
}

} // namespace

TEST(TracedServiceTest, TracedRouteReturnsAttributedSpans) {
  TracedServerFixture Fixture;
  Client Conn = Fixture.connect();

  const auto Before = std::chrono::steady_clock::now();
  std::string Response;
  ASSERT_TRUE(Conn.request(tracedRouteRequest("r1").dump(), Response).ok());
  const double WallUs = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - Before)
                            .count();
  json::Value Doc = parseLine(Response);
  ASSERT_TRUE(responseOk(Doc)) << Response;

  const json::Value *TraceObj = Doc.get("trace");
  ASSERT_NE(TraceObj, nullptr) << Response;
  EXPECT_FALSE(TraceObj->get("trace_id")->asString().empty());
  const json::Value *Spans = TraceObj->get("spans");
  ASSERT_NE(Spans, nullptr);

  std::set<std::string> Names;
  double DepthZeroSumUs = 0;
  for (const json::Value &S : Spans->items()) {
    Names.insert(S.get("name")->asString());
    EXPECT_GE(S.get("start_us")->asNumber(), 0) << S.dump();
    EXPECT_GE(S.get("dur_us")->asNumber(), 0) << S.dump();
    if (S.get("depth")->asNumber() == 0)
      DepthZeroSumUs += S.get("dur_us")->asNumber();
  }
  // The mandated phase attribution: queue wait, context build, and the
  // routing loop are individually visible.
  EXPECT_TRUE(Names.count("queue_wait")) << Response;
  EXPECT_TRUE(Names.count("context_build")) << Response;
  EXPECT_TRUE(Names.count("initial_mapping")) << Response;
  EXPECT_TRUE(Names.count("routing_loop")) << Response;
  EXPECT_TRUE(Names.count("verify")) << Response;
  EXPECT_TRUE(Names.count("import_qasm")) << Response;
  // Depth-0 spans are sequential phases of one request: their total
  // cannot exceed the client-observed wall clock.
  EXPECT_LE(DepthZeroSumUs, WallUs) << Response;
  EXPECT_GT(DepthZeroSumUs, 0) << Response;
  // Omega is computed by the first route that reads it, so this cold
  // qlosure route times it inside its routing loop.
  const json::Value *Loop = findSpan(*Spans, "routing_loop");
  const json::Value *Omega = findSpan(*Spans, "ctx_weights");
  ASSERT_NE(Loop, nullptr) << Response;
  ASSERT_NE(Omega, nullptr) << Response;
  EXPECT_TRUE(nestedIn(*Omega, *Loop)) << Response;

  // A client-supplied trace_id is echoed.
  json::Value Custom = tracedRouteRequest("r2");
  Custom.set("trace_id", "my-trace-42");
  ASSERT_TRUE(Conn.request(Custom.dump(), Response).ok());
  json::Value Doc2 = parseLine(Response);
  ASSERT_TRUE(responseOk(Doc2)) << Response;
  EXPECT_EQ(Doc2.get("trace")->get("trace_id")->asString(), "my-trace-42");

  // The repeat is a result-cache hit: still traced, with the marker span.
  ASSERT_TRUE(Conn.request(tracedRouteRequest("r3").dump(), Response).ok());
  json::Value Doc3 = parseLine(Response);
  ASSERT_TRUE(responseOk(Doc3)) << Response;
  ASSERT_TRUE(Doc3.get("cache_hit")->asBool()) << Response;
  EXPECT_NE(findSpan(*Doc3.get("trace")->get("spans"), "result_cache_hit"),
            nullptr)
      << Response;

  // A cold sabre route never reads omega, so nothing computes it.
  json::Value Sabre = tracedRouteRequest("r4", "sabre");
  Sabre.set("qasm", sampleQasm() + "cx q[3],q[4];\n");
  ASSERT_TRUE(Conn.request(Sabre.dump(), Response).ok());
  json::Value Doc4 = parseLine(Response);
  ASSERT_TRUE(responseOk(Doc4)) << Response;
  ASSERT_FALSE(Doc4.get("cache_hit")->asBool()) << Response;
  ASSERT_NE(Doc4.get("trace"), nullptr) << Response;
  const json::Value *SabreSpans = Doc4.get("trace")->get("spans");
  ASSERT_NE(SabreSpans, nullptr) << Response;
  EXPECT_NE(findSpan(*SabreSpans, "context_build"), nullptr) << Response;
  EXPECT_EQ(findSpan(*SabreSpans, "ctx_weights"), nullptr) << Response;
}

TEST(TracedServiceTest, UntracedRouteCarriesNoTraceSection) {
  TracedServerFixture Fixture;
  Client Conn = Fixture.connect();
  json::Value Req = json::Value::object();
  Req.set("op", "route");
  Req.set("qasm", sampleQasm());
  Req.set("backend", "aspen16");
  std::string Response;
  ASSERT_TRUE(Conn.request(Req.dump(), Response).ok());
  json::Value Doc = parseLine(Response);
  ASSERT_TRUE(responseOk(Doc)) << Response;
  EXPECT_EQ(Doc.get("trace"), nullptr);
}

TEST(TracedServiceTest, StatsExposeLatencyHistograms) {
  TracedServerFixture Fixture;
  Client Conn = Fixture.connect();
  json::Value Req = json::Value::object();
  Req.set("op", "route");
  Req.set("qasm", sampleQasm());
  Req.set("backend", "aspen16");
  std::string Response;
  ASSERT_TRUE(Conn.request(Req.dump(), Response).ok());
  ASSERT_TRUE(responseOk(parseLine(Response))) << Response;

  ASSERT_TRUE(Conn.request("{\"op\":\"stats\"}", Response).ok());
  json::Value Stats = parseLine(Response);
  ASSERT_TRUE(responseOk(Stats)) << Response;
  const json::Value *Lat = Stats.get("latency");
  ASSERT_NE(Lat, nullptr) << Response;
  for (const char *Phase : {"route", "queue_wait", "context_build",
                            "initial_mapping", "routing_loop", "verify"}) {
    const json::Value *H = Lat->get(Phase);
    ASSERT_NE(H, nullptr) << Phase;
    ASSERT_TRUE(isHistogramJson(*H)) << Phase;
    EXPECT_GE(H->get("count")->asNumber(), 1) << Phase;
  }
  // Histograms record with tracing off too (always-on observability).
  const json::Value *RouteH = Lat->get("route");
  EXPECT_GT(RouteH->get("sum_seconds")->asNumber(), 0);

  // And they render as histogram series in the metrics op.
  ASSERT_TRUE(Conn.request("{\"op\":\"metrics\"}", Response).ok());
  json::Value MetricsDoc = parseLine(Response);
  ASSERT_TRUE(responseOk(MetricsDoc)) << Response;
  const std::string &Text = MetricsDoc.get("body")->asString();
  EXPECT_NE(Text.find("qlosure_latency_route_bucket{le="),
            std::string::npos)
      << Text.substr(0, 2000);
  EXPECT_NE(Text.find("qlosure_latency_route_count"), std::string::npos);
}

TEST(TracedServiceTest, BatchItemsCarryPerItemTraces) {
  TracedServerFixture Fixture;
  Client Conn = Fixture.connect();
  json::Value Req = json::Value::object();
  Req.set("op", "batch");
  Req.set("id", "b1");
  Req.set("backend", "aspen16");
  Req.set("trace", true);
  json::Value Items = json::Value::array();
  for (int I = 0; I < 2; ++I) {
    json::Value Item = json::Value::object();
    Item.set("name", formatString("c%d", I));
    // Distinct circuits per item: identical items would coalesce into
    // one flight, and a coalesced follower frame carries no trace.
    Item.set("qasm", sampleQasm() + formatString("h q[%d];\n", I));
    Items.push(std::move(Item));
  }
  Req.set("items", std::move(Items));

  ASSERT_TRUE(Conn.sendLine(Req.dump()).ok());
  std::vector<std::string> ItemFrames;
  std::string Summary;
  ASSERT_TRUE(Conn.recvResponseFor(
                      "b1", Summary,
                      [&](const std::string &L) { ItemFrames.push_back(L); },
                      "batch")
                  .ok());
  ASSERT_TRUE(responseOk(parseLine(Summary))) << Summary;
  ASSERT_EQ(ItemFrames.size(), 2u);
  std::set<std::string> TraceIds;
  for (const std::string &Frame : ItemFrames) {
    json::Value Item = parseLine(Frame);
    const json::Value *TraceObj = Item.get("trace");
    ASSERT_NE(TraceObj, nullptr) << Frame;
    TraceIds.insert(TraceObj->get("trace_id")->asString());
    bool SawQueueWait = false;
    for (const json::Value &S : TraceObj->get("spans")->items())
      SawQueueWait |= S.get("name")->asString() == "queue_wait";
    EXPECT_TRUE(SawQueueWait) << Frame;
  }
  EXPECT_EQ(TraceIds.size(), 2u) << "per-item trace ids must be distinct";
  EXPECT_TRUE(TraceIds.count("b1-0")) << Summary;
  EXPECT_TRUE(TraceIds.count("b1-1")) << Summary;
}

TEST(TracedServiceTest, SlowRequestThresholdLogsStructuredLine) {
  std::string Path = formatString("/tmp/qlo-slow-%d.jsonl",
                                  static_cast<int>(getpid()));
  std::remove(Path.c_str());
  ASSERT_TRUE(log::configure(log::Level::Warn, Path));

  {
    // Threshold 0.0001ms: every request counts as slow.
    TracedServerFixture Fixture(/*SlowMs=*/0.0001);
    Client Conn = Fixture.connect();
    std::string Response;
    ASSERT_TRUE(
        Conn.request(tracedRouteRequest("slow1").dump(), Response).ok());
    ASSERT_TRUE(responseOk(parseLine(Response))) << Response;
  }
  log::flush();

  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  bool SawSlowLine = false;
  for (std::string Line; std::getline(In, Line);) {
    json::Value Doc = parseLine(Line);
    if (Doc.get("msg") && Doc.get("msg")->asString() == "slow_request") {
      SawSlowLine = true;
      EXPECT_EQ(Doc.get("level")->asString(), "warn");
      EXPECT_EQ(Doc.get("op")->asString(), "route");
      EXPECT_GT(Doc.get("total_ms")->asNumber(), 0);
      ASSERT_NE(Doc.get("trace"), nullptr) << Line;
      EXPECT_GT(Doc.get("trace")->get("spans")->items().size(), 0u);
    }
  }
  EXPECT_TRUE(SawSlowLine);

  log::configure(log::Level::Off, "");
  std::remove(Path.c_str());
}
