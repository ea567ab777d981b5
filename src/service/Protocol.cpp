//===- service/Protocol.cpp - qlosured wire protocol ---------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"

#include "support/StringUtils.h"

#include <cmath>

using namespace qlosure;
using namespace qlosure::service;

namespace {

RequestParse protocolError(std::string Code, std::string Message) {
  RequestParse Result;
  Result.ErrorCode = std::move(Code);
  Result.ErrorMessage = std::move(Message);
  return Result;
}

/// Reads an optional member with type checking; a present member of the
/// wrong type is a bad_request, not a silent default.
template <typename FnT>
bool readMember(const json::Value &Obj, const char *Key, bool Required,
                json::Value::Kind Kind, RequestParse &Err, FnT Apply) {
  const json::Value *Member = Obj.get(Key);
  if (!Member) {
    if (Required) {
      Err = protocolError(errc::BadRequest,
                          formatString("missing required field \"%s\"", Key));
      return false;
    }
    return true;
  }
  if (Member->kind() != Kind) {
    Err = protocolError(errc::BadRequest,
                        formatString("field \"%s\" has the wrong type", Key));
    return false;
  }
  Apply(*Member);
  return true;
}

} // namespace

RequestParse service::parseRequest(const std::string &Line) {
  json::ParseResult Parsed = json::parse(Line);
  if (!Parsed.Ok)
    return protocolError(errc::BadJson, Parsed.Error);
  const json::Value &Obj = Parsed.V;
  if (!Obj.isObject())
    return protocolError(errc::BadRequest, "request must be a JSON object");

  RequestParse Result;
  Request &Req = Result.Req;

  // Correlation material first: capture the raw op string and the id
  // before any validation, so every later rejection still carries the
  // (op, id) pair a pipelined client demultiplexes by.
  const json::Value *OpField = Obj.get("op");
  if (OpField && OpField->isString())
    Result.OpName = OpField->asString();
  auto fail = [&Result](std::string Code,
                        std::string Message) -> RequestParse & {
    Result.Ok = false;
    Result.ErrorCode = std::move(Code);
    Result.ErrorMessage = std::move(Message);
    return Result;
  };

  RequestParse Err;
  if (!readMember(Obj, "id", false, json::Value::Kind::String, Err,
                  [&](const json::Value &V) { Req.Id = V.asString(); }))
    return fail(Err.ErrorCode, Err.ErrorMessage);

  if (!OpField || !OpField->isString())
    return fail(errc::BadRequest, "missing or non-string \"op\" field");
  const std::string &OpName = Result.OpName;
  if (OpName == "ping")
    Req.TheOp = Op::Ping;
  else if (OpName == "stats")
    Req.TheOp = Op::Stats;
  else if (OpName == "shutdown")
    Req.TheOp = Op::Shutdown;
  else if (OpName == "route")
    Req.TheOp = Op::Route;
  else if (OpName == "cancel")
    Req.TheOp = Op::Cancel;
  else if (OpName == "batch")
    Req.TheOp = Op::Batch;
  else if (OpName == "metrics")
    Req.TheOp = Op::Metrics;
  else
    return fail(errc::BadRequest,
                formatString("unknown op \"%s\"", OpName.c_str()));

  if (Req.TheOp == Op::Cancel && Req.Id.empty())
    return fail(errc::BadRequest,
                "\"cancel\" requires a non-empty \"id\" naming the "
                "request to cancel");
  if (Req.TheOp == Op::Batch && Req.Id.empty())
    return fail(errc::BadRequest,
                "\"batch\" requires a non-empty \"id\": its per-item "
                "frames demultiplex by it");

  if (Req.TheOp != Op::Route && Req.TheOp != Op::Batch) {
    Result.Ok = true;
    return Result;
  }

  RouteRequest &Route = Req.Route;
  // `qasm` belongs to `route` alone; a batch carries one per item.
  if (!readMember(Obj, "qasm", /*Required=*/Req.TheOp == Op::Route,
                  json::Value::Kind::String, Err,
                  [&](const json::Value &V) { Route.Qasm = V.asString(); }))
    return fail(Err.ErrorCode, Err.ErrorMessage);
  if (!readMember(Obj, "mapper", false, json::Value::Kind::String, Err,
                  [&](const json::Value &V) { Route.Mapper = V.asString(); }))
    return fail(Err.ErrorCode, Err.ErrorMessage);
  if (!readMember(Obj, "backend", false, json::Value::Kind::String, Err,
                  [&](const json::Value &V) { Route.Backend = V.asString(); }))
    return fail(Err.ErrorCode, Err.ErrorMessage);
  if (!readMember(Obj, "bidirectional", false, json::Value::Kind::Bool, Err,
                  [&](const json::Value &V) {
                    Route.Bidirectional = V.asBool();
                  }))
    return fail(Err.ErrorCode, Err.ErrorMessage);
  if (!readMember(Obj, "error_aware", false, json::Value::Kind::Bool, Err,
                  [&](const json::Value &V) { Route.ErrorAware = V.asBool(); }))
    return fail(Err.ErrorCode, Err.ErrorMessage);
  if (!readMember(Obj, "affine", false, json::Value::Kind::Bool, Err,
                  [&](const json::Value &V) { Route.Affine = V.asBool(); }))
    return fail(Err.ErrorCode, Err.ErrorMessage);
  if (!readMember(Obj, "include_qasm", false, json::Value::Kind::Bool, Err,
                  [&](const json::Value &V) {
                    Route.IncludeQasm = V.asBool();
                  }))
    return fail(Err.ErrorCode, Err.ErrorMessage);
  if (!readMember(Obj, "progress", false, json::Value::Kind::Bool, Err,
                  [&](const json::Value &V) { Route.Progress = V.asBool(); }))
    return fail(Err.ErrorCode, Err.ErrorMessage);
  if (!readMember(Obj, "trace", false, json::Value::Kind::Bool, Err,
                  [&](const json::Value &V) { Route.Trace = V.asBool(); }))
    return fail(Err.ErrorCode, Err.ErrorMessage);
  if (!readMember(Obj, "trace_id", false, json::Value::Kind::String, Err,
                  [&](const json::Value &V) { Route.TraceId = V.asString(); }))
    return fail(Err.ErrorCode, Err.ErrorMessage);
  bool NumbersOk = true;
  if (!readMember(Obj, "calibration", false, json::Value::Kind::Number, Err,
                  [&](const json::Value &V) {
                    double N = V.asNumber();
                    // Upper bound keeps the double->uint64_t cast defined
                    // (2^53: every smaller integer is exactly
                    // representable and safely convertible).
                    if (!(N >= 0) || std::floor(N) != N ||
                        N > 9007199254740992.0)
                      NumbersOk = false;
                    else
                      Route.CalibrationSeed = static_cast<uint64_t>(N);
                  }))
    return fail(Err.ErrorCode, Err.ErrorMessage);
  if (!NumbersOk)
    return fail(errc::BadRequest,
                "\"calibration\" must be a non-negative integer <= 2^53");
  if (!readMember(Obj, "timeout_ms", false, json::Value::Kind::Number, Err,
                  [&](const json::Value &V) {
                    Route.TimeoutMs = V.asNumber();
                  }))
    return fail(Err.ErrorCode, Err.ErrorMessage);

  if (Req.TheOp == Op::Batch) {
    const json::Value *Items = Obj.get("items");
    if (!Items || !Items->isArray())
      return fail(errc::BadRequest,
                  "\"batch\" requires an \"items\" array");
    if (Items->items().empty())
      return fail(errc::BadRequest, "\"items\" must not be empty");
    // The line-length limit already bounds total bytes; this bounds the
    // per-item bookkeeping a single request can demand.
    constexpr size_t MaxBatchItems = 4096;
    if (Items->items().size() > MaxBatchItems)
      return fail(errc::BadRequest,
                  formatString("\"items\" has %zu entries (limit %zu)",
                               Items->items().size(), MaxBatchItems));
    Req.Items.reserve(Items->items().size());
    for (size_t I = 0; I < Items->items().size(); ++I) {
      const json::Value &Entry = Items->items()[I];
      if (!Entry.isObject())
        return fail(errc::BadRequest,
                    formatString("items[%zu] must be an object", I));
      const json::Value *ItemQasm = Entry.get("qasm");
      if (!ItemQasm || !ItemQasm->isString())
        return fail(
            errc::BadRequest,
            formatString("items[%zu] is missing a string \"qasm\"", I));
      const json::Value *ItemName = Entry.get("name");
      if (ItemName && !ItemName->isString())
        return fail(errc::BadRequest,
                    formatString("items[%zu].name must be a string", I));
      BatchItem Item;
      Item.Qasm = ItemQasm->asString();
      if (ItemName)
        Item.Name = ItemName->asString();
      Req.Items.push_back(std::move(Item));
    }
  }

  Result.Ok = true;
  return Result;
}

json::Value service::routeStatsToJson(const RouteStats &Stats) {
  json::Value Obj = json::Value::object();
  Obj.set("logical_gates", Stats.LogicalGates);
  Obj.set("routed_gates", Stats.RoutedGates);
  Obj.set("swaps", Stats.Swaps);
  Obj.set("depth_before", Stats.DepthBefore);
  Obj.set("depth_after", Stats.DepthAfter);
  Obj.set("mapping_seconds", Stats.MappingSeconds);
  Obj.set("timed_out", Stats.TimedOut);
  Obj.set("verified", Stats.Verified);
  if (Stats.SuccessProbability >= 0)
    Obj.set("success_probability", Stats.SuccessProbability);
  return Obj;
}

namespace {

json::Value responseHead(const char *Op, const std::string &Id, bool Ok) {
  json::Value Obj = json::Value::object();
  Obj.set("ok", Ok);
  Obj.set("op", Op);
  if (!Id.empty())
    Obj.set("id", Id);
  return Obj;
}

json::Value batchItemHead(const std::string &Id, size_t Index,
                          const std::string &Name) {
  json::Value Obj = json::Value::object();
  Obj.set("event", "batch_item");
  Obj.set("op", "batch");
  Obj.set("id", Id);
  Obj.set("index", Index);
  if (!Name.empty())
    Obj.set("name", Name);
  return Obj;
}

/// The body a `route` response and a `batch_item` result share.
std::string routedBody(json::Value Obj, const std::string &Mapper,
                       const std::string &Backend, const RouteStats &Stats,
                       bool ContextCacheHit, bool ResultCacheHit,
                       const std::string &Qasm, bool IncludeQasm,
                       const json::Value *TraceJson, bool Coalesced) {
  Obj.set("mapper", Mapper);
  Obj.set("backend", Backend);
  Obj.set("stats", routeStatsToJson(Stats));
  Obj.set("cache_hit", ContextCacheHit || ResultCacheHit);
  Obj.set("context_cache_hit", ContextCacheHit);
  Obj.set("result_cache_hit", ResultCacheHit);
  if (Coalesced)
    Obj.set("coalesced", true);
  if (TraceJson)
    Obj.set("trace", *TraceJson);
  if (IncludeQasm)
    Obj.set("qasm", Qasm);
  return Obj.dump();
}

/// The body an error response and a `batch_item` error share.
std::string errorBody(json::Value Obj, const std::string &Code,
                      const std::string &Message) {
  json::Value Err = json::Value::object();
  Err.set("code", Code);
  Err.set("message", Message);
  Obj.set("error", std::move(Err));
  return Obj.dump();
}

} // namespace

std::string service::formatPingResponse(const std::string &Id) {
  json::Value Obj = responseHead("ping", Id, true);
  Obj.set("protocol", ProtocolVersion);
  return Obj.dump();
}

std::string service::formatErrorResponse(const char *Op,
                                         const std::string &Id,
                                         const std::string &Code,
                                         const std::string &Message) {
  return errorBody(responseHead(Op, Id, false), Code, Message);
}

std::string service::formatRouteResponse(
    const std::string &Id, const std::string &Mapper,
    const std::string &Backend, const RouteStats &Stats, bool ContextCacheHit,
    bool ResultCacheHit, const std::string &Qasm, bool IncludeQasm,
    const json::Value *TraceJson, bool Coalesced) {
  return routedBody(responseHead("route", Id, true), Mapper, Backend, Stats,
                    ContextCacheHit, ResultCacheHit, Qasm, IncludeQasm,
                    TraceJson, Coalesced);
}

std::string service::formatStatsResponse(const std::string &Id,
                                         const json::Value &Body) {
  json::Value Obj = responseHead("stats", Id, true);
  for (const auto &Member : Body.members())
    Obj.set(Member.first, Member.second);
  return Obj.dump();
}

std::string service::formatShutdownResponse(const std::string &Id) {
  json::Value Obj = responseHead("shutdown", Id, true);
  Obj.set("stopping", true);
  return Obj.dump();
}

std::string service::formatMetricsResponse(const std::string &Id,
                                           const std::string &Text) {
  json::Value Obj = responseHead("metrics", Id, true);
  Obj.set("content_type", "text/plain; version=0.0.4");
  Obj.set("body", Text);
  return Obj.dump();
}

std::string service::formatCancelResponse(const std::string &Id,
                                          bool Delivered) {
  json::Value Obj = responseHead("cancel", Id, true);
  Obj.set("cancelled", Delivered);
  return Obj.dump();
}

std::string service::formatProgressEvent(const std::string &Id, size_t Done,
                                         size_t Total) {
  json::Value Obj = json::Value::object();
  Obj.set("event", "progress");
  Obj.set("op", "route");
  if (!Id.empty())
    Obj.set("id", Id);
  Obj.set("done", Done);
  Obj.set("total", Total);
  return Obj.dump();
}

std::string service::formatBatchItemResult(
    const std::string &Id, size_t Index, const std::string &Name,
    const std::string &Mapper, const std::string &Backend,
    const RouteStats &Stats, bool ContextCacheHit, bool ResultCacheHit,
    const std::string &Qasm, bool IncludeQasm,
    const json::Value *TraceJson, bool Coalesced) {
  return routedBody(batchItemHead(Id, Index, Name), Mapper, Backend, Stats,
                    ContextCacheHit, ResultCacheHit, Qasm, IncludeQasm,
                    TraceJson, Coalesced);
}

std::string service::formatBatchItemError(const std::string &Id, size_t Index,
                                          const std::string &Name,
                                          const std::string &Code,
                                          const std::string &Message) {
  return errorBody(batchItemHead(Id, Index, Name), Code, Message);
}

std::string service::formatBatchSummaryResponse(
    const std::string &Id, const std::string &Mapper,
    const std::string &Backend, const std::vector<std::string> &ItemNames,
    const std::vector<std::string> &ItemStatus) {
  json::Value Obj = responseHead("batch", Id, true);
  Obj.set("mapper", Mapper);
  Obj.set("backend", Backend);
  size_t Succeeded = 0, Cancelled = 0;
  json::Value Items = json::Value::array();
  for (size_t I = 0; I < ItemStatus.size(); ++I) {
    if (ItemStatus[I] == "ok")
      ++Succeeded;
    else if (ItemStatus[I] == errc::Cancelled)
      ++Cancelled;
    json::Value Entry = json::Value::object();
    Entry.set("index", I);
    if (I < ItemNames.size() && !ItemNames[I].empty())
      Entry.set("name", ItemNames[I]);
    Entry.set("status", ItemStatus[I]);
    Items.push(std::move(Entry));
  }
  Obj.set("total", ItemStatus.size());
  Obj.set("succeeded", Succeeded);
  Obj.set("failed", ItemStatus.size() - Succeeded - Cancelled);
  Obj.set("cancelled", Cancelled);
  Obj.set("items", std::move(Items));
  return Obj.dump();
}
