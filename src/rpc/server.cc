#include "src/rpc/server.h"

#include "src/obs/metrics.h"

namespace sdb::rpc {

namespace {

// Process-wide mirror of the per-server dispatch counters, so MetricsReport-style
// dumps see RPC traffic without access to individual RpcServer instances.
struct ServerMetrics {
  obs::Counter* dispatches;
  obs::Counter* handler_errors;
  obs::Histogram* handler_us;
};

ServerMetrics& Metrics() {
  static ServerMetrics m = [] {
    obs::Registry& registry = obs::GlobalRegistry();
    return ServerMetrics{&registry.GetCounter("rpc.server.dispatches"),
                         &registry.GetCounter("rpc.server.handler_errors"),
                         &registry.GetHistogram("rpc.server.handler_us")};
  }();
  return m;
}

}  // namespace

struct MethodEntry {
  MethodKind kind = MethodKind::kOther;
  RawHandler handler;
  UpdateEntry update;             // kUpdate only
  RpcServer::Slot* slot = nullptr;  // the counters, which outlive every entry
};

MethodKind Route::kind() const {
  return entry_ != nullptr ? entry_->kind : MethodKind::kOther;
}

const UpdateEntry& Route::update() const { return entry_->update; }

template <typename Fill>
void RpcServer::Publish(std::string service, std::string method, Fill fill) {
  std::lock_guard<std::mutex> lock(mutex_);
  Slot& slot = methods_.try_emplace({std::move(service), std::move(method)}).first->second;
  auto entry = std::make_shared<MethodEntry>();
  fill(*entry, slot.entry.get());
  entry->slot = &slot;
  slot.entry = std::move(entry);
}

void RpcServer::Register(std::string service, std::string method, RawHandler handler) {
  Publish(std::move(service), std::move(method),
          [&handler](MethodEntry& entry, const MethodEntry* previous) {
            if (previous != nullptr) {
              entry.kind = previous->kind;
              entry.update = previous->update;
            }
            entry.handler = std::move(handler);
          });
}

void RpcServer::RegisterUpdate(std::string service, std::string method,
                               UpdatePlanner planner, std::shared_ptr<UpdateSink> sink) {
  // The Dispatch path serves the method as a batch of one: same plan, same commit
  // pipeline, so loopback and socket transports agree on semantics exactly.
  RawHandler handler = [planner, sink](ByteSpan payload) -> Result<Bytes> {
    SDB_ASSIGN_OR_RETURN(PlannedUpdate plan, planner(payload));
    std::vector<Status> outcomes = sink->CommitMany({&plan.prepare, 1});
    SDB_RETURN_IF_ERROR(outcomes.front());
    return std::move(plan.response_payload);
  };
  Publish(std::move(service), std::move(method),
          [&](MethodEntry& entry, const MethodEntry*) {
            entry.kind = MethodKind::kUpdate;
            entry.handler = std::move(handler);
            entry.update = UpdateEntry{std::move(planner), std::move(sink)};
          });
}

Status RpcServer::MarkEnquiry(std::string_view service, std::string_view method) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = methods_.find(Name{service, method});
  if (it == methods_.end()) {
    return NotFoundError("no handler for " + std::string(service) + "." +
                         std::string(method));
  }
  Slot& slot = it->second;
  if (slot.entry->kind == MethodKind::kUpdate) {
    return FailedPreconditionError(std::string(service) + "." + std::string(method) +
                                   " is a batchable update");
  }
  auto entry = std::make_shared<MethodEntry>(*slot.entry);
  entry->kind = MethodKind::kEnquiry;
  slot.entry = std::move(entry);
  return OkStatus();
}

Route RpcServer::Find(std::string_view service, std::string_view method) const {
  Route route;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = methods_.find(Name{service, method});
  if (it != methods_.end()) {
    route.entry_ = it->second.entry;
  }
  return route;
}

Bytes RpcServer::Dispatch(ByteSpan request_bytes) const {
  Result<Request> request = DecodeRequest(request_bytes);
  if (!request.ok()) {
    Response response;
    response.status = request.status();
    return EncodeResponse(response);
  }
  return Dispatch(*request);
}

Bytes RpcServer::Dispatch(const Request& request) const {
  return Dispatch(Find(request.service, request.method), request);
}

Bytes RpcServer::Dispatch(const Route& route, const Request& request) const {
  dispatched_.fetch_add(1, std::memory_order_relaxed);
  Response response;
  response.call_id = request.call_id;
  if (!route.found()) {
    response.status =
        NotFoundError("no handler for " + request.service + "." + request.method);
    return EncodeResponse(response);
  }
  const MethodEntry& entry = *route.entry_;

  Micros start = clock_ != nullptr ? clock_->NowMicros() : 0;
  Result<Bytes> payload = entry.handler(AsSpan(request.payload));
  Micros elapsed = clock_ != nullptr ? clock_->NowMicros() - start : 0;
  Metrics().dispatches->Increment();
  Slot& slot = *entry.slot;
  slot.calls.fetch_add(1, std::memory_order_relaxed);
  if (!payload.ok()) {
    Metrics().handler_errors->Increment();
    slot.errors.fetch_add(1, std::memory_order_relaxed);
    response.status = payload.status();
  } else {
    response.payload = std::move(*payload);
  }
  slot.handler_micros.fetch_add(elapsed, std::memory_order_relaxed);
  if (obs::Enabled() && clock_ != nullptr) {
    Metrics().handler_us->Record(elapsed);
  }
  return EncodeResponse(response);
}

std::vector<MethodMetrics> RpcServer::metrics() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MethodMetrics> out;
  for (const auto& [name, slot] : methods_) {
    std::uint64_t calls = slot.calls.load(std::memory_order_relaxed);
    if (calls == 0) {
      continue;
    }
    out.push_back(MethodMetrics{name.first, name.second, calls,
                                slot.errors.load(std::memory_order_relaxed),
                                slot.handler_micros.load(std::memory_order_relaxed)});
  }
  return out;
}

}  // namespace sdb::rpc
