// RpcServer: dispatches decoded requests to registered method handlers.
//
// Handlers receive the raw request payload and return the raw response payload; the
// typed layer in src/rpc/client.h (RegisterMethod / CallMethod) adds the strongly typed
// marshalling on both sides, playing the role of the paper's automatically generated
// stub modules.
#ifndef SMALLDB_SRC_RPC_SERVER_H_
#define SMALLDB_SRC_RPC_SERVER_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/clock.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "src/rpc/message.h"

namespace sdb::rpc {

using RawHandler = std::function<Result<Bytes>(ByteSpan payload)>;

// Where batchable update methods go to commit. Implemented over the engine
// (net::DatabaseUpdateSink wraps Database::UpdateMany); the interface lives here so
// the rpc layer stays independent of src/core. CommitMany blocks until every prepare
// is durable and applied or failed, returning per-prepare outcomes in input order —
// the transport may put plans from many connections into ONE call, which is how one
// fsync comes to cover requests from many sockets.
class UpdateSink {
 public:
  virtual ~UpdateSink() = default;
  virtual std::vector<Status> CommitMany(
      std::span<const std::function<Result<Bytes>()>> prepares) = 0;
};

// A decoded update request turned into engine terms: the prepare closure that will
// run under the update lock inside the commit pipeline, and the response payload to
// send if the commit succeeds (updates answer with small acks, so the success
// payload is known at plan time).
struct PlannedUpdate {
  std::function<Result<Bytes>()> prepare;
  Bytes response_payload;
};

// Converts a raw request payload into a PlannedUpdate. Runs on a transport thread
// with no engine lock held: it must only decode and capture, deferring every
// precondition check into the prepare closure.
using UpdatePlanner = std::function<Result<PlannedUpdate>(ByteSpan payload)>;

// A batchable update method's registration, as seen by transports.
struct UpdateEntry {
  UpdatePlanner planner;
  std::shared_ptr<UpdateSink> sink;
};

// What a transport may assume about a method's handler, and so where it may run it.
enum class MethodKind {
  // May block (disk, a long scan, a remote call): run on a worker that can wait.
  kOther,
  // Answers in bounded time, waits for no I/O, and takes at most the engine's shared
  // lock (the paper's enquiry): may run on the thread that read the request.
  kEnquiry,
  // A batchable update (RegisterUpdate): planned, then committed in batches.
  kUpdate,
};

// Per-method serving statistics (calls, application errors, handler time).
struct MethodMetrics {
  std::string service;
  std::string method;
  std::uint64_t calls = 0;
  std::uint64_t errors = 0;
  Micros handler_micros = 0;  // simulated handler time when a clock is attached
};

// One registration as it stands (defined in server.cc). Re-registering a method
// publishes a new entry; requests already routed keep the one they found.
struct MethodEntry;

// The result of one routing lookup (RpcServer::Find). It holds the registration it
// found, so a transport may route a request on one thread and serve it on another.
class Route {
 public:
  bool found() const { return entry_ != nullptr; }
  // kOther when not found.
  MethodKind kind() const;
  // The planner and sink of a kUpdate route.
  const UpdateEntry& update() const;

 private:
  friend class RpcServer;
  std::shared_ptr<const MethodEntry> entry_;
};

class RpcServer {
 public:
  // With a clock, per-method handler time is recorded (simulated time in benches).
  explicit RpcServer(Clock* clock = nullptr) : clock_(clock) {}

  // Registers the handler for service.method; replaces any previous handler. The
  // method keeps the kind it had (kOther for a new one), so a method marked as an
  // enquiry stays one when its handler is replaced through RegisterMethod.
  void Register(std::string service, std::string method, RawHandler handler);

  // Registers a *batchable* update method: `planner` turns the request payload into
  // a prepare + success response, `sink` is where plans commit. Also installs a
  // normal handler (plan, commit a batch of one, answer), so Dispatch-based
  // transports serve the method identically; batching transports instead route the
  // request (Find) and coalesce many plans into one CommitMany.
  void RegisterUpdate(std::string service, std::string method, UpdatePlanner planner,
                      std::shared_ptr<UpdateSink> sink);

  // Marks the registered service.method as an enquiry (MethodKind::kEnquiry). Only
  // for handlers that answer in bounded time, wait for no I/O and take at most the
  // engine's shared lock: a transport may run them on its I/O thread. NotFound for
  // an unregistered method, FailedPrecondition for a batchable update.
  Status MarkEnquiry(std::string_view service, std::string_view method);

  // The one routing lookup a request needs.
  Route Find(std::string_view service, std::string_view method) const;

  // Serves a decoded request: routes it, invokes the handler, encodes the response.
  // Never fails at the transport level: all errors travel inside the encoded
  // response, an unknown method's as NotFound.
  Bytes Dispatch(const Request& request) const;
  // The same for a request that Find has already routed.
  Bytes Dispatch(const Route& route, const Request& request) const;
  // Decodes `request` and serves it as Dispatch(const Request&) does.
  Bytes Dispatch(ByteSpan request) const;

  std::uint64_t dispatched() const { return dispatched_.load(std::memory_order_relaxed); }

  // Snapshot of per-method metrics for the methods called so far, sorted by
  // (service, method).
  std::vector<MethodMetrics> metrics() const;

 private:
  friend struct MethodEntry;

  // One method's current registration and its counters. Slots are never erased, so
  // entries can point at their counters.
  struct Slot {
    std::shared_ptr<const MethodEntry> entry;
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> errors{0};
    std::atomic<Micros> handler_micros{0};
  };
  using Name = std::pair<std::string_view, std::string_view>;
  struct NameLess {
    using is_transparent = void;
    bool operator()(Name a, Name b) const { return a < b; }
  };

  // Publishes a new entry for service.method, built by `fill` from the one it
  // replaces (null for a new method).
  template <typename Fill>
  void Publish(std::string service, std::string method, Fill fill);

  Clock* clock_;
  mutable std::atomic<std::uint64_t> dispatched_{0};
  mutable std::mutex mutex_;
  std::map<std::pair<std::string, std::string>, Slot, NameLess> methods_;
};

}  // namespace sdb::rpc

#endif  // SMALLDB_SRC_RPC_SERVER_H_
