// In-memory spans for the benchmark's traced run.
//
// Spans are recorded only by the benchmark's own wrappers around the calls into
// each layer (src/ is not instrumented for this). Each span has a name, a start,
// an end and a parent. Spans opened with ScopedSpan take their parent from the
// calling thread's current span: this is what nests Vfs syncs under the
// CommitMany call whose thread led the group commit, and prepares under the
// CommitMany that ran them. Client operation spans overlap on the one client
// thread, so they are recorded explicitly, keyed by connection and request id.
#ifndef SMALLDB_NSBENCH_SPANS_H_
#define SMALLDB_NSBENCH_SPANS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace nsbench {

enum class Layer : std::uint8_t { kNet, kRpc, kNameserver, kCore, kStorage };
inline constexpr std::size_t kLayerCount = 5;
const char* LayerName(Layer layer);

enum class SpanName : std::uint16_t {
  kClientOp,        // client: Submit start -> Await returned (net layer)
  kNsLookup,        // server: NameServer::Lookup, inside the enquiry's RPC handler
  kNsList,          // server: NameServer::List, inside the enquiry's RPC handler
  kNsPrepare,       // server: a Set's prepare closure (precondition + pickling)
  kCoreCommitMany,  // server: UpdateSink::CommitMany into Database::UpdateMany
  kCoreCheckpoint,  // NameServer::Checkpoint
  kCoreOpen,        // NameServer::Open (restart)
  kStorageRead,
  kStorageAppend,
  kStorageSync,
  kStorageRename,
  kStorageSyncDir,
  kStorageOther,    // open, delete, list, exists, truncate, ...
};
inline constexpr std::size_t kSpanNameCount = 13;
const char* SpanNameString(SpanName name);
Layer LayerOf(SpanName name);

std::int64_t NowNs();  // steady clock

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: root
  std::uint64_t key = 0;     // client ops: connection << 48 | request id
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t weight = 0;  // roots: requests whose latency the span sits in
  SpanName name = SpanName::kStorageOther;
  std::uint16_t thread = 0;
};

// Process-wide switch. While off, a ScopedSpan records only when it nests inside a
// span that was opened while on, so an operation started in a traced interval is
// recorded whole.
void SetTracing(bool on);
bool TracingOn();

// The innermost span open on this thread, or nullptr.
const SpanRecord* CurrentSpan();

std::uint64_t NewSpanId();
void RecordSpan(const SpanRecord& span);

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name, std::uint32_t weight = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const { return active_; }

 private:
  bool active_ = false;
  SpanRecord record_;
  const SpanRecord* saved_ = nullptr;
};

// Every span recorded so far, across threads. Call only once every recording
// thread has stopped.
std::vector<SpanRecord> CollectSpans();
std::uint64_t DroppedSpans();

// Latency attribution over the request paths. A layer's self time is a span's
// duration minus what its child spans cover; a server root span's tree is counted
// once per request it serves (a CommitMany carries many updates, each of which
// waits for all of it). Net is what remains of the client-observed latency once
// the server-side roots are taken out: framing, sockets, epoll, queueing, and
// the update planner, which runs on the transport thread. The rpc layer has no
// span of its own: an enquiry's rpc self time is the mean RPC handler time the
// program records (`handler_us_per_enquiry`, rpc.server.handler_us) minus its
// nameserver span.
struct Attribution {
  std::uint64_t client_ops = 0;
  double client_us = 0;                       // sum of client op latencies
  std::array<double, kLayerCount> self_us{};  // attributed, summed over ops
};
Attribution Attribute(const std::vector<SpanRecord>& spans, double handler_us_per_enquiry);

// One JSON object per line: id, parent, name, start/end in ns, key, thread, weight.
bool WriteSpans(const std::vector<SpanRecord>& spans, const std::string& path);

}  // namespace nsbench

#endif  // SMALLDB_NSBENCH_SPANS_H_
