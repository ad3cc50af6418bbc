#include "nsbench/spans.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace nsbench {
namespace {

// A bound on memory (48 MB) for long traced runs; spans past it are counted, not
// kept, so the attribution then covers the earlier traced requests.
constexpr std::uint64_t kMaxSpans = 1'000'000;

constexpr const char* kSpanNames[kSpanNameCount] = {
    "client.op",       "nameserver.lookup", "nameserver.list", "nameserver.prepare",
    "core.commit_many", "core.checkpoint",  "core.open",       "storage.read",
    "storage.append",  "storage.sync",      "storage.rename",  "storage.syncdir",
    "storage.other"};

std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_recorded{0};
std::atomic<std::uint64_t> g_dropped{0};

struct ThreadBuffer {
  std::uint16_t thread = 0;
  std::uint64_t next_id = 1;
  std::vector<SpanRecord> spans;
};

// Buffers outlive their threads so spans can be collected after the server stops.
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buffer = [] {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    g_buffers.back()->thread = static_cast<std::uint16_t>(g_buffers.size());
    return g_buffers.back().get();
  }();
  return *buffer;
}

thread_local const SpanRecord* t_current = nullptr;

}  // namespace

const char* LayerName(Layer layer) {
  static constexpr const char* kNames[kLayerCount] = {"net", "rpc", "nameserver", "core",
                                                      "storage"};
  return kNames[static_cast<std::size_t>(layer)];
}

const char* SpanNameString(SpanName name) {
  return kSpanNames[static_cast<std::size_t>(name)];
}

Layer LayerOf(SpanName name) {
  switch (name) {
    case SpanName::kClientOp:
      return Layer::kNet;
    case SpanName::kNsLookup:
    case SpanName::kNsList:
    case SpanName::kNsPrepare:
      return Layer::kNameserver;
    case SpanName::kCoreCommitMany:
    case SpanName::kCoreCheckpoint:
    case SpanName::kCoreOpen:
      return Layer::kCore;
    default:
      return Layer::kStorage;
  }
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool TracingOn() { return g_tracing.load(std::memory_order_relaxed); }

const SpanRecord* CurrentSpan() { return t_current; }

std::uint64_t NewSpanId() {
  ThreadBuffer& buffer = LocalBuffer();
  return (static_cast<std::uint64_t>(buffer.thread) << 40) | buffer.next_id++;
}

void RecordSpan(const SpanRecord& span) {
  if (g_recorded.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ThreadBuffer& buffer = LocalBuffer();
  buffer.spans.push_back(span);
  buffer.spans.back().thread = buffer.thread;
}

ScopedSpan::ScopedSpan(SpanName name, std::uint32_t weight) {
  if (t_current == nullptr && !TracingOn()) {
    return;
  }
  active_ = true;
  saved_ = t_current;
  record_.id = NewSpanId();
  record_.parent = saved_ == nullptr ? 0 : saved_->id;
  record_.weight = weight;
  record_.name = name;
  record_.start_ns = NowNs();
  t_current = &record_;
}

ScopedSpan::~ScopedSpan() {
  if (!active_) {
    return;
  }
  record_.end_ns = NowNs();
  t_current = saved_;
  RecordSpan(record_);
}

std::vector<SpanRecord> CollectSpans() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<SpanRecord> all;
  for (const auto& buffer : g_buffers) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

std::uint64_t DroppedSpans() { return g_dropped.load(std::memory_order_relaxed); }

Attribution Attribute(const std::vector<SpanRecord>& spans, double handler_us_per_enquiry) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    index.emplace(spans[i].id, i);
  }
  auto duration_us = [](const SpanRecord& s) { return (s.end_ns - s.start_ns) / 1e3; };

  std::vector<double> child_us(spans.size(), 0.0);
  for (const SpanRecord& span : spans) {
    auto parent = index.find(span.parent);
    if (span.parent != 0 && parent != index.end()) {
      child_us[parent->second] += duration_us(span);
    }
  }

  // A span whose parent was dropped or never recorded counts as a root.
  std::vector<std::int64_t> root_of(spans.size(), -1);
  auto find_root = [&](std::size_t i) {
    std::size_t at = i;
    while (root_of[at] < 0) {
      auto parent = index.find(spans[at].parent);
      if (spans[at].parent == 0 || parent == index.end()) {
        root_of[at] = static_cast<std::int64_t>(at);
        break;
      }
      at = parent->second;
    }
    std::int64_t root = root_of[at];
    for (std::size_t walk = i; root_of[walk] < 0;) {
      root_of[walk] = root;
      walk = index.find(spans[walk].parent)->second;
    }
    return static_cast<std::size_t>(root);
  };

  Attribution out;
  double server_us = 0;
  double rpc_us = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    if (span.name == SpanName::kClientOp) {
      ++out.client_ops;
      out.client_us += duration_us(span);
      continue;
    }
    const SpanRecord& root = spans[find_root(i)];
    if (root.weight == 0 || root.name == SpanName::kClientOp) {
      continue;  // off the request path (checkpoints, restarts) or client-side
    }
    double self = duration_us(span) - child_us[i];
    out.self_us[static_cast<std::size_t>(LayerOf(span.name))] += root.weight * self;
    if (&root == &span) {
      server_us += root.weight * duration_us(span);
      if (span.name == SpanName::kNsLookup || span.name == SpanName::kNsList) {
        rpc_us += handler_us_per_enquiry - duration_us(span);
      }
    }
  }
  out.self_us[static_cast<std::size_t>(Layer::kRpc)] += rpc_us;
  out.self_us[static_cast<std::size_t>(Layer::kNet)] += out.client_us - server_us - rpc_us;
  return out;
}

bool WriteSpans(const std::vector<SpanRecord>& spans, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  for (const SpanRecord& s : spans) {
    std::fprintf(out,
                 "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"key\":%llu,\"thread\":%u,\"weight\":%u}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), SpanNameString(s.name),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.key), static_cast<unsigned>(s.thread),
                 static_cast<unsigned>(s.weight));
  }
  return std::fclose(out) == 0;
}

}  // namespace nsbench
