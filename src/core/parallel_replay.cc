#include "src/core/parallel_replay.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <string_view>
#include <thread>

#include "src/core/database.h"

namespace sdb {
namespace {

// Batch routing hash. FNV-1a with an avalanche finalizer (same construction as the
// shard router): raw FNV clusters keys that differ only in trailing characters, and
// a skewed batch distribution is a skewed worker schedule.
std::uint64_t HashReplayKey(std::string_view key) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

}  // namespace

struct ParallelReplayer::PerApp {
  Application* app = nullptr;
  bool batchable = false;       // StartReplayBatch() returned a context at probe time
  bool serial_required = false; // a record's key could not be extracted: apply in order
  std::vector<Bytes> records;   // buffered in log order (parallel mode only)
  std::vector<std::uint64_t> key_hashes;  // aligned with records (batchable apps)
};

ParallelReplayer::ParallelReplayer(ParallelReplayOptions options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock : &wall_clock_) {}

ParallelReplayer::~ParallelReplayer() = default;

std::size_t ParallelReplayer::AddApplication(Application& app) {
  PerApp entry;
  entry.app = &app;
  // Probe once: an application without per-batch apply contexts replays through
  // plain ApplyUpdate (as one in-order task when parallel).
  entry.batchable = app.StartReplayBatch() != nullptr;
  apps_.push_back(std::move(entry));
  return apps_.size() - 1;
}

Status ParallelReplayer::Add(std::size_t app_index, ByteSpan record) {
  PerApp& entry = apps_[app_index];
  ++stats_.entries;
  if (options_.threads <= 1) {
    // Serial mode: the pre-parallel replay path, byte for byte. No buffering, no
    // worker threads, applies in global log order — the deterministic fallback.
    return entry.app->ApplyUpdate(record);
  }
  if (pass_start_ < 0) {
    pass_start_ = clock_->NowMicros();
  }
  if (entry.batchable && !entry.serial_required) {
    std::string key;
    if (entry.app->ReplayKeyOf(record, &key)) {
      entry.key_hashes.push_back(HashReplayKey(key));
    } else {
      // Unknown footprint: this application's whole stream must apply in log
      // order. Hashes computed so far are dropped; the records stay.
      entry.serial_required = true;
      entry.key_hashes.clear();
    }
  }
  entry.records.emplace_back(record.begin(), record.end());
  return OkStatus();
}

Status ParallelReplayer::Finish() {
  if (finished_) {
    return FailedPreconditionError("ParallelReplayer::Finish called twice");
  }
  finished_ = true;
  if (options_.threads <= 1) {
    stats_.threads_used = 1;
    return OkStatus();
  }
  stats_.partition_pass_micros =
      pass_start_ < 0 ? 0 : clock_->NowMicros() - pass_start_;

  // One task = one key-batch with its apply context, or one whole application
  // replayed in order (serial fallback). Tasks are ordered app-major, batch-minor,
  // so "first error in task order" is stable across thread schedules.
  struct Task {
    PerApp* owner = nullptr;
    std::vector<std::uint32_t> indices;  // into owner->records, ascending = log order
    std::unique_ptr<Application::ReplayBatch> context;  // null => serial fallback
    Status result;
  };
  std::vector<Task> tasks;
  const std::size_t batches_per_app = static_cast<std::size_t>(
      std::max(1, options_.threads) * std::max(1, options_.batches_per_thread));
  for (PerApp& entry : apps_) {
    if (entry.records.empty()) {
      continue;
    }
    if (!entry.batchable || entry.serial_required) {
      ++stats_.serial_fallbacks;
      Task task;
      task.owner = &entry;
      task.indices.resize(entry.records.size());
      for (std::uint32_t i = 0; i < entry.records.size(); ++i) {
        task.indices[i] = i;
      }
      tasks.push_back(std::move(task));
      continue;
    }
    const std::size_t batches = std::min(batches_per_app, entry.records.size());
    std::vector<std::vector<std::uint32_t>> buckets(batches);
    for (std::uint32_t i = 0; i < entry.records.size(); ++i) {
      buckets[entry.key_hashes[i] % batches].push_back(i);
    }
    for (std::vector<std::uint32_t>& bucket : buckets) {
      if (bucket.empty()) {
        continue;
      }
      Task task;
      task.owner = &entry;
      task.indices = std::move(bucket);
      task.context = entry.app->StartReplayBatch();
      if (task.context == nullptr) {
        return InternalError("StartReplayBatch returned null after a successful probe");
      }
      tasks.push_back(std::move(task));
    }
  }
  stats_.batches = tasks.size();
  if (tasks.empty()) {
    stats_.threads_used = 0;
    return OkStatus();
  }

  // Bounded pool, work-stealing via an atomic cursor. The failure flag is a
  // cooperative stop: workers poll it at entry boundaries, so an error in one
  // batch ends the whole replay promptly instead of after a full pass.
  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(options_.threads), tasks.size());
  stats_.threads_used = workers;
  std::atomic<bool> failed{false};
  std::atomic<std::size_t> next{0};
  std::atomic<std::int64_t> apply_micros{0};
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      // Thread CPU time, not wall: a descheduled worker does no replay work.
      const Micros cpu_start = ThreadCpuMicros();
      for (std::size_t t = next.fetch_add(1); t < tasks.size(); t = next.fetch_add(1)) {
        if (failed.load(std::memory_order_relaxed)) {
          break;
        }
        Task& task = tasks[t];
        for (std::uint32_t index : task.indices) {
          if (failed.load(std::memory_order_relaxed)) {
            break;
          }
          ByteSpan record = AsSpan(task.owner->records[index]);
          Status applied = task.context != nullptr
                               ? task.context->Apply(record)
                               : task.owner->app->ApplyUpdate(record);
          if (!applied.ok()) {
            task.result = std::move(applied);
            failed.store(true, std::memory_order_relaxed);
            break;
          }
        }
      }
      apply_micros.fetch_add(ThreadCpuMicros() - cpu_start, std::memory_order_relaxed);
    });
  }
  for (std::thread& t : pool) {
    t.join();
  }
  stats_.batch_apply_micros = apply_micros.load(std::memory_order_relaxed);

  if (failed.load(std::memory_order_relaxed)) {
    // Fail-stop: nothing merges. Batched applications' states are untouched (all
    // their effects live in discarded contexts); the caller abandons the open, so
    // serial-fallback applies never become visible either.
    for (Task& task : tasks) {
      if (!task.result.ok()) {
        return task.result.WithContext("parallel replay batch failed");
      }
    }
    return InternalError("parallel replay failed without a recorded status");
  }

  // Merge phase: single-threaded, in task order. Batches are key-disjoint so the
  // order is immaterial to the result, but a fixed order keeps any application-side
  // bookkeeping deterministic.
  for (Task& task : tasks) {
    if (task.context == nullptr) {
      continue;  // serial fallback already applied into live state
    }
    SDB_RETURN_IF_ERROR(task.owner->app->MergeReplayBatch(*task.context)
                            .WithContext("merging replay batch"));
  }
  return OkStatus();
}

}  // namespace sdb
