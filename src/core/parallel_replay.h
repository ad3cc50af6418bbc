// ParallelReplayer: multi-core redo-log replay.
//
// The paper replays the log serially at restart ("about 20 msecs per log entry");
// at any real scale, restart time IS the availability story. A REDO-only log admits
// dependency-free parallel replay: two updates commute unless they touch the same
// key, so one sequential pass over the log can partition entries into key-disjoint
// batches (same key => same batch, per-key log order preserved) and a bounded pool
// of workers can apply the batches concurrently — the final state is identical to
// serial replay by construction.
//
// Protocol (three phases):
//   1. Partition pass (caller thread, sequential): the log is read in order — the
//      disk access pattern is unchanged — and each entry is routed to the batch
//      owning hash(key). Entries whose key cannot be extracted force the owning
//      application into a serial fallback (applied in log order at Finish).
//   2. Batch apply (workers): each batch applies its entries, in log order, into a
//      private ReplayBatch context obtained from the application — never into the
//      live state. Any worker failure sets a shared flag; the other workers stop at
//      the next entry boundary and Finish returns the first error in task order.
//   3. Merge (caller thread, only if every batch succeeded): per-batch effects are
//      folded into the application state. Because batches are key-disjoint, merge
//      order cannot change the result; because nothing merged before all batches
//      succeeded, a failed replay never leaves a partially-applied batch behind.
//
// Multiple applications can register with one replayer so composed engines (the
// sharded ensemble) share a single bounded pool: the unit of parallelism is then
// (application, key-batch), and one hot shard no longer bounds recovery time.
//
// threads <= 1 is a strict serial mode: Add() applies straight through
// Application::ApplyUpdate in log order, byte-for-byte the pre-parallel behaviour —
// the deterministic fallback the simulation harness requires.
#ifndef SMALLDB_SRC_CORE_PARALLEL_REPLAY_H_
#define SMALLDB_SRC_CORE_PARALLEL_REPLAY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/clock.h"
#include "src/common/status.h"

namespace sdb {

class Application;

struct ParallelReplayOptions {
  // Worker pool bound. <= 1 replays serially on the calling thread (deterministic).
  int threads = 1;

  // Key-batch granularity: each application partitions into up to
  // threads * batches_per_thread batches. More batches smooth skew (a hot batch
  // strands less work behind it) at the cost of more merge contexts.
  int batches_per_thread = 4;

  // Timing source for partition_pass_micros. Null uses a process WallClock.
  Clock* clock = nullptr;
};

struct ParallelReplayStats {
  std::uint64_t entries = 0;       // records fed through Add()
  std::uint64_t batches = 0;       // apply tasks dispatched (0 in serial mode)
  std::uint64_t threads_used = 0;  // workers actually spawned (1 in serial mode)
  // Wall time of the sequential partition pass: first Add() to dispatch. Includes
  // the log read itself — the pass is the replay pipeline's sequential fraction.
  Micros partition_pass_micros = 0;
  // Worker apply time summed across the pool, as thread CPU time
  // (CLOCK_THREAD_CPUTIME_ID), so time a worker spent descheduled is not counted.
  Micros batch_apply_micros = 0;
  // Applications that fell back to in-order apply (no batch support, or a record
  // whose key could not be extracted).
  std::uint64_t serial_fallbacks = 0;
};

class ParallelReplayer {
 public:
  explicit ParallelReplayer(ParallelReplayOptions options);
  ~ParallelReplayer();
  ParallelReplayer(const ParallelReplayer&) = delete;
  ParallelReplayer& operator=(const ParallelReplayer&) = delete;

  // Registers an application; the returned index names it in Add(). All
  // registrations must precede the first Add().
  std::size_t AddApplication(Application& app);

  // Feeds one log entry, in log order (across Add calls, per application). Serial
  // mode applies immediately; parallel mode buffers for Finish(). The span need only
  // be valid for the duration of the call.
  Status Add(std::size_t app_index, ByteSpan record);

  // Parallel mode: dispatches batches, joins the pool, merges effects. A worker
  // failure aborts without merging anything and returns the first error in task
  // order. Serial mode: no-op. Must be called exactly once, after the last Add.
  Status Finish();

  const ParallelReplayStats& stats() const { return stats_; }

 private:
  struct PerApp;

  ParallelReplayOptions options_;
  WallClock wall_clock_;
  Clock* clock_;
  std::vector<PerApp> apps_;
  ParallelReplayStats stats_;
  Micros pass_start_ = -1;  // first Add() timestamp (parallel mode)
  bool finished_ = false;
};

}  // namespace sdb

#endif  // SMALLDB_SRC_CORE_PARALLEL_REPLAY_H_
