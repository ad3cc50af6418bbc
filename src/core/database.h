// Database: the paper's design in one engine.
//
// "At all times the database is represented as an ordinary data structure in virtual
// memory. Its counterpart on disk has two components: a checkpoint of some previous
// (consistent) state of the entire database, and a log recording each subsequent
// update." (Section 3)
//
//   - A read access is purely a lookup in the virtual memory structure (Enquire).
//   - An update is made in three steps: verify preconditions against the in-memory
//     state, record the update's parameters as a log entry on disk (the commit point),
//     then apply the update to the in-memory state (Update).
//   - From time to time the entire state is checkpointed and the log reset
//     (Checkpoint; also automatic via CheckpointPolicy).
//   - Restart = load checkpoint, replay log (Open).
//
// Concurrent updates are coalesced by the group-commit pipeline (GroupCommitter):
// N simultaneous Update() callers share one log disk write and one fsync, and the
// fsync happens with no lock held — enquiries are never excluded during disk
// transfers (Section 3's rule), and updaters queue in the pipeline instead of on
// the update lock.
//
// The engine is application-agnostic: the Application interface supplies state
// (de)serialization and update application; the engine owns locking, logging,
// checkpointing and recovery.
#ifndef SMALLDB_SRC_CORE_DATABASE_H_
#define SMALLDB_SRC_CORE_DATABASE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/clock.h"
#include "src/common/cost_model.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "src/core/group_commit.h"
#include "src/core/log_reader.h"
#include "src/core/log_writer.h"
#include "src/core/sue_lock.h"
#include "src/core/version_store.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/storage/vfs.h"

namespace sdb {

// What the application supplies. All calls are made with appropriate engine locking:
// SerializeState under at least update mode (state cannot change underneath it),
// ApplyUpdate under exclusive mode (or during single-threaded recovery), the rest
// during Open only.
class Application {
 public:
  virtual ~Application() = default;

  // Resets the in-memory state to the initial (empty) database.
  virtual Status ResetState() = 0;

  // Converts the entire in-memory state to checkpoint bytes (PickleWrite of the root).
  virtual Result<Bytes> SerializeState() = 0;

  // Replaces the in-memory state from checkpoint bytes (PickleRead).
  virtual Status DeserializeState(ByteSpan data) = 0;

  // Applies one logged update record to the in-memory state. Called both for live
  // updates (after their log entry committed) and during restart replay. Must be
  // deterministic and must succeed for any record that passed its precondition check;
  // a failure here poisons the database (see Database::Update).
  virtual Status ApplyUpdate(ByteSpan record) = 0;

  // --- parallel replay (optional; see src/core/parallel_replay.h) ---
  //
  // A REDO-only log admits key-partitioned parallel replay: entries touching
  // different keys commute, so restart can apply key-disjoint batches on multiple
  // cores and still land on the exact serial-replay state. An application opts in
  // by overriding the three hooks below; the defaults keep replay fully serial.

  // A private apply context for one key-batch. Workers call Apply concurrently on
  // DIFFERENT contexts (never the live state); each context sees its batch's
  // records in log order. Implementations accumulate effects locally — typically a
  // key -> last-effect map — for MergeReplayBatch to fold in later.
  class ReplayBatch {
   public:
    virtual ~ReplayBatch() = default;
    virtual Status Apply(ByteSpan record) = 0;
  };

  // Extracts the logged update's target key into *key. Returning false declares
  // the record's footprint unknown; the replayer then applies this application's
  // whole stream in log order (correct for any record mix, just not parallel).
  virtual bool ReplayKeyOf(ByteSpan record, std::string* key) {
    (void)record;
    (void)key;
    return false;
  }

  // Creates an empty per-batch context. Null (the default) means the application
  // does not support batched replay.
  virtual std::unique_ptr<ReplayBatch> StartReplayBatch() { return nullptr; }

  // Folds one batch's effects into the live state. Called single-threaded, only
  // after every batch of the replay applied cleanly (fail-stop: a failed replay
  // merges nothing). Batches are key-disjoint, so merge order cannot matter.
  virtual Status MergeReplayBatch(ReplayBatch& batch) {
    (void)batch;
    return UnimplementedError("application does not support batched replay");
  }

  // Captures a consistent snapshot under the update lock and returns a closure that
  // produces the checkpoint bytes later, with no engine lock held (the concurrent
  // checkpoint's background phase). The default captures eagerly: it serializes the
  // whole state up front — a memory-speed stall with no disk I/O under the lock — and
  // the closure just hands the bytes over. Applications with cheaper consistent-
  // snapshot machinery (copy-on-write structures, frozen delta layers) override this
  // so the stall is O(recent changes) instead of O(database). The closure is invoked
  // at most once, possibly from a background thread; it must not touch engine state.
  virtual Result<std::function<Result<Bytes>()>> CaptureSnapshot() {
    SDB_ASSIGN_OR_RETURN(Bytes snapshot, SerializeState());
    auto holder = std::make_shared<Bytes>(std::move(snapshot));
    return std::function<Result<Bytes>()>(
        [holder]() -> Result<Bytes> { return std::move(*holder); });
  }

  // --- incremental (delta) checkpoints (optional; see DESIGN.md delta chains) ---
  //
  // An application that tracks which objects changed since the last capture can make
  // checkpoints O(churn): CaptureDeltaSnapshot stages just the dirty window and the
  // engine writes it as a delta composing over the previous checkpoint chain. The
  // dirty-tracking contract:
  //   - ApplyUpdate AND MergeReplayBatch mark touched objects dirty (replay at
  //     recovery must repopulate the window: the first post-restart delta covers
  //     exactly the log entries replayed on top of the chain).
  //   - DeserializeState clears the tracking (the loaded state is chain-covered).
  //   - A full CaptureSnapshot leaves the window untouched — a later delta may then
  //     be a superset of the churn, which is harmless (re-captured objects carry
  //     their current values; deletions are idempotent tombstones).
  // Commit/Abandon may run on a background persist thread concurrently with
  // ApplyUpdate, so implementations guard their dirty structures with a small mutex.

  struct DeltaSnapshot {
    Bytes bytes;
    std::uint64_t objects = 0;  // dirty objects captured (metrics only)
  };

  // Stages the dirty window under the update lock and returns a closure producing
  // the delta bytes later with no engine lock held (same shape as CaptureSnapshot —
  // the closure must copy values at capture time, never read live state). Clears the
  // dirty tracking: the staged window is now the engine's to persist. Returning a
  // null function (the default) declares delta capture unsupported; the engine falls
  // back to a full CaptureSnapshot.
  virtual Result<std::function<Result<DeltaSnapshot>()>> CaptureDeltaSnapshot() {
    return std::function<Result<DeltaSnapshot>()>{};
  }

  // The staged delta is durable and referenced by the chain; drop the staged window.
  virtual void CommitDeltaCapture() {}

  // The persist failed or aborted: fold the staged window back into the dirty set so
  // the next capture re-covers it.
  virtual void AbandonDeltaCapture() {}

  // Pure composition: applies each delta (in order) over the base checkpoint bytes
  // and returns the equivalent full-checkpoint bytes. Must not touch live state —
  // both background compaction and restart use it, and the result must be
  // byte-identical to what SerializeState would have produced for the composed
  // state. Required once CaptureDeltaSnapshot returns a closure.
  virtual Result<Bytes> ComposeCheckpoint(ByteSpan base,
                                          const std::vector<ByteSpan>& deltas) {
    (void)base;
    (void)deltas;
    return UnimplementedError("application does not support delta checkpoints");
  }
};

// When to take an automatic checkpoint (checked after each update). All triggers are
// OR-ed; zero disables a trigger. Default: manual checkpoints only — the paper's
// recommendation for its target workloads is a single nightly checkpoint.
struct CheckpointPolicy {
  std::uint64_t every_n_updates = 0;
  std::uint64_t log_bytes_threshold = 0;
  Micros interval_micros = 0;
};

// Incremental (delta) checkpointing: when the application supports
// CaptureDeltaSnapshot, checkpoints write only the dirty window as delta<N>
// composing over the previous base (see version_store.h for the on-disk chain
// protocol), and a background compactor collapses the chain into a new full base
// when it grows past the thresholds below.
struct DeltaCheckpointOptions {
  // Master switch. Even when true, delta mode only engages if the application
  // supports delta capture AND neither keep_previous_checkpoint nor
  // fallback_to_previous_checkpoint is set (the previous-generation hard-error
  // fallback assumes self-contained checkpoints).
  bool enabled = true;

  // Compact once the chain holds this many deltas...
  std::uint64_t compact_after_deltas = 8;
  // ...or once accumulated delta bytes reach this fraction of the base's bytes.
  double compact_delta_base_ratio = 0.5;

  // Hard ceiling: if a chain somehow reaches this length (compaction kept
  // failing), the next checkpoint is forced full, collapsing the chain through
  // the ordinary full-switch path.
  std::uint64_t force_full_at_chain_length = 32;

  // Run compaction on a background thread (sharing the single-flight checkpoint
  // slot). When false, compaction runs synchronously at the end of the
  // checkpoint that crossed the threshold — the deterministic mode the sim
  // harness uses.
  bool background_compaction = true;
};

struct DatabaseOptions {
  Vfs* vfs = nullptr;
  std::string dir;

  // Clock used for phase timing and the interval checkpoint policy. If null, a
  // process-wide WallClock is used.
  Clock* clock = nullptr;

  // Simulated-cost charging (passed through to benchmark Applications via their own
  // construction; the engine itself charges nothing).
  CheckpointPolicy checkpoint_policy;

  // Retain one previous checkpoint generation for hard-error recovery (Section 4).
  bool keep_previous_checkpoint = false;

  // Keep superseded logs as an audit trail (renamed to audit<N>; Section 4). Read them
  // back with ReadAuditTrail (src/core/audit.h) via version_store().AuditPath(n).
  bool retain_logs_for_audit = false;

  // Recovery behaviour.
  bool skip_damaged_log_entries = false;   // hard-error mode: ignore damaged entries
  bool fallback_to_previous_checkpoint = false;  // hard-error mode: use version N-1

  // The commit pipeline every update goes through (Section 5's "multiple commit
  // records in a single log entry"). max_batch_records = 1 gives the paper's one
  // fsync per update.
  GroupCommitOptions group_commit;

  LogWriterOptions log_writer;
  std::size_t log_replay_page_size = 512;

  // Restart replay worker pool (src/core/parallel_replay.h). 1 = the paper's serial
  // replay, entry by entry in log order — also the deterministic mode the sim
  // harness's sharded runs require. > 1 partitions the log into key-disjoint
  // batches applied on up to this many threads; the recovered state is byte-
  // identical to serial replay (tests/parallel_recovery_test.cc proves it).
  // Applications that do not override the replay-batch hooks replay serially
  // regardless.
  int recovery_threads = 1;

  // Capacity of the per-commit trace ring buffer (DumpTrace). 0 disables raw trace
  // capture; per-stage histograms keep aggregating either way.
  std::size_t trace_ring_capacity = 256;

  // Concurrent checkpointing: the update lock is held only for the snapshot-and-log-
  // rotate step; the checkpoint bytes are produced and persisted with updates running
  // (automatic checkpoints persist on a background thread, Checkpoint() persists on
  // the calling thread but without the lock). When false, the paper's original
  // behaviour — the lock is held across the whole serialize + write + switch — which
  // is the benchmark baseline and an escape hatch.
  bool concurrent_checkpoint = true;

  // Incremental checkpoints (delta chains + background compaction).
  DeltaCheckpointOptions delta_checkpoint;
};

struct CheckpointBreakdown {
  Micros stall_micros = 0;      // update-lock hold: snapshot capture + log rotation
  Micros serialize_micros = 0;  // PickleWrite of the whole state (capture + closure)
  Micros disk_micros = 0;       // checkpoint + log file writes and the switch commit
  Micros total_micros = 0;
};

struct RestartBreakdown {
  Micros checkpoint_read_micros = 0;
  // Wall-clock elapsed across the whole replay phase (partition pass + batch apply
  // + merge). NOT a per-worker sum: under parallel replay, summed worker time would
  // overstate elapsed time by up to the thread count — that aggregate is
  // replay_cpu_micros below.
  Micros replay_micros = 0;
  // Aggregate replay work: the sequential partition pass (wall: it includes the
  // log reads) plus the workers' summed thread CPU time. Equals replay_micros under
  // serial replay; exceeds it only when parallel replay really overlaps.
  Micros replay_cpu_micros = 0;
  std::uint64_t replay_batches = 0;       // key-batches dispatched (0 = serial)
  std::uint64_t replay_threads_used = 0;  // workers the replay actually ran on
  Micros partition_pass_micros = 0;       // sequential pass: read + key partition
  Micros batch_apply_micros = 0;          // worker apply thread CPU time, summed
  std::uint64_t entries_replayed = 0;
  bool partial_tail_discarded = false;
  std::uint64_t entries_skipped = 0;
  bool used_previous_checkpoint = false;
  bool finished_interrupted_switch = false;
  // Rotated logs beyond the checkpoint's generation replayed because a concurrent
  // checkpoint was still pending at crash time (dual-log resolution).
  std::uint64_t pending_logs_replayed = 0;
};

// Compatibility view over the database's metrics registry: every counter below is
// backed by a registry metric (see Database::metrics()); stats() snapshots them into
// this struct so existing callers keep working. New code should prefer the registry.
struct DatabaseStats {
  std::uint64_t enquiries = 0;
  std::uint64_t updates = 0;
  std::uint64_t update_precondition_failures = 0;
  std::uint64_t update_commit_failures = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t auto_checkpoints = 0;
  std::uint64_t log_entries_since_checkpoint = 0;

  UpdateBreakdown last_update;
  CheckpointBreakdown last_checkpoint;
  RestartBreakdown restart;
  GroupCommitStats group_commit;
};

class Database : private GroupCommitHost {
 public:
  // Opens (or creates) the database in options.dir, recovering state into `app`:
  // determine the current version, load its checkpoint, replay its log. The
  // application must outlive the database.
  static Result<std::unique_ptr<Database>> Open(Application& app, DatabaseOptions options);

  // Opens an existing database for reading only: the current state is recovered into
  // `app` with zero side effects on the directory (no fresh-init, no cleanup, no log
  // writer, interrupted switches left for the next writable open). Update, Checkpoint
  // and ReplaceState fail with kFailedPrecondition. Useful for inspection, reporting
  // and backups of a quiescent database.
  static Result<std::unique_ptr<Database>> OpenReadOnly(Application& app,
                                                        DatabaseOptions options);

  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // Runs `enquiry` under the shared lock. The callback reads the in-memory state
  // through the application; the disk is never involved.
  Status Enquire(const std::function<Status()>& enquiry);

  // Executes one update. `prepare` runs under the update lock: it verifies the
  // update's preconditions against the in-memory state and, if they hold, returns the
  // pickled update record (gathering "all the parameters of the update"). The engine
  // then appends the record to the log and forces it to disk — the commit point —
  // upgrades to exclusive, and applies the record through the application.
  //
  // Concurrent callers' records share one log write and one fsync (the commit
  // pipeline, group_commit.h); this never weakens the contract below — Update
  // returns OK only after this update's record is durable and applied, in log order.
  //
  // If `prepare` fails, nothing is logged and the state is untouched. If the disk
  // write fails, the update is not applied (and will not be visible after restart).
  // If ApplyUpdate fails after a successful commit, the in-memory state can no longer
  // be trusted to match the log: the database becomes poisoned and every subsequent
  // operation fails with kInternal until reopened.
  Status Update(const std::function<Result<Bytes>()>& prepare);

  // Group commit (Section 5): several updates share one log disk write. Prepares run
  // in order under the update lock; if any fails, the whole batch aborts unlogged.
  Status UpdateBatch(const std::vector<std::function<Result<Bytes>()>>& prepares);

  // Batch ingest: N *independent* updates — decoded requests from many client
  // connections, carried into the engine by one transport thread — entering the
  // commit pipeline together so one fsync covers all of them. Unlike UpdateBatch,
  // each update succeeds or fails on its own (statuses returned in input order): a
  // precondition failure drops only that update from the sealed batch.
  std::vector<Status> UpdateMany(
      const std::vector<std::function<Result<Bytes>()>>& prepares);

  // Writes a checkpoint of the current state and resets the log. With
  // concurrent_checkpoint (the default) the update lock is held only while a
  // consistent snapshot is captured and the log is rotated to the next generation;
  // the checkpoint bytes are produced and persisted afterwards with updates
  // committing to the already-rotated log (a durable `pending` marker makes the
  // rotated log recoverable before the checkpoint exists). With it off, the paper's
  // rule applies verbatim: "An update lock is held while writing a checkpoint" —
  // enquiries proceed, updates wait for the whole write. Either way the commit
  // pipeline is quiesced around the rotation so the log is never switched under an
  // in-flight batch, and this call returns only after the checkpoint is durable (or
  // failed). At most one checkpoint runs at a time; callers queue.
  Status Checkpoint();

  // Replaces the entire in-memory state and immediately checkpoints it, discarding the
  // old log. This is the hard-error recovery path ("We respond to a hard error on a
  // particular name server replica by restoring its data from another replica") and it
  // also heals a poisoned database.
  Status ReplaceState(ByteSpan state);

  std::uint64_t current_version() const;
  // The log generation updates are committing to: current_version() normally, one
  // (or more, after failed persists) ahead while a checkpoint rotation is pending.
  std::uint64_t live_log_version() const;
  // Snapshot of the live delta chain: base == current_version() with no deltas
  // when the current checkpoint is self-contained.
  DeltaChain delta_chain() const;
  std::uint64_t log_bytes() const;
  DatabaseStats stats() const;

  // --- observability ---

  // This database's metrics registry: commit-stage histograms
  // ("commit.stage.<lock_wait|queue_wait|prepare|append|fsync|excl_wait|apply|ack>_us"),
  // commit totals, checkpoint phase histograms, and the db.* counters DatabaseStats
  // mirrors. Process-wide subsystem metrics (vfs.*, rpc.*, heap.*, pickle.*) live in
  // obs::GlobalRegistry().
  obs::Registry& metrics() { return registry_; }

  // Human-readable report: every metric in this database's registry, one line each,
  // histograms as count/mean/p50/p95/p99/max. The per-stage commit breakdown is the
  // reproduction's answer to the paper's measured-cost table.
  std::string MetricsReport() const;

  // The same data as JSON: {"counters":{..},"gauges":{..},"histograms":{..}}.
  std::string MetricsReportJson() const;

  // The most recent per-commit trace events (oldest first), each a full per-stage
  // timing breakdown of one commit batch.
  std::vector<obs::CommitTrace> DumpTrace() const;

  // Monotone counter bumped at the start of every commit batch (and every
  // checkpoint). Applications whose prepares derive values from in-memory
  // state that the same batch will modify (e.g. replication sequence numbers) compare
  // this across prepares to detect "the state I read has pending, not-yet-applied
  // records in front of it"; see NameServer::SyncReservations.
  std::uint64_t commit_epoch() const {
    return commit_epoch_.load(std::memory_order_relaxed);
  }

  // Snapshot of the live log writer's counters (entries, fsyncs, bytes). Meaningful
  // only while no update is in flight; benchmarks read it after joining workers.
  LogWriterStats log_writer_stats() const;

  const std::string& dir() const { return options_.dir; }
  VersionStore& version_store() { return version_store_; }

 private:
  Database(Application& app, DatabaseOptions options);

  // One checkpoint in two phases. Phase A (RotateForCheckpointLocked, caller holds
  // the update lock with the pipeline paused) captures the snapshot, durably creates
  // log generation `target` with a `pending` marker, and swaps the live writer.
  // Phase B (PersistCheckpoint, no engine lock required) runs the serialize closure,
  // writes checkpoint `target`, and commits the version switch.
  struct CheckpointRotation {
    std::uint64_t base = 0;    // generation the version files name (unchanged by A)
    std::uint64_t target = 0;  // new generation; the live log after A
    std::function<Result<Bytes>()> serialize;
    // Delta mode: `target` will be written as delta<target> extending the chain
    // instead of a self-contained checkpoint; serialize_delta is set, serialize is
    // null. Phase B publishes the extended manifest before committing the switch.
    bool is_delta = false;
    std::function<Result<Application::DeltaSnapshot>()> serialize_delta;
    Micros start_micros = 0;
    Micros stall_micros = 0;
    Micros capture_micros = 0;
  };

  Status Recover();
  Status InitFreshDatabase();
  Status LoadCheckpointAndReplay(const VersionState& state);
  Result<std::unique_ptr<LogWriter>> OpenLogForAppend(const std::string& path);
  // Update and UpdateBatch: one all-or-nothing request through the committer, then
  // the automatic checkpoint check.
  Status SubmitUpdate(std::span<const GroupCommitter::PrepareFn> prepares);
  Status RotateForCheckpointLocked(CheckpointRotation* rotation, bool force_full = false);
  Status PersistCheckpoint(CheckpointRotation rotation);
  Status PersistDeltaCheckpoint(CheckpointRotation rotation);
  // Delta-chain compaction: with the checkpoint slot held, composes the current
  // base + deltas into a full checkpoint(top) via Application::ComposeCheckpoint,
  // deletes the manifest (the commit point), and reclaims the old chain files.
  // Never poisons: a failure at any point leaves the chain authoritative and at
  // worst some swept-at-next-open garbage.
  Status CompactChain();
  bool CompactionDue() const;  // thresholds vs the chain, under chain_mu_
  // Launches the background compaction thread if compaction is due and none is in
  // flight. Called after a successful delta persist.
  void MaybeScheduleCompaction();
  void MaybeAutoCheckpoint();
  bool AutoCheckpointDue() const;
  // The single-flight checkpoint slot. Acquire blocks until no checkpoint is in
  // flight and joins the previous background persist thread; Release may run on
  // that background thread, which is why this is a cv-guarded flag, not a mutex.
  void AcquireCheckpointSlot();
  void ReleaseCheckpointSlot();
  Status CheckPoisoned() const;

  // GroupCommitHost (called by committer_ on a leader thread; see group_commit.h).
  Result<std::uint64_t> BatchBegin() override;
  Status BatchApply(ByteSpan record) override;
  void BatchPoisoned(const Status& cause) override;
  void BatchCommitted(const UpdateBreakdown& breakdown) override;

  Application& app_;
  DatabaseOptions options_;
  WallClock wall_clock_;
  Clock* clock_;  // options_.clock or &wall_clock_
  VersionStore version_store_;
  SueLock lock_;

  // Per-database metrics: the single source of truth for all hot-path counters (the
  // DatabaseStats struct is a snapshot view over it) and the commit-stage histograms.
  // Declared before everything that holds pointers into it.
  obs::Registry registry_;
  std::unique_ptr<obs::TraceRing> trace_ring_;
  obs::CommitStageMetrics stage_metrics_;

  // The following are mutated only while holding the update lock (or in Open), with
  // the pipeline paused where the live log is swapped.
  std::unique_ptr<LogWriter> log_;
  // The committer's durability sink: a private fsync per batch over log_. Retargeted
  // (set_log) alongside log_ swaps, under the same pipeline pause.
  LogWriterSink log_sink_;
  std::atomic<std::uint64_t> version_{0};  // atomic: read lock-free by observers
  // The log generation updates commit to. Equals version_ except between a
  // checkpoint's rotation (Phase A) and its switch commit (Phase B).
  std::atomic<std::uint64_t> live_log_version_{0};
  // Atomic: set under the update lock (apply divergence, ambiguous checkpoint
  // switch) while enquiries — which only hold shared mode — read it concurrently.
  std::atomic<bool> poisoned_{false};
  bool read_only_ = false;

  // Created at construction; only writable opens submit to it. Declared after log_
  // so it is destroyed first.
  std::unique_ptr<GroupCommitter> committer_;

  // Hot-path counters: registry-owned lock-free metrics so overlapping commits never
  // serialize on the stats mutex. counters_.log_bytes mirrors log_->size() so
  // log_bytes() is readable without any lock while a batch is streaming to disk.
  UpdateCounters counters_;
  obs::Counter* enquiries_ = nullptr;
  obs::Counter* checkpoints_ = nullptr;
  obs::Counter* auto_checkpoints_ = nullptr;
  std::atomic<std::uint64_t> commit_epoch_{0};
  std::atomic<Micros> last_checkpoint_time_{0};

  // Single-flight checkpoint slot + the background persist thread for automatic
  // checkpoints. checkpoint_thread_ is assigned/joined only under checkpoint_mu_
  // while checkpoint_in_flight_ hands off ownership of the slot.
  mutable std::mutex checkpoint_mu_;
  std::condition_variable checkpoint_cv_;
  bool checkpoint_in_flight_ = false;
  std::thread checkpoint_thread_;
  obs::Gauge* checkpoint_in_progress_ = nullptr;
  obs::Counter* checkpoint_failures_ = nullptr;

  // The live delta chain (mirrors the on-disk manifest) and its byte accounting
  // for the compaction thresholds. chain_mu_ is a leaf lock: held only around
  // reads/writes of these fields, never while doing I/O.
  mutable std::mutex chain_mu_;
  DeltaChain chain_;
  std::uint64_t chain_base_bytes_ = 0;
  std::uint64_t chain_delta_bytes_ = 0;
  // Delta mode resolved at Open: options + application support + no previous-
  // generation retention. Immutable afterwards.
  bool delta_effective_ = false;

  // Single-flight background compactor. compaction_in_flight_ is exchanged
  // BEFORE joining compaction_thread_, so only a finished thread (the flag is
  // cleared as its last action, after releasing the checkpoint slot) is ever
  // joined — the joiner can therefore hold the checkpoint slot safely.
  // compaction_mu_ guards the thread handle itself.
  std::atomic<bool> compaction_in_flight_{false};
  std::mutex compaction_mu_;
  std::thread compaction_thread_;
  std::atomic<bool> shutting_down_{false};

  obs::Counter* delta_checkpoints_ = nullptr;
  obs::Counter* compaction_runs_ = nullptr;
  obs::Counter* compaction_bytes_ = nullptr;
  obs::Counter* compaction_failures_ = nullptr;

  // Guards only the cold breakdown structs and checkpoint counters.
  mutable std::mutex stats_mutex_;
  DatabaseStats stats_;
};

}  // namespace sdb

#endif  // SMALLDB_SRC_CORE_DATABASE_H_
