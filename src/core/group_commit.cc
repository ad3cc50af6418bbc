#include "src/core/group_commit.h"

#include <algorithm>

namespace sdb {

GroupCommitter::GroupCommitter(SueLock& lock, Clock& clock, GroupCommitHost& host,
                               CommitSink* sink, UpdateCounters* counters,
                               obs::CommitStageMetrics stage_metrics,
                               GroupCommitOptions options)
    : lock_(lock),
      clock_(clock),
      host_(host),
      counters_(counters),
      stage_metrics_(stage_metrics),
      options_(options),
      sink_(sink) {}

Status GroupCommitter::Submit(std::span<const PrepareFn> prepares) {
  Request request(prepares);
  EnqueueAndWait({&request, 1});
  return std::move(request.status);
}

std::vector<Status> GroupCommitter::SubmitMany(std::span<const PrepareFn> prepares) {
  std::vector<Status> out;
  if (prepares.empty()) {
    return out;
  }
  // One Request per prepare: each is acknowledged independently (a precondition
  // failure drops only its own update from the batch). Reserved up front, so the
  // addresses stay stable while they sit in queue_.
  std::vector<Request> requests;
  requests.reserve(prepares.size());
  for (const PrepareFn& prepare : prepares) {
    requests.emplace_back(std::span<const PrepareFn>(&prepare, 1));
  }
  EnqueueAndWait(requests);
  out.reserve(requests.size());
  for (Request& request : requests) {
    out.push_back(std::move(request.status));
  }
  return out;
}

void GroupCommitter::EnqueueAndWait(std::span<Request> requests) {
  const bool timing = obs::Enabled();
  const Micros enqueued = timing ? clock_.NowMicros() : 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (Request& request : requests) {
    request.enqueued_micros = enqueued;
    queue_.push_back(&request);
  }
  // Batches seal from the front of queue_ and run one at a time, so the requests
  // complete in order: everything before `pending` is done.
  std::size_t pending = 0;
  for (;;) {
    while (pending < requests.size() && requests[pending].done) {
      ++pending;
    }
    if (pending == requests.size()) {
      break;
    }
    if (!batch_in_progress_ && !paused_) {
      LeadBatch(lock, requests[pending]);
      continue;  // re-check done: the led batch normally contained our requests
    }
    cv_.wait(lock);
  }
  // Ack stage: the gap between a leader finishing the batch and this rider thread
  // observing completion (scheduler + condvar latency).
  const Micros now = timing ? clock_.NowMicros() : 0;
  obs::Histogram* ack_hist =
      stage_metrics_.stage[static_cast<int>(obs::CommitStage::kAck)];
  for (const Request& request : requests) {
    if (request.rode_along) {
      ++stats_.sync_waits;
      if (timing && request.completed_micros != 0) {
        ack_hist->Record(now - request.completed_micros);
      }
    }
  }
}

void GroupCommitter::LeadBatch(std::unique_lock<std::mutex>& lock, Request& self) {
  std::vector<Request*> batch;
  std::size_t records = 0;
  while (!queue_.empty()) {
    Request* next = queue_.front();
    std::size_t next_records = next->prepares.size();
    if (!batch.empty() && options_.max_batch_records != 0 &&
        records + next_records > options_.max_batch_records) {
      break;  // the tail of the queue rides the next batch
    }
    batch.push_back(next);
    records += next_records;
    queue_.pop_front();
  }
  batch_in_progress_ = true;

  // Queue-wait stage: how long each sealed request sat in the queue before a leader
  // picked it up. The batch's trace event carries the worst (oldest) wait.
  Micros queue_wait_max = 0;
  if (obs::Enabled()) {
    Micros now = clock_.NowMicros();
    obs::Histogram* hist =
        stage_metrics_.stage[static_cast<int>(obs::CommitStage::kQueueWait)];
    for (Request* request : batch) {
      Micros wait = now - request->enqueued_micros;
      hist->Record(wait);
      queue_wait_max = std::max(queue_wait_max, wait);
    }
  }
  lock.unlock();

  RunBatch(batch, queue_wait_max);

  lock.lock();
  batch_in_progress_ = false;
  Micros completed = obs::Enabled() ? clock_.NowMicros() : 0;
  for (Request* request : batch) {
    request->rode_along = request != &self;
    request->completed_micros = completed;
    request->done = true;
  }
  cv_.notify_all();
}

void GroupCommitter::RunBatch(const std::vector<Request*>& batch, Micros queue_wait_max) {
  UpdateBreakdown breakdown;
  const bool timing = obs::Enabled();

  // Phase 1: preconditions + record gathering, under the update lock. Enquiries run
  // concurrently; other updaters queue behind us in the pipeline, not on this lock.
  // Stage timestamps are chained (each boundary is read once) to keep the enabled
  // path at ~8 clock reads per batch.
  Micros t_start = timing ? clock_.NowMicros() : 0;
  lock_.AcquireUpdate();
  Micros t_locked = clock_.NowMicros();
  Result<std::uint64_t> ready = host_.BatchBegin();
  std::uint64_t epoch = ready.ok() ? *ready : 0;
  std::vector<ByteSpan> payloads;
  std::size_t write_set = 0;
  for (Request* request : batch) {
    if (!ready.ok()) {
      request->status = ready.status();
      continue;
    }
    request->records.reserve(request->prepares.size());
    Status failed = OkStatus();
    for (const PrepareFn& prepare : request->prepares) {
      Result<Bytes> record = prepare();
      if (!record.ok()) {
        failed = record.status();
        break;
      }
      request->records.push_back(std::move(*record));
    }
    if (!failed.ok()) {
      // All-or-nothing per request (the manual UpdateBatch contract): none of this
      // request's records reach the log. Other requests in the batch are unaffected.
      request->status = failed;
      request->records.clear();
      counters_->precondition_failures->Increment();
    } else {
      request->prepared_ok = true;
      ++write_set;
    }
  }
  Micros t_prepared = clock_.NowMicros();
  breakdown.prepare_micros = t_prepared - t_locked;
  lock_.ReleaseUpdate();
  if (write_set == 0) {
    return;  // nothing to commit; every caller already has its error
  }

  for (Request* request : batch) {
    if (request->prepared_ok) {
      for (const Bytes& record : request->records) {
        payloads.push_back(AsSpan(record));
      }
    }
  }

  // Phase 2: the commit point. One contiguous append, then the sink's durability
  // step (a private fsync, or a wait on a covering cross-shard fsync) — and no lock
  // of any mode held, so enquiries and next-batch arrivals proceed throughout.
  Micros t_log_start = clock_.NowMicros();
  Status committed = sink_->AppendRecords(payloads);
  Micros t_appended = timing ? clock_.NowMicros() : t_log_start;
  std::uint64_t physical_syncs = 0;
  if (!committed.ok()) {
    committed = committed.WithContext("appending log entry");
  } else {
    Result<std::uint64_t> synced = sink_->SyncRecords();
    if (synced.ok()) {
      physical_syncs = *synced;
    } else {
      committed = synced.status().WithContext("committing log entry");
    }
  }
  Micros t_synced = clock_.NowMicros();
  breakdown.log_micros = t_synced - t_log_start;
  counters_->log_bytes->Set(static_cast<std::int64_t>(sink_->log_bytes()));
  if (!committed.ok()) {
    for (Request* request : batch) {
      if (request->prepared_ok) {
        request->status = committed;
        counters_->commit_failures->Increment();
      }
    }
    return;
  }

  // Phase 3: apply in log order, in exclusive mode — the only step that excludes
  // enquiries, and it is purely an in-memory modification.
  lock_.AcquireUpdate();
  lock_.UpgradeToExclusive();
  Micros t_exclusive = clock_.NowMicros();
  Status poisoned = OkStatus();
  for (Request* request : batch) {
    if (!request->prepared_ok) {
      continue;
    }
    if (!poisoned.ok()) {
      // A durable record could not be applied: every later record in the batch is
      // also durable but must not be applied out of order. Fail them all.
      request->status = InternalError(
          "database poisoned by an earlier apply failure in this commit batch");
      continue;
    }
    for (const Bytes& record : request->records) {
      Status applied = host_.BatchApply(AsSpan(record));
      if (!applied.ok()) {
        poisoned = applied;
        host_.BatchPoisoned(applied);
        request->status = applied.WithContext("applying committed update (database poisoned)");
        break;
      }
    }
    if (poisoned.ok()) {
      request->status = OkStatus();
      counters_->updates->Add(request->records.size());
      counters_->log_entries_since_checkpoint->Add(
          static_cast<std::int64_t>(request->records.size()));
    }
  }
  Micros t_applied = clock_.NowMicros();
  breakdown.apply_micros = t_applied - t_exclusive;
  lock_.DowngradeToUpdate();
  lock_.ReleaseUpdate();

  breakdown.total_micros =
      breakdown.prepare_micros + breakdown.log_micros + breakdown.apply_micros;
  host_.BatchCommitted(breakdown);

  if (timing) {
    obs::CommitTrace trace;
    trace.records = payloads.size();
    trace.start_micros = t_start;
    trace.set_stage(obs::CommitStage::kLockWait, t_locked - t_start);
    trace.set_stage(obs::CommitStage::kQueueWait, queue_wait_max);
    trace.set_stage(obs::CommitStage::kPrepare, t_prepared - t_locked);
    trace.set_stage(obs::CommitStage::kAppend, t_appended - t_log_start);
    trace.set_stage(obs::CommitStage::kFsync, t_synced - t_appended);
    trace.set_stage(obs::CommitStage::kExclusiveWait, t_exclusive - t_synced);
    trace.set_stage(obs::CommitStage::kApply, t_applied - t_exclusive);
    trace.total_micros = t_applied - t_start;
    trace.epoch = epoch;
    stage_metrics_.RecordBatch(trace);
  }
  stage_metrics_.fsyncs->Add(physical_syncs);

  std::lock_guard<std::mutex> stats_lock(mu_);
  ++stats_.batches;
  stats_.syncs += physical_syncs;
  stats_.records_committed += payloads.size();
  stats_.max_records_per_sync = std::max<std::uint64_t>(stats_.max_records_per_sync,
                                                        payloads.size());
  std::size_t bucket = payloads.size() <= 2   ? payloads.size() - 1
                       : payloads.size() <= 4 ? 2
                       : payloads.size() <= 8 ? 3
                       : payloads.size() <= 16 ? 4
                                               : 5;
  ++stats_.records_per_sync_hist[bucket];
}

void GroupCommitter::Pause() {
  std::unique_lock<std::mutex> lock(mu_);
  paused_ = true;
  cv_.wait(lock, [this] { return !batch_in_progress_; });
}

void GroupCommitter::Resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

GroupCommitStats GroupCommitter::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

// --- CrossShardCoalescer ---

Result<std::uint64_t> CrossShardCoalescer::AppendBatch(
    std::span<const ByteSpan> payloads) {
  arriving_.fetch_add(1, std::memory_order_acq_rel);
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return !frozen_ || poisoned_; });
  auto leave_doorway = [this] {
    arriving_.fetch_sub(1, std::memory_order_acq_rel);
    cv_.notify_all();  // a deferring flush leader may be waiting on the doorway
  };
  if (poisoned_) {
    leave_doorway();
    return InternalError("cross-shard flush pipeline fail-stopped by an aborted log rotation");
  }
  Status appended = log_->AppendBatch(payloads);
  leave_doorway();
  SDB_RETURN_IF_ERROR(appended);
  ++stats_.batches_appended;
  return ++appended_seq_;
}

Result<std::uint64_t> CrossShardCoalescer::AwaitDurable(std::uint64_t ticket) {
  std::unique_lock<std::mutex> lock(mu_);
  bool window_open = coalesce_window_.count() > 0;
  for (;;) {
    if (durable_seq_ >= ticket) {
      // An fsync led on behalf of a later-arriving batch covered our append while
      // we queued on the mutex: the whole point of the coalescer.
      ++stats_.batches_coalesced;
      return std::uint64_t{0};
    }
    if (poisoned_) {
      return InternalError(
          "cross-shard flush pipeline fail-stopped by an aborted log rotation");
    }
    if (!frozen_) {
      if (arriving_.load(std::memory_order_acquire) > 0) {
        // Batches from other shards are mid-append: defer the fsync (releasing mu_
        // so they can get through) and let one covering sync commit all of us.
        // Bounded wait: every doorway occupant appends (or bails) and notifies, and
        // whoever arrives after we finally lead simply rides the next sync.
        cv_.wait(lock);
        continue;
      }
      if (window_open) {
        // Batch window: linger briefly for pipelines still finishing their apply
        // phase. Re-arms while appends keep landing; the first quiet interval
        // closes it for good, so under sustained load the linger is bounded by the
        // number of concurrent pipelines and a lone committer pays one window.
        std::uint64_t before = appended_seq_;
        cv_.wait_for(lock, coalesce_window_);
        window_open = appended_seq_ != before ||
                      arriving_.load(std::memory_order_acquire) > 0;
        continue;  // re-check: a covering fsync may have landed while we lingered
      }
      // Lead: one fsync covering every batch appended so far — ours and, typically,
      // batches from other shards. The fsync runs with mu_ held, so appends and
      // competing leads queue on the mutex behind it and the next leader's fsync
      // covers them all at once. A failed fsync does not advance durable_seq_, so
      // every batch always gets a definitive fsync attempt covering it: either a
      // covering success (OK) or its own led failure (possibly-durable verdict —
      // the same outcome a failed private fsync yields).
      std::uint64_t cover = appended_seq_;
      std::uint64_t covered_batches = cover - durable_seq_;
      Status synced = log_->Commit();
      if (!synced.ok()) {
        ++stats_.failed_fsyncs;
        return synced;
      }
      durable_seq_ = std::max(durable_seq_, cover);
      ++stats_.covering_fsyncs;
      stats_.max_batches_per_fsync =
          std::max(stats_.max_batches_per_fsync, covered_batches);
      return std::uint64_t{1};
    }
    cv_.wait(lock);
  }
}

void CrossShardCoalescer::Freeze() {
  std::lock_guard<std::mutex> lock(mu_);
  frozen_ = true;  // acquiring mu_ already waited out any in-flight fsync
}

void CrossShardCoalescer::Unfreeze() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    frozen_ = false;
  }
  cv_.notify_all();
}

void CrossShardCoalescer::Poison() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    poisoned_ = true;
  }
  cv_.notify_all();
}

void CrossShardCoalescer::set_log(LogWriter* log) {
  std::lock_guard<std::mutex> lock(mu_);
  log_ = log;
}

std::uint64_t CrossShardCoalescer::log_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_->size();
}

CrossShardCoalescer::Stats CrossShardCoalescer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace sdb
