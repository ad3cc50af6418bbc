// Tests for ShardedDatabase and ShardedNameServer: the full-concurrency composition
// of Section 7's "multiple separate databases for checkpoints" over "a single log
// file with more complicated rules for flushing".
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <set>
#include <thread>

#include "src/common/rng.h"
#include "src/core/sharded.h"
#include "src/nameserver/sharded_name_server.h"
#include "src/storage/sim_env.h"
#include "tests/test_app.h"

namespace sdb {
namespace {

using ::sdb::testing::TestApp;

class ShardedTest : public ::testing::Test {
 protected:
  ShardedTest() {
    SimEnvOptions options;
    options.microvax_cost_model = false;
    env_ = std::make_unique<SimEnv>(options);
  }

  ShardedOptions Options() {
    ShardedOptions options;
    options.vfs = &env_->fs();
    options.dir = "ensemble";
    options.clock = &env_->clock();
    return options;
  }

  Result<std::unique_ptr<ShardedDatabase>> OpenEnsemble(int k,
                                                        ShardedOptions options) {
    apps_.clear();
    std::vector<Application*> raw;
    for (int i = 0; i < k; ++i) {
      apps_.push_back(std::make_unique<TestApp>());
      raw.push_back(apps_.back().get());
    }
    return ShardedDatabase::Open(raw, std::move(options));
  }

  Result<std::unique_ptr<ShardedDatabase>> OpenEnsemble(int k) {
    return OpenEnsemble(k, Options());
  }

  void CrashAndRecoverFs() {
    env_->fs().Crash();
    ASSERT_TRUE(env_->fs().Recover().ok());
  }

  // The merged key->value view across every shard app.
  std::map<std::string, std::string> MergedState() const {
    std::map<std::string, std::string> merged;
    for (const auto& app : apps_) {
      merged.insert(app->state.begin(), app->state.end());
    }
    return merged;
  }

  std::unique_ptr<SimEnv> env_;
  std::vector<std::unique_ptr<TestApp>> apps_;
};

TEST_F(ShardedTest, RouterIsDeterministicAndCoversEveryShard) {
  ShardRouter router(8, 64);
  ShardRouter router2(8, 64);
  std::set<std::size_t> hit;
  for (int i = 0; i < 2000; ++i) {
    std::string key = "key-" + std::to_string(i);
    std::size_t p = router.Route(key);
    ASSERT_LT(p, 8u);
    EXPECT_EQ(p, router2.Route(key));  // no per-process seeding
    hit.insert(p);
  }
  EXPECT_EQ(hit.size(), 8u);  // 2000 keys over 8 shards: every shard owns some

  ShardRouter solo(1, 64);
  EXPECT_EQ(solo.Route("anything"), 0u);
}

TEST_F(ShardedTest, UpdatesRouteByKeyAndReplayAfterCrash) {
  std::map<std::string, std::string> expected;
  {
    auto db = *OpenEnsemble(4);
    for (int i = 0; i < 40; ++i) {
      std::string key = "k" + std::to_string(i);
      std::string value = "v" + std::to_string(i);
      ASSERT_TRUE(
          db->UpdateKey(key, apps_[db->ShardForKey(key)]->PreparePut(key, value)).ok());
      expected[key] = value;
      // The home shard (and only it) saw the apply.
      EXPECT_EQ(apps_[db->ShardForKey(key)]->state[key], value);
    }
    EXPECT_EQ(db->stats().updates, 40u);
    EXPECT_EQ(MergedState(), expected);
  }
  CrashAndRecoverFs();
  auto db = *OpenEnsemble(4);
  EXPECT_EQ(MergedState(), expected);
  EXPECT_EQ(db->stats().replayed_entries, 40u);
  // Replay landed each entry on its home shard.
  for (const auto& [key, value] : expected) {
    EXPECT_EQ(apps_[db->ShardForKey(key)]->state[key], value);
  }
}

TEST_F(ShardedTest, OutOfRangeShardRejected) {
  auto db = *OpenEnsemble(2);
  EXPECT_TRUE(db->Update(7, apps_[0]->PreparePut("x", "y")).Is(ErrorCode::kInvalidArgument));
  EXPECT_TRUE(db->Enquire(7, [] { return OkStatus(); }).Is(ErrorCode::kInvalidArgument));
}

TEST_F(ShardedTest, ShardCountMismatchRejected) {
  { auto db = *OpenEnsemble(4); }
  auto reopened = OpenEnsemble(2);
  EXPECT_FALSE(reopened.ok());
}

TEST_F(ShardedTest, PerShardCheckpointSkipsCoveredEntries) {
  {
    auto db = *OpenEnsemble(2);
    std::size_t p0 = db->ShardForKey("early");
    ASSERT_TRUE(db->UpdateKey("early", apps_[p0]->PreparePut("early", "x")).ok());
    ASSERT_TRUE(db->Checkpoint(p0).ok());
    std::size_t p1 = db->ShardForKey("late");
    ASSERT_TRUE(db->UpdateKey("late", apps_[p1]->PreparePut("late", "y")).ok());
  }
  CrashAndRecoverFs();
  auto db = *OpenEnsemble(2);
  EXPECT_EQ(MergedState()["early"], "x");
  EXPECT_EQ(MergedState()["late"], "y");
  // "early" was covered by its shard's checkpoint; only entries past each shard's
  // replay_from offset replayed.
  EXPECT_GE(db->stats().replay_skipped_entries, 1u);
  EXPECT_LE(db->stats().replayed_entries, 1u);
}

// Found by the sharded sim-fuzz sweep (seed 175, mixed schedule): a failed
// covering fsync leaves the in-memory log size ahead of the durable log end, and
// a checkpoint taken then records replay_from = the in-memory size. After a
// crash the log rewinds to its durable end; a NEW acknowledged entry appended
// into the reclaimed region must not be skipped as "checkpoint-covered" by the
// stale manifest claim — recovery clamps replay_from to the recovered log size.
TEST_F(ShardedTest, ReplayFromClampedToDurableLogEndAfterCrash) {
  {
    auto db = *OpenEnsemble(2);
    ASSERT_TRUE(db->UpdateKey("a", apps_[db->ShardForKey("a")]->PreparePut("a", "1")).ok());

    // Fail the next durable op (the log flush of "b"'s covering fsync): the entry
    // stays in the log writer's cache, the durable end stays put, the update is
    // never acknowledged.
    bool fired = false;
    env_->disk().SetFaultInjector([&fired](const DurableOp& op) {
      if (!fired && op.kind == DurableOp::Kind::kPageWrite) {
        fired = true;
        return FaultAction::kTransientError;
      }
      return FaultAction::kNone;
    });
    EXPECT_FALSE(db->UpdateKey("b", apps_[db->ShardForKey("b")]->PreparePut("b", "2")).ok());
    env_->disk().SetFaultInjector(nullptr);
    ASSERT_TRUE(fired);

    // Both checkpoints now record replay_from = the in-memory log size, which
    // includes the dead unacknowledged entry beyond the durable end.
    ASSERT_TRUE(db->Checkpoint(0).ok());
    ASSERT_TRUE(db->Checkpoint(1).ok());
  }
  CrashAndRecoverFs();
  {
    // Reopen: the log rewound to its durable end. The new acknowledged update
    // lands exactly in the region the stale manifest claimed was covered.
    auto db = *OpenEnsemble(2);
    EXPECT_EQ(MergedState()["a"], "1");
    EXPECT_EQ(MergedState().count("b"), 0u);
    ASSERT_TRUE(db->UpdateKey("c", apps_[db->ShardForKey("c")]->PreparePut("c", "3")).ok());
  }
  CrashAndRecoverFs();
  auto db = *OpenEnsemble(2);
  EXPECT_EQ(MergedState()["a"], "1");
  EXPECT_EQ(MergedState()["c"], "3");  // the acked update survived the crash
}

TEST_F(ShardedTest, RotationRequiresEveryShardCurrent) {
  auto db = *OpenEnsemble(3);
  for (std::size_t p = 0; p < 3; ++p) {
    ASSERT_TRUE(db->Update(p, apps_[p]->PreparePut("k" + std::to_string(p), "v")).ok());
  }
  EXPECT_EQ(db->log_generation(), 1u);
  EXPECT_FALSE(*db->MaybeRotateLog());  // no shard has checkpointed

  ASSERT_TRUE(db->Checkpoint(0).ok());
  ASSERT_TRUE(db->Checkpoint(1).ok());
  EXPECT_FALSE(*db->MaybeRotateLog());  // shard 2 still behind
  // Reclamation is gated by the SLOWEST shard: shard 2 still replays from offset 0.
  EXPECT_EQ(db->reclaimable_log_bytes(), 0u);

  ASSERT_TRUE(db->Checkpoint(2).ok());
  EXPECT_EQ(db->reclaimable_log_bytes(), db->log_bytes());
  EXPECT_TRUE(*db->MaybeRotateLog());
  EXPECT_EQ(db->log_generation(), 2u);
  EXPECT_EQ(db->log_bytes(), 0u);
  EXPECT_EQ(db->stats().log_rotations, 1u);

  // The ensemble keeps accepting updates on the fresh generation.
  ASSERT_TRUE(db->Update(0, apps_[0]->PreparePut("post", "rotate")).ok());
}

TEST_F(ShardedTest, RestartAfterRotationReplaysOnlyFreshLog) {
  std::map<std::string, std::string> expected;
  {
    auto db = *OpenEnsemble(2);
    for (int i = 0; i < 10; ++i) {
      std::string key = "a" + std::to_string(i);
      ASSERT_TRUE(
          db->UpdateKey(key, apps_[db->ShardForKey(key)]->PreparePut(key, "old")).ok());
      expected[key] = "old";
    }
    ASSERT_TRUE(db->CheckpointAll().ok());
    ASSERT_TRUE(*db->MaybeRotateLog());
    ASSERT_TRUE(db->UpdateKey("fresh", apps_[db->ShardForKey("fresh")]->PreparePut(
                                           "fresh", "entry")).ok());
    expected["fresh"] = "entry";
  }
  CrashAndRecoverFs();
  auto db = *OpenEnsemble(2);
  EXPECT_EQ(MergedState(), expected);
  EXPECT_EQ(db->log_generation(), 2u);
  EXPECT_EQ(db->stats().replayed_entries, 1u);  // just "fresh"
}

TEST_F(ShardedTest, CheckpointAllCoversEveryShardAtRestart) {
  std::map<std::string, std::string> expected;
  {
    auto db = *OpenEnsemble(4);
    for (int i = 0; i < 32; ++i) {
      std::string key = "k" + std::to_string(i);
      ASSERT_TRUE(
          db->UpdateKey(key, apps_[db->ShardForKey(key)]->PreparePut(key, "v")).ok());
      expected[key] = "v";
    }
    ASSERT_TRUE(db->CheckpointAll().ok());
    EXPECT_EQ(db->stats().checkpoints, 4u);
  }
  CrashAndRecoverFs();
  auto db = *OpenEnsemble(4);
  EXPECT_EQ(MergedState(), expected);
  EXPECT_EQ(db->stats().replayed_entries, 0u);
  EXPECT_EQ(db->stats().replay_skipped_entries, 32u);
}

TEST_F(ShardedTest, SequentialRecoveryMatchesParallelRecovery) {
  std::map<std::string, std::string> expected;
  {
    auto db = *OpenEnsemble(4);
    for (int i = 0; i < 20; ++i) {
      std::string key = "k" + std::to_string(i);
      ASSERT_TRUE(
          db->UpdateKey(key, apps_[db->ShardForKey(key)]->PreparePut(key, "v")).ok());
      expected[key] = "v";
    }
    ASSERT_TRUE(db->Checkpoint(1).ok());
  }
  CrashAndRecoverFs();
  ShardedOptions sequential = Options();
  sequential.recovery_threads = 1;
  auto db = *OpenEnsemble(4, std::move(sequential));
  EXPECT_EQ(MergedState(), expected);
}

TEST_F(ShardedTest, EnquireAllSeesEveryShard) {
  auto db = *OpenEnsemble(3);
  for (std::size_t p = 0; p < 3; ++p) {
    ASSERT_TRUE(db->Update(p, apps_[p]->PreparePut("k" + std::to_string(p), "v")).ok());
  }
  std::size_t seen = 0;
  ASSERT_TRUE(db->EnquireAll([&] {
                  for (const auto& app : apps_) {
                    seen += app->state.size();
                  }
                  return OkStatus();
                }).ok());
  EXPECT_EQ(seen, 3u);
  // EnquireAll holds every shard's shared lock; each shard counts the read it served.
  EXPECT_EQ(db->stats().enquiries, 3u);
}

TEST_F(ShardedTest, FsyncAccountingMatchesCoalescer) {
  auto db = *OpenEnsemble(4);
  for (int i = 0; i < 24; ++i) {
    std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(
        db->UpdateKey(key, apps_[db->ShardForKey(key)]->PreparePut(key, "v")).ok());
  }
  // Satellite 1's invariant: with SyncRecords() accounting, the per-shard sum equals
  // the coalescer's covering-fsync count exactly — no double counting.
  std::uint64_t shard_sum = 0;
  for (std::size_t p = 0; p < db->shard_count(); ++p) {
    shard_sum += db->shard_commit_stats(p).syncs;
  }
  const auto coalescer = db->coalescer_stats();
  EXPECT_EQ(shard_sum, coalescer.covering_fsyncs);
  EXPECT_EQ(db->stats().covering_fsyncs, coalescer.covering_fsyncs);
  EXPECT_EQ(coalescer.batches_appended, 24u);
  EXPECT_LE(coalescer.covering_fsyncs, 24u);
}

TEST_F(ShardedTest, MetricsRollUpReportsShardAndAggregate) {
  auto db = *OpenEnsemble(2);
  ASSERT_TRUE(db->Update(0, apps_[0]->PreparePut("a", "1")).ok());
  ASSERT_TRUE(db->Update(1, apps_[1]->PreparePut("b", "2")).ok());
  ASSERT_TRUE(db->Checkpoint(0).ok());
  db->RollUpMetrics();

  const obs::Gauge* updates = db->metrics().FindGauge("db.updates");
  ASSERT_NE(updates, nullptr);
  EXPECT_EQ(updates->value(), 2);
  const obs::Gauge* shard0 = db->metrics().FindGauge("shard.0.updates");
  const obs::Gauge* shard1 = db->metrics().FindGauge("shard.1.updates");
  ASSERT_NE(shard0, nullptr);
  ASSERT_NE(shard1, nullptr);
  EXPECT_EQ(shard0->value() + shard1->value(), 2);
  const obs::Gauge* ppm = db->metrics().FindGauge("commit.fsyncs_per_update_ppm");
  ASSERT_NE(ppm, nullptr);
  EXPECT_GT(ppm->value(), 0);
  EXPECT_LE(ppm->value(), 1000000);  // serial writers: at most 1 fsync per update

  std::string json = db->MetricsReportJson();
  EXPECT_NE(json.find("shard.1.updates"), std::string::npos);
  EXPECT_NE(json.find("commit.fsyncs_per_update_ppm"), std::string::npos);
}

// Named *Concurrent* so the TSan CI filter exercises it.
TEST_F(ShardedTest, ShardedConcurrentWritersAcrossShards) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  auto db = *OpenEnsemble(4);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string key = "t" + std::to_string(t) + "-k" + std::to_string(i);
        std::size_t p = db->ShardForKey(key);
        TestApp* app = apps_[p].get();
        if (!db->UpdateKey(key, [app, key]() -> Result<Bytes> {
                 testing::TestRecord record{key, key + "-value"};
                 return PickleWrite(record);
               }).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);

  const ShardedStats stats = db->stats();
  EXPECT_EQ(stats.updates, static_cast<std::uint64_t>(kThreads * kPerThread));
  // Coalescing across shards: never more fsyncs than updates, and the accounting
  // identity holds under concurrency too.
  EXPECT_LE(stats.covering_fsyncs, stats.updates);
  std::uint64_t shard_sum = 0;
  for (std::size_t p = 0; p < db->shard_count(); ++p) {
    shard_sum += db->shard_commit_stats(p).syncs;
  }
  EXPECT_EQ(shard_sum, db->coalescer_stats().covering_fsyncs);

  std::map<std::string, std::string> merged = MergedState();
  EXPECT_EQ(merged.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (const auto& [key, value] : merged) {
    EXPECT_EQ(value, key + "-value");
  }
}

// Writers race CheckpointAll and rotation; everything must replay consistently.
TEST_F(ShardedTest, ShardedConcurrentCheckpointsRotationsAndUpdates) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 30;
  {
    auto db = *OpenEnsemble(4);
    std::atomic<int> failures{0};
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          std::string key = "w" + std::to_string(t) + "-" + std::to_string(i);
          std::size_t p = db->ShardForKey(key);
          TestApp* app = apps_[p].get();
          if (!db->UpdateKey(key, [app, key]() -> Result<Bytes> {
                   testing::TestRecord record{key, "v"};
                   return PickleWrite(record);
                 }).ok()) {
            failures.fetch_add(1);
          }
        }
      });
    }
    std::thread maintenance([&] {
      for (int round = 0; round < 3; ++round) {
        ASSERT_TRUE(db->CheckpointAll().ok());
        ASSERT_TRUE(db->MaybeRotateLog().ok());  // may or may not rotate
      }
    });
    for (auto& writer : writers) {
      writer.join();
    }
    maintenance.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(MergedState().size(), static_cast<std::size_t>(kThreads * kPerThread));
  }
  CrashAndRecoverFs();
  auto db = *OpenEnsemble(4);
  std::map<std::string, std::string> merged = MergedState();
  EXPECT_EQ(merged.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      EXPECT_EQ(merged["w" + std::to_string(t) + "-" + std::to_string(i)], "v");
    }
  }
}

TEST_F(ShardedTest, AutoRotationAfterThreshold) {
  ShardedOptions options = Options();
  options.rotate_log_bytes = 1;  // any checkpoint may rotate once all are current
  auto db = *OpenEnsemble(2, std::move(options));
  ASSERT_TRUE(db->Update(0, apps_[0]->PreparePut("a", "1")).ok());
  ASSERT_TRUE(db->Update(1, apps_[1]->PreparePut("b", "2")).ok());
  ASSERT_TRUE(db->Checkpoint(0).ok());
  EXPECT_EQ(db->log_generation(), 1u);  // shard 1 not yet current
  ASSERT_TRUE(db->Checkpoint(1).ok());
  EXPECT_EQ(db->log_generation(), 2u);  // rotation piggybacked on the checkpoint
}

// SharedLogTest: Section 7's single-shared-log variant as the paper states it --
// the caller names partition p on every Update(p)/Checkpoint(p), and the log may
// be rotated only once every partition's checkpoint is current to its end. These
// cases drive ShardedDatabase's explicit-shard API, which is that variant.
class SharedLogTest : public ShardedTest {};

TEST_F(SharedLogTest, UpdatesRouteToTheirPartitions) {
  auto db = *OpenEnsemble(3);
  ASSERT_TRUE(db->Update(0, apps_[0]->PreparePut("a", "p0")).ok());
  ASSERT_TRUE(db->Update(2, apps_[2]->PreparePut("c", "p2")).ok());
  EXPECT_EQ(apps_[0]->state["a"], "p0");
  EXPECT_TRUE(apps_[1]->state.empty());
  EXPECT_EQ(apps_[2]->state["c"], "p2");
  EXPECT_TRUE(db->Update(9, apps_[0]->PreparePut("x", "y")).Is(ErrorCode::kInvalidArgument));
}

TEST_F(SharedLogTest, RestartReplaysSharedLogPerPartition) {
  {
    auto db = *OpenEnsemble(2);
    ASSERT_TRUE(db->Update(0, apps_[0]->PreparePut("zero", "0")).ok());
    ASSERT_TRUE(db->Update(1, apps_[1]->PreparePut("one", "1")).ok());
    ASSERT_TRUE(db->Update(0, apps_[0]->PreparePut("zero", "0b")).ok());
  }
  CrashAndRecoverFs();
  auto db = *OpenEnsemble(2);
  EXPECT_EQ(apps_[0]->state["zero"], "0b");
  EXPECT_EQ(apps_[1]->state["one"], "1");
  EXPECT_EQ(db->stats().replayed_entries, 3u);
}

TEST_F(SharedLogTest, CheckpointSkipsCoveredEntriesAtRestart) {
  {
    auto db = *OpenEnsemble(2);
    ASSERT_TRUE(db->Update(0, apps_[0]->PreparePut("early", "x")).ok());
    ASSERT_TRUE(db->Update(1, apps_[1]->PreparePut("other", "y")).ok());
    ASSERT_TRUE(db->Checkpoint(0).ok());  // partition 0 is now current to the log end
    ASSERT_TRUE(db->Update(0, apps_[0]->PreparePut("late", "z")).ok());
  }
  CrashAndRecoverFs();
  auto db = *OpenEnsemble(2);
  EXPECT_EQ(apps_[0]->state.size(), 2u);
  EXPECT_EQ(apps_[1]->state.size(), 1u);
  ShardedStats stats = db->stats();
  // Partition 0 replays only "late"; its "early" entry is covered by the checkpoint.
  // Partition 1 (never checkpointed) replays its one entry.
  EXPECT_EQ(stats.replayed_entries, 2u);
  EXPECT_EQ(stats.replay_skipped_entries, 1u);
}

TEST_F(SharedLogTest, RotationRequiresEveryPartitionCurrent) {
  auto db = *OpenEnsemble(2);
  ASSERT_TRUE(db->Update(0, apps_[0]->PreparePut("a", "1")).ok());
  ASSERT_TRUE(db->Update(1, apps_[1]->PreparePut("b", "2")).ok());

  // Only partition 0 checkpoints: the flushing rule forbids rotation.
  ASSERT_TRUE(db->Checkpoint(0).ok());
  EXPECT_FALSE(*db->MaybeRotateLog());
  EXPECT_EQ(db->log_generation(), 1u);
  EXPECT_GT(db->log_bytes(), 0u);

  // Partition 1 catches up: rotation allowed, log reset, old log deleted.
  ASSERT_TRUE(db->Checkpoint(1).ok());
  EXPECT_TRUE(*db->MaybeRotateLog());
  EXPECT_EQ(db->log_generation(), 2u);
  EXPECT_EQ(db->log_bytes(), 0u);
  EXPECT_FALSE(*env_->fs().Exists("ensemble/logfile1"));
}

TEST_F(SharedLogTest, AutoRotationAfterThreshold) {
  ShardedOptions options = Options();
  options.rotate_log_bytes = 1;  // rotate at the first opportunity
  auto db = *OpenEnsemble(2, std::move(options));
  ASSERT_TRUE(db->Update(0, apps_[0]->PreparePut("a", "1")).ok());
  ASSERT_TRUE(db->Update(1, apps_[1]->PreparePut("b", "2")).ok());
  ASSERT_TRUE(db->Checkpoint(0).ok());  // rule not satisfied: no rotation
  EXPECT_EQ(db->log_generation(), 1u);
  ASSERT_TRUE(db->Checkpoint(1).ok());  // now both current: auto-rotation fires
  EXPECT_EQ(db->log_generation(), 2u);
  EXPECT_EQ(db->stats().log_rotations, 1u);
}

TEST_F(SharedLogTest, RestartAfterRotation) {
  {
    auto db = *OpenEnsemble(2);
    ASSERT_TRUE(db->Update(0, apps_[0]->PreparePut("pre", "rotation")).ok());
    ASSERT_TRUE(db->Checkpoint(0).ok());
    ASSERT_TRUE(db->Checkpoint(1).ok());
    ASSERT_TRUE(*db->MaybeRotateLog());
    ASSERT_TRUE(db->Update(1, apps_[1]->PreparePut("post", "rotation")).ok());
  }
  CrashAndRecoverFs();
  auto db = *OpenEnsemble(2);
  EXPECT_EQ(apps_[0]->state["pre"], "rotation");
  EXPECT_EQ(apps_[1]->state["post"], "rotation");
  EXPECT_EQ(db->log_generation(), 2u);
}

TEST_F(SharedLogTest, PartitionCountMismatchRejected) {
  { auto db = *OpenEnsemble(2); }
  auto wrong = OpenEnsemble(3);
  EXPECT_TRUE(wrong.status().Is(ErrorCode::kInvalidArgument));
}

TEST_F(SharedLogTest, ConcurrentUpdatesAcrossPartitionsAreSerializable) {
  // Four threads hammer four partitions through the one shared log; afterwards every
  // partition holds exactly its own writes, and a restart reproduces the same state.
  constexpr std::size_t kPartitions = 4;
  constexpr int kUpdatesPerThread = 100;
  {
    auto db = *OpenEnsemble(kPartitions);
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (std::size_t p = 0; p < kPartitions; ++p) {
      threads.emplace_back([&, p] {
        for (int i = 0; i < kUpdatesPerThread; ++i) {
          Status status = db->Update(
              p, apps_[p]->PreparePut("t" + std::to_string(i),
                                      "p" + std::to_string(p) + "-" + std::to_string(i)));
          if (!status.ok()) {
            failures.fetch_add(1);
          }
        }
      });
    }
    for (auto& thread : threads) {
      thread.join();
    }
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(db->stats().updates, kPartitions * kUpdatesPerThread);
    for (std::size_t p = 0; p < kPartitions; ++p) {
      EXPECT_EQ(apps_[p]->state.size(), static_cast<std::size_t>(kUpdatesPerThread));
      EXPECT_EQ(apps_[p]->state["t42"], "p" + std::to_string(p) + "-42");
    }
  }
  CrashAndRecoverFs();
  auto db = *OpenEnsemble(kPartitions);
  for (std::size_t p = 0; p < kPartitions; ++p) {
    EXPECT_EQ(apps_[p]->state.size(), static_cast<std::size_t>(kUpdatesPerThread));
  }
}

TEST_F(SharedLogTest, ConcurrentCheckpointsAndUpdates) {
  // One thread checkpoints partitions round-robin while others update: checkpoints of
  // partition p stall only p's updates, never the other partitions'.
  constexpr std::size_t kPartitions = 3;
  auto db = *OpenEnsemble(kPartitions);
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  for (std::size_t p = 0; p < kPartitions; ++p) {
    writers.emplace_back([&, p] {
      int i = 0;
      while (!stop.load()) {
        if (!db->Update(p, apps_[p]->PreparePut("k" + std::to_string(i++ % 50), "v"))
                 .ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (int round = 0; round < 12; ++round) {
    if (!db->Checkpoint(static_cast<std::size_t>(round) % kPartitions).ok()) {
      failures.fetch_add(1);
    }
  }
  stop = true;
  for (auto& thread : writers) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(db->stats().checkpoints, 12u);
}

// Checkpoints, rotation attempts and updates all race: the flushing rule decides
// each rotation under the manifest mutex with the coalescer frozen, so whatever
// interleaving occurs, acknowledged updates survive a crash and partitions
// stay disjoint. Named *Concurrent* so the TSan CI filter exercises it.
TEST_F(SharedLogTest, ConcurrentCheckpointsRacingRotation) {
  constexpr std::size_t kPartitions = 3;
  constexpr int kPerPartition = 60;
  std::vector<std::map<std::string, std::string>> models(kPartitions);
  {
    auto db = *OpenEnsemble(kPartitions);
    std::atomic<int> failures{0};
    std::vector<std::thread> writers;
    for (std::size_t p = 0; p < kPartitions; ++p) {
      writers.emplace_back([&, p] {
        for (int i = 0; i < kPerPartition; ++i) {
          if (!db->Update(p, apps_[p]->PreparePut("k" + std::to_string(i), "v")).ok()) {
            failures.fetch_add(1);
          }
        }
      });
    }
    std::thread checkpointer([&] {
      for (int round = 0; round < 9; ++round) {
        if (!db->Checkpoint(static_cast<std::size_t>(round) % kPartitions).ok()) {
          failures.fetch_add(1);
        }
      }
    });
    std::thread rotator([&] {
      for (int attempt = 0; attempt < 20; ++attempt) {
        if (!db->MaybeRotateLog().ok()) {  // false (rule says no) is fine; errors not
          failures.fetch_add(1);
        }
      }
    });
    for (auto& writer : writers) {
      writer.join();
    }
    checkpointer.join();
    rotator.join();
    ASSERT_EQ(failures.load(), 0);
    for (std::size_t p = 0; p < kPartitions; ++p) {
      models[p] = apps_[p]->state;
      EXPECT_EQ(models[p].size(), static_cast<std::size_t>(kPerPartition));
    }
    // Quiesced: every partition checkpoints, then rotation must be permitted.
    for (std::size_t p = 0; p < kPartitions; ++p) {
      ASSERT_TRUE(db->Checkpoint(p).ok());
    }
    ASSERT_TRUE(*db->MaybeRotateLog());
  }
  CrashAndRecoverFs();
  auto db = *OpenEnsemble(kPartitions);
  for (std::size_t p = 0; p < kPartitions; ++p) {
    EXPECT_EQ(apps_[p]->state, models[p]) << "partition " << p;
  }
}

TEST_F(ShardedTest, ReclaimableBytesTrackSlowestShard) {
  auto db = *OpenEnsemble(2);
  ASSERT_TRUE(db->Update(0, apps_[0]->PreparePut("a", "1")).ok());
  ASSERT_TRUE(db->Update(1, apps_[1]->PreparePut("b", "2")).ok());
  EXPECT_EQ(db->reclaimable_log_bytes(), 0u);  // nobody checkpointed
  ASSERT_TRUE(db->Checkpoint(1).ok());
  // Shard 0's replay-from is still 0: nothing reclaimable yet.
  EXPECT_EQ(db->reclaimable_log_bytes(), 0u);
  ASSERT_TRUE(db->Checkpoint(0).ok());
  EXPECT_EQ(db->reclaimable_log_bytes(), db->log_bytes());
}

TEST_F(ShardedTest, UncommittedSharedLogEntryVanishes) {
  {
    auto db = *OpenEnsemble(2);
    ASSERT_TRUE(db->Update(0, apps_[0]->PreparePut("durable", "yes")).ok());
    CrashPlan plan(env_->disk().next_durable_op_sequence(), FaultAction::kCrashTorn);
    env_->disk().SetFaultInjector(plan.AsInjector());
    EXPECT_FALSE(db->Update(1, apps_[1]->PreparePut("lost", "no")).ok());
    env_->disk().SetFaultInjector(nullptr);
  }
  CrashAndRecoverFs();
  auto db = *OpenEnsemble(2);
  EXPECT_EQ(apps_[0]->state["durable"], "yes");
  EXPECT_EQ(apps_[1]->state.count("lost"), 0u);
}

TEST_F(ShardedTest, CrashBetweenCheckpointAndManifestRollsBack) {
  {
    auto db = *OpenEnsemble(2);
    ASSERT_TRUE(db->Update(0, apps_[0]->PreparePut("k", "v")).ok());
    // Crash during the checkpoint's durable steps (before the manifest rename lands).
    CrashPlan plan(env_->disk().next_durable_op_sequence() + 1, FaultAction::kCrashBefore);
    env_->disk().SetFaultInjector(plan.AsInjector());
    EXPECT_FALSE(db->Checkpoint(0).ok());
    env_->disk().SetFaultInjector(nullptr);
  }
  CrashAndRecoverFs();
  auto db = OpenEnsemble(2);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(apps_[0]->state["k"], "v");  // replayed from the shared log as before
  EXPECT_EQ((*db)->stats().replayed_entries, 1u);
}

TEST_F(ShardedTest, ManyInterleavedUpdatesAcrossShards) {
  constexpr std::size_t kShards = 4;
  std::vector<std::map<std::string, std::string>> models(kShards);
  {
    auto db = *OpenEnsemble(kShards);
    Rng rng(99);
    for (int i = 0; i < 200; ++i) {
      std::size_t p = rng.NextBelow(kShards);
      std::string key = "k" + std::to_string(rng.NextBelow(10));
      std::string value = rng.NextString(20);
      ASSERT_TRUE(db->Update(p, apps_[p]->PreparePut(key, value)).ok());
      models[p][key] = value;
      if (i % 37 == 0) {
        ASSERT_TRUE(db->Checkpoint(rng.NextBelow(kShards)).ok());
      }
    }
  }
  CrashAndRecoverFs();
  auto db = *OpenEnsemble(kShards);
  for (std::size_t p = 0; p < kShards; ++p) {
    EXPECT_EQ(apps_[p]->state, models[p]) << "shard " << p;
  }
}

// Crash tests below run the ensemble in a fresh SimEnv per crash point, with
// sequential recovery so the durable-op ordinals are deterministic.
Result<std::unique_ptr<ShardedDatabase>> OpenTwoShards(
    SimEnv& env, std::vector<std::unique_ptr<TestApp>>& apps) {
  apps.clear();
  std::vector<Application*> raw;
  for (int i = 0; i < 2; ++i) {
    apps.push_back(std::make_unique<TestApp>());
    raw.push_back(apps.back().get());
  }
  ShardedOptions options;
  options.vfs = &env.fs();
  options.dir = "ensemble";
  options.clock = &env.clock();
  options.recovery_threads = 1;
  return ShardedDatabase::Open(raw, std::move(options));
}

SimEnvOptions CrashEnvOptions() {
  SimEnvOptions options;
  options.microvax_cost_model = false;
  return options;
}

// Targeted sweep over rotation's commit window: every durable op from the fresh
// log's creation through the manifest rename to the old log's deletion. A crash
// between the manifest commit and the old-log delete must leave a recoverable
// directory where reopen adopts the new generation and sweeps the stray file.
TEST_F(ShardedTest, CrashBetweenRotationCommitAndOldLogDeleteRecovers) {
  struct Script {
    // Durable-op ordinals bracketing MaybeRotateLog in a fault-free run.
    std::uint64_t before_rotation = 0;
    std::uint64_t after_rotation = 0;
  };
  auto run_script = [](SimEnv& env, std::vector<std::unique_ptr<TestApp>>& apps,
                       Script* script) -> bool {
    auto db_or = OpenTwoShards(env, apps);
    if (!db_or.ok()) {
      return false;
    }
    auto db = std::move(*db_or);
    if (!db->Update(0, apps[0]->PreparePut("a", "1")).ok() ||
        !db->Update(1, apps[1]->PreparePut("b", "2")).ok()) {
      return false;
    }
    if (!db->Checkpoint(0).ok() || !db->Checkpoint(1).ok()) {
      return false;
    }
    if (script != nullptr) {
      script->before_rotation = env.disk().next_durable_op_sequence();
    }
    auto rotated = db->MaybeRotateLog();
    if (!rotated.ok() || !*rotated) {
      return false;
    }
    if (script != nullptr) {
      script->after_rotation = env.disk().next_durable_op_sequence();
    }
    return true;
  };

  Script script;
  {
    SimEnv dry(CrashEnvOptions());
    std::vector<std::unique_ptr<TestApp>> apps;
    ASSERT_TRUE(run_script(dry, apps, &script));
    ASSERT_GT(script.after_rotation, script.before_rotation);
  }

  for (std::uint64_t crash_at = script.before_rotation;
       crash_at < script.after_rotation; ++crash_at) {
    SCOPED_TRACE("crash at rotation durable op " + std::to_string(crash_at));
    SimEnv env(CrashEnvOptions());
    CrashPlan plan(crash_at, FaultAction::kCrashAfter);
    env.disk().SetFaultInjector(plan.AsInjector());
    std::vector<std::unique_ptr<TestApp>> apps;
    run_script(env, apps, nullptr);
    env.disk().SetFaultInjector(nullptr);
    env.fs().Crash();
    ASSERT_TRUE(env.fs().Recover().ok());

    std::vector<std::unique_ptr<TestApp>> recovered;
    auto db = OpenTwoShards(env, recovered);
    ASSERT_TRUE(db.ok()) << "reopen failed: " << db.status();
    // Checkpointed data survives whichever side of the commit the crash landed on.
    EXPECT_EQ(recovered[0]->state["a"], "1");
    EXPECT_EQ(recovered[1]->state["b"], "2");
    // Exactly one log file remains: reopen swept whichever generation lost. In
    // particular a crash after the manifest rename but before the old log's delete
    // leaves both files on disk, and the stale generation-1 file must go.
    std::uint64_t generation = (*db)->log_generation();
    auto old_exists = env.fs().Exists("ensemble/logfile1");
    auto new_exists = env.fs().Exists("ensemble/logfile" + std::to_string(generation));
    ASSERT_TRUE(old_exists.ok());
    ASSERT_TRUE(new_exists.ok());
    EXPECT_TRUE(*new_exists);
    if (generation > 1) {
      EXPECT_FALSE(*old_exists) << "stale pre-rotation log not swept";
    }
    // And the ensemble keeps accepting updates and can rotate again.
    ASSERT_TRUE((*db)->Update(0, recovered[0]->PreparePut("post", "crash")).ok());
    ASSERT_TRUE((*db)->Checkpoint(0).ok());
    ASSERT_TRUE((*db)->Checkpoint(1).ok());
    ASSERT_TRUE((*db)->MaybeRotateLog().ok());
  }
}

// Exhaustive crash sweep over the ensemble protocol, including its extra crash
// windows: per-shard checkpoint commit (the manifest rename) and log rotation.
class ShardedCrashSweep : public ::testing::TestWithParam<int> {
 protected:
  struct Outcome {
    // (shard, key) pairs acknowledged / failed.
    std::vector<std::pair<std::size_t, std::string>> acked;
    std::vector<std::pair<std::size_t, std::string>> failed;
    std::uint64_t total_ops = 0;
  };

  static Outcome RunScript(SimEnv& env, std::vector<std::unique_ptr<TestApp>>& apps) {
    Outcome outcome;
    auto db_or = OpenTwoShards(env, apps);
    if (!db_or.ok()) {
      return outcome;
    }
    auto db = std::move(*db_or);

    auto update = [&](std::size_t p, const std::string& key) {
      Status status = db->Update(p, apps[p]->PreparePut(key, "value-" + key));
      (status.ok() ? outcome.acked : outcome.failed).emplace_back(p, key);
      return status.ok();
    };

    if (!update(0, "a0") || !update(1, "b0") || !update(0, "a1")) {
      return outcome;
    }
    if (!db->Checkpoint(0).ok() || !db->Checkpoint(1).ok()) {
      return outcome;
    }
    if (!db->MaybeRotateLog().ok()) {
      return outcome;
    }
    if (!update(1, "b1") || !update(0, "a2")) {
      return outcome;
    }
    outcome.total_ops = env.disk().next_durable_op_sequence() - 1;
    return outcome;
  }

  static std::uint64_t DryRunOps() {
    SimEnv dry(CrashEnvOptions());
    std::vector<std::unique_ptr<TestApp>> apps;
    Outcome outcome = RunScript(dry, apps);
    EXPECT_EQ(outcome.acked.size(), 5u);
    return outcome.total_ops;
  }
};

TEST_P(ShardedCrashSweep, InvariantsHoldAtEveryCrashPoint) {
  FaultAction action = static_cast<FaultAction>(GetParam());

  const std::uint64_t total_ops = DryRunOps();
  ASSERT_GT(total_ops, 10u);
  ASSERT_EQ(DryRunOps(), total_ops);  // the script's durable ops are deterministic

  for (std::uint64_t crash_at = 1; crash_at <= total_ops; ++crash_at) {
    SCOPED_TRACE("crash at durable op " + std::to_string(crash_at));
    SimEnv env(CrashEnvOptions());
    CrashPlan plan(crash_at, action);
    env.disk().SetFaultInjector(plan.AsInjector());
    std::vector<std::unique_ptr<TestApp>> apps;
    Outcome outcome = RunScript(env, apps);
    env.disk().SetFaultInjector(nullptr);
    ASSERT_TRUE(plan.fired());
    env.fs().Crash();
    ASSERT_TRUE(env.fs().Recover().ok());

    std::vector<std::unique_ptr<TestApp>> recovered;
    auto db = OpenTwoShards(env, recovered);
    ASSERT_TRUE(db.ok()) << "ensemble recovery failed at op " << crash_at << ": "
                         << db.status();

    for (const auto& [p, key] : outcome.acked) {
      const auto& state = recovered[p]->state;
      ASSERT_EQ(state.count(key), 1u)
          << "acked update p" << p << "/" << key << " lost at crash op " << crash_at;
      EXPECT_EQ(state.at(key), "value-" + key);
    }
    for (const auto& [p, key] : outcome.failed) {
      const auto& state = recovered[p]->state;
      if (state.count(key) != 0) {
        EXPECT_EQ(state.at(key), "value-" + key);  // fully applied or fully absent
      }
    }
    // And the ensemble keeps working.
    ASSERT_TRUE((*db)->Update(0, recovered[0]->PreparePut("post", "crash")).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(AllFaultFlavours, ShardedCrashSweep,
                         ::testing::Values(static_cast<int>(FaultAction::kCrashBefore),
                                           static_cast<int>(FaultAction::kCrashTorn),
                                           static_cast<int>(FaultAction::kCrashAfter)));

// --- ShardedNameServer ---

class ShardedNameServerTest : public ::testing::Test {
 protected:
  ShardedNameServerTest() {
    SimEnvOptions options;
    options.microvax_cost_model = false;
    env_ = std::make_unique<SimEnv>(options);
  }

  ns::ShardedNameServerOptions Options(std::size_t shards = 4) {
    ns::ShardedNameServerOptions options;
    options.db.vfs = &env_->fs();
    options.db.dir = "names";
    options.db.clock = &env_->clock();
    options.shards = shards;
    return options;
  }

  std::unique_ptr<SimEnv> env_;
};

TEST_F(ShardedNameServerTest, SubtreesStayWholeWithinAShard) {
  auto server = *ns::ShardedNameServer::Open(Options());
  ASSERT_TRUE(server->Set("alpha/leaf", "1").ok());
  ASSERT_TRUE(server->Set("alpha/deep/leaf", "2").ok());
  ASSERT_TRUE(server->Set("beta", "3").ok());
  // Everything under "alpha" routes with "alpha".
  EXPECT_EQ(*server->ShardForPath("alpha"), *server->ShardForPath("alpha/leaf"));
  EXPECT_EQ(*server->ShardForPath("alpha"), *server->ShardForPath("alpha/deep/leaf"));
  EXPECT_EQ(*server->Lookup("alpha/leaf"), "1");
  EXPECT_EQ(*server->Lookup("alpha/deep/leaf"), "2");
  EXPECT_EQ(*server->Lookup("beta"), "3");
  EXPECT_TRUE(server->Lookup("gamma").status().Is(ErrorCode::kNotFound));
}

TEST_F(ShardedNameServerTest, RootListAndExportMergeAcrossShards) {
  auto server = *ns::ShardedNameServer::Open(Options());
  const std::vector<std::string> names = {"zeta", "alpha", "mu", "beta", "omega"};
  for (const auto& name : names) {
    ASSERT_TRUE(server->Set(name, name + "-v").ok());
    ASSERT_TRUE(server->Set(name + "/child", name + "-c").ok());
  }
  // Names spread across shards (with 5 top-level names and 4 shards, at least two
  // shards are populated) yet List("") comes back globally sorted.
  std::vector<std::string> labels = *server->List("");
  EXPECT_EQ(labels, (std::vector<std::string>{"alpha", "beta", "mu", "omega", "zeta"}));

  std::vector<std::pair<std::string, std::string>> all = *server->Export("");
  ASSERT_EQ(all.size(), 10u);
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1].first, all[i].first);  // global name order
  }
  // Subtree export stays single-shard and still works.
  auto subtree = *server->Export("alpha");
  ASSERT_EQ(subtree.size(), 2u);
  EXPECT_EQ(subtree[0].first, "alpha");
}

TEST_F(ShardedNameServerTest, RemoveAndCompareAndSetPreconditions) {
  auto server = *ns::ShardedNameServer::Open(Options());
  ASSERT_TRUE(server->Set("node", "v1").ok());
  EXPECT_TRUE(server->Remove("missing").Is(ErrorCode::kFailedPrecondition));
  EXPECT_TRUE(
      server->CompareAndSet("node", "wrong", "v2").Is(ErrorCode::kFailedPrecondition));
  EXPECT_EQ(*server->Lookup("node"), "v1");
  ASSERT_TRUE(server->CompareAndSet("node", "v1", "v2").ok());
  EXPECT_EQ(*server->Lookup("node"), "v2");
  ASSERT_TRUE(server->Remove("node").ok());
  EXPECT_TRUE(server->Lookup("node").status().Is(ErrorCode::kNotFound));
  EXPECT_TRUE(server->Set("", "x").Is(ErrorCode::kInvalidArgument));
}

TEST_F(ShardedNameServerTest, ReopenRestartsLamportAboveAppliedStamps) {
  {
    auto server = *ns::ShardedNameServer::Open(Options());
    // Drive the lamport clock well past 1 so a naive reopen (restarting at 0) would
    // stamp below the applied watermark and lose last-writer-wins.
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(server->Set("contended", "old-" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(server->CheckpointAll().ok());
  }
  env_->fs().Crash();
  ASSERT_TRUE(env_->fs().Recover().ok());
  auto server = *ns::ShardedNameServer::Open(Options());
  EXPECT_EQ(*server->Lookup("contended"), "old-7");
  ASSERT_TRUE(server->Set("contended", "new").ok());
  EXPECT_EQ(*server->Lookup("contended"), "new");  // fails if lamport restarted low
}

TEST_F(ShardedNameServerTest, ShardCountMismatchRejected) {
  { auto server = *ns::ShardedNameServer::Open(Options(4)); }
  auto reopened = ns::ShardedNameServer::Open(Options(2));
  EXPECT_FALSE(reopened.ok());
}

}  // namespace
}  // namespace sdb
