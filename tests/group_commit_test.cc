// Tests for the cross-thread group-commit pipeline (src/core/group_commit.h):
//   - concurrent Update() callers coalesce onto shared fsyncs, and every
//     acknowledged update survives a reopen;
//   - applies happen in log order (live order == replay order);
//   - enquiries are never blocked while a commit batch is on the disk;
//   - an apply failure poisons every waiter of the batch, and ReplaceState heals;
//   - checkpoints interleave safely with concurrent writers;
//   - max_batch_records = 1 (the paper's serial discipline) does one fsync per update,
//     even under concurrent updaters, and still commits an oversized UpdateBatch whole;
//   - concurrent NameServer Sets mint gap-free replication sequence numbers even when
//     their prepares share one batch.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/nameserver/name_server.h"
#include "src/storage/sim_env.h"
#include "tests/test_app.h"

namespace sdb {
namespace {

using ::sdb::testing::TestApp;
using ::sdb::testing::TestRecord;

// A delegating Vfs that runs a caller-supplied hook at the top of every File::Sync.
// Used to dilate the commit fsync (so concurrent updaters pile up and coalesce) and
// to probe what the engine allows while a sync is in flight.
class SyncHookFile final : public File {
 public:
  SyncHookFile(std::unique_ptr<File> inner, const std::function<void()>* hook)
      : inner_(std::move(inner)), hook_(hook) {}

  Result<Bytes> ReadAt(std::uint64_t offset, std::size_t length) override {
    return inner_->ReadAt(offset, length);
  }
  Status Append(ByteSpan data) override { return inner_->Append(data); }
  Status WriteAt(std::uint64_t offset, ByteSpan data) override {
    return inner_->WriteAt(offset, data);
  }
  Status Truncate(std::uint64_t new_size) override { return inner_->Truncate(new_size); }
  Status Sync() override {
    (*hook_)();
    return inner_->Sync();
  }
  Result<std::uint64_t> Size() override { return inner_->Size(); }
  Status Close() override { return inner_->Close(); }

 private:
  std::unique_ptr<File> inner_;
  const std::function<void()>* hook_;
};

class SyncHookFs final : public Vfs {
 public:
  explicit SyncHookFs(Vfs& inner) : inner_(inner) {}

  void set_hook(std::function<void()> hook) { hook_ = std::move(hook); }

  Result<std::unique_ptr<File>> Open(std::string_view path, OpenMode mode) override {
    SDB_ASSIGN_OR_RETURN(std::unique_ptr<File> file, inner_.Open(path, mode));
    return std::unique_ptr<File>(new SyncHookFile(std::move(file), &hook_));
  }
  Status Delete(std::string_view path) override { return inner_.Delete(path); }
  Status Rename(std::string_view from, std::string_view to) override {
    return inner_.Rename(from, to);
  }
  Result<bool> Exists(std::string_view path) override { return inner_.Exists(path); }
  Result<std::vector<std::string>> List(std::string_view dir) override {
    return inner_.List(dir);
  }
  Status CreateDir(std::string_view path) override { return inner_.CreateDir(path); }
  Status SyncDir(std::string_view dir) override { return inner_.SyncDir(dir); }

 private:
  Vfs& inner_;
  std::function<void()> hook_ = [] {};
};

DatabaseOptions BaseOptions(SimEnv& env, Vfs& vfs) {
  DatabaseOptions options;
  options.vfs = &vfs;
  options.dir = "db";
  options.clock = &env.clock();
  return options;
}

SimEnv MakeEnv() {
  SimEnvOptions env_options;
  env_options.microvax_cost_model = false;
  return SimEnv(env_options);
}

TEST(GroupCommitTest, ConcurrentUpdatesCoalesceAndSurviveReopen) {
  SimEnv env = MakeEnv();
  SyncHookFs fs(env.fs());
  std::atomic<bool> armed{false};
  fs.set_hook([&armed] {
    if (armed.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  TestApp app;
  {
    auto db_or = Database::Open(app, BaseOptions(env, fs));
    ASSERT_TRUE(db_or.ok()) << db_or.status();
    std::unique_ptr<Database> db = std::move(*db_or);
    armed.store(true);

    std::vector<std::thread> writers;
    std::atomic<int> failures{0};
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          std::string key = "t" + std::to_string(t) + "-k" + std::to_string(i);
          if (!db->Update(app.PreparePut(key, "v-" + key)).ok()) {
            failures.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& w : writers) {
      w.join();
    }
    armed.store(false);
    ASSERT_EQ(failures.load(), 0);

    DatabaseStats stats = db->stats();
    EXPECT_EQ(stats.updates, static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(stats.group_commit.records_committed,
              static_cast<std::uint64_t>(kThreads * kPerThread));
    // The whole point: fewer fsyncs than records. With 8 updaters against a dilated
    // fsync, batches of one would require a total absence of overlap.
    EXPECT_LT(stats.group_commit.syncs, stats.group_commit.records_committed);
    EXPECT_GT(stats.group_commit.sync_waits, 0u);
    EXPECT_GT(stats.group_commit.records_per_sync(), 1.0);
    EXPECT_EQ(app.state.size(), static_cast<std::size_t>(kThreads * kPerThread));
  }

  // Every acknowledged update survives a reopen (replayed from the log).
  TestApp recovered;
  auto db_or = Database::Open(recovered, BaseOptions(env, env.fs()));
  ASSERT_TRUE(db_or.ok()) << db_or.status();
  ASSERT_EQ(recovered.state.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      std::string key = "t" + std::to_string(t) + "-k" + std::to_string(i);
      ASSERT_EQ(recovered.state.count(key), 1u) << key;
      EXPECT_EQ(recovered.state[key], "v-" + key);
    }
  }
}

// Records the key of every applied update, both live and during replay.
class OrderRecorderApp final : public Application {
 public:
  Status ResetState() override {
    order.clear();
    return OkStatus();
  }
  Result<Bytes> SerializeState() override {
    PickleWriter writer;
    writer.Write(order);
    return std::move(writer).FinishEnvelope("OrderRecorderApp.state");
  }
  Status DeserializeState(ByteSpan data) override {
    SDB_ASSIGN_OR_RETURN(PickleReader reader,
                         PickleReader::FromEnvelope(data, "OrderRecorderApp.state"));
    return reader.Read(order);
  }
  Status ApplyUpdate(ByteSpan record) override {
    SDB_ASSIGN_OR_RETURN(TestRecord update, PickleRead<TestRecord>(record));
    order.push_back(update.key);
    return OkStatus();
  }

  std::vector<std::string> order;
};

TEST(GroupCommitTest, AppliesFollowLogOrder) {
  SimEnv env = MakeEnv();
  SyncHookFs fs(env.fs());
  std::atomic<bool> armed{false};
  fs.set_hook([&armed] {
    if (armed.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  OrderRecorderApp app;
  {
    auto db_or = Database::Open(app, BaseOptions(env, fs));
    ASSERT_TRUE(db_or.ok()) << db_or.status();
    std::unique_ptr<Database> db = std::move(*db_or);
    armed.store(true);

    std::vector<std::thread> writers;
    for (int t = 0; t < 6; ++t) {
      writers.emplace_back([&, t] {
        for (int i = 0; i < 20; ++i) {
          std::string key = "t" + std::to_string(t) + "-k" + std::to_string(i);
          ASSERT_TRUE(db->Update([key]() -> Result<Bytes> {
                          return PickleWrite(TestRecord{key, "x"});
                        }).ok());
        }
      });
    }
    for (std::thread& w : writers) {
      w.join();
    }
    armed.store(false);
  }

  // The order the live engine applied updates in must equal the order the log
  // replays them in — the definition of "applies happen in log order".
  OrderRecorderApp replayed;
  auto db_or = Database::Open(replayed, BaseOptions(env, env.fs()));
  ASSERT_TRUE(db_or.ok()) << db_or.status();
  EXPECT_EQ(replayed.order, app.order);
}

TEST(GroupCommitTest, EnquiriesRunDuringCommitSync) {
  SimEnv env = MakeEnv();
  SyncHookFs fs(env.fs());

  TestApp app;
  auto db_or = Database::Open(app, BaseOptions(env, fs));
  ASSERT_TRUE(db_or.ok()) << db_or.status();
  std::unique_ptr<Database> db = std::move(*db_or);

  // Once armed, the commit fsync parks until an enquiry has completed (or a
  // deadline passes, failing the test): proof that a batch on the disk excludes
  // no readers — the paper's "never exclude enquiry operations during disk
  // transfers", now with no lock held at all during the sync.
  std::mutex mu;
  std::condition_variable cv;
  bool in_sync = false;
  bool enquiry_done = false;
  bool enquiry_ran_during_sync = false;
  std::atomic<bool> armed{false};
  fs.set_hook([&] {
    if (!armed.load()) {
      return;
    }
    std::unique_lock<std::mutex> lock(mu);
    in_sync = true;
    cv.notify_all();
    enquiry_ran_during_sync = cv.wait_for(lock, std::chrono::seconds(5),
                                          [&] { return enquiry_done; });
    in_sync = false;
  });

  ASSERT_TRUE(db->Update(app.PreparePut("before", "sync")).ok());
  armed.store(true);

  std::thread writer([&] {
    EXPECT_TRUE(db->Update(app.PreparePut("during", "sync")).ok());
  });

  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] { return in_sync; }));
  }
  std::string seen;
  ASSERT_TRUE(db->Enquire([&app, &seen] {
                  seen = app.state.at("before");
                  return OkStatus();
                }).ok());
  {
    std::lock_guard<std::mutex> lock(mu);
    enquiry_done = true;
  }
  cv.notify_all();
  writer.join();
  armed.store(false);

  EXPECT_EQ(seen, "sync");
  EXPECT_TRUE(enquiry_ran_during_sync);
}

TEST(GroupCommitTest, ApplyFailurePoisonsAndReplaceStateHeals) {
  SimEnv env = MakeEnv();
  TestApp app;
  auto db_or = Database::Open(app, BaseOptions(env, env.fs()));
  ASSERT_TRUE(db_or.ok()) << db_or.status();
  std::unique_ptr<Database> db = std::move(*db_or);

  ASSERT_TRUE(db->Update(app.PreparePut("ok", "1")).ok());

  app.fail_next_apply = true;
  Status poisoned = db->Update(app.PreparePut("bad", "2"));
  EXPECT_TRUE(poisoned.Is(ErrorCode::kInternal)) << poisoned;

  // Every subsequent operation fails closed until the state is replaced.
  EXPECT_TRUE(db->Update(app.PreparePut("after", "3")).Is(ErrorCode::kInternal));
  EXPECT_TRUE(db->Enquire([] { return OkStatus(); }).Is(ErrorCode::kInternal));
  EXPECT_TRUE(db->Checkpoint().Is(ErrorCode::kInternal));

  TestApp healthy;
  healthy.state["healed"] = "yes";
  auto snapshot = healthy.SerializeState();
  ASSERT_TRUE(snapshot.ok());
  ASSERT_TRUE(db->ReplaceState(AsSpan(*snapshot)).ok());

  ASSERT_TRUE(db->Update(app.PreparePut("after-heal", "4")).ok());
  EXPECT_EQ(app.state.at("healed"), "yes");
  EXPECT_EQ(app.state.at("after-heal"), "4");
}

TEST(GroupCommitTest, CheckpointsInterleaveWithConcurrentWriters) {
  SimEnv env = MakeEnv();
  SyncHookFs fs(env.fs());
  std::atomic<bool> armed{false};
  fs.set_hook([&armed] {
    if (armed.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  constexpr int kThreads = 4;
  constexpr int kPerThread = 20;
  TestApp app;
  {
    auto db_or = Database::Open(app, BaseOptions(env, fs));
    ASSERT_TRUE(db_or.ok()) << db_or.status();
    std::unique_ptr<Database> db = std::move(*db_or);
    armed.store(true);

    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          std::string key = "t" + std::to_string(t) + "-k" + std::to_string(i);
          ASSERT_TRUE(db->Update(app.PreparePut(key, "v-" + key)).ok());
        }
      });
    }
    std::thread checkpointer([&] {
      for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(db->Checkpoint().ok());
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
    for (std::thread& w : writers) {
      w.join();
    }
    checkpointer.join();
    armed.store(false);
    EXPECT_EQ(app.state.size(), static_cast<std::size_t>(kThreads * kPerThread));
  }

  // No acknowledged update may be orphaned by a log switch: everything survives.
  TestApp recovered;
  auto db_or = Database::Open(recovered, BaseOptions(env, env.fs()));
  ASSERT_TRUE(db_or.ok()) << db_or.status();
  EXPECT_EQ(recovered.state.size(), static_cast<std::size_t>(kThreads * kPerThread));
}

TEST(GroupCommitTest, SerialPathDoesOneFsyncPerUpdate) {
  // One record per batch: every update pays its own log commit.
  SimEnv env = MakeEnv();
  TestApp app;
  DatabaseOptions options = BaseOptions(env, env.fs());
  options.group_commit.max_batch_records = 1;

  auto db_or = Database::Open(app, options);
  ASSERT_TRUE(db_or.ok()) << db_or.status();
  std::unique_ptr<Database> db = std::move(*db_or);

  ASSERT_TRUE(db->Update(app.PreparePut("a", "1")).ok());
  ASSERT_TRUE(db->Update(app.PreparePut("b", "2")).ok());

  DatabaseStats stats = db->stats();
  EXPECT_EQ(stats.updates, 2u);
  EXPECT_EQ(stats.group_commit.syncs, db->log_writer_stats().commits);
  EXPECT_EQ(db->log_writer_stats().commits, 2u);
  EXPECT_EQ(db->log_writer_stats().entries_appended, 2u);
  EXPECT_EQ(stats.group_commit.max_records_per_sync, 1u);
}

TEST(GroupCommitTest, UpdateManySharesOneFsyncWithIndependentOutcomes) {
  // The transport-side ingest hook: one UpdateMany call carries N independent
  // updates (decoded requests from many sockets) into the pipeline, where one seal
  // catches them all — so the whole batch costs about one fsync, and a precondition
  // failure drops only its own update.
  SimEnv env = MakeEnv();
  TestApp app;
  auto db_or = Database::Open(app, BaseOptions(env, env.fs()));
  ASSERT_TRUE(db_or.ok()) << db_or.status();
  std::unique_ptr<Database> db = std::move(*db_or);

  ASSERT_TRUE(db->Update(app.PreparePut("taken", "old")).ok());
  const std::uint64_t syncs_before = db->stats().group_commit.syncs;

  std::vector<std::function<Result<Bytes>()>> prepares;
  for (int i = 0; i < 16; ++i) {
    prepares.push_back(app.PreparePut("k" + std::to_string(i), "v" + std::to_string(i)));
  }
  prepares.push_back(app.PreparePut("taken", "new", /*require_absent=*/true));
  std::vector<Status> outcomes = db->UpdateMany(prepares);

  ASSERT_EQ(outcomes.size(), prepares.size());
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(outcomes[static_cast<std::size_t>(i)].ok()) << i;
  }
  EXPECT_TRUE(outcomes.back().Is(ErrorCode::kFailedPrecondition)) << outcomes.back();
  EXPECT_EQ(app.state.at("taken"), "old");  // the failed update did not apply
  EXPECT_EQ(app.state.size(), 17u);

  // 16 committed records on (nearly) one fsync: the single-threaded caller enqueued
  // them under one lock acquisition, so one seal caught them all.
  DatabaseStats stats = db->stats();
  EXPECT_EQ(stats.group_commit.records_committed, 17u);
  EXPECT_LE(stats.group_commit.syncs - syncs_before, 2u);

  // Every acknowledged update (and no unacknowledged one) survives a reopen.
  db.reset();
  TestApp recovered;
  auto reopened = Database::Open(recovered, BaseOptions(env, env.fs()));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(recovered.state, app.state);
}

TEST(GroupCommitTest, UpdateManySerialFallbackKeepsOutcomesIndependent) {
  // With one record per batch, UpdateMany degrades to one commit per update —
  // outcomes stay independent, just without the shared fsync.
  SimEnv env = MakeEnv();
  TestApp app;
  DatabaseOptions options = BaseOptions(env, env.fs());
  options.group_commit.max_batch_records = 1;
  auto db_or = Database::Open(app, options);
  ASSERT_TRUE(db_or.ok()) << db_or.status();
  std::unique_ptr<Database> db = std::move(*db_or);

  ASSERT_TRUE(db->Update(app.PreparePut("taken", "old")).ok());
  std::vector<Status> outcomes = db->UpdateMany(
      {app.PreparePut("a", "1"),
       app.PreparePut("taken", "clobber", /*require_absent=*/true),
       app.PreparePut("b", "2")});
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].ok());
  EXPECT_TRUE(outcomes[1].Is(ErrorCode::kFailedPrecondition));
  EXPECT_TRUE(outcomes[2].ok());
  EXPECT_EQ(app.state.at("taken"), "old");
  EXPECT_EQ(db->log_writer_stats().commits, 3u);  // one per successful update
  EXPECT_EQ(db->stats().group_commit.syncs, 3u);
  EXPECT_EQ(db->stats().group_commit.records_committed, 3u);
}

TEST(GroupCommitTest, OneRecordPerBatchUnderConcurrencyAndOversizedBatchCommitsWhole) {
  // max_batch_records = 1 behind a dilated fsync: updaters pile up in the queue, yet
  // every seal takes exactly one record, so fsyncs == records. A request larger than
  // the cap still goes whole (the first request of a seal always fits).
  SimEnv env = MakeEnv();
  SyncHookFs fs(env.fs());
  std::atomic<bool> armed{false};
  fs.set_hook([&armed] {
    if (armed.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  DatabaseOptions options = BaseOptions(env, fs);
  options.group_commit.max_batch_records = 1;

  constexpr int kThreads = 6;
  constexpr int kPerThread = 10;
  TestApp app;
  auto db_or = Database::Open(app, options);
  ASSERT_TRUE(db_or.ok()) << db_or.status();
  std::unique_ptr<Database> db = std::move(*db_or);
  armed.store(true);

  std::vector<std::thread> writers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string key = "t" + std::to_string(t) + "-k" + std::to_string(i);
        if (!db->Update(app.PreparePut(key, "v-" + key)).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& w : writers) {
    w.join();
  }
  ASSERT_EQ(failures.load(), 0);

  constexpr std::uint64_t kRecords = kThreads * kPerThread;
  GroupCommitStats stats = db->stats().group_commit;
  EXPECT_EQ(stats.syncs, kRecords);
  EXPECT_EQ(stats.records_committed, kRecords);
  EXPECT_EQ(stats.max_records_per_sync, 1u);
  EXPECT_GT(stats.sync_waits, 0u);  // the queue did build up behind the dilated fsync
  EXPECT_EQ(db->log_writer_stats().commits, kRecords);

  ASSERT_TRUE(db->UpdateBatch({app.PreparePut("x", "1"), app.PreparePut("y", "2"),
                               app.PreparePut("z", "3")})
                  .ok());
  armed.store(false);
  stats = db->stats().group_commit;
  EXPECT_EQ(stats.syncs, kRecords + 1);  // three records, one fsync
  EXPECT_EQ(stats.records_committed, kRecords + 3);
  EXPECT_EQ(stats.max_records_per_sync, 3u);
  EXPECT_EQ(app.state.size(), static_cast<std::size_t>(kRecords + 3));

  db.reset();
  TestApp recovered;
  auto reopened = Database::Open(recovered, BaseOptions(env, env.fs()));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(recovered.state, app.state);
}

TEST(GroupCommitTest, ConcurrentUpdateManyCallersCoalesceAcrossBatches) {
  // Several transport threads, each carrying its own ingest batch, still coalesce
  // onto shared fsyncs — the many-sockets-one-fsync claim, engine side.
  SimEnv env = MakeEnv();
  SyncHookFs fs(env.fs());
  std::atomic<bool> armed{false};
  fs.set_hook([&armed] {
    if (armed.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  constexpr int kThreads = 4;
  constexpr int kPerThread = 24;
  TestApp app;
  auto db_or = Database::Open(app, BaseOptions(env, fs));
  ASSERT_TRUE(db_or.ok()) << db_or.status();
  std::unique_ptr<Database> db = std::move(*db_or);
  armed.store(true);

  std::vector<std::thread> carriers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    carriers.emplace_back([&, t] {
      std::vector<std::function<Result<Bytes>()>> prepares;
      for (int i = 0; i < kPerThread; ++i) {
        std::string key = "t" + std::to_string(t) + "-k" + std::to_string(i);
        prepares.push_back(app.PreparePut(key, "v-" + key));
      }
      for (const Status& status : db->UpdateMany(prepares)) {
        if (!status.ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& carrier : carriers) {
    carrier.join();
  }
  armed.store(false);
  ASSERT_EQ(failures.load(), 0);

  DatabaseStats stats = db->stats();
  EXPECT_EQ(stats.group_commit.records_committed,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_LT(stats.group_commit.syncs, stats.group_commit.records_committed);
  EXPECT_GT(stats.group_commit.records_per_sync(), 1.0);
  EXPECT_EQ(app.state.size(), static_cast<std::size_t>(kThreads * kPerThread));
}

TEST(GroupCommitTest, ConcurrentNameServerSetsMintGapFreeSequences) {
  SimEnv env = MakeEnv();
  SyncHookFs fs(env.fs());
  std::atomic<bool> armed{false};
  fs.set_hook([&armed] {
    if (armed.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  constexpr int kThreads = 6;
  constexpr int kPerThread = 20;
  constexpr std::uint64_t kTotal = kThreads * kPerThread;

  ns::NameServerOptions options;
  options.db.vfs = &fs;
  options.db.dir = "ns";
  options.db.clock = &env.clock();
  options.replica_id = "replica-1";

  {
    auto server_or = ns::NameServer::Open(options);
    ASSERT_TRUE(server_or.ok()) << server_or.status();
    std::unique_ptr<ns::NameServer> server = std::move(*server_or);
    armed.store(true);

    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          std::string path = "t" + std::to_string(t) + "/k" + std::to_string(i);
          ASSERT_TRUE(server->Set(path, "v" + std::to_string(i)).ok());
        }
      });
    }
    for (std::thread& w : writers) {
      w.join();
    }
    armed.store(false);

    // Sequence numbers must be exactly 1..kTotal with no duplicates and no gaps,
    // even though many prepares shared a commit batch and thus could not see each
    // other's version-vector advances (the reservation overlay covers them).
    ns::VersionVector vv = server->version_vector();
    EXPECT_EQ(vv["replica-1"], kTotal);
    auto updates_or = server->UpdatesSince({});
    ASSERT_TRUE(updates_or.ok()) << updates_or.status();
    ASSERT_EQ(updates_or->size(), kTotal);
    std::set<std::uint64_t> sequences;
    std::set<std::uint64_t> lamports;
    for (const ns::NameServerUpdate& update : *updates_or) {
      EXPECT_EQ(update.origin, "replica-1");
      sequences.insert(update.sequence);
      lamports.insert(update.lamport);
    }
    EXPECT_EQ(sequences.size(), kTotal);
    EXPECT_EQ(*sequences.begin(), 1u);
    EXPECT_EQ(*sequences.rbegin(), kTotal);
    EXPECT_EQ(lamports.size(), kTotal);  // lamport is strictly increasing locally

    DatabaseStats stats = server->database().stats();
    EXPECT_LT(stats.group_commit.syncs, stats.group_commit.records_committed);
  }

  // The replication bookkeeping recovers intact from the log.
  options.db.vfs = &env.fs();
  auto reopened_or = ns::NameServer::Open(options);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status();
  std::unique_ptr<ns::NameServer> reopened = std::move(*reopened_or);
  EXPECT_EQ(reopened->version_vector()["replica-1"], kTotal);
  auto value = reopened->Lookup("t0/k0");
  ASSERT_TRUE(value.ok()) << value.status();
  EXPECT_EQ(*value, "v0");
}

}  // namespace
}  // namespace sdb
