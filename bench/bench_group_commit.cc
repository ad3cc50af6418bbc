// Experiment: automatic cross-thread group commit (paper Section 5).
//
// "If an update rate faster than [~15 updates/s] were needed, the implementation
// could be speeded up considerably, most obviously by ... arranging to record
// multiple commit records in a single log entry." This bench drives K concurrent
// updaters through the engine twice — once with the commit pipeline's default batch
// cap and once capped at one record per batch (the paper's one fsync per update) —
// and reports fsyncs/update and updates/s on both backends:
//
//   - SimFs: the simulated MicroVAX-era disk; elapsed is simulated time, so the win
//     is the charged seek/transfer cost of the syncs themselves. A small wall-clock
//     dilation of each fsync stands in for device latency so threads interleave the
//     way they would against real hardware.
//   - PosixFs: the host file system; elapsed is wall-clock and the fsyncs are real.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench/bench_common.h"
#include "src/storage/posix_fs.h"

namespace sdb::bench {
namespace {

// Full run: 240 updates (divisible by every thread count) across {1..16} threads.
// Quick mode shrinks both so CI can smoke the bench in seconds.
int TotalUpdates() { return QuickMode() ? 64 : 240; }
std::vector<int> ThreadCounts() {
  return QuickMode() ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8, 16};
}

// Wraps a Vfs so every File::Sync also takes ~`delay` of wall time. SimDisk charges
// simulated time but returns instantly in wall time, which would leave concurrent
// updaters no window to pile onto a batch; this restores the device-latency window
// without touching the simulated cost accounting.
class WallDelaySyncFile final : public File {
 public:
  WallDelaySyncFile(std::unique_ptr<File> inner, std::chrono::microseconds delay)
      : inner_(std::move(inner)), delay_(delay) {}

  Result<Bytes> ReadAt(std::uint64_t offset, std::size_t length) override {
    return inner_->ReadAt(offset, length);
  }
  Status Append(ByteSpan data) override { return inner_->Append(data); }
  Status WriteAt(std::uint64_t offset, ByteSpan data) override {
    return inner_->WriteAt(offset, data);
  }
  Status Truncate(std::uint64_t new_size) override { return inner_->Truncate(new_size); }
  Status Sync() override {
    std::this_thread::sleep_for(delay_);
    return inner_->Sync();
  }
  Result<std::uint64_t> Size() override { return inner_->Size(); }
  Status Close() override { return inner_->Close(); }

 private:
  std::unique_ptr<File> inner_;
  std::chrono::microseconds delay_;
};

class WallDelaySyncFs final : public Vfs {
 public:
  WallDelaySyncFs(Vfs& inner, std::chrono::microseconds delay)
      : inner_(inner), delay_(delay) {}

  Result<std::unique_ptr<File>> Open(std::string_view path, OpenMode mode) override {
    SDB_ASSIGN_OR_RETURN(std::unique_ptr<File> file, inner_.Open(path, mode));
    return std::unique_ptr<File>(new WallDelaySyncFile(std::move(file), delay_));
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
  std::chrono::microseconds delay_;
};

struct RunResult {
  double elapsed_micros = 0;  // simulated (SimFs) or wall (PosixFs)
  std::uint64_t updates = 0;
  std::uint64_t fsyncs = 0;
  double records_per_sync = 0;
  std::string metrics_json;  // the database's registry dump at end of run
};

// The two configurations compared: one record per batch, then the default cap.
const std::size_t kBatchCaps[2] = {1, GroupCommitOptions{}.max_batch_records};

// Drives `threads` workers, TotalUpdates() updates in total, against a database in
// `dir` on `vfs` whose batches carry at most `max_batch_records` records. Returns
// the fsyncs attributable to update commits.
RunResult RunWorkload(Vfs& vfs, Clock& clock, const std::string& dir, int threads,
                      std::size_t max_batch_records) {
  BenchKvApp app;
  DatabaseOptions options;
  options.vfs = &vfs;
  options.dir = dir;
  options.clock = &clock;
  options.group_commit.max_batch_records = max_batch_records;

  auto db_or = Database::Open(app, options);
  if (!db_or.ok()) {
    std::fprintf(stderr, "open failed: %s\n", db_or.status().ToString().c_str());
    std::abort();
  }
  std::unique_ptr<Database> db = std::move(*db_or);

  RunResult result;
  int per_thread = TotalUpdates() / threads;
  Micros sim_start = clock.NowMicros();
  auto wall_start = std::chrono::steady_clock::now();

  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < per_thread; ++i) {
        std::string key = "t" + std::to_string(t) + "-k" + std::to_string(i);
        Status status = db->Update(app.PreparePut(key, "value-" + key));
        if (!status.ok()) {
          std::fprintf(stderr, "update failed: %s\n", status.ToString().c_str());
          std::abort();
        }
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }

  Micros sim_elapsed = clock.NowMicros() - sim_start;
  double wall_elapsed = static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());
  // SimClock stands still under PosixFs (nothing charges it); fall back to wall.
  result.elapsed_micros = sim_elapsed > 0 ? static_cast<double>(sim_elapsed) : wall_elapsed;

  DatabaseStats stats = db->stats();
  result.metrics_json = db->MetricsReportJson();
  result.updates = stats.updates;
  result.fsyncs = stats.group_commit.syncs;
  result.records_per_sync = stats.group_commit.records_per_sync();
  return result;
}

void AddRows(Table& table, const char* backend, int threads, const RunResult& baseline,
             const RunResult& pipeline) {
  double baseline_rate =
      static_cast<double>(baseline.updates) / (baseline.elapsed_micros / 1e6);
  double pipeline_rate =
      static_cast<double>(pipeline.updates) / (pipeline.elapsed_micros / 1e6);
  table.AddRow({backend, Count(threads), "1 record/batch", Count(baseline.updates),
                Count(baseline.fsyncs),
                Num(static_cast<double>(baseline.fsyncs) / baseline.updates),
                Num(baseline_rate), Num(1.0, "x")});
  table.AddRow({backend, Count(threads), "pipeline", Count(pipeline.updates),
                Count(pipeline.fsyncs),
                Num(static_cast<double>(pipeline.fsyncs) / pipeline.updates),
                Num(pipeline_rate), Num(pipeline_rate / baseline_rate, "x")});
}

void RunSimBackend(Table& table, std::string* pipeline_metrics_json) {
  for (int threads : ThreadCounts()) {
    RunResult results[2];
    for (int i = 0; i < 2; ++i) {
      SimEnvOptions env_options;
      SimEnv env(env_options);
      WallDelaySyncFs fs(env.fs(), std::chrono::microseconds(300));
      results[i] = RunWorkload(fs, env.clock(), "db", threads, kBatchCaps[i]);
    }
    AddRows(table, "SimFs", threads, results[0], results[1]);
    // Keep the highest-concurrency pipeline dump: the one with real batching.
    *pipeline_metrics_json = results[1].metrics_json;
  }
}

void RunPosixBackend(Table& table) {
  namespace fsys = std::filesystem;
  fsys::path root = fsys::current_path() / "bench_group_commit_tmp";
  std::error_code ec;
  fsys::remove_all(root, ec);
  fsys::create_directories(root);

  WallClock wall;
  int run = 0;
  for (int threads : ThreadCounts()) {
    RunResult results[2];
    for (int i = 0; i < 2; ++i) {
      std::string dir = "run" + std::to_string(run++);
      PosixFs fs(root.string());
      results[i] = RunWorkload(fs, wall, dir, threads, kBatchCaps[i]);
    }
    AddRows(table, "PosixFs", threads, results[0], results[1]);
  }
  fsys::remove_all(root, ec);
}

void Run() {
  Banner("Group commit: K concurrent updaters, coalesced commits vs one fsync each",
         "\"arranging to record multiple commit records in a single log entry\" "
         "(Section 5) lifts the ~15 updates/s ceiling");

  Table table({"backend", "threads", "mode", "updates", "fsyncs", "fsyncs/update",
               "updates/s", "speedup"});
  std::string pipeline_metrics_json;
  RunSimBackend(table, &pipeline_metrics_json);
  RunPosixBackend(table);
  table.Print();

  std::printf(
      "\nSimFs rows: elapsed is simulated time (the charged cost of the disk ops); "
      "PosixFs rows: wall-clock with real fsyncs.\n");

  std::string json = "{\"bench\":\"group_commit\",\"quick\":";
  json += QuickMode() ? "true" : "false";
  json += ",\"metrics\":" + pipeline_metrics_json + "}";
  MaybeWriteBenchJson("group_commit", json);
}

}  // namespace
}  // namespace sdb::bench

int main() {
  sdb::bench::Run();
  return 0;
}
