// E4 — Restart time vs log length, plus the parallel-recovery core-scaling curve.
//
// Paper (Section 5): "Restart takes about 20 seconds to read the checkpoint, plus
// about 20 msecs per log entry", and "a log containing 10,000 updates would cause the
// restart time to be about 5 minutes".
//
// The second section measures ISSUE 8's tentpole: multi-core log replay. A CPU-bound
// application replays the same log at recovery_threads = 1, 2, 4, ... N
// (N = min(8, hardware cores)) on wall clock; every recovered state must be
// byte-identical to the serial baseline, and `--enforce` additionally fails the run
// unless replay at N threads reaches half the speedup that a pure-CPU burn probe at
// N threads shows in the same process (N/2 when the host delivers all N cores). It
// SKIPs when the probe shows under 2x: the host is not granting the cores.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>

#include "bench/bench_common.h"

namespace sdb::bench {
namespace {

void Run() {
  Banner("E4: restart time vs log length (1 MB checkpoint)",
         "20 s checkpoint read + ~20 ms per log entry; 10,000 entries => ~5 min");

  Table table({"log entries", "disk read + unpickle (sim)", "log replay CPU (sim)",
               "total restart (sim)", "replay per entry (sim)", "paper"});

  for (int entries : {0, 100, 1000, 10000}) {
    NameServerFixture fixture = BuildNameServer(1 << 20);
    // Checkpoint so the log starts empty, then accumulate exactly `entries` updates.
    if (!fixture.server->Checkpoint().ok()) {
      return;
    }
    Rng rng(11);
    for (int i = 0; i < entries; ++i) {
      Status status =
          fixture.server->Set("org/dept" + std::to_string(i % 40) + "/restart" +
                                  std::to_string(i),
                              rng.NextString(300));
      if (!status.ok()) {
        std::fprintf(stderr, "update failed: %s\n", status.ToString().c_str());
        return;
      }
    }

    // Power failure; the next open is a cold restart. The disk reads happen during
    // the remount (the cache is cold), so the stopwatch covers remount + open.
    fixture.server.reset();
    fixture.env->fs().Crash();
    Micros start = fixture.env->clock().NowMicros();
    if (!fixture.env->fs().Recover().ok()) {
      return;
    }

    ns::NameServerOptions options;
    options.db.vfs = &fixture.env->fs();
    options.db.dir = "ns";
    options.db.clock = &fixture.env->clock();
    options.cost = &fixture.env->cost_model();
    options.replica_id = "bench";
    auto reopened = ns::NameServer::Open(options);
    if (!reopened.ok()) {
      std::fprintf(stderr, "reopen failed: %s\n", reopened.status().ToString().c_str());
      return;
    }
    Micros total = fixture.env->clock().NowMicros() - start;
    RestartBreakdown restart = (*reopened)->database().stats().restart;
    double replay = static_cast<double>(restart.replay_micros);
    double checkpoint_read = static_cast<double>(total) - replay;

    std::string paper = "-";
    if (entries == 0) {
      paper = "~20 s";
    } else if (entries == 10000) {
      paper = "~5 min";
    }
    table.AddRow({Count(entries), Secs(checkpoint_read), Secs(replay),
                  Secs(static_cast<double>(total)),
                  entries > 0 ? Ms(replay / entries) : "-", paper});
  }
  table.Print();
}

// --- core scaling ---

// Deterministic CPU cost per applied entry, standing in for real unpickle +
// index-maintenance work; FNV over the value so the loop cannot be hoisted.
std::uint64_t BurnCpu(std::string_view value, int rounds) {
  std::uint64_t h = 14695981039346656037ull;
  for (int r = 0; r < rounds; ++r) {
    for (char c : value) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  }
  return h;
}

constexpr int kBurnRounds = 300;

// A key-value Application whose apply is CPU-bound (the BurnCpu loop) and which
// supports batched replay, so the replay pipeline — not the disk — dominates
// restart time and the thread count is the variable under test.
class CpuReplayApp final : public Application {
 public:
  class Batch final : public ReplayBatch {
   public:
    Status Apply(ByteSpan record) override {
      SDB_ASSIGN_OR_RETURN(BenchKvRecord update, PickleRead<BenchKvRecord>(record));
      checksum ^= BurnCpu(update.value, kBurnRounds);
      effects.insert_or_assign(std::move(update.key), std::move(update.value));
      return OkStatus();
    }
    std::map<std::string, std::string> effects;
    std::uint64_t checksum = 0;
  };

  Status ResetState() override {
    state.clear();
    return OkStatus();
  }
  Result<Bytes> SerializeState() override {
    PickleWriter writer;
    writer.Write(state);
    return std::move(writer).FinishEnvelope("CpuReplayApp.state");
  }
  Status DeserializeState(ByteSpan data) override {
    SDB_ASSIGN_OR_RETURN(PickleReader reader,
                         PickleReader::FromEnvelope(data, "CpuReplayApp.state"));
    return reader.Read(state);
  }
  Status ApplyUpdate(ByteSpan record) override {
    SDB_ASSIGN_OR_RETURN(BenchKvRecord update, PickleRead<BenchKvRecord>(record));
    checksum ^= BurnCpu(update.value, kBurnRounds);
    state.insert_or_assign(std::move(update.key), std::move(update.value));
    return OkStatus();
  }
  bool ReplayKeyOf(ByteSpan record, std::string* key) override {
    Result<BenchKvRecord> update = PickleRead<BenchKvRecord>(record);
    if (!update.ok()) {
      return false;
    }
    *key = std::move(update->key);
    return true;
  }
  std::unique_ptr<ReplayBatch> StartReplayBatch() override {
    return std::make_unique<Batch>();
  }
  Status MergeReplayBatch(ReplayBatch& batch) override {
    Batch& done = static_cast<Batch&>(batch);
    checksum ^= done.checksum;
    for (auto& [key, value] : done.effects) {
      state.insert_or_assign(key, std::move(value));
    }
    return OkStatus();
  }

  std::function<Result<Bytes>()> PreparePut(std::string key, std::string value) {
    return [key = std::move(key), value = std::move(value)]() -> Result<Bytes> {
      return PickleWrite(BenchKvRecord{key, value});
    };
  }

  std::map<std::string, std::string> state;
  std::uint64_t checksum = 0;
};

// The speedup the host delivers right now on pure CPU work: `threads` threads
// splitting `units` burns against one thread doing them all. hardware_concurrency()
// counts cores the host may not grant (a CPU-rationed VM often delivers about one),
// so the guard's bound comes from this probe instead.
double ProbeCpuSpeedup(int threads, int units) {
  std::atomic<std::uint64_t> sink{0};
  auto burn = [&sink](int n) {
    std::string value(64, 'p');
    std::uint64_t h = 0;
    for (int i = 0; i < n; ++i) {
      value[static_cast<std::size_t>(i) % value.size()] = static_cast<char>(i);
      h ^= BurnCpu(value, kBurnRounds);
    }
    sink.fetch_xor(h);
  };
  WallClock clock;
  Micros start = clock.NowMicros();
  burn(units);
  const Micros serial = clock.NowMicros() - start;
  start = clock.NowMicros();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back(burn, units / threads);
  }
  for (std::thread& worker : pool) {
    worker.join();
  }
  const Micros parallel = clock.NowMicros() - start;
  return parallel > 0 ? static_cast<double>(serial) / static_cast<double>(parallel) : 0;
}

struct ScalingPoint {
  int threads = 0;
  Micros replay_wall = 0;
  Micros replay_cpu = 0;
  std::uint64_t batches = 0;
  std::uint64_t threads_used = 0;
};

int RunCoreScaling(bool enforce) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int peak = std::min(8, hw > 0 ? hw : 1);
  const int entries = QuickMode() ? 4000 : 20000;

  Banner("Restart core scaling: parallel log replay (wall clock)",
         "serial replay pays ~per-entry CPU sequentially; key-disjoint batches "
         "spread it across cores with an identical recovered state");
  std::printf("\n%d log entries, %d burn rounds/apply, %d hardware cores%s\n\n",
              entries, kBurnRounds, hw, QuickMode() ? " (quick mode)" : "");

  // Build once on the simulated file system. The database itself runs on the real
  // wall clock (clock = nullptr) so replay_micros measures host elapsed time.
  SimEnvOptions env_options;
  env_options.microvax_cost_model = false;
  SimEnv env(env_options);
  DatabaseOptions options;
  options.vfs = &env.fs();
  options.dir = "db";
  options.clock = nullptr;
  {
    CpuReplayApp app;
    auto db = Database::Open(app, options);
    if (!db.ok()) {
      std::fprintf(stderr, "open failed: %s\n", db.status().ToString().c_str());
      return 1;
    }
    Rng rng(7);
    for (int i = 0; i < entries; ++i) {
      std::string key = "key-" + std::to_string(i % 512);
      Status status = (*db)->Update(app.PreparePut(key, rng.NextString(64)));
      if (!status.ok()) {
        std::fprintf(stderr, "update failed: %s\n", status.ToString().c_str());
        return 1;
      }
    }
  }
  env.fs().Crash();
  if (!env.fs().Recover().ok()) {
    return 1;
  }

  std::vector<int> thread_counts{1};
  for (int t : {2, 4, 8}) {
    if (t <= peak) {
      thread_counts.push_back(t);
    }
  }
  if (thread_counts.back() != peak) {
    thread_counts.push_back(peak);
  }

  // The CPU probe brackets the sweep; the lower reading stands, so a host that
  // withdrew cores at either end cannot fail the guard.
  const int probe_units = entries - entries % peak;
  const double probe_before = ProbeCpuSpeedup(peak, probe_units);

  // Read-only recovery has zero directory side effects, so every thread count
  // replays the identical log. Best-of-2 per point absorbs scheduler noise.
  Bytes baseline;
  std::vector<ScalingPoint> points;
  for (int threads : thread_counts) {
    ScalingPoint point;
    point.threads = threads;
    for (int run = 0; run < 2; ++run) {
      CpuReplayApp app;
      DatabaseOptions recover_options = options;
      recover_options.recovery_threads = threads;
      auto db = Database::OpenReadOnly(app, recover_options);
      if (!db.ok()) {
        std::fprintf(stderr, "recovery at %d threads failed: %s\n", threads,
                     db.status().ToString().c_str());
        return 1;
      }
      const RestartBreakdown& restart = (*db)->stats().restart;
      if (run == 0 || restart.replay_micros < point.replay_wall) {
        point.replay_wall = restart.replay_micros;
        point.replay_cpu = restart.replay_cpu_micros;
        point.batches = restart.replay_batches;
        point.threads_used = restart.replay_threads_used;
      }
      auto snapshot = app.SerializeState();
      if (!snapshot.ok()) {
        return 1;
      }
      // Equivalence is not negotiable, enforce flag or no: every thread count must
      // recover the byte-identical state.
      if (threads == 1 && run == 0) {
        baseline = *snapshot;
      } else if (*snapshot != baseline) {
        std::fprintf(stderr,
                     "FATAL: recovery at %d threads diverged from serial replay\n",
                     threads);
        return 1;
      }
    }
    points.push_back(point);
  }

  const double probe_after = ProbeCpuSpeedup(peak, probe_units);
  const double probe = std::min(probe_before, probe_after);

  const double serial_wall = static_cast<double>(points.front().replay_wall);
  Table table({"recovery threads", "replay (wall)", "replay CPU (sum)", "batches",
               "speedup"});
  for (const ScalingPoint& point : points) {
    double speedup = point.replay_wall > 0
                         ? serial_wall / static_cast<double>(point.replay_wall)
                         : 0;
    table.AddRow({std::to_string(point.threads), Ms(point.replay_wall),
                  Ms(point.replay_cpu), Count(point.batches),
                  Num(speedup, "x")});
  }
  table.Print();
  std::printf("\nCPU probe at %d threads: %.2fx before the sweep, %.2fx after\n", peak,
              probe_before, probe_after);

  std::string json = "{\n  \"bench\": \"restart_scaling\",\n  \"entries\": " +
                     std::to_string(entries) + ",\n  \"hardware_cores\": " +
                     std::to_string(hw) + ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ScalingPoint& p = points[i];
    json += "    {\"threads\": " + std::to_string(p.threads) +
            ", \"replay_wall_us\": " + std::to_string(p.replay_wall) +
            ", \"replay_cpu_us\": " + std::to_string(p.replay_cpu) +
            ", \"batches\": " + std::to_string(p.batches) +
            ", \"threads_used\": " + std::to_string(p.threads_used) + "}";
    json += (i + 1 < points.size()) ? ",\n" : "\n";
  }
  const ScalingPoint& last = points.back();
  double peak_speedup =
      last.replay_wall > 0 ? serial_wall / static_cast<double>(last.replay_wall) : 0;
  json += "  ],\n  \"peak_threads\": " + std::to_string(peak) +
          ",\n  \"peak_speedup\": " + std::to_string(peak_speedup) +
          ",\n  \"probe_speedup\": " + std::to_string(probe) + "\n}";
  MaybeWriteBenchJson("restart_scaling", json);

  if (enforce) {
    if (peak < 2) {
      std::printf("enforce: SKIP (only %d hardware core(s); nothing to scale)\n", hw);
      return 0;
    }
    if (probe < 2.0) {
      std::printf("enforce: SKIP (CPU probe: %d threads ran only %.2fx faster than one; "
                  "the host delivers under 2 cores now)\n",
                  peak, probe);
      return 0;
    }
    // The flat-curve contract, against the parallelism the host delivers: replay
    // must reach half the probe's speedup, leaving room for the sequential
    // partition pass and merge. A probe showing all N cores makes this N/2.
    const double bound = std::min(probe, static_cast<double>(peak)) / 2.0;
    if (peak_speedup < bound) {
      std::printf("enforce: FAIL (replay at %d threads: %.2fx speedup < %.2fx bound, "
                  "half the CPU probe's %.2fx)\n",
                  peak, peak_speedup, bound, probe);
      return 1;
    }
    std::printf("enforce: OK (replay at %d threads: %.2fx speedup >= %.2fx bound, "
                "half the CPU probe's %.2fx)\n",
                peak, peak_speedup, bound, probe);
  }
  return 0;
}

}  // namespace
}  // namespace sdb::bench

int main(int argc, char** argv) {
  bool enforce = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--enforce") == 0) {
      enforce = true;
    }
  }
  sdb::bench::Run();
  return sdb::bench::RunCoreScaling(enforce);
}
