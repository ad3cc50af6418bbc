// E10 — Scaling with database size, and the Section 7 partitioning suggestion.
//
// Paper (Section 7): "As [the database] becomes larger, checkpoints take longer
// (thereby restricting the acceptable frequency of updates) and restarts take longer.
// However, it seems likely that many larger databases ... could be handled by
// considering them as multiple separate databases for the purpose of writing
// checkpoints."
#include <functional>
#include <optional>

#include "bench/bench_common.h"
#include "src/core/sharded.h"

namespace sdb::bench {
namespace {

void SizeSweep() {
  Table table({"db size", "checkpoint (sim)", "cold restart (sim)", "checkpoint bytes"});
  for (std::size_t kb : {128u, 256u, 512u, 1024u, 2048u, 4096u}) {
    NameServerFixture fixture = BuildNameServer(kb * 1024);
    SimClock& clock = fixture.env->clock();

    Micros start = clock.NowMicros();
    if (!fixture.server->Checkpoint().ok()) {
      return;
    }
    Micros checkpoint = clock.NowMicros() - start;
    std::string checkpoint_path =
        "ns/checkpoint" + std::to_string(fixture.server->database().current_version());
    auto file = *fixture.env->fs().Open(checkpoint_path, OpenMode::kRead);
    std::uint64_t checkpoint_bytes = *file->Size();

    fixture.server.reset();
    fixture.env->fs().Crash();
    start = clock.NowMicros();
    if (!fixture.env->fs().Recover().ok()) {
      return;
    }
    ns::NameServerOptions options;
    options.db.vfs = &fixture.env->fs();
    options.db.dir = "ns";
    options.db.clock = &clock;
    options.cost = &fixture.env->cost_model();
    options.replica_id = "bench";
    auto reopened = ns::NameServer::Open(options);
    if (!reopened.ok()) {
      return;
    }
    Micros restart = clock.NowMicros() - start;

    table.AddRow({std::to_string(kb) + " KB", Secs(static_cast<double>(checkpoint)),
                  Secs(static_cast<double>(restart)),
                  std::to_string(checkpoint_bytes / 1024) + " KB"});
  }
  table.Print();
}

struct CheckpointTimes {
  Micros total = 0;
  Micros longest = 0;
};

// Loads ~512 KB of 100-byte values into each of 4 partitions, then checkpoints the
// partitions one at a time on the simulated clock. Both §7 rows use it so they load
// the same data and are timed the same way. Empty on any failure.
std::optional<CheckpointTimes> LoadThenCheckpointEach(
    SimClock& clock,
    const std::function<Status(std::size_t, std::string, std::string)>& put,
    const std::function<Status(std::size_t)>& checkpoint) {
  Rng rng(29);
  for (std::size_t p = 0; p < 4; ++p) {
    for (int i = 0; i < 2600; ++i) {
      if (!put(p, "key" + std::to_string(i), rng.NextString(100)).ok()) {
        return std::nullopt;
      }
    }
  }
  CheckpointTimes times;
  for (std::size_t p = 0; p < 4; ++p) {
    Micros start = clock.NowMicros();
    if (!checkpoint(p).ok()) {
      return std::nullopt;
    }
    Micros elapsed = clock.NowMicros() - start;
    times.total += elapsed;
    times.longest = std::max(times.longest, elapsed);
  }
  return times;
}

void PartitioningComparison() {
  std::printf("\nSection 7 extension: one 2 MB database vs 4 partitions of 512 KB\n");
  // Every engine here stalls updates only while it captures the snapshot (for
  // BenchKvApp, pickling the whole state); the file write and commit run without
  // the update lock. The bench times whole Checkpoint calls, so the "longest
  // checkpoint" column is an upper bound on the longest update stall.
  Table table({"configuration", "total checkpoint work (sim)",
               "longest checkpoint (sim)", "notes"});

  // Monolithic.
  {
    NameServerFixture fixture = BuildNameServer(2 << 20);
    SimClock& clock = fixture.env->clock();
    Micros start = clock.NowMicros();
    if (!fixture.server->Checkpoint().ok()) {
      return;
    }
    Micros elapsed = clock.NowMicros() - start;
    table.AddRow({"monolithic 2 MB", Secs(static_cast<double>(elapsed)),
                  Secs(static_cast<double>(elapsed)), "one checkpoint covers the whole database"});
  }

  // The paper's first option, "multiple log files": four plain Databases, each with
  // its own checkpoint and log.
  {
    SimEnvOptions env_options;
    SimEnv env(env_options);
    std::vector<std::unique_ptr<BenchKvApp>> apps;
    std::vector<std::unique_ptr<Database>> dbs;
    for (int p = 0; p < 4; ++p) {
      apps.push_back(std::make_unique<BenchKvApp>(&env.cost_model()));
      DatabaseOptions options;
      options.vfs = &env.fs();
      options.dir = "part" + std::to_string(p);
      options.clock = &env.clock();
      auto db = Database::Open(*apps.back(), options);
      if (!db.ok()) {
        return;
      }
      dbs.push_back(std::move(*db));
    }
    auto times = LoadThenCheckpointEach(
        env.clock(),
        [&](std::size_t p, std::string key, std::string value) {
          return dbs[p]->Update(apps[p]->PreparePut(std::move(key), std::move(value)));
        },
        [&](std::size_t p) { return dbs[p]->Checkpoint(); });
    if (!times.has_value()) {
      return;
    }
    table.AddRow({"4 partitions x ~512 KB", Secs(static_cast<double>(times->total)),
                  Secs(static_cast<double>(times->longest)),
                  "only one partition stalled at a time"});
  }

  // The paper's other option: "a single log file with more complicated rules for
  // flushing the log" — the sharded engine with 4 shards on one shared log.
  {
    SimEnvOptions env_options;
    SimEnv env(env_options);
    std::vector<std::unique_ptr<BenchKvApp>> apps;
    std::vector<Application*> raw;
    for (int i = 0; i < 4; ++i) {
      apps.push_back(std::make_unique<BenchKvApp>(&env.cost_model()));
      raw.push_back(apps.back().get());
    }
    ShardedOptions options;
    options.vfs = &env.fs();
    options.dir = "shared";
    options.clock = &env.clock();
    auto db_or = ShardedDatabase::Open(raw, options);
    if (!db_or.ok()) {
      return;
    }
    auto db = std::move(*db_or);
    auto times = LoadThenCheckpointEach(
        env.clock(),
        [&](std::size_t p, std::string key, std::string value) {
          return db->Update(p, apps[p]->PreparePut(std::move(key), std::move(value)));
        },
        [&](std::size_t p) { return db->Checkpoint(p); });
    if (!times.has_value()) {
      return;
    }
    std::uint64_t before_rotation = db->log_bytes();
    auto rotated = db->MaybeRotateLog();
    if (!rotated.ok()) {
      return;
    }
    char note[128];
    std::snprintf(note, sizeof(note),
                  "one fsync stream; %s %zu KB of shared log after all 4 checkpointed",
                  *rotated ? "rotation reclaimed" : "could not reclaim",
                  static_cast<std::size_t>(before_rotation) / 1024);
    table.AddRow({"4 shards, ONE shared log", Secs(static_cast<double>(times->total)),
                  Secs(static_cast<double>(times->longest)), note});
  }
  table.Print();
}

void Run() {
  Banner("E10: scaling with database size + partitioning",
         "checkpoint and restart times grow with size; splitting into sub-databases "
         "bounds the per-checkpoint stall");
  SizeSweep();
  PartitioningComparison();
}

}  // namespace
}  // namespace sdb::bench

int main() {
  sdb::bench::Run();
  return 0;
}
