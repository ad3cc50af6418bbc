// Tests for the observability layer: histogram bucket math and quantile error
// bounds, registry concurrency, trace-ring wraparound, and the Database integration
// contract that the per-stage commit breakdown accounts for the full update latency.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/storage/sim_env.h"
#include "tests/test_app.h"

namespace sdb {
namespace {

using obs::CommitStage;
using obs::CommitTrace;
using obs::Histogram;
using obs::HistogramSnapshot;
using ::sdb::testing::TestApp;

// Restores the process-wide timing switch no matter how a test exits.
class ScopedTiming {
 public:
  explicit ScopedTiming(bool enabled) { obs::SetTimingEnabled(enabled); }
  ~ScopedTiming() { obs::SetTimingEnabled(true); }
};

// --- bucket math ---

TEST(HistogramBuckets, SmallValuesGetUnitBuckets) {
  for (std::uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    EXPECT_EQ(Histogram::BucketIndex(v), v);
    EXPECT_EQ(Histogram::BucketLowerBound(v), v);
    EXPECT_EQ(Histogram::BucketUpperBound(v), v + 1);
  }
}

TEST(HistogramBuckets, BoundsRoundTripThroughIndex) {
  for (std::size_t i = 0; i < Histogram::kBucketCount - 1; ++i) {
    std::uint64_t lower = Histogram::BucketLowerBound(i);
    std::uint64_t upper = Histogram::BucketUpperBound(i);
    ASSERT_LT(lower, upper) << "bucket " << i;
    EXPECT_EQ(Histogram::BucketIndex(lower), i) << "lower bound of bucket " << i;
    EXPECT_EQ(Histogram::BucketIndex(upper - 1), i) << "upper bound of bucket " << i;
    EXPECT_NE(Histogram::BucketIndex(upper), i) << "one past bucket " << i;
  }
}

TEST(HistogramBuckets, IndexIsMonotone) {
  std::size_t previous = 0;
  for (std::uint64_t v = 1; v < (std::uint64_t{1} << 44); v = v + v / 3 + 1) {
    std::size_t index = Histogram::BucketIndex(v);
    EXPECT_GE(index, previous) << "v=" << v;
    EXPECT_LT(index, Histogram::kBucketCount);
    previous = index;
  }
}

TEST(HistogramBuckets, OverflowBucketCatchesHugeValues) {
  const std::size_t last = Histogram::kBucketCount - 1;
  EXPECT_LT(Histogram::BucketIndex((std::uint64_t{1} << 40) - 1), last);
  EXPECT_EQ(Histogram::BucketIndex(std::uint64_t{1} << 40), last);
  EXPECT_EQ(Histogram::BucketIndex(~std::uint64_t{0}), last);
  EXPECT_EQ(Histogram::BucketLowerBound(last), std::uint64_t{1} << 40);
}

TEST(HistogramBuckets, BucketWidthBoundsRelativeError) {
  // The design claim: every finite bucket's width is at most 1/4 of its lower bound
  // (unit buckets aside), which is what bounds midpoint quantile error to 12.5%.
  for (std::size_t i = Histogram::kSubBuckets; i < Histogram::kBucketCount - 1; ++i) {
    std::uint64_t lower = Histogram::BucketLowerBound(i);
    std::uint64_t width = Histogram::BucketUpperBound(i) - lower;
    EXPECT_LE(width * 4, lower) << "bucket " << i;
  }
}

TEST(Histogram, CountSumMax) {
  Histogram h;
  h.Record(3);
  h.Record(100);
  h.Record(250000);
  h.Record(-7);  // clamped to 0
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.sum, 3u + 100u + 250000u);
  EXPECT_EQ(snap.max, 250000u);
}

TEST(Histogram, QuantileWithinErrorBound) {
  // A single recorded value: every quantile must land inside the bucket holding the
  // value, and the median — the bucket midpoint after interpolation — must be within
  // the advertised 12.5% relative error (plus 1 for the unit buckets).
  for (std::uint64_t v = 1; v < (std::uint64_t{1} << 38); v = v * 3 + 1) {
    Histogram h;
    h.Record(static_cast<std::int64_t>(v));
    HistogramSnapshot snap = h.Snapshot();
    std::size_t bucket = Histogram::BucketIndex(v);
    for (double q : {0.01, 0.5, 0.95, 0.99, 1.0}) {
      double estimate = snap.Quantile(q);
      EXPECT_GE(estimate, static_cast<double>(Histogram::BucketLowerBound(bucket)))
          << "v=" << v << " q=" << q;
      EXPECT_LE(estimate, static_cast<double>(Histogram::BucketUpperBound(bucket)))
          << "v=" << v << " q=" << q;
      EXPECT_LE(estimate, static_cast<double>(v) + 1.0) << "clamped to max+1";
    }
    double median_error = std::abs(snap.Quantile(0.5) - static_cast<double>(v));
    EXPECT_LE(median_error, 0.125 * static_cast<double>(v) + 1.0) << "v=" << v;
  }
}

TEST(Histogram, QuantilesOrderedOnMixedData) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) {
    h.Record(i);
  }
  HistogramSnapshot snap = h.Snapshot();
  double p50 = snap.p50(), p95 = snap.p95(), p99 = snap.p99();
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, static_cast<double>(snap.max) + 1);
  // True p50 is 500; the bucketed estimate must land within the error bound.
  EXPECT_NEAR(p50, 500.0, 500.0 * 0.125 + 1.0);
  EXPECT_NEAR(p95, 950.0, 950.0 * 0.125 + 1.0);
}

TEST(Histogram, EmptyQuantileIsZero) {
  Histogram h;
  EXPECT_EQ(h.Snapshot().Quantile(0.5), 0.0);
  EXPECT_EQ(h.Snapshot().mean(), 0.0);
}

// --- registry ---

TEST(Registry, SameNameReturnsSameMetric) {
  obs::Registry registry;
  obs::Counter& a = registry.GetCounter("x");
  obs::Counter& b = registry.GetCounter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(registry.FindCounter("x"), &a);
  EXPECT_EQ(registry.FindCounter("y"), nullptr);
}

TEST(Registry, ConcurrentRegistrationAndRecording) {
  obs::Registry registry;
  constexpr int kThreads = 8;
  constexpr int kIterations = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < kIterations; ++i) {
        registry.GetCounter("shared.counter").Increment();
        registry.GetHistogram("shared.hist").Record(i);
        registry.GetGauge("shared.gauge").Add(1);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(registry.GetCounter("shared.counter").value(),
            static_cast<std::uint64_t>(kThreads) * kIterations);
  EXPECT_EQ(registry.GetHistogram("shared.hist").count(),
            static_cast<std::uint64_t>(kThreads) * kIterations);
  EXPECT_EQ(registry.GetGauge("shared.gauge").value(), kThreads * kIterations);
}

TEST(Registry, DumpsContainAllMetrics) {
  obs::Registry registry;
  registry.GetCounter("c.one").Add(7);
  registry.GetGauge("g.two").Set(-3);
  registry.GetHistogram("h.three").Record(42);
  std::string text = registry.DumpText();
  EXPECT_NE(text.find("c.one"), std::string::npos);
  EXPECT_NE(text.find("g.two"), std::string::npos);
  EXPECT_NE(text.find("h.three"), std::string::npos);
  std::string json = registry.DumpJson();
  EXPECT_NE(json.find("\"c.one\":7"), std::string::npos);
  EXPECT_NE(json.find("\"g.two\":-3"), std::string::npos);
  EXPECT_NE(json.find("\"h.three\":{\"count\":1"), std::string::npos);
}

TEST(Registry, JsonStringEscaping) {
  std::string out;
  obs::AppendJsonString(out, "a\"b\\c\nd\te\x01");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
}

// --- trace ring ---

CommitTrace MakeTrace(std::uint64_t epoch) {
  CommitTrace trace;
  trace.epoch = epoch;
  trace.records = 1;
  trace.total_micros = static_cast<std::int64_t>(epoch) * 10;
  trace.set_stage(CommitStage::kFsync, static_cast<std::int64_t>(epoch));
  return trace;
}

TEST(TraceRing, KeepsMostRecentOldestFirst) {
  obs::TraceRing ring(4);
  for (std::uint64_t e = 1; e <= 10; ++e) {
    ring.Record(MakeTrace(e));
  }
  std::vector<CommitTrace> dump = ring.Dump();
  ASSERT_EQ(dump.size(), 4u);
  for (std::size_t i = 0; i < dump.size(); ++i) {
    EXPECT_EQ(dump[i].epoch, 7 + i);
  }
  EXPECT_EQ(ring.total_recorded(), 10u);
}

TEST(TraceRing, PartiallyFilledDumpsInOrder) {
  obs::TraceRing ring(8);
  ring.Record(MakeTrace(1));
  ring.Record(MakeTrace(2));
  std::vector<CommitTrace> dump = ring.Dump();
  ASSERT_EQ(dump.size(), 2u);
  EXPECT_EQ(dump[0].epoch, 1u);
  EXPECT_EQ(dump[1].epoch, 2u);
}

TEST(TraceRing, ZeroCapacityDropsEverything) {
  obs::TraceRing ring(0);
  ring.Record(MakeTrace(1));
  EXPECT_TRUE(ring.Dump().empty());
  EXPECT_EQ(ring.total_recorded(), 0u);
}

TEST(CommitTraceToString, NamesEveryStage) {
  std::string line = MakeTrace(5).ToString();
  EXPECT_NE(line.find("epoch=5"), std::string::npos);
  for (std::size_t i = 0; i < obs::kCommitStageCount; ++i) {
    EXPECT_NE(line.find(obs::CommitStageName(static_cast<CommitStage>(i))),
              std::string::npos);
  }
}

// --- database integration ---

class DatabaseObsTest : public ::testing::Test {
 protected:
  // Default SimEnv: the simulated disk charges seek/transfer time to the SimClock, so
  // stage timings are nonzero and fully deterministic.
  DatabaseObsTest() : env_(std::make_unique<SimEnv>()) {}

  DatabaseOptions Options() {
    DatabaseOptions options;
    options.vfs = &env_->fs();
    options.dir = "db";
    options.clock = &env_->clock();
    return options;
  }

  std::unique_ptr<SimEnv> env_;
};

// The acceptance contract: with a simulated clock, every microsecond of update
// latency is charged inside exactly one pipeline stage, so the per-stage sums add
// up to the externally measured end-to-end time.
TEST_F(DatabaseObsTest, StageBreakdownSumsToEndToEndLatency) {
  ScopedTiming timing(true);
  TestApp app;
  auto db = *Database::Open(app, Options());

  Micros t0 = env_->clock().NowMicros();
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(db->Update(app.PreparePut("k" + std::to_string(i), "v")).ok());
  }
  Micros elapsed = env_->clock().NowMicros() - t0;
  ASSERT_GT(elapsed, 0);

  obs::Registry& registry = db->metrics();
  std::uint64_t stage_sum = 0;
  for (std::size_t i = 0; i < obs::kCommitStageCount; ++i) {
    CommitStage stage = static_cast<CommitStage>(i);
    if (stage == CommitStage::kAck) {
      continue;  // recorded per rider thread; no riders in a single-threaded test
    }
    const obs::Histogram* h = registry.FindHistogram(
        std::string("commit.stage.") + obs::CommitStageName(stage) + "_us");
    ASSERT_NE(h, nullptr);
    stage_sum += h->sum();
  }
  const obs::Histogram* total = registry.FindHistogram("commit.total_us");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->count(), 16u);
  EXPECT_EQ(total->sum(), static_cast<std::uint64_t>(elapsed));
  EXPECT_EQ(stage_sum, static_cast<std::uint64_t>(elapsed));

  // The dominant cost must be the commit fsync — the paper's 20ms log write.
  const obs::Histogram* fsync = registry.FindHistogram("commit.stage.fsync_us");
  ASSERT_NE(fsync, nullptr);
  EXPECT_GT(fsync->sum(), 0u);
}

TEST_F(DatabaseObsTest, SerialPathRecordsSameBreakdown) {
  // One record per batch (the paper's serial discipline): each update is its own
  // commit, and the commit totals still account for every simulated microsecond.
  ScopedTiming timing(true);
  TestApp app;
  DatabaseOptions options = Options();
  options.group_commit.max_batch_records = 1;
  auto db = *Database::Open(app, options);

  Micros t0 = env_->clock().NowMicros();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(db->Update(app.PreparePut("k" + std::to_string(i), "v")).ok());
  }
  Micros elapsed = env_->clock().NowMicros() - t0;
  ASSERT_GT(elapsed, 0);

  const obs::Histogram* total = db->metrics().FindHistogram("commit.total_us");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->count(), 8u);
  EXPECT_EQ(total->sum(), static_cast<std::uint64_t>(elapsed));  EXPECT_EQ(db->stats().group_commit.syncs, 8u);
}

TEST_F(DatabaseObsTest, DumpTraceCarriesPerCommitEvents) {
  ScopedTiming timing(true);
  TestApp app;
  DatabaseOptions options = Options();
  options.trace_ring_capacity = 4;
  auto db = *Database::Open(app, options);

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db->Update(app.PreparePut("k" + std::to_string(i), "v")).ok());
  }
  std::vector<CommitTrace> traces = db->DumpTrace();
  ASSERT_EQ(traces.size(), 4u);  // ring capacity caps retention
  for (std::size_t i = 0; i < traces.size(); ++i) {
    EXPECT_EQ(traces[i].records, 1u);
    EXPECT_GT(traces[i].total_micros, 0);
    if (i > 0) {
      EXPECT_GT(traces[i].epoch, traces[i - 1].epoch);  // oldest first
    }
  }
}

TEST_F(DatabaseObsTest, TraceRingCanBeDisabled) {
  TestApp app;
  DatabaseOptions options = Options();
  options.trace_ring_capacity = 0;
  auto db = *Database::Open(app, options);
  ASSERT_TRUE(db->Update(app.PreparePut("k", "v")).ok());
  EXPECT_TRUE(db->DumpTrace().empty());
}

TEST_F(DatabaseObsTest, MetricsReportContainsStageBreakdownAndCounters) {
  ScopedTiming timing(true);
  TestApp app;
  auto db = *Database::Open(app, Options());
  ASSERT_TRUE(db->Update(app.PreparePut("k", "v")).ok());
  ASSERT_TRUE(db->Checkpoint().ok());

  std::string report = db->MetricsReport();
  EXPECT_NE(report.find("commit.stage.fsync_us"), std::string::npos);
  EXPECT_NE(report.find("commit.stage.lock_wait_us"), std::string::npos);
  EXPECT_NE(report.find("db.updates"), std::string::npos);
  EXPECT_NE(report.find("checkpoint.total_us"), std::string::npos);

  std::string json = db->MetricsReportJson();
  EXPECT_NE(json.find("\"db.updates\":1"), std::string::npos);
  EXPECT_NE(json.find("\"commit.stage.fsync_us\""), std::string::npos);
}

TEST_F(DatabaseObsTest, StatsStructMirrorsRegistry) {
  TestApp app;
  auto db = *Database::Open(app, Options());
  ASSERT_TRUE(db->Update(app.PreparePut("k", "v")).ok());
  ASSERT_TRUE(db->Enquire([] { return OkStatus(); }).ok());
  ASSERT_TRUE(db->Checkpoint().ok());

  DatabaseStats stats = db->stats();
  obs::Registry& registry = db->metrics();
  EXPECT_EQ(stats.updates, registry.GetCounter("db.updates").value());
  EXPECT_EQ(stats.enquiries, registry.GetCounter("db.enquiries").value());
  EXPECT_EQ(stats.checkpoints, registry.GetCounter("db.checkpoints").value());
  EXPECT_EQ(stats.updates, 1u);
  EXPECT_EQ(stats.enquiries, 1u);
  EXPECT_EQ(stats.checkpoints, 1u);
}

TEST_F(DatabaseObsTest, TimingDisabledKeepsCountersButSkipsHistograms) {
  ScopedTiming timing(false);
  TestApp app;
  auto db = *Database::Open(app, Options());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(db->Update(app.PreparePut("k" + std::to_string(i), "v")).ok());
  }
  // Counters (always live) moved; stage histograms (timing-gated) did not.
  EXPECT_EQ(db->stats().updates, 4u);
  EXPECT_EQ(db->metrics().GetCounter("commit.fsyncs").value(), 4u);
  EXPECT_EQ(db->metrics().GetHistogram("commit.total_us").count(), 0u);
  EXPECT_TRUE(db->DumpTrace().empty());
}

TEST_F(DatabaseObsTest, PerDatabaseRegistriesAreIsolated) {
  TestApp app1, app2;
  DatabaseOptions options2 = Options();
  options2.dir = "db2";
  auto db1 = *Database::Open(app1, Options());
  auto db2 = *Database::Open(app2, options2);
  ASSERT_TRUE(db1->Update(app1.PreparePut("k", "v")).ok());
  EXPECT_EQ(db1->metrics().GetCounter("db.updates").value(), 1u);
  EXPECT_EQ(db2->metrics().GetCounter("db.updates").value(), 0u);
}

}  // namespace
}  // namespace sdb
