// nsbench: the smalldb benchmark. One process runs the name server's real request
// path end to end:
//
//   NetChannel clients --TCP--> NetServer --> RpcServer (RegisterNameService with a
//   DatabaseUpdateSink) --> NameServer --> Database (group commit) --> PosixFs fsync
//
// One client thread drives 4 connections as a closed loop: each connection keeps a
// fixed number of requests outstanding and sends the next only when one completes,
// as callers that wait for their reply do. Every answer is checked against an
// oracle of acknowledged state, and so is every reopened database.
//
//   nsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           --data-dir <dir> [--spans-out <file>] [--tiny] [--corrupt-oracle]
//           [--lose-binding]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones (wrapped
// layers, engine registry windows, span attribution, tracing overhead). The last
// stdout line is one JSON object: {"correct","attempted","failed","metrics"}.
// Exit status: 0 correct, 1 oracle violation, 2 usage or setup error.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "nsbench/layers.h"
#include "nsbench/spans.h"
#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/nameserver/name_server.h"
#include "src/nameserver/name_service_rpc.h"
#include "src/net/client.h"
#include "src/net/ingest.h"
#include "src/net/server.h"
#include "src/obs/metrics.h"
#include "src/storage/posix_fs.h"

namespace nsbench {
namespace {

namespace fs = std::filesystem;
using sdb::Status;

// --- workloads ---

struct Workload {
  const char* name;
  std::size_t bindings;  // ~1 MB of NameTree at 1,600; ~16 MB at 26,000
  int lookup_pct;
  int list_pct;  // the rest are Sets overwriting existing names
  int depth;     // requests outstanding per connection
  // Acknowledged Sets between the in-run checkpoints a second thread takes; 0: none.
  std::uint64_t checkpoint_every;
  // Reopens after the run. A reopen's time follows the host's CPU from one second
  // to the next, so the median needs some 8-10 s of them: 150 of enquiry_mix's
  // replay-bound ~60 ms, 40 of checkpoint_restart's load-bound ~180 ms.
  int reopens;
};

// Why each exists is in BENCHMARK.json and README.md.
constexpr Workload kWorkloads[] = {
    {"enquiry_mix", 1600, 95, 3, 4, 0, 150},
    {"checkpoint_restart", 26000, 90, 0, 16, 4000, 40},
};

constexpr int kConnections = 4;
const double kCpus = static_cast<double>(std::max(1u, std::thread::hardware_concurrency()));
constexpr std::size_t kDepts = 40;
constexpr std::size_t kMinValue = 60;
constexpr std::size_t kMaxValue = 140;
constexpr std::size_t kBatch = 256;  // populate and tail updates per UpdateMany

struct Config {
  Workload workload{};
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string data_dir;
  std::string spans_out;
  bool corrupt_oracle = false;
  bool lose_binding = false;
  // Scale; --tiny shrinks every count for the benchmark's own test.
  std::size_t bindings = 0;
  int setup_repeats = 11;
  int reopens = 0;
  int tail_checkpoints = 25;
  std::size_t restart_entries = 16384;  // log entries every reopen replays
  double warmup_seconds = 1.0;
};

std::string PathOf(std::size_t i) {
  return "org/dept" + std::to_string(i % kDepts) + "/member" + std::to_string(i);
}

std::string DeptOf(std::size_t d) { return "org/dept" + std::to_string(d); }

std::string NextValue(sdb::Rng& rng) {
  return rng.NextString(static_cast<std::size_t>(
      rng.NextInRange(static_cast<std::int64_t>(kMinValue), static_cast<std::int64_t>(kMaxValue))));
}

[[noreturn]] void Fatal(const std::string& what, const Status& status = sdb::OkStatus()) {
  std::fprintf(stderr, "nsbench: %s%s%s\n", what.c_str(), status.ok() ? "" : ": ",
               status.ok() ? "" : status.ToString().c_str());
  std::exit(2);
}

double Seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

// Exact quantile with linear interpolation between order statistics.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  double at = q * static_cast<double>(values.size() - 1);
  std::size_t lo = static_cast<std::size_t>(at);
  std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (at - static_cast<double>(lo));
}

double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }

// --- oracle of acknowledged state ---

struct Oracle {
  std::vector<std::string> value;  // last acknowledged value per binding
  std::vector<bool> uncertain;     // a failed Set left its effect unknown
  std::vector<std::vector<std::string>> dept_labels;  // sorted; Sets never change them
  std::uint64_t checks = 0;
  std::uint64_t violations = 0;

  void Check(bool ok, const std::string& what) {
    ++checks;
    if (!ok) {
      if (violations < 5) {
        std::fprintf(stderr, "nsbench: oracle violation: %s\n", what.c_str());
      }
      ++violations;
    }
  }

  void CheckValue(std::size_t key, const std::string& got, const char* where) {
    if (!uncertain[key]) {
      Check(got == value[key], std::string(where) + ": " + PathOf(key) + " read \"" + got +
                                   "\", acknowledged \"" + value[key] + "\"");
    }
  }
};

// --- the server stack ---

struct Layers {
  StorageStats storage;
  CoreStats core;
  sdb::WallClock clock;  // lets RpcServer record rpc.server.handler_us
};

// Members are declared in start order, so destruction stops clients first.
struct Stack {
  std::unique_ptr<sdb::ns::NameServer> server;
  std::unique_ptr<sdb::rpc::RpcServer> rpc;
  std::unique_ptr<sdb::net::NetServer> net;
  std::vector<std::unique_ptr<sdb::net::NetChannel>> channels;

  void Reset() {
    channels.clear();
    net.reset();
    rpc.reset();
    server.reset();
  }
};

sdb::ns::NameServerOptions ServerOptions(sdb::Vfs& vfs, const std::string& dir) {
  sdb::ns::NameServerOptions options;
  options.db.vfs = &vfs;
  options.db.dir = dir;
  options.replica_id = "nsbench";
  return options;
}

std::unique_ptr<sdb::ns::NameServer> OpenServer(sdb::Vfs& vfs, const std::string& dir) {
  auto opened = sdb::ns::NameServer::Open(ServerOptions(vfs, dir));
  if (!opened.ok()) {
    Fatal("open " + dir, opened.status());
  }
  return std::move(*opened);
}

// Sets `count` names, each chosen by `next_key`, to random values straight through
// Database::UpdateMany, kBatch at a time (one fsync per batch), and records them as
// acknowledged.
template <typename NextKey>
void SetInBatches(sdb::ns::NameServer& server, std::size_t count, NextKey next_key,
                  sdb::Rng& rng, Oracle& oracle) {
  std::vector<std::function<sdb::Result<sdb::Bytes>()>> plans;
  std::vector<std::pair<std::size_t, std::string>> pending;
  for (std::size_t done = 0; done < count;) {
    plans.clear();
    pending.clear();
    for (; done < count && plans.size() < kBatch; ++done) {
      pending.emplace_back(next_key(), NextValue(rng));
      plans.push_back(server.PlanSet(PathOf(pending.back().first), pending.back().second));
    }
    for (const Status& status : server.database().UpdateMany(plans)) {
      if (!status.ok()) {
        Fatal("batched set", status);
      }
    }
    for (auto& [key, value] : pending) {
      oracle.value[key] = std::move(value);
      oracle.uncertain[key] = false;
    }
  }
}

// Binds every name, then overwrites random names until the replication journal
// (part of every checkpoint) is full, so checkpoint size does not depend on how
// many updates a run manages. Batched through UpdateMany: one fsync per batch.
void Populate(sdb::ns::NameServer& server, const Config& config, Oracle& oracle) {
  sdb::Rng rng(config.seed * 0x9E3779B97F4A7C15ull + 1);
  const std::size_t n = config.bindings;
  oracle = Oracle{};
  oracle.value.resize(n);
  oracle.uncertain.assign(n, false);
  oracle.dept_labels.assign(std::min(n, kDepts), {});
  for (std::size_t i = 0; i < n; ++i) {
    oracle.dept_labels[i % kDepts].push_back("member" + std::to_string(i));
  }
  for (auto& labels : oracle.dept_labels) {
    std::sort(labels.begin(), labels.end());
  }
  const std::size_t total =
      std::max(n, sdb::ns::NameServerOptions{}.journal_capacity + kBatch);
  std::size_t done = 0;
  SetInBatches(server, total, [&] { return done < n ? done++ : rng.NextBelow(n); }, rng,
               oracle);
  Status checkpointed = server.Checkpoint();
  if (!checkpointed.ok()) {
    Fatal("populate checkpoint", checkpointed);
  }
}

void StartServing(Stack& stack, const Config& config, Layers& layers) {
  stack.rpc = std::make_unique<sdb::rpc::RpcServer>(config.trace ? &layers.clock : nullptr);
  std::shared_ptr<sdb::rpc::UpdateSink> sink =
      std::make_shared<sdb::net::DatabaseUpdateSink>(stack.server->database());
  if (config.trace) {
    sink = std::make_shared<TimingSink>(std::move(sink), layers.core);
  }
  sdb::ns::RegisterNameService(*stack.rpc, *stack.server, std::move(sink));
  if (config.trace) {
    RegisterTracedEnquiries(*stack.rpc, *stack.server);
  }
  auto net = sdb::net::NetServer::Start(*stack.rpc);
  if (!net.ok()) {
    Fatal("net server start", net.status());
  }
  stack.net = std::move(*net);
  for (int c = 0; c < kConnections; ++c) {
    auto channel = sdb::net::NetChannel::Connect("127.0.0.1", stack.net->port());
    if (!channel.ok()) {
      Fatal("connect", channel.status());
    }
    stack.channels.push_back(std::move(*channel));
  }
}

// --- the closed-loop client ---

enum class Op : std::uint8_t { kLookup, kList, kSet };

// A run is cut into intervals of at most this long. Each records what the host
// delivered in it, and the run's figures come from the calm ones (see Measurement).
constexpr double kIntervalSeconds = 1.0;

// An interval is calm when the hypervisor stole at most this share of the CPUs in
// it. A calm run sees 0-2% steal in most seconds; a neighbour's burst takes 5-30%
// for tens of seconds, and the tail latencies of those seconds grow with it
// (checkpoint_restart's update_p90_us went from 1.2 to 2.3 ms between runs whose
// steal was 0.2% and 7.1%).
constexpr double kCalmSteal = 0.02;

// Every latency of a stretch, in 1 us buckets up to 65 ms (the last bucket takes
// the rest). Fixed size, so the benchmark's own memory does not grow with the number
// of requests a run completes and peak_rss_mb measures the server, not the samples.
class LatencyHistogram {
 public:
  void Record(double us) {
    if (buckets_.empty()) {
      buckets_.assign(kBuckets, 0);
    }
    std::size_t b = us <= 0 ? 0 : std::min(kBuckets - 1, static_cast<std::size_t>(us));
    ++buckets_[b];
    ++count_;
  }

  void Add(const LatencyHistogram& other) {
    if (other.count_ == 0) {
      return;
    }
    if (buckets_.empty()) {
      buckets_.assign(kBuckets, 0);
    }
    for (std::size_t b = 0; b < kBuckets; ++b) {
      buckets_[b] += other.buckets_[b];
    }
    count_ += other.count_;
  }

  std::uint64_t count() const { return count_; }

  // Interpolates within the bucket the q-quantile falls in, spreading its samples
  // evenly over the bucket's microsecond.
  double Quantile(double q) const {
    if (count_ == 0) {
      return 0;
    }
    const double rank = q * static_cast<double>(count_ - 1);
    std::uint64_t below = 0;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      if (static_cast<double>(below + buckets_[b]) > rank) {
        return static_cast<double>(b) +
               (rank - static_cast<double>(below) + 0.5) / static_cast<double>(buckets_[b]);
      }
      below += buckets_[b];
    }
    return static_cast<double>(kBuckets);
  }

 private:
  static constexpr std::size_t kBuckets = 1 << 16;
  std::vector<std::uint32_t> buckets_;
  std::uint64_t count_ = 0;
};

struct Window {
  std::int64_t wall_ns = 0;
  double cpu_s = 0;       // process user + system
  double steal_s = 0;     // CPU time the hypervisor took from this machine
  std::uint64_t ops = 0;  // completed, failed included
  std::uint64_t failed = 0;
  std::uint64_t sets = 0;  // acknowledged

  double steal_frac() const { return steal_s / Seconds(wall_ns) / kCpus; }

  void Add(const Window& other) {
    wall_ns += other.wall_ns;
    cpu_s += other.cpu_s;
    steal_s += other.steal_s;
    ops += other.ops;
    failed += other.failed;
    sets += other.sets;
  }
};

// What a stretch of the run saw: its totals and every completed request's latency.
struct Tally {
  Window total;
  LatencyHistogram enquiry_us;
  LatencyHistogram update_us;

  void Add(const Tally& other) {
    total.Add(other.total);
    enquiry_us.Add(other.enquiry_us);
    update_us.Add(other.update_us);
  }
};

// A measured stretch, interval by interval. Every interval goes into `all`; the calm
// ones also go into `calm`. The run's figures are those of `calm`: every request of
// every calm second, whatever its latency, so a slowdown in some seconds only (a
// checkpoint stalling commits, a heap collection) still moves them in proportion.
// Which seconds count is decided by the hypervisor's steal counter alone, never by
// the program's own figures.
struct Measurement {
  std::vector<Window> intervals;  // for the report
  Tally open;                     // the interval being measured
  Tally all;
  Tally calm;

  void CloseInterval() {
    intervals.push_back(open.total);
    all.Add(open);
    if (open.total.steal_frac() <= kCalmSteal) {
      calm.Add(open);
    }
    open = Tally{};
  }

  std::size_t calm_intervals() const {
    return static_cast<std::size_t>(std::count_if(
        intervals.begin(), intervals.end(),
        [](const Window& w) { return w.steal_frac() <= kCalmSteal; }));
  }

  // A run with calm intervals fewer than a tenth of all reports `all` instead,
  // flagged. The calm seconds of a disturbed run are as fast as those of a calm one
  // (enquiry_mix: 52-61k ops/s in runs with 10-19% steal overall, 59k calm), so a
  // few of them measure better than all of its seconds.
  bool calm_enough() const {
    const std::size_t calm_count = calm_intervals();
    return calm_count > 0 && calm_count * 10 >= intervals.size();
  }
  const Tally& measured() const { return calm_enough() ? calm : all; }
};

double CpuSeconds();
double StealSeconds();
double ThreadCpuSeconds();

class Client {
 public:
  Client(const Config& config, Stack& stack, Oracle& oracle, sdb::obs::Histogram* submit_us)
      : config_(config),
        stack_(stack),
        oracle_(oracle),
        rng_(config.seed * 0xD1B54A32D192ED03ull + 7),
        sets_in_flight_(config.bindings, 0),
        lookups_in_flight_(config.bindings, 0),
        submit_us_(submit_us) {}

  std::atomic<std::uint64_t>& acked_sets() { return acked_sets_; }

  // Every request completed so far, warm-up and read-back included.
  std::uint64_t completed() const { return completed_; }
  std::uint64_t failed() const { return failed_; }

  // Keeps `depth` requests outstanding on every connection of the workload mix for
  // `seconds`, recording completions into `measurement` (nowhere when null) one
  // interval at a time.
  void Run(double seconds, Measurement* measurement) {
    if (inflight_.empty()) {
      for (int d = 0; d < config_.workload.depth; ++d) {
        for (int c = 0; c < kConnections; ++c) {
          SubmitRandom(c);
        }
      }
    }
    const int n = std::max(1, static_cast<int>(std::ceil(seconds / kIntervalSeconds - 1e-9)));
    for (int i = 0; i < n; ++i) {
      Tally* tally = measurement != nullptr ? &measurement->open : nullptr;
      const std::int64_t start = NowNs();
      const double cpu_start = CpuSeconds();
      const double steal_start = StealSeconds();
      const std::int64_t end = start + static_cast<std::int64_t>(seconds / n * 1e9);
      while (NowNs() < end) {
        SubmitRandom(CompleteOldest(tally));
      }
      if (tally != nullptr) {
        tally->total.wall_ns = NowNs() - start;
        tally->total.cpu_s = CpuSeconds() - cpu_start;
        tally->total.steal_s = StealSeconds() - steal_start;
        measurement->CloseInterval();
      }
    }
  }

  void Drain() {
    while (!inflight_.empty()) {
      CompleteOldest(nullptr);
    }
  }

  // Looks up every name over the wire, in order, at the workload's depth: the
  // oracle check of the whole database after the run. Each must be answered.
  void ReadBack() {
    Drain();
    read_back_ = true;
    std::size_t next = 0;
    auto submit_next = [&](int conn) {
      if (next < config_.bindings) {
        Submit(conn, Op::kLookup, next++);
      }
    };
    for (int d = 0; d < config_.workload.depth; ++d) {
      for (int c = 0; c < kConnections; ++c) {
        submit_next(c);
      }
    }
    while (!inflight_.empty()) {
      submit_next(CompleteOldest(nullptr));
    }
    read_back_ = false;
  }

 private:
  struct Pending {
    int conn = 0;
    Op op = Op::kLookup;
    std::size_t key = 0;  // binding for Lookup/Set, department for List
    std::string value;    // Set
    std::int64_t submitted_ns = 0;
    sdb::Result<std::uint64_t> id = std::uint64_t{0};
    std::uint64_t span = 0;  // client.op span id; 0 when untraced
  };

  // A name that no in-flight Set touches (nor, for a Set, any in-flight Lookup), so
  // every Lookup has exactly one acknowledged value to match.
  std::size_t PickKey(Op op) {
    for (;;) {
      std::size_t key = rng_.NextBelow(config_.bindings);
      if (sets_in_flight_[key] == 0 && (op == Op::kLookup || lookups_in_flight_[key] == 0)) {
        return key;
      }
    }
  }

  void SubmitRandom(int conn) {
    const Workload& w = config_.workload;
    int r = static_cast<int>(rng_.NextBelow(100));
    if (r < w.lookup_pct) {
      Submit(conn, Op::kLookup, PickKey(Op::kLookup));
    } else if (r < w.lookup_pct + w.list_pct) {
      Submit(conn, Op::kList, rng_.NextBelow(oracle_.dept_labels.size()));
    } else {
      Submit(conn, Op::kSet, PickKey(Op::kSet), NextValue(rng_));
    }
  }

  void Submit(int conn, Op op, std::size_t key, std::string value = {}) {
    namespace ns = sdb::ns;
    sdb::net::NetChannel& channel = *stack_.channels[conn];
    const std::string service(ns::kNameService);
    Pending p;
    p.conn = conn;
    p.op = op;
    p.key = key;
    p.value = std::move(value);
    if (TracingOn()) {
      p.span = NewSpanId();
    }
    p.submitted_ns = NowNs();
    switch (op) {
      case Op::kLookup:
        ++lookups_in_flight_[key];
        p.id = sdb::net::SubmitCall(channel, service, "Lookup", ns::LookupRequest{PathOf(key)});
        break;
      case Op::kList:
        p.id = sdb::net::SubmitCall(channel, service, "List", ns::ListRequest{DeptOf(key)});
        break;
      case Op::kSet:
        ++sets_in_flight_[key];
        p.id = sdb::net::SubmitCall(channel, service, "Set", ns::SetRequest{PathOf(key), p.value});
        break;
    }
    if (p.span != 0) {
      submit_us_->Record((NowNs() - p.submitted_ns) / 1000);
    }
    inflight_.push_back(std::move(p));
  }

  // Awaits the oldest request, checks it, counts it (into `tally` too when given);
  // returns its connection.
  int CompleteOldest(Tally* tally) {
    Pending p = std::move(inflight_.front());
    inflight_.pop_front();
    namespace ns = sdb::ns;
    sdb::net::NetChannel& channel = *stack_.channels[p.conn];
    Status status = p.id.status();
    std::string got;
    std::vector<std::string> labels;
    if (status.ok()) {
      switch (p.op) {
        case Op::kLookup: {
          auto r = sdb::net::AwaitCall<ns::LookupResponse>(channel, *p.id);
          status = r.status();
          if (r.ok()) {
            got = std::move(r->value);
          }
          break;
        }
        case Op::kList: {
          auto r = sdb::net::AwaitCall<ns::ListResponse>(channel, *p.id);
          status = r.status();
          if (r.ok()) {
            labels = std::move(r->labels);
          }
          break;
        }
        case Op::kSet:
          status = sdb::net::AwaitCall<ns::Ack>(channel, *p.id).status();
          break;
      }
    }
    std::int64_t done = NowNs();
    if (p.span != 0) {
      std::uint64_t key = (static_cast<std::uint64_t>(p.conn) << 48) |
                          (p.id.ok() ? *p.id : 0);
      RecordSpan(SpanRecord{p.span, 0, key, p.submitted_ns, done, 0, SpanName::kClientOp, 0});
    }

    // Every name and department stays bound for the whole run, so a server that
    // answers NotFound has lost a binding: that is wrong state, not a failed request.
    const bool lost = status.code() == sdb::ErrorCode::kNotFound;
    switch (p.op) {
      case Op::kLookup:
        --lookups_in_flight_[p.key];
        if (status.ok()) {
          oracle_.CheckValue(p.key, got, "lookup");
        } else if (lost || read_back_) {
          oracle_.Check(false, "lookup " + PathOf(p.key) + ": " + status.ToString());
        }
        break;
      case Op::kList:
        if (status.ok()) {
          std::sort(labels.begin(), labels.end());
          oracle_.Check(labels == oracle_.dept_labels[p.key],
                        "list " + DeptOf(p.key) + " returned " +
                            std::to_string(labels.size()) + " labels");
        } else if (lost) {
          oracle_.Check(false, "list " + DeptOf(p.key) + ": " + status.ToString());
        }
        break;
      case Op::kSet:
        --sets_in_flight_[p.key];
        if (status.ok()) {
          oracle_.value[p.key] = std::move(p.value);
          oracle_.uncertain[p.key] = false;
          acked_sets_.fetch_add(1, std::memory_order_relaxed);
        } else {
          oracle_.uncertain[p.key] = true;
        }
        break;
    }
    ++completed_;
    if (tally != nullptr) {
      ++tally->total.ops;
      if (!status.ok()) {
        ++tally->total.failed;
      } else {
        double us = static_cast<double>(done - p.submitted_ns) / 1e3;
        if (p.op == Op::kSet) {
          ++tally->total.sets;
          tally->update_us.Record(us);
        } else {
          tally->enquiry_us.Record(us);
        }
      }
    }
    if (!status.ok() && failed_++ < 5) {
      std::fprintf(stderr, "nsbench: request failed: %s\n", status.ToString().c_str());
    }
    return p.conn;
  }

  const Config& config_;
  Stack& stack_;
  Oracle& oracle_;
  sdb::Rng rng_;
  std::vector<std::uint16_t> sets_in_flight_;
  std::vector<std::uint16_t> lookups_in_flight_;
  std::deque<Pending> inflight_;
  std::atomic<std::uint64_t> acked_sets_{0};
  sdb::obs::Histogram* submit_us_;
  bool read_back_ = false;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
};

// NameServer::Checkpoint inside a core.checkpoint span. A recording span also has
// its storage I/O counted, so it is counted itself: the per-checkpoint divisor.
Status Checkpoint(sdb::ns::NameServer& server, StorageStats& storage) {
  ScopedSpan span(SpanName::kCoreCheckpoint);
  if (span.active()) {
    ++storage.checkpoints;
  }
  return server.Checkpoint();
}

// Takes a checkpoint after every `every` acknowledged Sets, concurrently with the
// client, until stopped.
class Checkpointer {
 public:
  Checkpointer(sdb::ns::NameServer& server, StorageStats& storage,
               std::atomic<std::uint64_t>& acked, std::uint64_t every)
      : server_(server),
        storage_(storage),
        acked_(acked),
        every_(every),
        thread_([this] { Loop(); }) {}

  ~Checkpointer() { Stop(); }
  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  // Valid after Stop().
  const std::vector<double>& seconds() const { return seconds_; }
  const Status& status() const { return status_; }

 private:
  void Loop() {
    std::uint64_t next = acked_.load() + every_;
    while (!stop_.load()) {
      if (acked_.load(std::memory_order_relaxed) < next) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      std::int64_t start = NowNs();
      Status status = Checkpoint(server_, storage_);
      seconds_.push_back(Seconds(NowNs() - start));
      if (!status.ok() && status_.ok()) {
        status_ = status;
      }
      next = acked_.load() + every_;
    }
  }

  sdb::ns::NameServer& server_;
  StorageStats& storage_;
  std::atomic<std::uint64_t>& acked_;
  const std::uint64_t every_;
  std::atomic<bool> stop_{false};
  std::vector<double> seconds_;
  Status status_;
  std::thread thread_;  // last: starts once the members above exist
};

// --- engine registry windows ---

constexpr const char* kStages[] = {"lock_wait", "queue_wait", "prepare", "append",
                                   "fsync",     "excl_wait",  "apply",   "ack"};

struct RegistryPoint {
  std::map<std::string, sdb::obs::HistogramSnapshot> histograms;
  std::map<std::string, std::uint64_t> counters;
};

RegistryPoint Take(const sdb::obs::Registry& db) {
  RegistryPoint point;
  auto hist = [&](const sdb::obs::Registry& r, const std::string& name) {
    const sdb::obs::Histogram* h = r.FindHistogram(name);
    point.histograms[name] = h == nullptr ? sdb::obs::HistogramSnapshot{} : h->Snapshot();
  };
  auto counter = [&](const sdb::obs::Registry& r, const std::string& name) {
    const sdb::obs::Counter* c = r.FindCounter(name);
    point.counters[name] = c == nullptr ? 0 : c->value();
  };
  const sdb::obs::Registry& global = sdb::obs::GlobalRegistry();
  for (const char* name : {"net.server.queue_us", "net.server.dispatch_us",
                           "net.server.ingest_batch", "rpc.server.handler_us",
                           "heap.gc.pause_us"}) {
    hist(global, name);
  }
  counter(global, "net.server.read_pauses");
  counter(global, "heap.gc.collections");
  for (const char* stage : kStages) {
    hist(db, std::string("commit.stage.") + stage + "_us");
  }
  hist(db, "checkpoint.stall_us");
  hist(db, "checkpoint.write_us");
  counter(db, "commit.fsyncs");
  counter(db, "db.updates");
  return point;
}

sdb::obs::HistogramSnapshot Diff(const RegistryPoint& from, const RegistryPoint& to,
                                 const std::string& name) {
  sdb::obs::HistogramSnapshot a = from.histograms.at(name);
  sdb::obs::HistogramSnapshot d = to.histograms.at(name);
  a.buckets.resize(d.buckets.size());
  for (std::size_t i = 0; i < d.buckets.size(); ++i) {
    d.buckets[i] -= a.buckets[i];
  }
  d.count -= a.count;
  d.sum -= a.sum;
  return d;
}

std::uint64_t CounterDiff(const RegistryPoint& from, const RegistryPoint& to,
                          const std::string& name) {
  return to.counters.at(name) - from.counters.at(name);
}

// --- host context ---

// Median of 512-byte append + fdatasync rounds on the benchmark's data directory.
double FsyncProbeUs(const std::string& dir, int rounds) {
  std::string path = dir + "/fsync_probe";
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) {
    Fatal("fsync probe open: " + std::string(std::strerror(errno)));
  }
  char block[512];
  std::memset(block, 'p', sizeof(block));
  std::vector<double> us;
  for (int i = 0; i < rounds; ++i) {
    std::int64_t start = NowNs();
    if (::write(fd, block, sizeof(block)) != static_cast<ssize_t>(sizeof(block)) ||
        ::fdatasync(fd) != 0) {
      Fatal("fsync probe write: " + std::string(std::strerror(errno)));
    }
    us.push_back(static_cast<double>(NowNs() - start) / 1e3);
  }
  ::close(fd);
  ::unlink(path.c_str());
  return Median(us);
}

std::uint64_t Burn(std::uint64_t iterations) {
  std::uint64_t x = iterations;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    asm volatile("" : "+r"(x));
  }
  return x;
}

// How many cores' worth of CPU the host delivers right now: one thread's burn time
// against the wall time of the same burn on every core at once, the best of several
// rounds of each. The same burner threads run every round: a new thread starts on
// its parent's core, and the scheduler takes a while to spread them out.
double CpuParallelism() {
  constexpr std::uint64_t kIterations = 20'000'000;
  constexpr int kRounds = 5;
  const unsigned threads = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  double one = 0;
  for (int round = 0; round < kRounds; ++round) {
    const std::int64_t start = NowNs();
    Burn(kIterations);
    const double ns = static_cast<double>(NowNs() - start);
    one = round == 0 ? ns : std::min(one, ns);
  }
  std::barrier sync(static_cast<std::ptrdiff_t>(threads) + 1);
  std::vector<std::thread> burners;
  for (unsigned t = 0; t < threads; ++t) {
    burners.emplace_back([&sync] {
      for (int round = 0; round < kRounds; ++round) {
        sync.arrive_and_wait();
        Burn(kIterations);
        sync.arrive_and_wait();
      }
    });
  }
  double best = 0;
  for (int round = 0; round < kRounds; ++round) {
    sync.arrive_and_wait();
    const std::int64_t start = NowNs();
    sync.arrive_and_wait();
    best = std::max(best, threads * one / static_cast<double>(NowNs() - start));
  }
  for (auto& b : burners) {
    b.join();
  }
  // The single-thread rounds can run slower than a core does in parallel (clock
  // ramp-up, a busier sibling), which would read as more cores than there are.
  return std::min(best, static_cast<double>(threads));
}

double CpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto s = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec / 1e6; };
  return s(usage.ru_utime) + s(usage.ru_stime);
}

// Steal time summed over all CPUs, from /proc/stat (0 where not reported).
double StealSeconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return 0;
  }
  unsigned long long v[8] = {};
  int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2],
                        &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return got == 8 ? static_cast<double>(v[7]) / static_cast<double>(::sysconf(_SC_CLK_TCK)) : 0;
}

double ThreadCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::uint64_t DirectoryBytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      bytes += entry.file_size();
    }
  }
  return bytes;
}

// --- output ---

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void Print(const std::vector<Metric>& metrics, bool correct, std::uint64_t attempted,
           std::uint64_t failed) {
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", std::isfinite(m.value) ? m.value : 0.0);
    json += (i == 0 ? "" : ", ");
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// --- the run ---

int Run(const Config& config) {
  const Workload& w = config.workload;
  fs::create_directories(config.data_dir);
  sdb::PosixFs posix(config.data_dir);
  Layers layers;
  TimingVfs timing_vfs(posix, layers.storage);
  sdb::Vfs& vfs = config.trace ? static_cast<sdb::Vfs&>(timing_vfs) : posix;

  const double fsync_probe_us = FsyncProbeUs(config.data_dir, 50);
  std::printf("nsbench %s seed=%llu seconds=%g trace=%d bindings=%zu\n", w.name,
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0, config.bindings);
  std::printf("  host: fsync_probe_us.p50=%.1f\n", fsync_probe_us);

  // Set-up, several times over on fresh directories; the last one serves the run.
  Oracle oracle;
  Stack stack;
  std::string dir;
  std::vector<double> setup_seconds;
  for (int r = 0; r < config.setup_repeats; ++r) {
    if (!dir.empty()) {
      stack.Reset();
      fs::remove_all(fs::path(config.data_dir) / dir);
    }
    dir = "db" + std::to_string(r);
    std::int64_t start = NowNs();
    stack.server = OpenServer(vfs, dir);
    Populate(*stack.server, config, oracle);
    StartServing(stack, config, layers);
    setup_seconds.push_back(Seconds(NowNs() - start));
  }
  const double tree_mb = stack.server->tree().approximate_bytes() / 1048576.0;
  std::printf("  setup: %zu bindings, NameTree %.2f MB, median %.3f s over %d\n",
              config.bindings, tree_mb, Median(setup_seconds), config.setup_repeats);
  if (config.corrupt_oracle) {
    oracle.value[0] += "#";  // a deliberately wrong expectation the checks must catch
  }
  if (config.lose_binding) {
    // A binding the oracle still expects, removed behind its back: the checks must
    // see NotFound as a lost binding, not as a failed request.
    Status removed = stack.server->Remove(PathOf(0));
    if (!removed.ok()) {
      Fatal("lose binding", removed);
    }
  }

  sdb::obs::Histogram submit_us;
  Client client(config, stack, oracle, &submit_us);
  client.Run(config.warmup_seconds, nullptr);

  // The measured run. The traced run alternates untraced and traced quarters, so
  // the two throughputs it compares see the same database at the same age.
  const RegistryPoint before = Take(stack.server->database().metrics());
  const sdb::DatabaseStats db_before = stack.server->database().stats();
  const double client_cpu_start = ThreadCpuSeconds();
  const std::int64_t run_start_ns = NowNs();
  Measurement untraced_run;
  Measurement traced_run;
  // RpcServer's own handler timing over the traced segments: the enquiry handlers
  // with the program's request and response marshalling (rpc.server.handler_us).
  sdb::obs::HistogramSnapshot traced_handler_us;
  std::int64_t first_traced_ns = 0;
  std::int64_t run_end_ns = 0;
  double client_busy = 0;  // the client thread's CPU share of the run
  std::vector<double> checkpoint_seconds;
  {
    std::unique_ptr<Checkpointer> checkpointer;
    if (w.checkpoint_every > 0) {
      checkpointer = std::make_unique<Checkpointer>(*stack.server, layers.storage,
                                                    client.acked_sets(), w.checkpoint_every);
    }
    const int segments = config.trace ? 4 : 1;
    for (int s = 0; s < segments; ++s) {
      bool on = config.trace && s % 2 == 1;
      if (on && first_traced_ns == 0) {
        first_traced_ns = NowNs();
      }
      const RegistryPoint segment_start = Take(stack.server->database().metrics());
      SetTracing(on);
      client.Run(config.seconds / segments, on ? &traced_run : &untraced_run);
      if (on) {
        const auto handler = Diff(segment_start, Take(stack.server->database().metrics()),
                                  "rpc.server.handler_us");
        traced_handler_us.count += handler.count;
        traced_handler_us.sum += handler.sum;
      }
    }
    SetTracing(false);
    run_end_ns = NowNs();
    client_busy = (ThreadCpuSeconds() - client_cpu_start) / Seconds(run_end_ns - run_start_ns);
    if (checkpointer) {
      checkpointer->Stop();
      if (!checkpointer->status().ok()) {
        Fatal("in-run checkpoint", checkpointer->status());
      }
      checkpoint_seconds = checkpointer->seconds();
    }
  }
  const Window& untraced = untraced_run.all.total;
  const Window& traced = traced_run.all.total;
  Window whole = untraced;
  whole.Add(traced);
  const double steal_frac = whole.steal_frac();
  const RegistryPoint after_run = Take(stack.server->database().metrics());
  const sdb::DatabaseStats db_after = stack.server->database().stats();

  client.ReadBack();

  // Quiescent checkpoints (where the run took none), then a fixed number of updates
  // after the last one, so every reopen replays the same log whatever the run's pace.
  SetTracing(config.trace);
  const int tail_checkpoints = w.checkpoint_every > 0 ? 1 : config.tail_checkpoints;
  for (int c = 0; c < tail_checkpoints; ++c) {
    std::int64_t start = NowNs();
    Status status = Checkpoint(*stack.server, layers.storage);
    if (!status.ok()) {
      Fatal("checkpoint", status);
    }
    if (w.checkpoint_every == 0) {
      checkpoint_seconds.push_back(Seconds(NowNs() - start));
    }
  }
  SetTracing(false);
  const RegistryPoint after_checkpoints = Take(stack.server->database().metrics());
  sdb::Rng tail_rng(config.seed * 0xA24BAED4963EE407ull + 3);
  SetInBatches(*stack.server, config.restart_entries,
               [&] { return tail_rng.NextBelow(config.bindings); }, tail_rng, oracle);
  const std::string db_path = (fs::path(config.data_dir) / dir).string();
  std::uint64_t user_bytes = 0;
  for (std::size_t i = 0; i < config.bindings; ++i) {
    user_bytes += PathOf(i).size() + oracle.value[i].size();
  }
  const double disk_ratio =
      static_cast<double>(DirectoryBytes(db_path)) / static_cast<double>(user_bytes);
  stack.Reset();

  // Restart: reopen the directory several times; every acknowledged Set must be
  // readable after each, and each must replay the same log.
  std::vector<double> restart_seconds, load_us, replay_us, entries;
  for (int r = 0; r < config.reopens; ++r) {
    SetTracing(config.trace);
    std::int64_t start = NowNs();
    std::unique_ptr<sdb::ns::NameServer> server;
    {
      ScopedSpan span(SpanName::kCoreOpen);
      server = OpenServer(vfs, dir);
    }
    restart_seconds.push_back(Seconds(NowNs() - start));
    SetTracing(false);
    const sdb::RestartBreakdown restart = server->database().stats().restart;
    load_us.push_back(static_cast<double>(restart.checkpoint_read_micros));
    replay_us.push_back(static_cast<double>(restart.replay_micros));
    entries.push_back(static_cast<double>(restart.entries_replayed));
    oracle.Check(restart.entries_replayed == config.restart_entries,
                 "reopen replayed " + std::to_string(restart.entries_replayed) +
                     " log entries, expected " + std::to_string(config.restart_entries));
    for (std::size_t i = 0; i < config.bindings; ++i) {
      sdb::Result<std::string> value = server->Lookup(PathOf(i));
      oracle.Check(value.ok(), "after reopen, lookup " + PathOf(i) + " failed");
      if (value.ok()) {
        oracle.CheckValue(i, *value, "after reopen");
      }
    }
  }
  fs::remove_all(config.data_dir);

  // --- report ---
  const bool correct = oracle.violations == 0;
  // Every request sent, warm-up and read-back included; ops_per_s counts only the
  // measured run's.
  const std::uint64_t attempted = client.completed();
  const std::uint64_t failed = client.failed();
  std::printf("  host: %.1f%% of the CPUs stolen by the hypervisor during the run; "
              "client thread busy %.0f%%\n",
              100 * steal_frac, 100 * client_busy);
  // Probed once the server has stopped, so that only other tenants compete with it.
  const double cpu_parallelism = CpuParallelism();
  std::printf("  host: cpu_parallelism=%.2f after the run\n", cpu_parallelism);
  std::printf("  host: %zu of %zu measured intervals calm (steal <= %.0f%%)\n",
              untraced_run.calm_intervals(), untraced_run.intervals.size(), 100 * kCalmSteal);
  // Not a failure: the figures stand, but run.py measures a flagged run once more.
  if (!untraced_run.calm_enough()) {
    std::printf("  host: DISTURBED run (%zu calm intervals): figures from every interval\n",
                untraced_run.calm_intervals());
  }
  std::printf("  oracle: %llu checks, %llu violations; %llu ops attempted, %llu failed "
              "(fail_ratio %.6f)\n",
              static_cast<unsigned long long>(oracle.checks),
              static_cast<unsigned long long>(oracle.violations),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              attempted == 0 ? 0.0 : static_cast<double>(failed) / attempted);

  std::vector<Metric> metrics;
  if (!config.trace) {
    auto ops_per_s = [](const Window& window) { return window.ops / Seconds(window.wall_ns); };
    const Tally& measured = untraced_run.measured();
    const LatencyHistogram& enquiry_us = measured.enquiry_us;
    const LatencyHistogram& update_us = measured.update_us;
    std::printf("  samples: %llu enquiries, %llu updates, %zu intervals, %zu checkpoints, "
                "%d reopens\n",
                static_cast<unsigned long long>(enquiry_us.count()),
                static_cast<unsigned long long>(update_us.count()),
                untraced_run.intervals.size(), checkpoint_seconds.size(), config.reopens);
    std::printf("  by interval, ops/s (host steal %%):");
    for (const Window& interval : untraced_run.intervals) {
      std::printf(" %.0f (%.0f)", ops_per_s(interval), 100 * interval.steal_frac());
    }
    std::printf("\n");
    std::printf("  every interval: %.0f ops/s, p90 enquiry %.1f us, update %.1f us\n",
                ops_per_s(untraced), untraced_run.all.enquiry_us.Quantile(0.90),
                untraced_run.all.update_us.Quantile(0.90));
    // Reported, not bounded: too unsteady on a shared host (see README.md).
    std::printf("  p99: enquiry %.1f us, update %.1f us\n", enquiry_us.Quantile(0.99),
                update_us.Quantile(0.99));
    // The request figures cover every calm second of the measured run (Measurement);
    // the others every checkpoint and every reopen.
    metrics = {
        {"setup_s", Median(setup_seconds), "s"},
        {"ops_per_s", ops_per_s(measured.total), "1/s"},
        {"enquiry_p50_us", enquiry_us.Quantile(0.50), "us"},
        {"enquiry_p90_us", enquiry_us.Quantile(0.90), "us"},
        {"update_p50_us", update_us.Quantile(0.50), "us"},
        {"update_p90_us", update_us.Quantile(0.90), "us"},
        {"checkpoint_s", Median(checkpoint_seconds), "s"},
        {"restart_s", Median(restart_seconds), "s"},
        {"cpu_us_per_op",
         measured.total.cpu_s * 1e6 /
             static_cast<double>(std::max<std::uint64_t>(1, measured.total.ops)),
         "us"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"disk_bytes_per_user_byte", disk_ratio, "ratio"},
    };
  } else {
    const std::vector<SpanRecord> spans = CollectSpans();
    // The file keeps the first traced second of requests and the checkpoints and
    // restarts after the run, of the spans kept in memory (at most 1M; a full run
    // reaches that in its first traced quarter, and later spans are only counted).
    // The attribution below uses every span kept.
    std::vector<SpanRecord> written;
    for (const SpanRecord& span : spans) {
      if ((span.start_ns >= first_traced_ns && span.start_ns < first_traced_ns + 1'000'000'000) ||
          span.start_ns >= run_end_ns) {
        written.push_back(span);
      }
    }
    if (!config.spans_out.empty() && !WriteSpans(written, config.spans_out)) {
      Fatal("writing spans to " + config.spans_out);
    }
    const Attribution attribution = Attribute(spans, traced_handler_us.mean());
    const StorageStats& st = layers.storage;
    const CoreStats& co = layers.core;
    const double traced_s = Seconds(traced.wall_ns);
    const double traced_ops_per_s = traced.ops / traced_s;
    const double untraced_ops_per_s = untraced.ops / Seconds(untraced.wall_ns);
    const auto sync = st.commit_sync_us.Snapshot();
    const auto commit_many = co.commit_many_us.Snapshot();
    const auto prepare = co.prepare_us.Snapshot();
    const auto submit = submit_us.Snapshot();
    const double checkpoints =
        static_cast<double>(std::max<std::uint64_t>(1, st.checkpoints.load()));
    const double run_updates =
        static_cast<double>(std::max<std::uint64_t>(1, db_after.updates - db_before.updates));
    auto run_hist = [&](const std::string& name) { return Diff(before, after_run, name); };
    auto ckpt_hist = [&](const std::string& name) {
      return Diff(before, after_checkpoints, name);
    };
    metrics = {
        {"storage.sync.count", static_cast<double>(sync.count), "count"},
        {"storage.sync_us.p50", sync.p50(), "us"},
        {"storage.sync_us.p99", sync.p99(), "us"},
        {"storage.sync_busy_frac", st.commit_sync_total_us / 1e6 / traced_s, "ratio"},
        {"storage.append.bytes_per_update",
         st.commit_append_bytes / static_cast<double>(std::max<std::uint64_t>(1, traced.sets)),
         "B/update"},
        {"storage.read.bytes", st.open_read_bytes / static_cast<double>(config.reopens), "B"},
        {"storage.read_us.total", st.open_read_us / static_cast<double>(config.reopens), "us"},
        {"storage.rename.count", st.checkpoint_renames / checkpoints, "count"},
        {"storage.syncdir.count", st.checkpoint_syncdirs / checkpoints, "count"},
        {"core.commit_many_us.p50", commit_many.p50(), "us"},
        {"core.commit_many_us.p99", commit_many.p99(), "us"},
        {"core.commit_many.updates_per_call",
         co.commit_many_updates / static_cast<double>(std::max<std::uint64_t>(
                                      1, co.commit_many_calls.load())),
         "updates/call"},
        {"core.fsyncs_per_update", CounterDiff(before, after_run, "commit.fsyncs") / run_updates,
         "ratio"},
    };
    for (const char* stage : kStages) {
      auto h = run_hist(std::string("commit.stage.") + stage + "_us");
      metrics.push_back({std::string("core.commit.stage.") + stage + "_us.p50", h.p50(), "us"});
      metrics.push_back({std::string("core.commit.stage.") + stage + "_us.p99", h.p99(), "us"});
    }
    std::vector<Metric> rest = {
        {"core.checkpoint.stall_us", ckpt_hist("checkpoint.stall_us").p50(), "us"},
        {"core.checkpoint.write_us", ckpt_hist("checkpoint.write_us").p50(), "us"},
        {"core.restart.load_us", Median(load_us), "us"},
        {"core.restart.replay_us", Median(replay_us), "us"},
        {"core.restart.log_entries", Median(entries), "count"},
        {"nameserver.prepare_us.p50", prepare.p50(), "us"},
        {"nameserver.prepare_us.p99", prepare.p99(), "us"},
        {"nameserver.heap.collections",
         static_cast<double>(CounterDiff(before, after_run, "heap.gc.collections")), "count"},
        {"nameserver.heap.pause_us.p99", run_hist("heap.gc.pause_us").p99(), "us"},
        {"rpc.server.handler_us.p50", run_hist("rpc.server.handler_us").p50(), "us"},
        {"rpc.server.handler_us.p99", run_hist("rpc.server.handler_us").p99(), "us"},
        {"net.client.submit_us.p50", submit.p50(), "us"},
        {"net.server.queue_us.p50", run_hist("net.server.queue_us").p50(), "us"},
        {"net.server.queue_us.p99", run_hist("net.server.queue_us").p99(), "us"},
        {"net.server.dispatch_us.p50", run_hist("net.server.dispatch_us").p50(), "us"},
        {"net.server.ingest_batch.mean", run_hist("net.server.ingest_batch").mean(), "updates"},
        {"net.server.read_pauses",
         static_cast<double>(CounterDiff(before, after_run, "net.server.read_pauses")), "count"},
        {"host.fsync_probe_us.p50", fsync_probe_us, "us"},
        {"host.cpu_parallelism", cpu_parallelism, "cores"},
        {"host.steal_frac", steal_frac, "ratio"},
    };
    metrics.insert(metrics.end(), rest.begin(), rest.end());
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      metrics.push_back({std::string("trace.") + LayerName(static_cast<Layer>(l)) +
                             ".self_us_per_op",
                         attribution.self_us[l] /
                             static_cast<double>(std::max<std::uint64_t>(1, attribution.client_ops)),
                         "us"});
    }
    metrics.push_back({"trace.ops_per_s.traced", traced_ops_per_s, "1/s"});
    metrics.push_back({"trace.ops_per_s.untraced", untraced_ops_per_s, "1/s"});
    metrics.push_back({"trace.overhead_frac", 1.0 - traced_ops_per_s / untraced_ops_per_s,
                       "ratio"});
    metrics.push_back({"trace.spans", static_cast<double>(spans.size()), "count"});
    std::printf("  trace: %zu spans (%llu dropped), %llu client ops attributed, mean "
                "latency %.1f us; %zu spans%s%s\n",
                spans.size(), static_cast<unsigned long long>(DroppedSpans()),
                static_cast<unsigned long long>(attribution.client_ops),
                attribution.client_us / std::max<std::uint64_t>(1, attribution.client_ops),
                written.size(), config.spans_out.empty() ? "" : " written to ",
                config.spans_out.c_str());
  }
  Print(metrics, correct, attempted, failed);
  return correct ? 0 : 1;
}

int Main(int argc, char** argv) {
  Config config;
  std::string workload;
  bool have_seed = false, have_seconds = false, have_trace = false;
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        Fatal("missing value for " + arg);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = next();
    } else if (arg == "--seed") {
      config.seed = std::strtoull(next().c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(next().c_str(), nullptr);
      have_seconds = true;
    } else if (arg == "--trace") {
      config.trace = next() == "1";
      have_trace = true;
    } else if (arg == "--data-dir") {
      config.data_dir = next();
    } else if (arg == "--spans-out") {
      config.spans_out = next();
    } else if (arg == "--tiny") {
      tiny = true;
    } else if (arg == "--corrupt-oracle") {
      config.corrupt_oracle = true;
    } else if (arg == "--lose-binding") {
      config.lose_binding = true;
    } else {
      Fatal("unknown argument " + arg);
    }
  }
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) {
      found = &w;
    }
  }
  if (found == nullptr || !have_seed || !have_seconds || !have_trace ||
      config.data_dir.empty() || !(config.seconds > 0)) {
    Fatal("usage: nsbench --workload <enquiry_mix|checkpoint_restart> "
          "--seed <n> --seconds <s> --trace <0|1> --data-dir <dir> [--spans-out <file>] "
          "[--tiny] [--corrupt-oracle] [--lose-binding]");
  }
  config.workload = *found;
  config.bindings = found->bindings;
  config.reopens = found->reopens;
  if (tiny) {
    config.bindings = std::max<std::size_t>(200, found->bindings / 20);
    config.workload.checkpoint_every = found->checkpoint_every / 20;
    config.setup_repeats = 1;
    config.reopens = 2;
    config.tail_checkpoints = 2;
    config.restart_entries = 512;
    config.warmup_seconds = 0.1;
  }
  if (fs::exists(config.data_dir)) {
    Fatal("data directory " + config.data_dir + " already exists");
  }
  return Run(config);
}

}  // namespace
}  // namespace nsbench

int main(int argc, char** argv) { return nsbench::Main(argc, argv); }
