// Clocks. The benchmark harness reproduces the paper's MicroVAX-era timings by charging
// simulated time to a SimClock; production use runs against the wall clock. All times
// are microseconds.
#ifndef SMALLDB_SRC_COMMON_CLOCK_H_
#define SMALLDB_SRC_COMMON_CLOCK_H_

#include <atomic>
#include <cstdint>
#include <memory>

namespace sdb {

using Micros = std::int64_t;

constexpr Micros kMicrosPerMilli = 1000;
constexpr Micros kMicrosPerSecond = 1000 * 1000;

class Clock {
 public:
  virtual ~Clock() = default;

  // Current time, microseconds since an arbitrary epoch.
  virtual Micros NowMicros() const = 0;

  // Advances simulated time by `amount`; charges nothing on a wall clock (the elapsed
  // real time *is* the cost there). Simulated components call this to account for work
  // they model but do not perform (disk seeks, MicroVAX CPU cycles).
  virtual void Charge(Micros amount) = 0;
};

// Monotonic wall clock. Charge() is a no-op.
class WallClock final : public Clock {
 public:
  Micros NowMicros() const override;
  void Charge(Micros /*amount*/) override {}
};

// Discrete-event simulated clock: time advances only when charged. Thread-safe.
class SimClock final : public Clock {
 public:
  explicit SimClock(Micros start = 0) : now_(start) {}

  Micros NowMicros() const override { return now_.load(std::memory_order_relaxed); }
  void Charge(Micros amount) override { now_.fetch_add(amount, std::memory_order_relaxed); }

  void Set(Micros now) { now_.store(now, std::memory_order_relaxed); }

 private:
  std::atomic<Micros> now_;
};

// CPU time the calling thread has consumed (CLOCK_THREAD_CPUTIME_ID). Unlike a
// wall clock it does not advance while the thread is descheduled.
Micros ThreadCpuMicros();

// A scoped stopwatch reading from any Clock.
class Stopwatch {
 public:
  explicit Stopwatch(const Clock& clock) : clock_(clock), start_(clock.NowMicros()) {}
  Micros ElapsedMicros() const { return clock_.NowMicros() - start_; }
  void Reset() { start_ = clock_.NowMicros(); }

 private:
  const Clock& clock_;
  Micros start_;
};

}  // namespace sdb

#endif  // SMALLDB_SRC_COMMON_CLOCK_H_
