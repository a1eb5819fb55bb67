// Wall-clock helpers for benchmarks and throughput/latency accounting.
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>

namespace mvtee::util {

inline int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time consumed by the calling thread. Used by the virtual-time
// performance model: on a core-limited simulation host, wall-clock
// durations include scheduler preemption, while thread CPU time is the
// faithful cost of the work itself. Each read is a clock_gettime
// syscall (no vDSO fast path), several times the cost of NowNanos.
inline int64_t ThreadCpuNanos() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

inline int64_t ThreadCpuMicros() { return ThreadCpuNanos() / 1'000; }

// Simple scoped timer accumulating into an int64 microsecond counter.
class ScopedTimer {
 public:
  explicit ScopedTimer(int64_t& accumulator_us)
      : accumulator_(accumulator_us), start_(NowMicros()) {}
  ~ScopedTimer() { accumulator_ += NowMicros() - start_; }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  int64_t& accumulator_;
  int64_t start_;
};

}  // namespace mvtee::util
