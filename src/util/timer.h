// Wall-clock timers used by the benchmark harnesses and the engines'
// self-reported phase timings.
#ifndef SRC_UTIL_TIMER_H_
#define SRC_UTIL_TIMER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

namespace graphbolt {

// A restartable wall-clock timer with microsecond resolution.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  // Resets the epoch to now.
  void Reset() { start_ = Clock::now(); }

  // Seconds elapsed since construction or the last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  // Milliseconds elapsed since construction or the last Reset().
  double Millis() const { return Seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

// Exponential-backoff sleeper for retry loops on the durable IO paths
// (WAL appends, checkpoint writes): each Sleep() waits the current delay,
// then multiplies it for the next attempt. The delay is capped at
// max_seconds so a long retry chain cannot wedge the worker for an
// unbounded stretch, and each sleep is jittered into [delay/2, delay] so
// concurrent retriers (multiple drivers against the same disk) decorrelate
// instead of hammering in lockstep. The jitter stream is deterministic per
// Backoff instance when a seed is supplied; by default it draws from a
// process-wide counter, which is still reproducible under single-threaded
// test runs.
class Backoff {
 public:
  Backoff(double initial_seconds, double multiplier,
          double max_seconds = kNoMax, uint64_t seed = 0)
      : delay_seconds_(initial_seconds),
        multiplier_(multiplier),
        max_seconds_(max_seconds > 0.0 ? max_seconds : kNoMax),
        rng_(Mix(seed != 0 ? seed : NextAutoSeed())) {}

  // Sleeps for the (jittered, capped) current delay and advances to the
  // next one.
  void Sleep() {
    std::this_thread::sleep_for(std::chrono::duration<double>(JitteredDelay()));
    delay_seconds_ = delay_seconds_ * multiplier_;
    if (delay_seconds_ > max_seconds_) {
      delay_seconds_ = max_seconds_;
    }
  }

  // The (uncapped-by-jitter) delay the next Sleep() draws from; the actual
  // sleep lands in [next_delay_seconds()/2, next_delay_seconds()].
  double next_delay_seconds() const { return delay_seconds_; }

  double max_seconds() const { return max_seconds_; }

 private:
  static constexpr double kNoMax = 1e30;

  static uint64_t NextAutoSeed() {
    static std::atomic<uint64_t> counter{0x6261636b6f666631ULL};  // "backoff1"
    return counter.fetch_add(0x9e3779b97f4a7c15ULL) + 1;
  }

  static uint64_t Mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  double JitteredDelay() {
    rng_ = Mix(rng_);
    const double u = static_cast<double>(rng_ >> 11) * 0x1.0p-53;  // [0, 1)
    return delay_seconds_ * (0.5 + 0.5 * u);
  }

  double delay_seconds_;
  double multiplier_;
  double max_seconds_;
  uint64_t rng_;
};

}  // namespace graphbolt

#endif  // SRC_UTIL_TIMER_H_
