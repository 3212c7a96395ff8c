// The benchmark's own measurement logic: percentiles and the rule for which
// ones a sample supports, open-loop due-time accounting, attribution of an
// update to the query barrier that made it visible, and engine busy time
// inside a window. Pure functions over timestamps, so
// tests/metrics_test.cc can pin each rule with hand-made inputs.
#ifndef PERFBENCH_SRC_METRICS_H_
#define PERFBENCH_SRC_METRICS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

namespace perfbench {

// Seconds on the steady clock since the first call in this process. Every
// span and schedule in the benchmark is stamped with it.
inline double Now() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

struct Interval {
  double start = 0.0;
  double end = 0.0;
  double length() const { return end - start; }
};

// The q-quantile (q in [0, 1]) by linear interpolation between the two
// closest ranks. 0 for an empty sample.
inline double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (pos - static_cast<double>(lo));
}

inline double Sum(const std::vector<double>& samples) {
  double total = 0.0;
  for (const double s : samples) {
    total += s;
  }
  return total;
}

inline double Max(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : *std::max_element(samples.begin(), samples.end());
}

// Samples ranked strictly above the q-quantile of n samples: n - ceil(q n).
inline size_t SamplesBeyond(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return rank >= static_cast<double>(n) ? 0 : n - static_cast<size_t>(rank);
}

// A percentile is reported only when at least ten samples lie beyond it;
// fewer, and one outlier decides it.
inline constexpr size_t kMinSamplesBeyond = 10;

inline bool PercentileSupported(size_t n, double q) {
  return SamplesBeyond(n, q) >= kMinSamplesBeyond;
}

// The highest of `candidates` (any order) that n samples support, or none.
inline std::optional<double> HighestSupportedPercentile(size_t n,
                                                        std::span<const double> candidates) {
  std::optional<double> best;
  for (const double q : candidates) {
    if (PercentileSupported(n, q) && (!best.has_value() || q > *best)) {
      best = q;
    }
  }
  return best;
}

// Open-loop schedule: operation i is due at start + i / rate, whatever
// happened to operation i - 1.
struct OpenLoopSchedule {
  double start = 0.0;
  double rate = 1.0;  // operations per second
  double Due(size_t i) const { return start + static_cast<double>(i) / rate; }
};

// An open-loop operation is timed from when it was due, not from when the
// generator got round to issuing it, so a stall is charged to every
// operation queued behind it. `late` is how far behind schedule the
// generator issued it (never negative: the generator waits for due times).
struct DueTiming {
  double latency = 0.0;
  double late = 0.0;
};

inline DueTiming TimeFromDue(double due, double issued, double done) {
  return {done - due, std::max(0.0, issued - due)};
}

// Update→queryable attribution. An ingest is visible to the first query
// barrier that *began* at or after the ingest call returned: a barrier
// already running when the ingest returned may or may not include it.
// `barriers` must be sorted by start (one reader thread issues them in
// sequence). Returns, per ingest, that barrier's end minus the ingest's
// start, or nullopt when no barrier began after it.
inline std::vector<std::optional<double>> AttributeToBarriers(
    const std::vector<Interval>& ingests, const std::vector<Interval>& barriers) {
  std::vector<std::optional<double>> latencies;
  latencies.reserve(ingests.size());
  for (const Interval& ingest : ingests) {
    const auto it = std::lower_bound(
        barriers.begin(), barriers.end(), ingest.end,
        [](const Interval& barrier, double t) { return barrier.start < t; });
    if (it == barriers.end()) {
      latencies.push_back(std::nullopt);
    } else {
      latencies.push_back(it->end - ingest.start);
    }
  }
  return latencies;
}

// Time covered by a set of (possibly overlapping) spans, queryable for any
// window in O(log n): the union of the spans is stored as disjoint sorted
// intervals with a running prefix of covered time.
class BusyIndex {
 public:
  explicit BusyIndex(std::vector<Interval> spans) {
    std::sort(spans.begin(), spans.end(),
              [](const Interval& a, const Interval& b) { return a.start < b.start; });
    for (const Interval& s : spans) {
      if (!merged_.empty() && s.start <= merged_.back().end) {
        merged_.back().end = std::max(merged_.back().end, s.end);
      } else {
        merged_.push_back(s);
      }
    }
    prefix_.reserve(merged_.size() + 1);
    prefix_.push_back(0.0);
    for (const Interval& m : merged_) {
      prefix_.push_back(prefix_.back() + m.length());
    }
  }

  // Covered time inside [a, b].
  double CoveredWithin(double a, double b) const {
    return b <= a ? 0.0 : CoveredBefore(b) - CoveredBefore(a);
  }

 private:
  // Covered time inside (-inf, t].
  double CoveredBefore(double t) const {
    // First merged interval starting after t; everything before it counts,
    // clipped at t for the one that may straddle it.
    const auto it = std::upper_bound(merged_.begin(), merged_.end(), t,
                                     [](double x, const Interval& m) { return x < m.start; });
    const size_t k = static_cast<size_t>(it - merged_.begin());
    if (k == 0) {
      return 0.0;
    }
    const Interval& last = merged_[k - 1];
    return prefix_[k - 1] + (std::min(t, last.end) - last.start);
  }

  std::vector<Interval> merged_;
  std::vector<double> prefix_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_METRICS_H_
