// Adaptive sizing of the background-compaction budget.
//
// The drivers run SlackCsr maintenance steps in the idle windows between
// batches, bounded by an edge budget so a step never adds unbounded latency
// in front of a queued batch. A static budget is either too timid (slack
// piles up under a slow trickle with long idle gaps) or too aggressive
// (a tick eats into the next batch's latency on a saturated stream).
//
// MaintenanceBudget derives the budget from two observed signals:
//
//   idle  EWMA of the worker's idle-window length — the time a queue poll
//         actually waited before coming back empty;
//   cost  EWMA of the per-edge maintenance cost, measured across steps
//         that copied at least one edge.
//
// Next() sizes a tick to fill about half the typical idle window at the
// observed per-edge cost, clamped to [4096, 2^22] edges. Until both
// signals have data it returns a fixed starting budget of 2^16 edges.
#ifndef SRC_DRIVER_MAINTENANCE_BUDGET_H_
#define SRC_DRIVER_MAINTENANCE_BUDGET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <mutex>

namespace graphbolt {

class MaintenanceBudget {
 public:
  // The worker waited `seconds` on an empty queue before its poll expired.
  void RecordIdle(double seconds) {
    if (seconds <= 0.0) {
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    idle_ewma_ = idle_ewma_ == 0.0 ? seconds
                                   : kAlpha * seconds + (1.0 - kAlpha) * idle_ewma_;
  }

  // A maintenance step copied `edges` edges in `seconds` wall-clock. Steps
  // that found no compaction work (edges == 0) carry no cost signal.
  void RecordStep(uint64_t edges, double seconds) {
    if (edges == 0 || seconds <= 0.0) {
      return;
    }
    const double per_edge = seconds / static_cast<double>(edges);
    std::lock_guard<std::mutex> lock(mu_);
    cost_ewma_ = cost_ewma_ == 0.0 ? per_edge
                                   : kAlpha * per_edge + (1.0 - kAlpha) * cost_ewma_;
  }

  // The edge budget for the next maintenance step.
  size_t Next() const {
    std::lock_guard<std::mutex> lock(mu_);
    if (idle_ewma_ == 0.0 || cost_ewma_ == 0.0) {
      return kInitial;  // no measurements yet
    }
    const double edges = idle_ewma_ * kIdleFraction / cost_ewma_;
    return static_cast<size_t>(
        std::clamp(edges, static_cast<double>(kFloor), static_cast<double>(kCap)));
  }

 private:
  static constexpr double kAlpha = 0.2;         // EWMA smoothing factor
  static constexpr double kIdleFraction = 0.5;  // fill half the idle window
  static constexpr size_t kFloor = 4096;        // never starve maintenance
  static constexpr size_t kCap = size_t{1} << 22;  // bound a single tick
  static constexpr size_t kInitial = size_t{1} << 16;  // before measurements

  mutable std::mutex mu_;
  double idle_ewma_ = 0.0;
  double cost_ewma_ = 0.0;
};

}  // namespace graphbolt

#endif  // SRC_DRIVER_MAINTENANCE_BUDGET_H_
