// Tests of the benchmark's own logic: which percentiles a sample supports,
// due-time latency when the generator runs late, the "first barrier that
// began after the ingest" attribution, busy time inside a window, and
// TracedEngine's concept parity with the engine it wraps.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "perfbench/src/metrics.h"
#include "perfbench/src/traced_engine.h"
#include "src/algorithms/pagerank.h"
#include "src/algorithms/sssp.h"
#include "src/core/graphbolt_engine.h"
#include "src/driver/fast_path.h"
#include "src/engine/ligra_engine.h"
#include "src/kickstarter/kickstarter_engine.h"

namespace perfbench {
namespace {

using graphbolt::AsyncDeltaEngine;
using graphbolt::CheckpointableEngine;
using graphbolt::FastPathEngine;
using graphbolt::GraphMaintainableEngine;
using graphbolt::StreamingEngine;

// ----- TracedEngine satisfies exactly the concepts its engine satisfies -------

template <typename E>
constexpr bool kSameConcepts =
    StreamingEngine<TracedEngine<E>> == StreamingEngine<E> &&
    CheckpointableEngine<TracedEngine<E>> == CheckpointableEngine<E> &&
    GraphMaintainableEngine<TracedEngine<E>> == GraphMaintainableEngine<E> &&
    FastPathEngine<TracedEngine<E>> == FastPathEngine<E> &&
    AsyncDeltaEngine<TracedEngine<E>> == AsyncDeltaEngine<E>;

using PageRankEngine = graphbolt::GraphBoltEngine<graphbolt::PageRank>;
using SsspEngine = graphbolt::GraphBoltEngine<graphbolt::Sssp>;
using LigraPageRank = graphbolt::LigraEngine<graphbolt::PageRank>;
using KickStarter = graphbolt::KickStarterEngine<graphbolt::KsSsspTraits>;

// The two engines the benchmark wraps, in both directions: every concept
// the engine has, the wrapper has, and none it lacks.
static_assert(kSameConcepts<PageRankEngine>);
static_assert(AsyncDeltaEngine<TracedEngine<PageRankEngine>>);
static_assert(FastPathEngine<TracedEngine<PageRankEngine>>);
static_assert(CheckpointableEngine<TracedEngine<PageRankEngine>>);
static_assert(GraphMaintainableEngine<TracedEngine<PageRankEngine>>);

static_assert(kSameConcepts<SsspEngine>);
static_assert(FastPathEngine<TracedEngine<SsspEngine>>);
static_assert(!AsyncDeltaEngine<SsspEngine>);
static_assert(!AsyncDeltaEngine<TracedEngine<SsspEngine>>);

// Engines with other concept sets keep theirs too.
static_assert(kSameConcepts<LigraPageRank>);
static_assert(kSameConcepts<KickStarter>);

// ----- Percentile support -----------------------------------------------------

TEST(PercentileTest, QuantileInterpolatesBetweenRanks) {
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(Quantile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({5.0, 1.0}, 1.0), 5.0);
}

TEST(PercentileTest, SupportNeedsTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(100, 0.9), 10u);
  EXPECT_TRUE(PercentileSupported(100, 0.9));
  EXPECT_FALSE(PercentileSupported(99, 0.9));
  EXPECT_TRUE(PercentileSupported(1000, 0.99));
  EXPECT_FALSE(PercentileSupported(999, 0.99));
  EXPECT_TRUE(PercentileSupported(20, 0.5));
  EXPECT_FALSE(PercentileSupported(19, 0.5));
}

TEST(PercentileTest, HighestSupportedPercentile) {
  const std::vector<double> candidates = {0.5, 0.9, 0.99, 0.999};
  EXPECT_EQ(HighestSupportedPercentile(10, candidates), std::nullopt);
  EXPECT_EQ(HighestSupportedPercentile(20, candidates), 0.5);
  EXPECT_EQ(HighestSupportedPercentile(999, candidates), 0.9);
  EXPECT_EQ(HighestSupportedPercentile(1000, candidates), 0.99);
  EXPECT_EQ(HighestSupportedPercentile(10000, candidates), 0.999);
  // Candidate order does not matter.
  const std::vector<double> shuffled = {0.99, 0.5, 0.9};
  EXPECT_EQ(HighestSupportedPercentile(5000, shuffled), 0.99);
}

// ----- Due-time accounting ----------------------------------------------------

TEST(DueTimeTest, OnScheduleOperationIsTimedFromItsDueTime) {
  const OpenLoopSchedule schedule{.start = 10.0, .rate = 100.0};
  EXPECT_DOUBLE_EQ(schedule.Due(0), 10.0);
  EXPECT_DOUBLE_EQ(schedule.Due(3), 10.03);
  const DueTiming t = TimeFromDue(schedule.Due(3), 10.03, 10.035);
  EXPECT_NEAR(t.latency, 0.005, 1e-12);
  EXPECT_DOUBLE_EQ(t.late, 0.0);
}

TEST(DueTimeTest, LateGeneratorChargesTheStallToQueuedOperations) {
  // Operation 0 stalls for 35 ms; operations 1..3 were due every 10 ms and
  // are issued only when it returns. Each is timed from its own due time,
  // so the stall shows in all of them, not just the first.
  const OpenLoopSchedule schedule{.start = 0.0, .rate = 100.0};
  const DueTiming first = TimeFromDue(schedule.Due(0), 0.0, 0.035);
  EXPECT_NEAR(first.latency, 0.035, 1e-12);
  EXPECT_DOUBLE_EQ(first.late, 0.0);
  double issued = 0.035;
  for (size_t i = 1; i <= 3; ++i) {
    const double done = issued + 0.001;  // each takes 1 ms
    const DueTiming t = TimeFromDue(schedule.Due(i), issued, done);
    EXPECT_NEAR(t.late, issued - schedule.Due(i), 1e-12);
    EXPECT_NEAR(t.latency, done - schedule.Due(i), 1e-12);
    EXPECT_GT(t.latency, done - issued);  // more than the service time
    issued = done;
  }
}

TEST(DueTimeTest, EarlyIssueIsNeverNegativeLateness) {
  EXPECT_DOUBLE_EQ(TimeFromDue(1.0, 0.999, 1.5).late, 0.0);
}

// ----- Barrier attribution ----------------------------------------------------

TEST(BarrierAttributionTest, FirstBarrierThatBeganAfterTheIngestReturned) {
  // Reader barriers: [1.0, 1.5], [2.0, 2.2], [3.0, 3.9]; final [5.0, 5.1].
  const std::vector<Interval> barriers = {{1.0, 1.5}, {2.0, 2.2}, {3.0, 3.9}, {5.0, 5.1}};
  const std::vector<Interval> ingests = {
      {0.2, 0.4},  // before any barrier: the first one serves it
      {0.9, 1.1},  // returned after barrier 1 began: barrier 1 may miss it, so barrier 2
      {1.2, 1.3},  // during barrier 1 (interleaved producer): barrier 2
      {2.0, 2.0},  // returned exactly when barrier 2 began: barrier 2 counts
      {2.1, 2.9},  // two producers interleaved with the reader: barrier 3
      {3.95, 4.5}, // after the last reader barrier: the final one
  };
  const std::vector<std::optional<double>> got = AttributeToBarriers(ingests, barriers);
  ASSERT_EQ(got.size(), ingests.size());
  EXPECT_NEAR(*got[0], 1.5 - 0.2, 1e-12);
  EXPECT_NEAR(*got[1], 2.2 - 0.9, 1e-12);
  EXPECT_NEAR(*got[2], 2.2 - 1.2, 1e-12);
  EXPECT_NEAR(*got[3], 2.2 - 2.0, 1e-12);
  EXPECT_NEAR(*got[4], 3.9 - 2.1, 1e-12);
  EXPECT_NEAR(*got[5], 5.1 - 3.95, 1e-12);
}

TEST(BarrierAttributionTest, NoBarrierAfterTheIngest) {
  const std::vector<std::optional<double>> got =
      AttributeToBarriers({{2.0, 2.5}}, {{1.0, 3.0}});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_FALSE(got[0].has_value());
}

// ----- Busy time --------------------------------------------------------------

TEST(BusyIndexTest, CoveredTimeOfOverlappingSpansInsideAWindow) {
  // Union: [1, 3] and [4, 5].
  const BusyIndex busy({{2.0, 3.0}, {1.0, 2.5}, {4.0, 5.0}});
  EXPECT_DOUBLE_EQ(busy.CoveredWithin(0.0, 10.0), 3.0);
  EXPECT_DOUBLE_EQ(busy.CoveredWithin(2.0, 4.5), 1.5);
  EXPECT_DOUBLE_EQ(busy.CoveredWithin(3.0, 4.0), 0.0);
  EXPECT_DOUBLE_EQ(busy.CoveredWithin(4.5, 4.0), 0.0);
}

}  // namespace
}  // namespace perfbench
