// Unit tests for VertexSubset / FrontierBuilder and vertex contexts.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/algorithm.h"
#include "src/engine/vertex_subset.h"
#include "src/graph/generators.h"
#include "src/graph/mutable_graph.h"
#include "src/parallel/parallel_for.h"

namespace graphbolt {
namespace {

TEST(VertexSubset, EmptyByDefault) {
  VertexSubset subset(100);
  EXPECT_TRUE(subset.Empty());
  EXPECT_EQ(subset.size(), 0u);
  EXPECT_EQ(subset.universe(), 100u);
}

TEST(VertexSubset, AllContainsEveryVertex) {
  VertexSubset subset = VertexSubset::All(10);
  EXPECT_EQ(subset.size(), 10u);
  for (VertexId v = 0; v < 10; ++v) {
    EXPECT_EQ(subset.members()[v], v);
  }
}

TEST(FrontierBuilder, ClaimIsExactlyOnce) {
  FrontierBuilder builder(1000);
  EXPECT_TRUE(builder.Claim(5));
  EXPECT_FALSE(builder.Claim(5));
  EXPECT_TRUE(builder.Contains(5));
  EXPECT_FALSE(builder.Contains(6));
}

TEST(FrontierBuilder, TakeCollectsSorted) {
  FrontierBuilder builder(100);
  builder.Claim(42);
  builder.Claim(7);
  builder.Claim(99);
  const VertexSubset subset = builder.Take();
  ASSERT_EQ(subset.size(), 3u);
  EXPECT_EQ(subset.members()[0], 7u);
  EXPECT_EQ(subset.members()[1], 42u);
  EXPECT_EQ(subset.members()[2], 99u);

  // A universe large enough for the blocked parallel pack, with claims on
  // word and block boundaries.
  const std::vector<VertexId> claims = {69999, 4096, 0, 64, 4095, 63, 8191, 8192};
  FrontierBuilder large(70000);
  for (const VertexId v : claims) {
    large.Claim(v);
  }
  std::vector<VertexId> sorted = claims;
  std::sort(sorted.begin(), sorted.end());
  const VertexSubset packed = large.Take();
  EXPECT_EQ(packed.members(), sorted);
}

// TakeAuto returns a frontier of at least 1/20th of the universe as its
// bitset alone; members() still works on it, materialized lazily and
// sorted. A sparser frontier comes back packed.
TEST(FrontierBuilder, TakeAutoPicksDenseOnlyForDenseFrontiers) {
  FrontierBuilder builder(32);
  builder.Claim(17);
  builder.Claim(3);
  const VertexSubset subset = builder.TakeAuto();
  ASSERT_TRUE(subset.dense_only());
  EXPECT_EQ(subset.size(), 2u);
  EXPECT_TRUE(subset.Dense().Test(17));
  EXPECT_FALSE(subset.Dense().Test(4));
  EXPECT_EQ(subset.members(), (std::vector<VertexId>{3, 17}));
  EXPECT_FALSE(subset.dense_only());
  EXPECT_EQ(subset.size(), 2u);

  FrontierBuilder sparse(1000);
  sparse.Claim(900);
  sparse.Claim(12);
  const VertexSubset packed = sparse.TakeAuto();
  EXPECT_FALSE(packed.dense_only());
  EXPECT_EQ(packed.members(), (std::vector<VertexId>{12, 900}));
}

TEST(FrontierBuilder, ConcurrentClaimsAreExact) {
  FrontierBuilder builder(50000);
  std::atomic<int> wins{0};
  ParallelFor(0, 200000, [&](size_t i) {
    if (builder.Claim(static_cast<VertexId>(i % 50000))) {
      wins.fetch_add(1);
    }
  }, /*grain=*/128);
  EXPECT_EQ(wins.load(), 50000);
  EXPECT_EQ(builder.Take().size(), 50000u);
}

TEST(VertexContext, DegreesAndWeightSums) {
  EdgeList list;
  list.set_num_vertices(3);
  list.Add(0, 1, 2.0f);
  list.Add(0, 2, 3.0f);
  list.Add(2, 1, 4.0f);
  MutableGraph graph(std::move(list));
  const auto contexts = ComputeVertexContexts(graph);
  EXPECT_EQ(contexts[0].out_degree, 2u);
  EXPECT_EQ(contexts[0].in_degree, 0u);
  EXPECT_DOUBLE_EQ(contexts[0].out_weight_sum, 5.0);
  EXPECT_EQ(contexts[1].in_degree, 2u);
  EXPECT_DOUBLE_EQ(contexts[1].in_weight_sum, 6.0);
  EXPECT_EQ(contexts[2].out_degree, 1u);
  EXPECT_DOUBLE_EQ(contexts[2].in_weight_sum, 3.0);
}

TEST(VertexContext, ChangesTrackMutations) {
  EdgeList list = GenerateRmat(50, 300, {.seed = 60});
  MutableGraph graph(list);
  const auto before = ComputeVertexContexts(graph);
  const AppliedMutations applied = graph.ApplyBatch({EdgeMutation::Add(0, 1)});
  const auto after = ComputeVertexContexts(graph);
  if (!applied.Empty()) {
    EXPECT_NE(before[0].out_degree, after[0].out_degree);
    EXPECT_NE(before[1].in_degree, after[1].in_degree);
  }
  // Untouched vertices keep identical contexts.
  for (VertexId v = 2; v < graph.num_vertices(); ++v) {
    EXPECT_TRUE(before[v] == after[v]) << "vertex " << v;
  }
}

}  // namespace
}  // namespace graphbolt
