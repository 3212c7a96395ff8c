// Umbrella header: the public API of the GraphBolt library.
//
// Typical usage:
//
//   #include "src/graphbolt.h"
//
//   graphbolt::MutableGraph graph(graphbolt::GenerateRmat(100'000, 1'000'000));
//   graphbolt::GraphBoltEngine<graphbolt::PageRank> engine(&graph, graphbolt::PageRank{});
//   engine.InitialCompute();
//   engine.ApplyMutations({graphbolt::EdgeMutation::Add(1, 2)});
//   const auto& ranks = engine.values();
//
// Or, for concurrent ingestion with pipelined batching (any engine
// satisfying the StreamingEngine concept):
//
//   graphbolt::StreamDriver<decltype(engine)> driver(&engine);
//   driver.Ingest(graphbolt::EdgeMutation::Add(1, 2));   // from any thread
//   const auto& fresh = driver.values();                 // exact BSP snapshot
#ifndef SRC_GRAPHBOLT_H_
#define SRC_GRAPHBOLT_H_

#include "src/algorithms/belief_propagation.h"
#include "src/algorithms/coem.h"
#include "src/algorithms/collaborative_filtering.h"
#include "src/algorithms/connected_components.h"
#include "src/algorithms/label_propagation.h"
#include "src/algorithms/multi_source_reach.h"
#include "src/algorithms/pagerank.h"
#include "src/algorithms/personalized_pagerank.h"
#include "src/algorithms/sssp.h"
#include "src/algorithms/triangle_counting.h"
#include "src/algorithms/widest_path.h"
#include "src/core/algorithm.h"
#include "src/core/compact_dependency_store.h"
#include "src/core/graphbolt_engine.h"
#include "src/core/streaming_engine.h"
#include "src/driver/stream_driver.h"
#include "src/fault/checkpoint.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fsck.h"
#include "src/fault/storage_env.h"
#include "src/fault/wal.h"
#include "src/engine/ligra_engine.h"
#include "src/engine/reset_engine.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/graph/mutable_graph.h"
#include "src/graph/mutation.h"
#include "src/kickstarter/kickstarter_engine.h"
#include "src/minidd/dataflow.h"
#include "src/sentinel/admission.h"
#include "src/sentinel/quarantine.h"
#include "src/sentinel/watchdog.h"
#include "src/shard/driver_config.h"
#include "src/shard/session.h"
#include "src/shard/sharded_driver.h"
#include "src/stream/update_stream.h"

namespace graphbolt {

// The four engines are the StreamingEngine API surface; a signature drift
// in any of them fails here, at the definition of the public API, rather
// than deep inside a template instantiation.
static_assert(StreamingEngine<LigraEngine<PageRank>>);
static_assert(StreamingEngine<ResetEngine<PageRank>>);
static_assert(StreamingEngine<GraphBoltEngine<PageRank>>);
static_assert(StreamingEngine<KickStarterEngine<KsSsspTraits>>);
// All four are also checkpointable (SaveStateTo/LoadStateFrom), so the
// fault-tolerance layer (src/fault/) covers the whole engine surface.
static_assert(CheckpointableEngine<LigraEngine<PageRank>>);
static_assert(CheckpointableEngine<ResetEngine<PageRank>>);
static_assert(CheckpointableEngine<GraphBoltEngine<PageRank>>);
static_assert(CheckpointableEngine<KickStarterEngine<KsSsspTraits>>);
// The triangle-counting engines produce a scalar count, not per-vertex
// values: batch-drivable (harnesses, timing) but not stream-queryable.
static_assert(BatchEngine<TriangleCountingEngine> &&
              !StreamingEngine<TriangleCountingEngine>);
static_assert(BatchEngine<TriangleCountingResetEngine>);

}  // namespace graphbolt

#endif  // SRC_GRAPHBOLT_H_
