// StreamDriver: the streaming front-end's historical name. There is one
// driver implementation, ShardedDriver (src/shard/sharded_driver.h); the
// default DriverConfig{} runs it with one lane, which is the pipeline this
// name has always meant:
//
//   StreamDriver<E> driver(&engine, {.batch_size = 256}, &checkpointer);
//
// StreamDriver<E>::Options is DriverConfig, and OverflowPolicy /
// AsyncModePolicy live beside it in src/shard/driver_config.h.
#ifndef SRC_DRIVER_STREAM_DRIVER_H_
#define SRC_DRIVER_STREAM_DRIVER_H_

#include "src/core/streaming_engine.h"
#include "src/shard/sharded_driver.h"

namespace graphbolt {

template <StreamingEngine E>
using StreamDriver = ShardedDriver<E>;

}  // namespace graphbolt

#endif  // SRC_DRIVER_STREAM_DRIVER_H_
