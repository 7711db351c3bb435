#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

// Traced runs only: after an operation returned, its station side is
// re-run through the library's public station functions, each call in its
// own replay span (data.sense, join.codec, join.filter, join.exact). The
// replay stays outside the operation's latency.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bench.h"
#include "sensjoin/data/network_data.h"
#include "sensjoin/join/quantizer.h"
#include "sensjoin/query/query.h"
#include "sensjoin/sim/time.h"

namespace perfbench {

struct ReplayResult {
  size_t matched_combinations = 0;
  size_t collected_wire_bytes = 0;  ///< quadtree encoding of all keys
  size_t filter_combinations = 0;   ///< ComputeJoinFilter evaluations
  size_t filter_points = 0;
  size_t contributing_keys = 0;  ///< distinct keys of contributing nodes
};

/// Senses every node for `epoch`, encodes the join-attribute keys of the
/// nodes not in `excluded` (sorted), runs the filter join over them and the
/// exact join over the tuples the filter passes. `contributing` (sorted)
/// are the nodes of the operation's result, for the filter's precision.
ReplayResult ReplayStation(
    const sensjoin::data::NetworkData& data,
    const sensjoin::join::QuantizationConfig& quantization,
    const sensjoin::query::AnalyzedQuery& q, uint64_t epoch,
    const std::vector<sensjoin::sim::NodeId>& excluded,
    const std::vector<sensjoin::sim::NodeId>& contributing, SpanLog* log,
    int64_t op);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
