#include "replay.h"

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "sensjoin/common/bit_stream.h"
#include "sensjoin/join/executor_context.h"
#include "sensjoin/join/join_attr_codec.h"
#include "sensjoin/join/join_filter.h"
#include "sensjoin/join/point_set.h"
#include "sensjoin/join/result.h"

namespace perfbench {

using sensjoin::sim::NodeId;
namespace join = sensjoin::join;

ReplayResult ReplayStation(const sensjoin::data::NetworkData& data,
                           const join::QuantizationConfig& quantization,
                           const sensjoin::query::AnalyzedQuery& q,
                           uint64_t epoch, const std::vector<NodeId>& excluded,
                           const std::vector<NodeId>& contributing,
                           SpanLog* log, int64_t op) {
  ReplayResult out;
  std::optional<join::ExecutorContext> ctx;
  {
    ScopedSpan span(log, "data.sense", op, /*replay=*/true);
    ctx.emplace(data, q, epoch);
  }
  const int n = ctx->num_nodes();
  auto included = [&](NodeId u) {
    return ctx->info(u).has_tuple &&
           !std::binary_search(excluded.begin(), excluded.end(), u);
  };

  // The join attributes of the query: the union over all FROM entries, in
  // schema order (the executor's key layout).
  std::set<int> dim_set;
  for (int t = 0; t < q.num_tables(); ++t) {
    dim_set.insert(q.table(t).join_attr_indices.begin(),
                   q.table(t).join_attr_indices.end());
  }
  const std::vector<int> dims(dim_set.begin(), dim_set.end());

  std::vector<uint64_t> node_key(n, 0);
  std::optional<join::JoinAttrCodec> codec;
  std::optional<join::PointSet> collected;
  {
    ScopedSpan span(log, "join.codec", op, /*replay=*/true);
    auto quantizer =
        join::Quantizer::FromConfig(q.schema(), dims, quantization);
    if (!quantizer.ok()) {
      throw BenchError("replay quantizer: " + quantizer.status().ToString());
    }
    codec.emplace(std::move(quantizer).value(), ctx->num_relations());
    std::vector<double> values(dims.size());
    std::vector<uint64_t> keys;
    keys.reserve(n);
    for (NodeId u = 0; u < n; ++u) {
      if (!included(u)) continue;
      const auto& info = ctx->info(u);
      for (size_t d = 0; d < dims.size(); ++d) {
        values[d] = info.tuple.values[dims[d]];
      }
      node_key[u] = codec->EncodeTuple(values, info.membership);
      keys.push_back(node_key[u]);
    }
    join::PointSet set = join::PointSet::FromKeys(codec->layout(), keys);
    const sensjoin::BitWriter wire = set.Encode();
    auto decoded = join::PointSet::Decode(codec->layout(), wire);
    if (!decoded.ok() || !(*decoded == set)) {
      throw BenchError("replay: collected keys do not survive the codec");
    }
    out.collected_wire_bytes = set.EncodedBytes();
    collected.emplace(std::move(decoded).value());
  }

  std::optional<join::FilterJoinResult> filter;
  {
    ScopedSpan span(log, "join.filter", op, /*replay=*/true);
    filter.emplace(join::ComputeJoinFilter(q, *codec, *collected));
  }
  out.filter_combinations = filter->combinations_evaluated;
  out.filter_points = filter->filter.size();

  {
    ScopedSpan span(log, "join.exact", op, /*replay=*/true);
    std::vector<sensjoin::data::Tuple> candidates;
    for (NodeId u = 0; u < n; ++u) {
      if (included(u) && filter->filter.Contains(node_key[u])) {
        candidates.push_back(ctx->info(u).tuple);
      }
    }
    const join::JoinResult result =
        join::ComputeExactJoin(q, ctx->PerTableCandidates(candidates));
    out.matched_combinations = result.matched_combinations;
  }

  std::vector<uint64_t> useful;
  for (NodeId u : contributing) {
    if (u >= 0 && u < n && included(u)) useful.push_back(node_key[u]);
  }
  std::sort(useful.begin(), useful.end());
  out.contributing_keys =
      std::unique(useful.begin(), useful.end()) - useful.begin();
  return out;
}

}  // namespace perfbench
