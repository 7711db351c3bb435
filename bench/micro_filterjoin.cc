// Microbenchmark for the base station's pre-computation join
// (ComputeJoinFilter): the conservative interval-arithmetic join over
// quantized join-attribute tuples. The base station is powered, but the
// computation must still finish well within a query's response time. The
// "Naive" benchmarks run the exhaustive nested-loop reference join kept in
// tests/reference_filter_join.h, so CI can check that the planned engine
// never loses to it.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "reference_filter_join.h"
#include "sensjoin/common/rng.h"
#include "sensjoin/data/schema.h"
#include "sensjoin/join/join_filter.h"
#include "sensjoin/query/query.h"

namespace sensjoin::join {
namespace {

data::Schema BenchSchema() {
  return data::Schema(
      {{"x", 2}, {"y", 2}, {"temp", 2}, {"hum", 2}, {"pres", 2}});
}

query::AnalyzedQuery BenchQuery() {
  auto q = query::AnalyzedQuery::FromString(
      "SELECT A.hum, B.hum FROM sensors A, sensors B "
      "WHERE |A.temp - B.temp| < 0.3 "
      "AND distance(A.x, A.y, B.x, B.y) > 700 ONCE",
      BenchSchema());
  SENSJOIN_CHECK(q.ok());
  return std::move(q).value();
}

JoinAttrCodec BenchCodec() {
  DimensionSpec x{"x", 0, 0, 1050, 1.0};
  DimensionSpec y{"y", 1, 0, 1050, 1.0};
  DimensionSpec temp{"temp", 2, 0, 50, 0.1};
  auto quant = Quantizer::Create({x, y, temp});
  SENSJOIN_CHECK(quant.ok());
  return JoinAttrCodec(std::move(quant).value(), 1);
}

PointSet CollectedSet(const JoinAttrCodec& codec, int n) {
  Rng rng(n);
  PointSet set = codec.EmptySet();
  for (int i = 0; i < n; ++i) {
    set.Insert(codec.EncodeTuple({rng.UniformDouble(0, 1050),
                                  rng.UniformDouble(0, 1050),
                                  rng.UniformDouble(18, 26)},
                                 1));
  }
  return set;
}

FilterJoinResult Planned(const query::AnalyzedQuery& q,
                         const JoinAttrCodec& codec, const PointSet& collected) {
  return ComputeJoinFilter(q, codec, collected);
}

using Engine = FilterJoinResult (*)(const query::AnalyzedQuery&,
                                    const JoinAttrCodec&, const PointSet&);

void RunFilterJoin(benchmark::State& state, Engine engine) {
  const query::AnalyzedQuery q = BenchQuery();
  const JoinAttrCodec codec = BenchCodec();
  const PointSet collected = CollectedSet(codec, state.range(0));
  size_t filter_size = 0;
  size_t evaluated = 0;
  for (auto _ : state) {
    const FilterJoinResult r = engine(q, codec, collected);
    filter_size = r.filter.size();
    evaluated = r.combinations_evaluated;
    benchmark::DoNotOptimize(filter_size);
  }
  state.counters["points"] = static_cast<double>(collected.size());
  state.counters["filter"] = static_cast<double>(filter_size);
  state.counters["evaluated"] = static_cast<double>(evaluated);
  state.SetItemsProcessed(state.iterations() * collected.size() *
                          collected.size());
}

void BM_ComputeJoinFilterNaive(benchmark::State& state) {
  RunFilterJoin(state, reference::ReferenceJoinFilter);
}
BENCHMARK(BM_ComputeJoinFilterNaive)->Arg(100)->Arg(400)->Arg(1500)
    ->Unit(benchmark::kMillisecond);

void BM_ComputeJoinFilterIndexed(benchmark::State& state) {
  RunFilterJoin(state, Planned);
}
BENCHMARK(BM_ComputeJoinFilterIndexed)->Arg(100)->Arg(400)->Arg(1500)
    ->Unit(benchmark::kMillisecond);

// Three-relation chain: a temp band on A-B, a proximity join on B-C. The
// reference engine is cubic in the collected size, so the arguments stay small.
query::AnalyzedQuery ThreeWayQuery() {
  auto q = query::AnalyzedQuery::FromString(
      "SELECT A.hum, B.hum, C.hum FROM sensors A, sensors B, sensors C "
      "WHERE |A.temp - B.temp| < 0.3 "
      "AND distance(B.x, B.y, C.x, C.y) < 200 ONCE",
      BenchSchema());
  SENSJOIN_CHECK(q.ok());
  return std::move(q).value();
}

void RunThreeWay(benchmark::State& state, Engine engine) {
  const query::AnalyzedQuery q = ThreeWayQuery();
  const JoinAttrCodec codec = BenchCodec();
  const PointSet collected = CollectedSet(codec, state.range(0));
  size_t filter_size = 0;
  for (auto _ : state) {
    const FilterJoinResult r = engine(q, codec, collected);
    filter_size = r.filter.size();
    benchmark::DoNotOptimize(filter_size);
  }
  state.counters["points"] = static_cast<double>(collected.size());
  state.counters["filter"] = static_cast<double>(filter_size);
}

void BM_ComputeJoinFilter3WayNaive(benchmark::State& state) {
  RunThreeWay(state, reference::ReferenceJoinFilter);
}
BENCHMARK(BM_ComputeJoinFilter3WayNaive)->Arg(60)->Arg(150)
    ->Unit(benchmark::kMillisecond);

void BM_ComputeJoinFilter3WayIndexed(benchmark::State& state) {
  RunThreeWay(state, Planned);
}
BENCHMARK(BM_ComputeJoinFilter3WayIndexed)->Arg(60)->Arg(150)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sensjoin::join

// main() comes from benchmark::benchmark_main.
