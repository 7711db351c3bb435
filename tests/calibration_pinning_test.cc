// Pins CalibrateFraction / ResultNodeFraction behavior across the
// hot-path rework (materialization cache shared across bisection probes,
// contributors from the exact join's partner search): the results must
// equal a straightforward per-probe reference recomputation.

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "reference_expr_eval.h"
#include "sensjoin/join/executor_context.h"
#include "sensjoin/join/result.h"
#include "sensjoin/sensjoin.h"
#include "util/calibration.h"
#include "util/workloads.h"

namespace sensjoin::bench {
namespace {

testbed::TestbedParams SmallParams(uint64_t seed) {
  testbed::TestbedParams params;
  params.placement.num_nodes = 200;
  params.placement.area_width_m = 380;
  params.placement.area_height_m = 380;
  params.seed = seed;
  return params;
}

/// Reference result-node fraction: the original unoptimized computation —
/// fresh ExecutorContext, naive full pair scan through per-pair
/// TupleContext construction, no marking shortcut, no cache.
double ReferenceFraction(testbed::Testbed& tb, const query::AnalyzedQuery& q,
                         uint64_t epoch) {
  const join::ExecutorContext ctx(tb.data(), q, epoch);
  std::vector<data::Tuple> all;
  for (int i = 0; i < ctx.num_nodes(); ++i) {
    if (ctx.info(i).has_tuple) all.push_back(ctx.info(i).tuple);
  }
  if (all.empty()) return 0.0;
  const auto per_table = ctx.PerTableCandidates(all);
  std::set<sim::NodeId> contributors;
  if (q.num_tables() == 2) {
    for (const data::Tuple* l : per_table[0]) {
      for (const data::Tuple* r : per_table[1]) {
        std::vector<const data::Tuple*> pair = {l, r};
        query::reference::TupleContext pair_ctx(pair);
        bool match = true;
        for (const auto& p : q.join_predicates()) {
          if (!query::reference::EvalPredicate(*p, pair_ctx)) {
            match = false;
            break;
          }
        }
        if (match) {
          contributors.insert(l->node);
          contributors.insert(r->node);
        }
      }
    }
  } else {
    const auto joined = join::ComputeExactJoin(q, per_table);
    contributors.insert(joined.contributing_nodes.begin(),
                        joined.contributing_nodes.end());
  }
  return static_cast<double>(contributors.size()) /
         static_cast<double>(all.size());
}

TEST(CalibrationPinningTest, FractionMatchesReferenceExactly) {
  auto tb = testbed::Testbed::Create(SmallParams(42));
  ASSERT_TRUE(tb.ok()) << tb.status();
  std::vector<std::string> queries;
  for (double threshold : {0.1, 0.3, 0.8, 2.0}) {
    queries.push_back(RatioQueryOneJoinAttr(2, threshold));
  }
  // Band plus distance: the fig10(b) query.
  for (double dmin : {0.0, 120.0, 250.0, 400.0}) {
    queries.push_back(RatioQueryThreeJoinAttrs(5, dmin));
  }
  for (const std::string& sql : queries) {
    auto q = (*tb)->ParseQuery(sql);
    ASSERT_TRUE(q.ok()) << q.status();
    const double expected = ReferenceFraction(**tb, *q, /*epoch=*/0);
    const double actual = ResultNodeFraction(**tb, *q, /*epoch=*/0);
    EXPECT_EQ(actual, expected) << sql;
  }
}

TEST(CalibrationPinningTest, CalibrationPinnedAgainstReferenceBisection) {
  auto tb = testbed::Testbed::Create(SmallParams(42));
  ASSERT_TRUE(tb.ok()) << tb.status();

  // Reference bisection: same control flow as CalibrateFraction, but each
  // probe recomputes from scratch through ReferenceFraction (no cache).
  auto make_sql = [](double t) { return RatioQueryOneJoinAttr(2, t); };
  const double target = 0.4;
  const int iterations = 12;
  double lo = 0.01, hi = 3.0;
  Calibration expected;
  double best_error = 1e9;
  for (int i = 0; i < iterations; ++i) {
    const double mid = 0.5 * (lo + hi);
    auto q = (*tb)->ParseQuery(make_sql(mid));
    ASSERT_TRUE(q.ok());
    const double fraction = ReferenceFraction(**tb, *q, 0);
    const double error = std::abs(fraction - target);
    if (error < best_error) {
      best_error = error;
      expected = Calibration{mid, fraction, make_sql(mid)};
    }
    if (best_error < 0.002) break;
    if ((fraction < target) == true) {  // fraction grows with the threshold
      lo = mid;
    } else {
      hi = mid;
    }
  }

  const Calibration actual = CalibrateFraction(
      **tb, make_sql, 0.01, 3.0, target, /*increasing=*/true, /*epoch=*/0,
      iterations);
  EXPECT_EQ(actual.param, expected.param);
  EXPECT_EQ(actual.fraction, expected.fraction);
  EXPECT_EQ(actual.sql, expected.sql);
}

}  // namespace
}  // namespace sensjoin::bench
