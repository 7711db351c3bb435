#include "util/calibration.h"

#include <cmath>
#include <set>
#include <vector>

#include "sensjoin/common/logging.h"
#include "sensjoin/join/executor_context.h"
#include "sensjoin/join/result.h"

namespace sensjoin::bench {
namespace {

/// Ground-truth tuples of one deployment epoch, materialized once and
/// shared across bisection probes. Tuple storage is stable under move, so
/// the per-table pointer lists stay valid for the struct's lifetime.
struct MaterializedGroundTruth {
  std::vector<data::Tuple> all;
  std::vector<std::vector<const data::Tuple*>> per_table;
  std::vector<std::string> relation_names;
  int num_tables = 0;
};

/// Caching is only sound when node membership cannot depend on the probe
/// parameter: no per-table selection predicates (membership then reduces
/// to relation names, which are checked against the cache on every reuse).
bool MaterializationReusable(const query::AnalyzedQuery& q) {
  for (const auto& t : q.tables()) {
    if (t.selection != nullptr) return false;
  }
  return true;
}

MaterializedGroundTruth Materialize(testbed::Testbed& tb,
                                    const query::AnalyzedQuery& q,
                                    uint64_t epoch) {
  const join::ExecutorContext ctx(tb.data(), q, epoch);
  MaterializedGroundTruth m;
  for (int i = 0; i < ctx.num_nodes(); ++i) {
    if (ctx.info(i).has_tuple) m.all.push_back(ctx.info(i).tuple);
  }
  m.per_table = ctx.PerTableCandidates(m.all);
  m.relation_names = ctx.relation_names();
  m.num_tables = q.num_tables();
  return m;
}

/// Distinct nodes of the candidates with a join partner, over the nodes
/// with a tuple.
double FractionOverMaterialized(const query::AnalyzedQuery& q,
                                const MaterializedGroundTruth& m) {
  if (m.all.empty()) return 0.0;
  const auto partnered = join::PartneredCandidates(q, m.per_table);
  std::set<sim::NodeId> contributors;
  for (size_t t = 0; t < partnered.size(); ++t) {
    for (size_t p = 0; p < partnered[t].size(); ++p) {
      if (partnered[t][p]) contributors.insert(m.per_table[t][p]->node);
    }
  }
  return static_cast<double>(contributors.size()) /
         static_cast<double>(m.all.size());
}

}  // namespace

double ResultNodeFraction(testbed::Testbed& tb, const query::AnalyzedQuery& q,
                          uint64_t epoch) {
  return FractionOverMaterialized(q, Materialize(tb, q, epoch));
}

Calibration CalibrateFraction(
    testbed::Testbed& tb, const std::function<std::string(double)>& make_sql,
    double lo, double hi, double target, bool increasing, uint64_t epoch,
    int iterations) {
  SENSJOIN_CHECK_LT(lo, hi);
  Calibration best;
  double best_error = 1e9;
  MaterializedGroundTruth cached;
  bool have_cache = false;
  auto evaluate = [&](double param) {
    const std::string sql = make_sql(param);
    auto q = tb.ParseQuery(sql);
    SENSJOIN_CHECK(q.ok()) << q.status() << "for" << sql;
    double fraction = 0.0;
    if (MaterializationReusable(*q)) {
      // Probes within one calibration share a FROM list, but rebuild the
      // cache if a harness ever varies it between probes.
      if (!have_cache || cached.num_tables != q->num_tables() ||
          cached.relation_names != q->RelationNames()) {
        cached = Materialize(tb, *q, epoch);
        have_cache = true;
      }
      fraction = FractionOverMaterialized(*q, cached);
    } else {
      fraction = ResultNodeFraction(tb, *q, epoch);
    }
    const double error = std::abs(fraction - target);
    if (error < best_error) {
      best_error = error;
      best = Calibration{param, fraction, sql};
    }
    return fraction;
  };
  for (int i = 0; i < iterations; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double fraction = evaluate(mid);
    if (best_error < 0.002) break;  // close enough
    const bool need_larger_fraction = fraction < target;
    if (need_larger_fraction == increasing) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return best;
}

}  // namespace sensjoin::bench
