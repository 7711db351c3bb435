#include "util/calibration.h"

#include <cmath>
#include <set>
#include <vector>

#include "sensjoin/common/logging.h"
#include "sensjoin/join/executor_context.h"
#include "sensjoin/join/result.h"
#include "sensjoin/query/compiled_predicate.h"

namespace sensjoin::bench {
namespace {

/// Scans left rows [begin, end) x all right rows, inserting the nodes of
/// matching pairs into `contributors`. Pairs whose endpoints are both
/// already marked are skipped — that only ever suppresses evaluations
/// whose outcome cannot add a new contributor, so the final set is
/// independent of chunking and thread count.
void ScanChunk(const std::vector<query::CompiledPredicate>& preds,
               const std::vector<const data::Tuple*>& left,
               const std::vector<const data::Tuple*>& right, size_t begin,
               size_t end, std::set<sim::NodeId>& contributors) {
  std::vector<char> left_marked(end - begin, 0);
  std::vector<char> right_marked(right.size(), 0);
  for (size_t i = begin; i < end; ++i) {
    for (size_t j = 0; j < right.size(); ++j) {
      if (left_marked[i - begin] && right_marked[j]) continue;
      const double* rows[2] = {left[i]->values.data(),
                               right[j]->values.data()};
      bool match = true;
      for (const query::CompiledPredicate& p : preds) {
        if (!p.Eval(rows)) {
          match = false;
          break;
        }
      }
      if (match) {
        left_marked[i - begin] = 1;
        right_marked[j] = 1;
        contributors.insert(left[i]->node);
        contributors.insert(right[j]->node);
      }
    }
  }
}

/// Fast 2-table contributing-node count: pairwise scan with predicate
/// short-circuiting. With a multi-thread runner the left rows are chunked
/// across the pool; each chunk keeps private marks, so the union of the
/// per-chunk contributor sets equals the sequential result exactly.
size_t CountContributors2Way(const query::AnalyzedQuery& q,
                             const std::vector<const data::Tuple*>& left,
                             const std::vector<const data::Tuple*>& right,
                             const testbed::ParallelRunner* runner) {
  std::vector<query::CompiledPredicate> preds;
  preds.reserve(q.join_predicates().size());
  for (const auto& p : q.join_predicates()) {
    preds.push_back(query::CompiledPredicate::Compile(*p));
  }

  const int threads = runner != nullptr ? runner->threads() : 1;
  if (threads <= 1 || left.size() < 512) {
    std::set<sim::NodeId> contributors;
    ScanChunk(preds, left, right, 0, left.size(), contributors);
    return contributors.size();
  }

  const int chunks = std::min<int>(threads * 4, static_cast<int>(left.size()));
  const size_t chunk_size = (left.size() + chunks - 1) / chunks;
  auto per_chunk = runner->Run(
      chunks, /*sweep_seed=*/0, [&](const testbed::TrialContext& c) {
        const size_t begin = static_cast<size_t>(c.trial) * chunk_size;
        const size_t end = std::min(begin + chunk_size, left.size());
        std::set<sim::NodeId> contributors;
        if (begin < end) ScanChunk(preds, left, right, begin, end,
                                   contributors);
        return contributors;
      });
  SENSJOIN_CHECK(per_chunk.ok()) << per_chunk.status();
  std::set<sim::NodeId> contributors;
  for (const std::set<sim::NodeId>& s : *per_chunk) {
    contributors.insert(s.begin(), s.end());
  }
  return contributors.size();
}

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

double FractionOverMaterialized(const query::AnalyzedQuery& q,
                                const MaterializedGroundTruth& m,
                                const testbed::ParallelRunner* runner) {
  if (m.all.empty()) return 0.0;
  size_t contributors = 0;
  if (q.num_tables() == 2) {
    contributors =
        CountContributors2Way(q, m.per_table[0], m.per_table[1], runner);
  } else {
    contributors =
        join::ComputeExactJoin(q, m.per_table).contributing_nodes.size();
  }
  return static_cast<double>(contributors) / static_cast<double>(m.all.size());
}

}  // namespace

double ResultNodeFraction(testbed::Testbed& tb, const query::AnalyzedQuery& q,
                          uint64_t epoch,
                          const testbed::ParallelRunner* runner) {
  return FractionOverMaterialized(q, Materialize(tb, q, epoch), runner);
}

Calibration CalibrateFraction(
    testbed::Testbed& tb, const std::function<std::string(double)>& make_sql,
    double lo, double hi, double target, bool increasing, uint64_t epoch,
    int iterations, const testbed::ParallelRunner* runner) {
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
      fraction = FractionOverMaterialized(*q, cached, runner);
    } else {
      fraction = ResultNodeFraction(tb, *q, epoch, runner);
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
