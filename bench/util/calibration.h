#ifndef SENSJOIN_BENCH_UTIL_CALIBRATION_H_
#define SENSJOIN_BENCH_UTIL_CALIBRATION_H_

#include <functional>
#include <string>

#include "sensjoin/query/query.h"
#include "sensjoin/testbed/testbed.h"

namespace sensjoin::bench {

/// Fraction of participating nodes that contribute a tuple to the query
/// result, computed over ground-truth (materialized) data without touching
/// the network. This is the paper's primary workload parameter
/// ("fraction of nodes in the result", Sec. VI "Parameters").
///
/// The contributors are the candidates that join::PartneredCandidates
/// marks: the station exact join's indexed plan, run sequentially and
/// without building rows.
double ResultNodeFraction(testbed::Testbed& tb, const query::AnalyzedQuery& q,
                          uint64_t epoch);

/// Outcome of a predicate-parameter calibration.
struct Calibration {
  double param = 0.0;     ///< the chosen predicate parameter
  double fraction = 0.0;  ///< the result-node fraction it achieves
  std::string sql;        ///< the concrete calibrated query
};

/// Bisects `param` in [lo, hi] so that the query produced by
/// `make_sql(param)` puts approximately `target` of the nodes into the
/// result. `increasing` states whether the fraction grows with `param`
/// (e.g., a widening range condition) or shrinks (a growing difference
/// threshold). The paper varies join conditions exactly this way to sweep
/// the fraction axis.
///
/// The testbed's ground-truth tuples are materialized once and reused
/// across all bisection probes when the workload allows it (no per-table
/// selection predicates, stable FROM list — true for every harness in
/// bench/), instead of re-sensing the whole deployment per probe. Probes
/// whose shape does change fall back to per-probe materialization, so the
/// result never depends on the cache.
Calibration CalibrateFraction(
    testbed::Testbed& tb, const std::function<std::string(double)>& make_sql,
    double lo, double hi, double target, bool increasing, uint64_t epoch = 0,
    int iterations = 22);

}  // namespace sensjoin::bench

#endif  // SENSJOIN_BENCH_UTIL_CALIBRATION_H_
