#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

// The benchmark's query templates and the references its output checks
// compare against. References are computed from the sensed values alone,
// without the library's join code: a sort-based enumeration for the
// one-attribute query (no pair scan, so it scales to 10k nodes) and a
// nested loop for the three-attribute query.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sensjoin/data/network_data.h"
#include "sensjoin/join/result.h"
#include "sensjoin/sim/time.h"

namespace perfbench {

/// The two query shapes of the paper's Fig. 10.
enum class Shape {
  /// A.temp - B.temp > delta; one join attribute of three queried (33%).
  kTempGap,
  /// |A.temp - B.temp| < 0.3 AND distance > dmin; three join attributes of
  /// five queried (60%).
  kNearTempFar,
};

struct QuerySpec {
  Shape shape = Shape::kTempGap;
  /// delta or dmin, exactly as the SQL literal parses.
  double param = 0.0;
  std::string sql;
};

QuerySpec TempGapQuery(double delta);
QuerySpec NearTempFarQuery(double dmin);

/// temp, x and y of every node at one epoch.
struct FieldSnapshot {
  std::vector<double> temp;
  std::vector<double> x;
  std::vector<double> y;
};

FieldSnapshot SenseAll(const sensjoin::data::NetworkData& data, int num_nodes,
                       uint64_t epoch);

/// The sensors' temperatures of `snapshot`, ascending.
std::vector<double> SortedSensorTemps(const FieldSnapshot& snapshot);

/// Thresholds for "A.temp - B.temp > delta" derived from sorted
/// temperatures by bisection, O(n) per probe and no pair scan: the delta at
/// which a `fraction` of the sensors appear in some result row (the paper's
/// result-fraction parameter), and the delta at which at most `rows` ordered
/// pairs match.
double TempGapForNodeFraction(const std::vector<double>& sorted_temps,
                              double fraction);
double TempGapForRows(const std::vector<double>& sorted_temps, double rows);

/// Result rows identified by their contributing nodes: (min, max) per row,
/// sorted, duplicates kept (a symmetric predicate yields two rows per pair).
using NodePairs = std::vector<std::pair<sensjoin::sim::NodeId,
                                        sensjoin::sim::NodeId>>;

NodePairs ReferencePairs(const QuerySpec& spec, const FieldSnapshot& snapshot);

/// The rows of `result` as node pairs.
NodePairs ResultPairs(const sensjoin::join::JoinResult& result);

/// `pairs` without the rows that have a contributor in `excluded_sorted`.
NodePairs WithoutExcluded(
    const NodePairs& pairs,
    const std::vector<sensjoin::sim::NodeId>& excluded_sorted);

/// Empty when `result` holds exactly the rows of `expected`; otherwise a
/// one-line description of the first difference.
std::string CompareRows(const NodePairs& expected,
                        const sensjoin::join::JoinResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
