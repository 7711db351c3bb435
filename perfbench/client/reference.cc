#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "bench.h"

namespace perfbench {
namespace {

using sensjoin::sim::NodeId;

/// Formats `value` as a SQL literal and returns the double the library's
/// lexer (strtod) reads back from it, so reference and query agree bit for
/// bit on the threshold.
std::string Literal(double value, double* parsed) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  *parsed = std::strtod(buf, nullptr);
  return buf;
}

/// Node 0 is the base station, a powered access point without sensors.
constexpr NodeId kFirstSensor = 1;

std::pair<NodeId, NodeId> Ordered(NodeId a, NodeId b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

/// Smallest delta in [0, span] with count(delta) <= target, for a count
/// that does not increase with delta.
template <typename Count>
double Bisect(const std::vector<double>& sorted, double target, Count count) {
  if (sorted.size() < 2) throw BenchError("too few sensors for a threshold");
  double lo = 0.0, hi = sorted.back() - sorted.front();
  for (int i = 0; i < 64; ++i) {
    const double mid = 0.5 * (lo + hi);
    (count(mid) <= target ? hi : lo) = mid;
  }
  return hi;
}

}  // namespace

std::vector<double> SortedSensorTemps(const FieldSnapshot& snapshot) {
  std::vector<double> temps(snapshot.temp.begin() + kFirstSensor,
                            snapshot.temp.end());
  std::sort(temps.begin(), temps.end());
  return temps;
}

double TempGapForNodeFraction(const std::vector<double>& sorted,
                              double fraction) {
  // A sensor is in the result iff the coldest sensor is more than delta
  // below it or the hottest more than delta above it.
  return Bisect(sorted, fraction * sorted.size(), [&sorted](double delta) {
    double nodes = 0;
    for (double t : sorted) {
      nodes += (t - sorted.front() > delta || sorted.back() - t > delta);
    }
    return nodes;
  });
}

double TempGapForRows(const std::vector<double>& sorted, double rows) {
  return Bisect(sorted, rows, [&sorted](double delta) {
    // For ascending A, the matching B form a growing prefix.
    double pairs = 0;
    size_t prefix = 0;
    for (double ta : sorted) {
      while (prefix < sorted.size() && ta - sorted[prefix] > delta) ++prefix;
      pairs += static_cast<double>(prefix);
    }
    return pairs;
  });
}

QuerySpec TempGapQuery(double delta) {
  QuerySpec spec;
  spec.shape = Shape::kTempGap;
  spec.sql =
      "SELECT A.temp, B.temp, A.hum, B.hum, A.pres, B.pres "
      "FROM sensors A, sensors B WHERE A.temp - B.temp > " +
      Literal(delta, &spec.param) + " ONCE";
  return spec;
}

QuerySpec NearTempFarQuery(double dmin) {
  QuerySpec spec;
  spec.shape = Shape::kNearTempFar;
  spec.sql =
      "SELECT A.temp, B.temp, A.x, B.x, A.y, B.y, A.hum, B.hum, A.pres, "
      "B.pres FROM sensors A, sensors B WHERE |A.temp - B.temp| < 0.3 AND "
      "distance(A.x, A.y, B.x, B.y) > " +
      Literal(dmin, &spec.param) + " ONCE";
  return spec;
}

FieldSnapshot SenseAll(const sensjoin::data::NetworkData& data, int num_nodes,
                       uint64_t epoch) {
  const auto& schema = data.schema();
  const int temp = schema.IndexOf("temp");
  const int x = schema.IndexOf("x");
  const int y = schema.IndexOf("y");
  if (temp < 0 || x < 0 || y < 0) {
    throw BenchError("deployment schema lacks temp, x or y");
  }
  FieldSnapshot s;
  s.temp.resize(num_nodes);
  s.x.resize(num_nodes);
  s.y.resize(num_nodes);
  for (NodeId u = 0; u < num_nodes; ++u) {
    const sensjoin::data::Tuple t = data.Sense(u, epoch);
    s.temp[u] = t.values[temp];
    s.x[u] = t.values[x];
    s.y[u] = t.values[y];
  }
  return s;
}

NodePairs ReferencePairs(const QuerySpec& spec, const FieldSnapshot& s) {
  const int n = static_cast<int>(s.temp.size());
  NodePairs pairs;
  if (spec.shape == Shape::kTempGap) {
    // For a fixed A, "temp_A - temp_B > delta" holds on a prefix of the
    // nodes sorted by temperature, so each A costs one binary search plus
    // its output rows.
    std::vector<NodeId> by_temp(std::max(0, n - kFirstSensor));
    std::iota(by_temp.begin(), by_temp.end(), kFirstSensor);
    std::stable_sort(
        by_temp.begin(), by_temp.end(),
        [&s](NodeId a, NodeId b) { return s.temp[a] < s.temp[b]; });
    const double delta = spec.param;
    for (NodeId a = kFirstSensor; a < n; ++a) {
      const double ta = s.temp[a];
      const auto end = std::partition_point(
          by_temp.begin(), by_temp.end(),
          [&](NodeId b) { return ta - s.temp[b] > delta; });
      for (auto it = by_temp.begin(); it != end; ++it) {
        pairs.push_back(Ordered(a, *it));
      }
    }
  } else {
    const double dmin = spec.param;
    for (NodeId a = kFirstSensor; a < n; ++a) {
      for (NodeId b = kFirstSensor; b < n; ++b) {
        if (a == b || !(std::abs(s.temp[a] - s.temp[b]) < 0.3)) continue;
        const double dx = s.x[a] - s.x[b];
        const double dy = s.y[a] - s.y[b];
        if (std::sqrt(dx * dx + dy * dy) > dmin) {
          pairs.push_back(Ordered(a, b));
        }
      }
    }
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

NodePairs ResultPairs(const sensjoin::join::JoinResult& result) {
  NodePairs pairs;
  pairs.reserve(result.row_nodes.size());
  for (const auto& nodes : result.row_nodes) {
    if (nodes.empty() || nodes.size() > 2) {
      pairs.emplace_back(-1, -1);  // not a two-way row: never expected
    } else {
      pairs.push_back(Ordered(nodes.front(), nodes.back()));
    }
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

NodePairs WithoutExcluded(const NodePairs& pairs,
                          const std::vector<NodeId>& excluded_sorted) {
  if (excluded_sorted.empty()) return pairs;
  NodePairs kept;
  for (const auto& [a, b] : pairs) {
    if (!std::binary_search(excluded_sorted.begin(), excluded_sorted.end(),
                            a) &&
        !std::binary_search(excluded_sorted.begin(), excluded_sorted.end(),
                            b)) {
      kept.emplace_back(a, b);
    }
  }
  return kept;
}

std::string CompareRows(const NodePairs& expected,
                        const sensjoin::join::JoinResult& result) {
  const NodePairs got = ResultPairs(result);
  if (result.matched_combinations != expected.size() ||
      got.size() != expected.size()) {
    return "expected " + std::to_string(expected.size()) + " rows, got " +
           std::to_string(result.matched_combinations) + " combinations / " +
           std::to_string(got.size()) + " rows";
  }
  const auto [e, g] = std::mismatch(expected.begin(), expected.end(),
                                    got.begin());
  if (e == expected.end()) return "";
  return "row (" + std::to_string(e->first) + "," + std::to_string(e->second) +
         ") expected, (" + std::to_string(g->first) + "," +
         std::to_string(g->second) + ") returned";
}

}  // namespace perfbench
