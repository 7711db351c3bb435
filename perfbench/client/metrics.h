#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

// Derives the benchmark's metrics from the operation records (end to end)
// and from the spans of a traced run (per layer), and prints the result.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

/// Every run issues at least this many operations, which leaves ten
/// samples beyond latency_ms_p90.
constexpr size_t kMinOps = 100;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunData {
  std::vector<double> setup_s;  ///< one entry per set-up repetition
  std::vector<OpRecord> ops;
  double peak_rss_mb = 0.0;
};

std::vector<Metric> EndToEndMetrics(const RunData& run);
std::vector<Metric> PerLayerMetrics(const RunData& run, const SpanLog& log);

/// FNV-1a over the bit patterns of every operation's simulated quantities;
/// equal digests mean bit-identical simulated metrics.
uint64_t SimDigest(const RunData& run);

/// The final JSON line of the run.
std::string ResultLine(bool correct, size_t attempted, size_t failed,
                       const std::vector<Metric>& metrics);

/// ru_maxrss of the process, in MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
