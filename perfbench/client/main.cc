// Closed-loop benchmark client of the SENS-Join library: one process, one
// thread, the default sequential engine; each operation is issued when the
// previous one returns.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <file>] [--max-ops <n>] [--corrupt-reference]
//
// A run issues a fixed number of operations: about as many as the reference
// host completes in --seconds. Every run of a workload therefore does the
// same work, and the time it takes is what is measured. --trace 0 prints the
// end-to-end metrics; --trace 1 runs the same operation sequence with spans
// and prints the per-layer metrics. The last line of standard output is the
// JSON result; the exit code is 0 only when every operation passed its
// output check. --max-ops and --corrupt-reference exist for the benchmark's
// self-test.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "bench.h"
#include "metrics.h"

namespace perfbench {
namespace {

/// setup_s is the median of about kSetUpSamples set-ups of a second
/// workload instance, spread evenly over the run, so that set-up samples
/// the same host conditions as the operations do.
constexpr size_t kSetUpSamples = 40;

/// Operations per second of each workload in a 30 s run on the reference
/// host, a 4-vCPU x86-64 VM at 2.1 GHz; a run issues round(rate * --seconds)
/// of them, at least kMinOps. A service op is one epoch, and its cost and
/// the memory it keeps grow with the epoch; its rate stops a 30 s run at 150
/// epochs, about 25 s and 1.7 GB of peak RSS on the reference host.
const std::map<std::string, double>& ReferenceOpsPerSecond() {
  static const auto* rates = new std::map<std::string, double>{
      {"paper-mix", 24.0},
      {"field-sparse", 13.0},
      {"service-shared", 5.0},
      {"field-lossy", 36.0},
  };
  return *rates;
}

/// A run that has not finished after this much wall time is a failure.
constexpr double kWallLimitS = 160.0;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_out;
  long max_ops = -1;
  Options options;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      args.options.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) throw BenchError("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && args.seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else if (flag == "--max-ops") {
      args.max_ops = std::strtol(value.c_str(), &end, 10);
      if (*end != '\0' || args.max_ops < 0) throw BenchError("bad --max-ops");
    } else {
      throw BenchError("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    throw BenchError(
        "usage: perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1>");
  }
  return args;
}

int Run(const Args& args) {
  const auto rate = ReferenceOpsPerSecond().find(args.workload);
  if (rate == ReferenceOpsPerSecond().end()) {
    throw BenchError("unknown workload " + args.workload);
  }
  const size_t num_ops =
      args.max_ops >= 0 ? static_cast<size_t>(args.max_ops)
                        : std::max(kMinOps, static_cast<size_t>(std::llround(
                                                rate->second * args.seconds)));
  auto make_workload = [&args] {
    return args.workload == "service-shared"
               ? MakeServiceWorkload(args.seed, args.options)
               : MakeOneShotWorkload(args.workload, args.seed, args.options);
  };
  std::unique_ptr<Workload> workload = make_workload();
  std::unique_ptr<Workload> setup_probe = make_workload();

  SpanLog log;
  SpanLog* spans = args.trace ? &log : nullptr;
  RunData run;
  auto time_setup = [&](Workload& w) {
    const double t0 = NowSeconds();
    w.SetUp(spans);
    run.setup_s.push_back(NowSeconds() - t0);
  };
  time_setup(*workload);
  workload->Prepare();
  const size_t setup_stride = std::max<size_t>(1, num_ops / kSetUpSamples);

  const double start = NowSeconds();
  double measured = 0.0;
  size_t failed = 0;
  for (size_t op = 0; op < num_ops; ++op) {
    if (NowSeconds() - start > kWallLimitS) {
      throw BenchError("run exceeded its wall-time limit after " +
                       std::to_string(op) + " operations");
    }
    if (op % setup_stride == 0) time_setup(*setup_probe);
    run.ops.push_back(workload->RunOp(static_cast<int64_t>(op), spans));
    const OpRecord& rec = run.ops.back();
    measured += rec.latency_s;
    if (!rec.ok && ++failed <= 5) {
      std::cerr << "op " << op << " failed: " << rec.failure << "\n";
    }
  }
  if (run.ops.empty()) throw BenchError("the run completed no operation");
  run.peak_rss_mb = PeakRssMb();

  std::printf("workload %s seed %" PRIu64 " trace %d: %zu ops in %.3f s "
              "measured (%.3f s wall), %zu failed, %zu set-ups\n",
              args.workload.c_str(), args.seed, args.trace ? 1 : 0,
              run.ops.size(), measured, NowSeconds() - start, failed,
              run.setup_s.size());
  std::printf("sim digest %016" PRIx64 "\n", SimDigest(run));
  const std::vector<Metric> metrics =
      args.trace ? PerLayerMetrics(run, log) : EndToEndMetrics(run);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (args.trace && !args.spans_out.empty()) log.WriteJsonLines(args.spans_out);
  std::printf("%s\n", ResultLine(failed == 0, run.ops.size(), failed, metrics)
                          .c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Run(perfbench::ParseArgs(argc, argv));
  } catch (const perfbench::BenchError& e) {
    std::fflush(stdout);
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
