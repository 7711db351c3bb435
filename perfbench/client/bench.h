#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared types of the closed-loop benchmark client: wall-clock spans, the
// per-operation record, and the workload interface.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// A failure of the benchmark itself (bad arguments, a deployment that
/// cannot be built, a broken replay): the run ends without a result line.
class BenchError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Monotonic wall clock in seconds since an arbitrary origin.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall-clock spans the benchmark records around its calls into the
/// library's public functions (traced runs only). Spans nest: a span opened
/// while another is open is its child. Spans of one operation share `op`;
/// set-up spans carry op == -1. Replay spans re-run an operation's station
/// side after the operation returned and are marked `replay`.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    int64_t op = -1;
    int32_t parent = -1;
    bool replay = false;
    double start_s = 0.0;
    double end_s = 0.0;

    double seconds() const { return end_s - start_s; }
  };

  int32_t Open(const char* name, int64_t op, bool replay);
  void Close(int32_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as one JSON object per line.
  void WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// Opens a span for the enclosing scope; does nothing without a log.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t op, bool replay = false)
      : log_(log), id_(log != nullptr ? log->Open(name, op, replay) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t id_;
};

/// What one operation did, as the client saw it.
struct OpRecord {
  /// Wall time of the operation's public calls (the timed region).
  double latency_s = 0.0;

  /// False when a call returned a non-OK Status or the output check failed.
  bool ok = true;
  std::string failure;

  // Simulated quantities: a pure function of (workload, seed, op index).
  uint64_t packets = 0;
  uint64_t bytes = 0;
  double energy_mj = 0.0;
  uint64_t reference_rows = 0;
  uint64_t returned_rows = 0;

  /// Layer counters of this operation, by per-layer metric ingredient name.
  std::map<std::string, double> counters;

  void Fail(const std::string& why) {
    if (ok) failure = why;
    ok = false;
  }
};

/// Switches of the benchmark's self-test.
struct Options {
  /// Adds one row that no execution returns to the first checked
  /// reference, so the output check of that operation must fail.
  bool corrupt_reference = false;
};

/// One workload: a deployment, its initial queries and a deterministic
/// operation sequence derived from the seed.
class Workload {
 public:
  virtual ~Workload() = default;

  /// (Re)builds the deployment and admits the initial queries; this is
  /// what setup_s times. Every call rebuilds the same state from the seed.
  virtual void SetUp(SpanLog* log) = 0;

  /// Untimed preparation of the run and its checks, after the last SetUp.
  virtual void Prepare() {}

  /// Issues operation `op` (0, 1, 2, ... in order), checks its output and,
  /// with a log, replays its station side in replay spans.
  virtual OpRecord RunOp(int64_t op, SpanLog* log) = 0;
};

std::unique_ptr<Workload> MakeOneShotWorkload(const std::string& name,
                                              uint64_t seed,
                                              const Options& options);
std::unique_ptr<Workload> MakeServiceWorkload(uint64_t seed,
                                              const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
