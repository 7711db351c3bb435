#ifndef SENSJOIN_TESTBED_SERVICE_HARNESS_H_
#define SENSJOIN_TESTBED_SERVICE_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sensjoin/common/statusor.h"
#include "sensjoin/service/join_service.h"
#include "sensjoin/testbed/testbed.h"

namespace sensjoin::testbed {

/// Builds a continuous join service bound to `tb`'s deployment (simulator,
/// environment data, a copy of the routing tree, the environment's
/// quantization). The testbed must outlive the service. Each ParallelRunner
/// trial builds its own testbed + service pair, keeping trials
/// self-contained and sweeps byte-identical to sequential runs.
service::JoinService MakeService(
    Testbed& tb, service::ServiceConfig config = service::ServiceConfig{});

/// One admission-churn action, applied before its epoch executes.
struct ChurnEvent {
  enum class Kind { kRegister, kCancel };
  uint64_t epoch = 0;
  Kind kind = Kind::kRegister;
  /// kRegister: the SQL to admit.
  std::string sql;
  /// kCancel: the query to cancel; 0 = the oldest still-active query.
  service::QueryId target = 0;
};

/// Scripted service run: initial admissions, a churn schedule, a fixed
/// number of epochs.
struct ServiceRunParams {
  std::vector<std::string> initial_queries;
  std::vector<ChurnEvent> churn;
  uint64_t epochs = 6;
  service::ServiceConfig config;
};

struct ServiceRunResult {
  /// Ids in admission order (initial queries first, then churn
  /// registrations).
  std::vector<service::QueryId> admitted;
  /// Service-level rollup per executed epoch.
  std::vector<service::ServiceEpochReport> epochs;
  /// Per-query report streams, collected through the service's report sink
  /// (a query's stream covers the epochs it was active in; every admitted
  /// query has an entry). Filled by RunService only.
  std::map<service::QueryId, std::vector<join::ExecutionReport>>
      query_reports;
};

/// Observers of a scripted run; either may be empty.
struct ServiceRunObservers {
  /// Sees every committed per-query report (JoinService::set_report_sink).
  service::ReportSink sink;
  /// Sees each committed epoch's rollup, after its reports were delivered.
  std::function<void(const service::ServiceEpochReport&)> on_epoch;
};

/// Drives a JoinService over `tb` for `params.epochs` scheduled epochs,
/// applying the churn schedule (events fire when their `epoch` equals the
/// schedule step). Reports reach only `observers`, so `query_reports`
/// stays empty and the run's memory stays flat over epochs. Fails on
/// invalid churn (bad SQL, unknown cancel target) or an epoch that exhausts
/// its retries; a step with no active queries is skipped without advancing
/// the service's epoch counter.
StatusOr<ServiceRunResult> DriveService(Testbed& tb,
                                        const ServiceRunParams& params,
                                        const ServiceRunObservers& observers);

/// DriveService that also collects every query's full report stream into
/// `query_reports` (before `observers.sink` sees each report).
StatusOr<ServiceRunResult> RunService(
    Testbed& tb, const ServiceRunParams& params,
    const ServiceRunObservers& observers = ServiceRunObservers{});

}  // namespace sensjoin::testbed

#endif  // SENSJOIN_TESTBED_SERVICE_HARNESS_H_
