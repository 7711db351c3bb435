#include "sensjoin/testbed/service_harness.h"

#include <utility>

#include "sensjoin/common/logging.h"

namespace sensjoin::testbed {

service::JoinService MakeService(Testbed& tb, service::ServiceConfig config) {
  return service::JoinService(tb.simulator(), tb.data(), tb.tree(),
                              tb.quantization(), config);
}

StatusOr<ServiceRunResult> DriveService(Testbed& tb,
                                        const ServiceRunParams& params,
                                        const ServiceRunObservers& observers) {
  service::JoinService svc = MakeService(tb, params.config);
  svc.set_report_sink(observers.sink);
  ServiceRunResult result;

  for (const std::string& sql : params.initial_queries) {
    SENSJOIN_ASSIGN_OR_RETURN(const service::QueryId id, svc.Register(sql));
    result.admitted.push_back(id);
  }

  for (uint64_t step = 0; step < params.epochs; ++step) {
    for (const ChurnEvent& event : params.churn) {
      if (event.epoch != step) continue;
      if (event.kind == ChurnEvent::Kind::kRegister) {
        SENSJOIN_ASSIGN_OR_RETURN(const service::QueryId id,
                                  svc.Register(event.sql));
        result.admitted.push_back(id);
      } else {
        service::QueryId target = event.target;
        if (target == 0) {
          const std::vector<service::QueryId> active =
              svc.registry().ActiveIds();
          if (active.empty()) {
            return Status::FailedPrecondition(
                "churn cancel with no active query");
          }
          target = active.front();
        }
        SENSJOIN_RETURN_IF_ERROR(svc.Cancel(target));
      }
    }
    if (svc.registry().active_count() == 0) continue;
    SENSJOIN_ASSIGN_OR_RETURN(service::ServiceEpochReport report,
                              svc.RunEpoch());
    if (observers.on_epoch) observers.on_epoch(report);
    result.epochs.push_back(std::move(report));
  }
  return result;
}

StatusOr<ServiceRunResult> RunService(Testbed& tb,
                                      const ServiceRunParams& params,
                                      const ServiceRunObservers& observers) {
  std::map<service::QueryId, std::vector<join::ExecutionReport>> streams;
  ServiceRunObservers collecting = observers;
  collecting.sink = [&streams, &observers](
                        service::QueryId id, uint64_t epoch,
                        const join::ExecutionReport& report) {
    streams[id].push_back(report);
    if (observers.sink) observers.sink(id, epoch, report);
  };
  SENSJOIN_ASSIGN_OR_RETURN(ServiceRunResult result,
                            DriveService(tb, params, collecting));
  for (const service::QueryId id : result.admitted) streams.try_emplace(id);
  result.query_reports = std::move(streams);
  return result;
}

}  // namespace sensjoin::testbed
