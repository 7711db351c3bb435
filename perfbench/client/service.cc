// service-shared: a continuous JoinService on a fixed 250-node deployment
// with Treecut off. 32 queries share one collection signature and differ in
// their seeded thresholds; an extra query is registered and cancelled on a
// fixed script, so the filter cache takes its reuse, incremental and full
// paths.
// An operation is one RunEpoch together with that epoch's scripted
// Register/Cancel.

#include <cmath>
#include <optional>

#include "bench.h"
#include "metrics.h"
#include "reference.h"
#include "replay.h"
#include "sensjoin/common/rng.h"
#include "sensjoin/service/join_service.h"
#include "sensjoin/testbed/testbed.h"

namespace perfbench {
namespace {

namespace join = sensjoin::join;
namespace service = sensjoin::service;
namespace testbed = sensjoin::testbed;

constexpr uint64_t kDeploymentSeed = 42;
constexpr int kNumNodes = 250;
constexpr int kQueries = 32;
/// Query i's threshold is the one at which about kRowsFirst - kRowsStep * i
/// ordered pairs match at epoch 0, scaled by a seeded factor in
/// [1 - kRowsJitter, 1 + kRowsJitter] (about 76k rows per epoch for all
/// 32). The extra query of the k-th churn step takes index
/// kQueries + k % kQueries.
constexpr double kRowsFirst = 3000.0;
constexpr double kRowsStep = 40.0;
constexpr double kRowsJitter = 0.05;
/// Epoch e registers an extra query when e % kChurnEvery == 1 and cancels
/// it when e % kChurnEvery == 3.
constexpr uint64_t kChurnEvery = 4;

testbed::TestbedParams DeploymentParams() {
  testbed::TestbedParams params;
  params.seed = kDeploymentSeed;
  params.placement.num_nodes = kNumNodes;
  // The paper's density: 1500 nodes on 1050 m x 1050 m.
  const double side = 1050.0 * std::sqrt(kNumNodes / 1500.0);
  params.placement.area_width_m = side;
  params.placement.area_height_m = side;
  return params;
}

join::ProtocolConfig ServiceProtocol() {
  join::ProtocolConfig config;
  config.use_treecut = false;
  return config;
}

std::unique_ptr<testbed::Testbed> MustCreate() {
  auto tb = testbed::Testbed::Create(DeploymentParams());
  if (!tb.ok()) throw BenchError("Testbed::Create: " + tb.status().ToString());
  return std::move(tb).value();
}

class ServiceWorkload : public Workload {
 public:
  ServiceWorkload(uint64_t seed, const Options& options)
      : seed_(seed), options_(options) {}

  void SetUp(SpanLog* log) override {
    service_.reset();
    tb_.reset();
    {
      ScopedSpan span(log, "testbed.create", -1);
      tb_ = MustCreate();
    }
    // Every set-up rebuilds the same deployment, so the thresholds are
    // derived once, not in every timed set-up.
    if (deltas_.empty()) {
      const std::vector<double> temps =
          SortedSensorTemps(SenseAll(tb_->data(), kNumNodes, 0));
      sensjoin::Rng rng(seed_);
      for (int i = 0; i < 2 * kQueries; ++i) {
        const double rows =
            (kRowsFirst - kRowsStep * i) *
            rng.UniformDouble(1.0 - kRowsJitter, 1.0 + kRowsJitter);
        deltas_.push_back(TempGapForRows(temps, rows));
      }
    }
    service::ServiceConfig config;
    config.protocol = ServiceProtocol();
    service_.emplace(tb_->simulator(), tb_->data(), tb_->tree(),
                     tb_->quantization(), config);
    for (int i = 0; i < kQueries; ++i) {
      ScopedSpan span(log, "service.admission", -1);
      auto id = service_->Register(TempGapQuery(deltas_[i]).sql);
      if (!id.ok()) throw BenchError("Register: " + id.status().ToString());
    }
    extra_ = 0;
  }

  void Prepare() override {
    // The from-scratch reference: a twin of the deployment, executing one
    // snapshot query per epoch.
    twin_ = MustCreate();
    twin_executor_.emplace(twin_->MakeSensJoin(ServiceProtocol()));
  }

  OpRecord RunOp(int64_t op, SpanLog* log) override {
    OpRecord rec;
    const uint64_t epoch = service_->next_epoch();
    const uint64_t events_before = tb_->simulator().events().total_fired();
    std::optional<sensjoin::StatusOr<service::ServiceEpochReport>> rep;
    const double t0 = NowSeconds();
    {
      ScopedSpan op_span(log, "op", op);
      if (epoch % kChurnEvery == 1) {
        ScopedSpan span(log, "service.admission", op);
        const int index =
            kQueries + static_cast<int>((epoch / kChurnEvery) % kQueries);
        auto id = service_->Register(TempGapQuery(deltas_[index]).sql);
        if (id.ok()) {
          extra_ = *id;
        } else {
          rec.Fail("Register: " + id.status().ToString());
        }
      } else if (epoch % kChurnEvery == 3 && extra_ != 0) {
        ScopedSpan span(log, "service.admission", op);
        const sensjoin::Status st = service_->Cancel(extra_);
        extra_ = 0;
        if (!st.ok()) rec.Fail("Cancel: " + st.ToString());
      }
      ScopedSpan span(log, "service.run_epoch", op);
      rep.emplace(service_->RunEpoch());
    }
    rec.latency_s = NowSeconds() - t0;
    rec.counters["sim.events"] = static_cast<double>(
        tb_->simulator().events().total_fired() - events_before);
    if (!rep->ok()) {
      rec.Fail("RunEpoch: " + rep->status().ToString());
      return rec;
    }
    const service::ServiceEpochReport& r = rep->value();
    rec.packets = r.cost.join_packets;
    rec.bytes = r.cost.join_bytes;
    rec.energy_mj = r.cost.energy_mj;
    RecordCounters(r, &rec);
    // The retained report streams only grow, so the peak is the current
    // size.
    rec.counters["service.rss_mb"] = PeakRssMb();

    const std::vector<service::QueryId> active =
        service_->registry().ActiveIds();
    CheckOneQuery(active[op % active.size()], epoch, op, &rec);
    if (log != nullptr) Replay(active, epoch, op, log, &rec);
    return rec;
  }

 private:
  /// Compares one query's rows of this epoch with a from-scratch snapshot
  /// execution on the twin deployment.
  void CheckOneQuery(service::QueryId id, uint64_t epoch, int64_t op,
                     OpRecord* rec) {
    const service::QueryRecord* record =
        service_->registry().Get(id).value();
    const join::ExecutionReport& got = record->reports.back();
    auto q = twin_->ParseQuery(record->sql);
    if (!q.ok()) {
      rec->Fail("twin ParseQuery: " + q.status().ToString());
      return;
    }
    auto snapshot = twin_executor_->Execute(*q, epoch);
    if (!snapshot.ok()) {
      rec->Fail("twin Execute: " + snapshot.status().ToString());
      return;
    }
    NodePairs expected = ResultPairs(snapshot->result);
    if (options_.corrupt_reference && op == 0) {
      expected.emplace_back(kNumNodes, kNumNodes + 1);
    }
    const std::string diff = CompareRows(expected, got.result);
    if (!diff.empty()) {
      rec->Fail("query " + std::to_string(id) + " vs snapshot: " + diff);
    }
    rec->reference_rows = expected.size();
    rec->returned_rows = got.result.matched_combinations;
  }

  /// Replays the station side of every active query of the epoch.
  void Replay(const std::vector<service::QueryId>& active, uint64_t epoch,
              int64_t op, SpanLog* log, OpRecord* rec) {
    auto& c = rec->counters;
    for (service::QueryId id : active) {
      const service::QueryRecord* record =
          service_->registry().Get(id).value();
      const join::ExecutionReport& report = record->reports.back();
      const join::JoinResult& result = report.result;
      std::optional<sensjoin::StatusOr<sensjoin::query::AnalyzedQuery>> q;
      {
        ScopedSpan span(log, "query.parse", op, /*replay=*/true);
        q.emplace(tb_->ParseQuery(record->sql));
      }
      if (!q->ok()) throw BenchError("replay ParseQuery failed");
      const ReplayResult replay =
          ReplayStation(tb_->data(), tb_->quantization(), q->value(), epoch,
                        {}, result.contributing_nodes, log, op);
      if (replay.matched_combinations != result.matched_combinations) {
        rec->Fail("replay: query " + std::to_string(id) + " matched " +
                  std::to_string(replay.matched_combinations) +
                  ", the service " +
                  std::to_string(result.matched_combinations));
      }
      c["join.collected_wire_bytes"] +=
          static_cast<double>(replay.collected_wire_bytes);
      c["join.filter_combinations"] +=
          static_cast<double>(replay.filter_combinations);
      c["replay.filter_points"] += static_cast<double>(replay.filter_points);
      c["replay.contributing_keys"] +=
          static_cast<double>(replay.contributing_keys);
      c["join.matched_combinations"] +=
          static_cast<double>(result.matched_combinations);
      c["join.contributing_nodes"] +=
          static_cast<double>(result.contributing_nodes.size());
      c["join.candidate_tuples"] +=
          static_cast<double>(report.candidate_tuples);
      c["join.filter_points"] += static_cast<double>(report.filter_points);
      // One sharing group: every member reports the group's collected set.
      c["join.collected_points"] =
          static_cast<double>(report.collected_points);
    }
  }

  static void RecordCounters(const service::ServiceEpochReport& r,
                             OpRecord* rec) {
    auto& c = rec->counters;
    c["service.station_cpu_s"] = r.station_cpu_s;
    c["service.changed_nodes"] = static_cast<double>(r.changed_nodes);
    c["service.sharing_factor"] = r.sharing_factor;
    c["service.rows"] = static_cast<double>(r.matched_rows);
    c["service.filter_reuses"] = static_cast<double>(r.filter_reuses);
    c["service.filter_incremental_updates"] =
        static_cast<double>(r.filter_incremental_updates);
    c["service.filter_full_recomputes"] =
        static_cast<double>(r.filter_full_recomputes);
    c["join.collection_packets"] =
        static_cast<double>(r.cost.phases.collection_packets);
    c["join.filter_packets"] =
        static_cast<double>(r.cost.phases.filter_packets);
    c["join.final_packets"] = static_cast<double>(r.cost.phases.final_packets);
    c["sim.retransmitted_packets"] =
        static_cast<double>(r.cost.retransmitted_packets);
    c["sim.ack_packets"] = static_cast<double>(r.cost.ack_packets);
  }

  const uint64_t seed_;
  const Options options_;
  std::unique_ptr<testbed::Testbed> tb_;
  std::optional<service::JoinService> service_;
  std::vector<double> deltas_;  ///< thresholds of query index 0, 1, ...
  service::QueryId extra_ = 0;
  std::unique_ptr<testbed::Testbed> twin_;
  std::optional<join::SensJoinExecutor> twin_executor_;
};

}  // namespace

std::unique_ptr<Workload> MakeServiceWorkload(uint64_t seed,
                                              const Options& options) {
  return std::make_unique<ServiceWorkload>(seed, options);
}

}  // namespace perfbench
