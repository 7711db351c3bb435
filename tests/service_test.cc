// Continuous multi-query join service: incremental execution must be
// indistinguishable from independent full executions (filters and rows),
// shared-phase groups must reproduce dedicated per-query runs, admission
// churn must keep report streams consistent, and scripted service runs
// must be deterministic across runner thread counts.

#include "sensjoin/service/join_service.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sensjoin/sensjoin.h"
#include "sensjoin/testbed/service_harness.h"

namespace sensjoin::service {
namespace {

testbed::TestbedParams MediumParams(uint64_t seed) {
  testbed::TestbedParams params;
  params.placement.num_nodes = 350;
  params.placement.area_width_m = 500;
  params.placement.area_height_m = 500;
  params.seed = seed;
  return params;
}

testbed::TestbedParams SmallParams(uint64_t seed) {
  testbed::TestbedParams params;
  params.placement.num_nodes = 220;
  params.placement.area_width_m = 400;
  params.placement.area_height_m = 400;
  params.seed = seed;
  return params;
}

join::ProtocolConfig ServiceProtocol() {
  join::ProtocolConfig config;
  config.use_treecut = false;  // isolate the delta/sharing behavior
  return config;
}

ServiceConfig SharedConfig(bool share_phases = true) {
  ServiceConfig config;
  config.protocol = ServiceProtocol();
  config.share_phases = share_phases;
  return config;
}

/// One family, one sharing signature: every member collects the same
/// quantized temp keys; only the join-predicate threshold differs.
std::string FamilyQuery(int i) {
  return "SELECT A.hum, B.hum FROM sensors A, sensors B "
         "WHERE A.temp - B.temp > " +
         std::to_string(1.0 + 0.05 * i) + " ONCE";
}

/// A second family sharing one signature: every member also carries the
/// single-table conjunct `A.hum > 50`, pushed down as A's selection.
std::string SelectedFamilyQuery(int i) {
  return "SELECT A.hum, B.hum FROM sensors A, sensors B "
         "WHERE A.hum > 50 AND A.temp - B.temp > " +
         std::to_string(1.0 + 0.05 * i) + " ONCE";
}

std::vector<std::vector<double>> SortedRows(const join::JoinResult& r) {
  auto rows = r.rows;
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(ServiceTest, IncrementalExecutionMatchesSnapshotExecutions) {
  // A lone query, and a three-member group whose members share a
  // selection the analyzer pushes down onto A: the group splits its
  // candidate pool once, and that split must serve every member.
  const std::vector<std::vector<std::string>> inputs = {
      {FamilyQuery(0)},
      {SelectedFamilyQuery(0), SelectedFamilyQuery(1),
       SelectedFamilyQuery(2)}};
  for (const std::vector<std::string>& sqls : inputs) {
    auto tb = testbed::Testbed::Create(MediumParams(3));
    ASSERT_TRUE(tb.ok());
    auto service = testbed::MakeService(**tb, SharedConfig());
    std::vector<QueryId> ids;
    std::vector<query::AnalyzedQuery> queries;
    for (const std::string& sql : sqls) {
      auto id = service.Register(sql);
      ASSERT_TRUE(id.ok()) << id.status();
      auto q = (*tb)->ParseQuery(sql);
      ASSERT_TRUE(q.ok()) << q.status();
      ids.push_back(*id);
      queries.push_back(std::move(q).value());
    }

    size_t cheap_paths = 0;
    for (uint64_t epoch = 0; epoch < 5; ++epoch) {
      auto report = service.RunEpoch();
      ASSERT_TRUE(report.ok()) << report.status();
      EXPECT_EQ(report->epoch, epoch);
      EXPECT_EQ(report->groups, 1u);
      cheap_paths +=
          report->filter_reuses + report->filter_incremental_updates;

      for (size_t i = 0; i < ids.size(); ++i) {
        // Independent full execution of the same query on the same
        // drifting readings. The service's incrementally maintained state
        // must be indistinguishable: identical collected multiset,
        // identical filter, identical result rows.
        auto snapshot =
            (*tb)->MakeSensJoin(ServiceProtocol()).Execute(queries[i], epoch);
        ASSERT_TRUE(snapshot.ok()) << snapshot.status();
        auto record = service.registry().Get(ids[i]);
        ASSERT_TRUE(record.ok());
        const join::ExecutionReport& mine = (*record)->reports.at(epoch);
        EXPECT_EQ(mine.collected_points, snapshot->collected_points);
        EXPECT_EQ(mine.filter_points, snapshot->filter_points);
        EXPECT_EQ(SortedRows(mine.result), SortedRows(snapshot->result))
            << sqls[i] << " epoch " << epoch;
        EXPECT_EQ(mine.result.contributing_nodes,
                  snapshot->result.contributing_nodes);
        EXPECT_FALSE(mine.result.rows.empty()) << sqls[i];
      }
    }
    // Drifting readings must exercise the reuse/incremental maintenance
    // paths, not fall back to a full recompute every epoch.
    EXPECT_GT(cheap_paths, 0u);
  }
}

TEST(ServiceTest, SixteenQueryGroupMatchesDedicatedExecutions) {
  auto shared_tb = testbed::Testbed::Create(SmallParams(7));
  auto dedicated_tb = testbed::Testbed::Create(SmallParams(7));
  ASSERT_TRUE(shared_tb.ok());
  ASSERT_TRUE(dedicated_tb.ok());

  testbed::ServiceRunParams params;
  params.epochs = 4;
  params.config = SharedConfig();
  for (int i = 0; i < 16; ++i) {
    params.initial_queries.push_back(FamilyQuery(i));
  }
  auto shared = testbed::RunService(**shared_tb, params);
  ASSERT_TRUE(shared.ok()) << shared.status();
  params.config.share_phases = false;
  auto dedicated = testbed::RunService(**dedicated_tb, params);
  ASSERT_TRUE(dedicated.ok()) << dedicated.status();

  // One group serves all sixteen queries; the dedicated baseline pays
  // sixteen phase sets on an identical deployment.
  const ServiceEpochReport& last = shared->epochs.back();
  EXPECT_EQ(last.groups, 1u);
  EXPECT_DOUBLE_EQ(last.sharing_factor, 16.0);
  EXPECT_EQ(dedicated->epochs.back().groups, 16u);

  for (const auto& [id, reports] : shared->query_reports) {
    const auto it = dedicated->query_reports.find(id);
    ASSERT_NE(it, dedicated->query_reports.end());
    ASSERT_EQ(reports.size(), it->second.size());
    for (size_t e = 0; e < reports.size(); ++e) {
      EXPECT_EQ(SortedRows(reports[e].result),
                SortedRows(it->second[e].result))
          << "query " << id << " epoch " << e;
      EXPECT_EQ(reports[e].shared_group_size, 16u);
      EXPECT_EQ(it->second[e].shared_group_size, 1u);
    }
  }

  // Sharing must actually amortize: fewer packets per epoch than the
  // dedicated baseline, every epoch.
  for (size_t e = 0; e < shared->epochs.size(); ++e) {
    EXPECT_LT(shared->epochs[e].cost.join_packets,
              dedicated->epochs[e].cost.join_packets)
        << "epoch " << e;
  }
}

TEST(ServiceTest, DifferentSignaturesFormSeparateGroups) {
  auto tb = testbed::Testbed::Create(SmallParams(17));
  ASSERT_TRUE(tb.ok());
  auto service = testbed::MakeService(**tb, SharedConfig());
  ASSERT_TRUE(service.Register(FamilyQuery(0)).ok());
  ASSERT_TRUE(service.Register(FamilyQuery(1)).ok());
  // Different join attribute => different collection signature => its own
  // group and phase set.
  ASSERT_TRUE(service
                  .Register("SELECT A.temp, B.temp FROM sensors A, sensors B "
                            "WHERE A.hum - B.hum > 0.1 ONCE")
                  .ok());
  auto report = service.RunEpoch();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->active_queries, 3u);
  EXPECT_EQ(report->groups, 2u);
  EXPECT_DOUBLE_EQ(report->sharing_factor, 1.5);
  EXPECT_EQ(service.last_group_reports().size(), 2u);
}

TEST(ServiceTest, AdmissionAndCancelChurn) {
  auto tb = testbed::Testbed::Create(SmallParams(11));
  ASSERT_TRUE(tb.ok());
  testbed::ServiceRunParams params;
  params.epochs = 5;
  params.config = SharedConfig();
  params.initial_queries = {FamilyQuery(0), FamilyQuery(1)};
  testbed::ChurnEvent join_event;
  join_event.epoch = 1;
  join_event.kind = testbed::ChurnEvent::Kind::kRegister;
  join_event.sql = FamilyQuery(2);
  params.churn.push_back(join_event);
  testbed::ChurnEvent leave_event;
  leave_event.epoch = 3;
  leave_event.kind = testbed::ChurnEvent::Kind::kCancel;
  leave_event.target = 0;  // oldest active: the first admission
  params.churn.push_back(leave_event);

  auto run = testbed::RunService(**tb, params);
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_EQ(run->admitted.size(), 3u);
  ASSERT_EQ(run->epochs.size(), 5u);
  const std::vector<size_t> expected_active = {2, 3, 3, 2, 2};
  for (size_t e = 0; e < expected_active.size(); ++e) {
    EXPECT_EQ(run->epochs[e].active_queries, expected_active[e])
        << "epoch " << e;
  }
  // Report streams cover exactly the epochs each query was active in.
  EXPECT_EQ(run->query_reports.at(run->admitted[0]).size(), 3u);
  EXPECT_EQ(run->query_reports.at(run->admitted[1]).size(), 5u);
  EXPECT_EQ(run->query_reports.at(run->admitted[2]).size(), 4u);
}

TEST(ServiceTest, RegistryRejectsMalformedAndUnknown) {
  auto tb = testbed::Testbed::Create(SmallParams(13));
  ASSERT_TRUE(tb.ok());
  ServiceConfig config = SharedConfig();
  config.max_queries = 2;
  auto service = testbed::MakeService(**tb, config);

  // Nothing to run yet.
  EXPECT_FALSE(service.RunEpoch().ok());
  // Malformed and non-join input is rejected with a Status, never a crash.
  EXPECT_FALSE(service.Register("SELECT FROM WHERE").ok());
  EXPECT_FALSE(service.Register("garbage ][;;").ok());
  EXPECT_FALSE(service.Register("SELECT temp FROM sensors ONCE").ok());
  EXPECT_FALSE(service.Cancel(99).ok());

  auto a = service.Register(FamilyQuery(0));
  auto b = service.Register(FamilyQuery(1));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
  // Admission cap counts active queries only.
  EXPECT_FALSE(service.Register(FamilyQuery(2)).ok());
  EXPECT_TRUE(service.Cancel(*a).ok());
  EXPECT_FALSE(service.Cancel(*a).ok());  // double cancel
  EXPECT_TRUE(service.Register(FamilyQuery(2)).ok());
  // Cancelled records stay queryable (their report stream survives).
  auto record = service.registry().Get(*a);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ((*record)->state, QueryState::kCancelled);
}

TEST(ServiceTest, DeterministicAcrossRunnerThreadCounts) {
  using Digest = std::vector<std::array<uint64_t, 4>>;
  const auto trial = [](const testbed::TrialContext& ctx) -> Digest {
    auto tb = testbed::Testbed::Create(SmallParams(20 + ctx.trial));
    SENSJOIN_CHECK(tb.ok());
    testbed::ServiceRunParams params;
    params.epochs = 3;
    params.config = SharedConfig();
    params.initial_queries = {FamilyQuery(0), FamilyQuery(3)};
    auto run = testbed::RunService(**tb, params);
    SENSJOIN_CHECK(run.ok()) << run.status();
    Digest digest;
    for (const ServiceEpochReport& e : run->epochs) {
      // Packet/row/topology fields only: station_cpu_s is host wall-clock
      // and legitimately varies run to run.
      digest.push_back({e.cost.join_packets, e.cost.join_bytes,
                        static_cast<uint64_t>(e.matched_rows),
                        static_cast<uint64_t>(e.changed_nodes)});
    }
    return digest;
  };
  auto sequential = testbed::ParallelRunner(1).Run(4, 99, trial);
  auto parallel = testbed::ParallelRunner(4).Run(4, 99, trial);
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(*sequential, *parallel);
}

}  // namespace
}  // namespace sensjoin::service
