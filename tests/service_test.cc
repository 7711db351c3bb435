// Continuous multi-query join service: incremental execution must be
// indistinguishable from independent full executions (filters and rows),
// shared-phase groups must reproduce dedicated per-query runs, admission
// churn must keep report streams consistent, lossy links must be resynced
// without changing any row, records must keep only their latest report
// while the report sink sees every committed one, stream summaries must
// account for every row, and scripted service runs must be deterministic
// across runner thread counts.

#include "sensjoin/service/join_service.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sensjoin/sensjoin.h"
#include "sensjoin/testbed/chaos.h"
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

/// The multiset of a result's row identities (contributor sets), sorted.
std::vector<std::vector<sim::NodeId>> SortedIdentities(
    const join::JoinResult& r) {
  auto ids = r.row_nodes;
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Records what a report sink receives: every (query, epoch) delivery and
/// a copy of each report of the current epoch (the caller clears both).
struct SinkLog {
  std::vector<std::pair<QueryId, uint64_t>> calls;
  std::map<QueryId, join::ExecutionReport> epoch_reports;

  ReportSink Sink() {
    return [this](QueryId id, uint64_t epoch,
                  const join::ExecutionReport& report) {
      calls.emplace_back(id, epoch);
      epoch_reports.insert_or_assign(id, report);
    };
  }
};

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
        const join::ExecutionReport& mine = (*record)->reports.back();
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

TEST(ServiceTest, LossyLinksResyncAndKeepRowsExact) {
  // 2% fragment loss on every link: lost delta hops are re-pulled and a
  // failed hop forces a tree rebuild, yet every member's rows must still
  // equal the ground truth over the live readings of each epoch.
  auto tb = testbed::Testbed::Create(MediumParams(3));
  ASSERT_TRUE(tb.ok());
  sim::FaultPlan plan;
  plan.default_loss_rate = 0.02;
  (*tb)->InjectFaults(plan);
  auto service = testbed::MakeService(**tb, SharedConfig());
  std::vector<QueryId> ids;
  std::vector<query::AnalyzedQuery> queries;
  for (int i = 0; i < 3; ++i) {
    auto id = service.Register(SelectedFamilyQuery(i));
    ASSERT_TRUE(id.ok()) << id.status();
    auto q = (*tb)->ParseQuery(SelectedFamilyQuery(i));
    ASSERT_TRUE(q.ok()) << q.status();
    ids.push_back(*id);
    queries.push_back(std::move(q).value());
  }

  size_t resyncs = 0;
  size_t rebuilds = 0;
  for (uint64_t epoch = 0; epoch < 5; ++epoch) {
    auto report = service.RunEpoch();
    ASSERT_TRUE(report.ok()) << "epoch " << epoch << ": " << report.status();
    EXPECT_EQ(report->groups, 1u);
    resyncs += report->delta_resyncs;
    rebuilds += report->tree_rebuilds;
    for (size_t i = 0; i < ids.size(); ++i) {
      const join::JoinResult truth =
          testbed::ComputeGroundTruth(**tb, queries[i], epoch);
      auto record = service.registry().Get(ids[i]);
      ASSERT_TRUE(record.ok());
      EXPECT_EQ(SortedRows((*record)->reports.back().result),
                SortedRows(truth))
          << "query " << i << " epoch " << epoch;
    }
  }
  // The loss must actually have exercised both fault paths.
  EXPECT_GT(resyncs, 0u);
  EXPECT_GT(rebuilds, 0u);
}

TEST(ServiceTest, RetainsOnlyLatestReport) {
  // Register/cancel churn over two sharing groups for 32 epochs. After
  // every epoch each record, cancelled ones too, holds exactly one report,
  // and the sink saw exactly that report once per active query, in
  // ascending id, with each query's epochs consecutive.
  auto tb = testbed::Testbed::Create(SmallParams(11));
  ASSERT_TRUE(tb.ok());
  auto service = testbed::MakeService(**tb, SharedConfig());
  SinkLog log;
  service.set_report_sink(log.Sink());
  std::vector<QueryId> registered;
  const auto admit = [&](const std::string& sql) {
    auto id = service.Register(sql);
    ASSERT_TRUE(id.ok()) << id.status();
    registered.push_back(*id);
  };
  admit(FamilyQuery(0));
  admit(SelectedFamilyQuery(0));

  std::map<QueryId, uint64_t> last_epoch;
  std::map<QueryId, size_t> last_matched;
  size_t cancels = 0;
  for (uint64_t epoch = 0; epoch < 32; ++epoch) {
    const int i = static_cast<int>(epoch);
    if (epoch % 3 == 1) {
      admit(epoch % 2 == 1 ? FamilyQuery(i) : SelectedFamilyQuery(i));
    }
    if (epoch % 4 == 3) {
      ASSERT_TRUE(service.Cancel(service.registry().ActiveIds().front()).ok());
      ++cancels;
    }
    const std::vector<QueryId> active = service.registry().ActiveIds();
    log.calls.clear();
    log.epoch_reports.clear();
    auto report = service.RunEpoch();
    ASSERT_TRUE(report.ok()) << "epoch " << epoch << ": " << report.status();
    ASSERT_EQ(report->epoch, epoch);

    std::vector<QueryId> delivered;
    for (const auto& [id, e] : log.calls) {
      EXPECT_EQ(e, epoch) << "query " << id;
      delivered.push_back(id);
    }
    EXPECT_EQ(delivered, active) << "epoch " << epoch;
    for (const QueryId id : active) {
      const auto it = last_epoch.find(id);
      if (it != last_epoch.end()) {
        EXPECT_EQ(it->second + 1, epoch) << "query " << id;
      }
      last_epoch[id] = epoch;
    }

    for (const QueryId id : registered) {
      auto record = service.registry().Get(id);
      ASSERT_TRUE(record.ok());
      ASSERT_EQ((*record)->reports.size(), 1u)
          << "query " << id << " epoch " << epoch;
      const join::ExecutionReport& latest = (*record)->reports.back();
      const auto seen = log.epoch_reports.find(id);
      if (seen == log.epoch_reports.end()) {
        // Cancelled: the record keeps the report of its last epoch.
        EXPECT_EQ((*record)->state, QueryState::kCancelled);
        EXPECT_EQ(latest.result.matched_combinations, last_matched.at(id));
        continue;
      }
      EXPECT_EQ(SortedRows(seen->second.result), SortedRows(latest.result))
          << "query " << id << " epoch " << epoch;
      EXPECT_EQ(seen->second.result.contributing_nodes,
                latest.result.contributing_nodes);
      EXPECT_EQ(seen->second.result.matched_combinations,
                latest.result.matched_combinations);
      last_matched[id] = latest.result.matched_combinations;
    }
  }
  EXPECT_EQ(cancels, 8u);
  EXPECT_EQ(registered.size(), 13u);
}

TEST(ServiceTest, LossyLinksDeliverOnlyCommittedEpochsToSink) {
  // The 2%-loss setup of LossyLinksResyncAndKeepRowsExact: aborted epoch
  // attempts rebuild the tree and re-run, and none of their reports may
  // reach the sink.
  auto tb = testbed::Testbed::Create(MediumParams(3));
  ASSERT_TRUE(tb.ok());
  sim::FaultPlan plan;
  plan.default_loss_rate = 0.02;
  (*tb)->InjectFaults(plan);
  auto service = testbed::MakeService(**tb, SharedConfig());
  SinkLog log;
  service.set_report_sink(log.Sink());
  std::vector<QueryId> ids;
  for (int i = 0; i < 3; ++i) {
    auto id = service.Register(SelectedFamilyQuery(i));
    ASSERT_TRUE(id.ok()) << id.status();
    ids.push_back(*id);
  }

  size_t rebuilds = 0;
  size_t expected_deliveries = 0;
  for (uint64_t epoch = 0; epoch < 5; ++epoch) {
    expected_deliveries += service.registry().active_count();
    auto report = service.RunEpoch();
    ASSERT_TRUE(report.ok()) << "epoch " << epoch << ": " << report.status();
    rebuilds += report->tree_rebuilds;
    EXPECT_EQ(log.calls.size(), expected_deliveries) << "epoch " << epoch;
    for (const QueryId id : ids) {
      auto record = service.registry().Get(id);
      ASSERT_TRUE(record.ok());
      ASSERT_EQ((*record)->reports.size(), 1u);
      EXPECT_EQ(SortedRows(log.epoch_reports.at(id).result),
                SortedRows((*record)->reports.back().result));
    }
  }
  EXPECT_GT(rebuilds, 0u);
  std::map<std::pair<QueryId, uint64_t>, int> deliveries;
  for (const auto& call : log.calls) ++deliveries[call];
  EXPECT_EQ(deliveries.size(), expected_deliveries);
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

TEST(ServiceTest, StreamSummariesAccountForEveryRow) {
  auto tb = testbed::Testbed::Create(SmallParams(11));
  ASSERT_TRUE(tb.ok());
  testbed::ServiceRunParams params;
  params.epochs = 8;
  params.config = SharedConfig();
  params.initial_queries = {FamilyQuery(0), FamilyQuery(1)};
  testbed::ChurnEvent join_event;
  join_event.epoch = 2;
  join_event.sql = FamilyQuery(2);
  params.churn.push_back(join_event);
  testbed::ChurnEvent leave_event;
  leave_event.epoch = 5;
  leave_event.kind = testbed::ChurnEvent::Kind::kCancel;
  params.churn.push_back(leave_event);

  StreamSummarizer summarizer;
  testbed::ServiceRunObservers observers;
  observers.sink = summarizer.Sink();
  auto run = testbed::RunService(**tb, params, observers);
  ASSERT_TRUE(run.ok()) << run.status();
  const std::vector<EpochStreamSummary>& summaries = summarizer.summaries();
  // Query 1 runs epochs 0-4, query 2 epochs 0-7, query 3 epochs 2-7.
  ASSERT_EQ(summaries.size(), 5u + 8u + 6u);

  std::map<QueryId, size_t> position;
  std::map<QueryId, EpochStreamSummary> previous;
  std::map<QueryId, int64_t> net_rows;
  size_t moved = 0;
  for (const EpochStreamSummary& s : summaries) {
    const std::vector<join::ExecutionReport>& stream =
        run->query_reports.at(s.query);
    const size_t k = position[s.query]++;
    ASSERT_LT(k, stream.size());
    const join::ExecutionReport& report = stream[k];
    EXPECT_EQ(s.rows, report.result.rows.size());
    EXPECT_EQ(s.candidate_tuples, report.candidate_tuples);
    EXPECT_EQ(s.filter_points, report.filter_points);
    EXPECT_EQ(s.delta_changed_nodes, report.delta_changed_nodes);
    EXPECT_EQ(s.rows, s.added + s.kept);

    const auto prev = previous.find(s.query);
    if (prev == previous.end()) {
      EXPECT_EQ(s.kept, 0u);
      EXPECT_EQ(s.removed, 0u);
    } else {
      EXPECT_EQ(prev->second.epoch + 1, s.epoch);
      EXPECT_EQ(prev->second.rows, s.removed + s.kept);
      // Oracle: multiset intersection of the two epochs' identities.
      const auto before = SortedIdentities(stream[k - 1].result);
      const auto now = SortedIdentities(report.result);
      std::vector<std::vector<sim::NodeId>> common;
      std::set_intersection(before.begin(), before.end(), now.begin(),
                            now.end(), std::back_inserter(common));
      EXPECT_EQ(s.kept, common.size())
          << "query " << s.query << " epoch " << s.epoch;
      moved += s.added + s.removed;
    }
    net_rows[s.query] += static_cast<int64_t>(s.added) -
                         static_cast<int64_t>(s.removed);
    previous.insert_or_assign(s.query, s);
  }
  for (const auto& [id, stream] : run->query_reports) {
    EXPECT_EQ(position[id], stream.size());
    EXPECT_EQ(net_rows[id],
              static_cast<int64_t>(stream.back().result.rows.size()))
        << "query " << id;
  }
  // Drifting readings move rows in and out between epochs.
  EXPECT_GT(moved, 0u);

  const std::string csv = summarizer.ToCsv();
  EXPECT_EQ(static_cast<size_t>(std::count(csv.begin(), csv.end(), '\n')),
            summaries.size() + 1);
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "query,epoch,rows,added,removed,kept,candidate_tuples,"
            "filter_points,delta_changed_nodes");
  const EpochStreamSummary& first = summaries.front();
  const std::string first_line =
      std::to_string(first.query) + "," + std::to_string(first.epoch) + "," +
      std::to_string(first.rows) + "," + std::to_string(first.added) +
      ",0,0," + std::to_string(first.candidate_tuples) + "," +
      std::to_string(first.filter_points) + "," +
      std::to_string(first.delta_changed_nodes);
  EXPECT_EQ(csv.substr(csv.find('\n') + 1, first_line.size() + 1),
            first_line + "\n");
  const std::string json = summarizer.ToJson();
  EXPECT_EQ(json.rfind("{\"schema\": \"sensjoin-stream-summary-v1\"", 0),
            0u);
  size_t objects = 0;
  for (size_t at = json.find("{\"query\": "); at != std::string::npos;
       at = json.find("{\"query\": ", at + 1)) {
    ++objects;
  }
  EXPECT_EQ(objects, summaries.size());
  EXPECT_NE(json.find("\"delta_changed_nodes\": " +
                      std::to_string(summaries.back().delta_changed_nodes) +
                      "}\n]}"),
            std::string::npos);
}

TEST(ServiceTest, SixteenQueryStreamSummariesMatchDedicated) {
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
  StreamSummarizer shared_summary;
  StreamSummarizer dedicated_summary;
  testbed::ServiceRunObservers observers;
  observers.sink = shared_summary.Sink();
  auto shared = testbed::DriveService(**shared_tb, params, observers);
  ASSERT_TRUE(shared.ok()) << shared.status();
  params.config.share_phases = false;
  observers.sink = dedicated_summary.Sink();
  auto dedicated = testbed::DriveService(**dedicated_tb, params, observers);
  ASSERT_TRUE(dedicated.ok()) << dedicated.status();
  // DriveService leaves collection to its observers.
  EXPECT_TRUE(shared->query_reports.empty());
  EXPECT_EQ(shared->epochs.back().groups, 1u);
  EXPECT_EQ(dedicated->epochs.back().groups, 16u);

  ASSERT_EQ(shared_summary.summaries().size(), 16u * 4u);
  EXPECT_EQ(shared_summary.summaries(), dedicated_summary.summaries());
  EXPECT_EQ(shared_summary.ToJson(), dedicated_summary.ToJson());
  EXPECT_EQ(shared_summary.ToCsv(), dedicated_summary.ToCsv());
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
  // Cancelled records stay queryable (their last report survives).
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
