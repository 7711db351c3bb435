// One-shot workloads: each operation is Testbed::ParseQuery followed by
// SensJoinExecutor::Execute of one query of the current round; the epoch
// advances once per round and never wraps. The deployment is fixed; the
// seed draws every round's thresholds and the fault plan.
//
//  paper-mix     the paper's default deployment with both Fig. 10 panels.
//  field-sparse  a 10 000-node constant-density field with selective
//                one-attribute queries: protocol, simulator and codec work.
//  field-lossy   paper-mix's deployment with lossy links, ARQ, accumulating
//                relay crashes and the self-healing stack: the fault ladder.

#include <algorithm>
#include <cmath>
#include <optional>

#include "bench.h"
#include "reference.h"
#include "replay.h"
#include "sensjoin/common/rng.h"
#include "sensjoin/sim/fault_model.h"
#include "sensjoin/testbed/testbed.h"

namespace perfbench {
namespace {

namespace join = sensjoin::join;
namespace sim = sensjoin::sim;
namespace testbed = sensjoin::testbed;
using sim::NodeId;

/// Every workload runs on the deployment of this seed, so that run-to-run
/// differences come from the operations, not from the topology.
constexpr uint64_t kDeploymentSeed = 42;

/// Fig. 10 result fractions (share of the nodes in some result row) of the
/// one-attribute panel; the temperature thresholds are derived from the
/// deployment's sorted epoch-0 temperatures (about 4.64 / 4.19 / 3.50).
constexpr double kPaperFractions[] = {0.02, 0.10, 0.40};
/// Distance thresholds of the three-attribute panel (about 2 / 5 / 10 / 20 /
/// 40% of the nodes). With five of every eight queries in this panel, the
/// median operation lies between two three-attribute queries of near-equal
/// cost, not at the edge between the panels, where latency_ms_p50 jumped by
/// a third between sets of runs.
constexpr double kPaperDmins[] = {1283.0, 1238.0, 1189.0, 1123.0, 1011.0};

/// Each round issues its query templates kDrawsPerRound times, each draw
/// with its own thresholds. A 30 s run thus spends its operations on more
/// queries per epoch rather than on later epochs, whose sensing costs grow
/// with the epoch (see README, "Defects the sizing found").
constexpr int kDrawsPerRound = 2;

/// Each draw scales every fraction by a seeded factor in
/// [1 - kFractionJitter, 1 + kFractionJitter] and every distance threshold
/// by one in [1 - kDistanceJitter, 1 + kDistanceJitter] (the result
/// fraction is far more sensitive to the distance).
constexpr double kFractionJitter = 0.05;
constexpr double kDistanceJitter = 0.002;

/// field-sparse: selective one-attribute queries.
constexpr double kSparseFractions[] = {0.01, 0.0167, 0.0233, 0.03};

/// field-lossy: one more relay crashes every kCrashEveryRounds rounds, up to
/// kMaxCrashes; the loss rate of each tree link is drawn from
/// [kMinLoss, kMaxLoss].
constexpr int kCrashEveryRounds = 4;
constexpr int kMaxCrashes = 5;
constexpr double kMinLoss = 0.05;
constexpr double kMaxLoss = 0.10;

enum class Kind { kPaperMix, kFieldSparse, kFieldLossy };

testbed::TestbedParams DeploymentParams(int num_nodes) {
  testbed::TestbedParams params;
  params.seed = kDeploymentSeed;
  params.placement.num_nodes = num_nodes;
  // Constant density: the paper's 1500 nodes on 1050 m x 1050 m.
  const double side = 1050.0 * std::sqrt(num_nodes / 1500.0);
  params.placement.area_width_m = side;
  params.placement.area_height_m = side;
  return params;
}

join::ProtocolConfig SelfHealingProtocol() {
  join::ProtocolConfig config;
  config.max_retries = 6;
  config.retry_backoff_s = 0.5;
  config.enable_tree_repair = true;
  config.enable_phase_watchdog = true;
  config.enable_graceful_degradation = true;
  return config;
}

/// Relays whose crash orphans a mid-sized subtree that can re-attach
/// elsewhere: the case in-network repair exists for. Shallowest first,
/// ancestry-disjoint.
std::vector<NodeId> PickRelayVictims(const testbed::Testbed& tb, int count) {
  const auto& tree = tb.tree();
  const auto& sim = tb.simulator();
  const int max_subtree = std::max(8, tree.num_nodes() / 6);
  std::vector<NodeId> relays;
  for (NodeId u = 0; u < tree.num_nodes(); ++u) {
    if (!tree.InTree(u) || u == tree.root() || tree.children(u).empty()) {
      continue;
    }
    if (tree.subtree_size(u) >= 8 && tree.subtree_size(u) <= max_subtree) {
      relays.push_back(u);
    }
  }
  std::sort(relays.begin(), relays.end(), [&tree](NodeId a, NodeId b) {
    if (tree.hop_count(a) != tree.hop_count(b)) {
      return tree.hop_count(a) < tree.hop_count(b);
    }
    if (tree.subtree_size(a) != tree.subtree_size(b)) {
      return tree.subtree_size(a) > tree.subtree_size(b);
    }
    return a < b;
  });
  std::vector<char> taken(tree.num_nodes(), 0);
  std::vector<NodeId> victims;
  for (NodeId u : relays) {
    if (static_cast<int>(victims.size()) >= count) break;
    bool overlaps = false;
    for (NodeId v : victims) {
      overlaps = overlaps || tree.IsAncestor(u, v) || tree.IsAncestor(v, u);
    }
    if (overlaps) continue;
    std::vector<char> blocked = taken;
    for (NodeId v : tree.SubtreeNodes(u)) blocked[v] = 1;
    bool rescuable = true;
    for (NodeId c : tree.children(u)) {
      bool exit = false;
      for (NodeId v : sim.radio().Neighbors(c)) {
        exit = exit || (!blocked[v] && tree.InTree(v));
      }
      rescuable = rescuable && exit;
    }
    if (!rescuable) continue;
    taken = std::move(blocked);
    victims.push_back(u);
  }
  return victims;
}

class OneShotWorkload : public Workload {
 public:
  OneShotWorkload(Kind kind, uint64_t seed, const Options& options)
      : kind_(kind), seed_(seed), options_(options) {}

  void SetUp(SpanLog* log) override {
    executor_.reset();
    tb_.reset();
    const int num_nodes = kind_ == Kind::kFieldSparse ? 10000 : 1500;
    {
      ScopedSpan span(log, "testbed.create", -1);
      auto tb = testbed::Testbed::Create(DeploymentParams(num_nodes));
      if (!tb.ok()) {
        throw BenchError("Testbed::Create: " + tb.status().ToString());
      }
      tb_ = std::move(tb).value();
    }
    join::ProtocolConfig protocol;
    if (kind_ == Kind::kFieldLossy) {
      tb_->InjectFaults(LossPlan());
      protocol = SelfHealingProtocol();
    }
    executor_.emplace(tb_->MakeSensJoin(protocol));

    // Thresholds come from the sorted epoch-0 temperatures: O(n log n), no
    // pair scan and no query execution. Every set-up rebuilds the same
    // deployment, so they are derived once, not in every timed set-up.
    if (temps_.empty()) {
      temps_ = SortedSensorTemps(SenseAll(tb_->data(), num_nodes, 0));
      round_ = RoundQueries(0);
    }
    for (const QuerySpec& spec : round_) {
      ScopedSpan span(log, "query.parse", -1);
      auto q = tb_->ParseQuery(spec.sql);
      if (!q.ok()) throw BenchError("ParseQuery: " + q.status().ToString());
    }
  }

  void Prepare() override {
    if (kind_ == Kind::kFieldLossy) {
      victims_ = PickRelayVictims(*tb_, kMaxCrashes);
    }
  }

  OpRecord RunOp(int64_t op, SpanLog* log) override {
    const int64_t round_size = static_cast<int64_t>(round_.size());
    const uint64_t epoch = static_cast<uint64_t>(op / round_size);
    sim::Simulator& simulator = tb_->simulator();
    if (op % round_size == 0) {
      round_ = RoundQueries(epoch);
      snapshot_ = SenseAll(tb_->data(), simulator.num_nodes(), epoch);
      const uint64_t crash = epoch / kCrashEveryRounds;
      if (kind_ == Kind::kFieldLossy && epoch % kCrashEveryRounds == 1 &&
          crash < victims_.size()) {
        // Fires at the next phase boundary of the coming execution.
        simulator.ScheduleCrash(victims_[crash], simulator.now() + 0.05);
      }
    }

    const QuerySpec& spec = round_[op % round_size];
    OpRecord rec;
    const uint64_t events_before = simulator.events().total_fired();
    std::optional<sensjoin::StatusOr<sensjoin::query::AnalyzedQuery>> q;
    std::optional<sensjoin::StatusOr<join::ExecutionReport>> r;
    const double t0 = NowSeconds();
    {
      ScopedSpan op_span(log, "op", op);
      {
        ScopedSpan span(log, "query.parse", op);
        q.emplace(tb_->ParseQuery(spec.sql));
      }
      if (q->ok()) {
        ScopedSpan span(log, "join.execute", op);
        r.emplace(executor_->Execute(q->value(), epoch));
      }
    }
    rec.latency_s = NowSeconds() - t0;
    rec.counters["sim.events"] = static_cast<double>(
        simulator.events().total_fired() - events_before);

    if (!q->ok()) {
      rec.Fail("ParseQuery: " + q->status().ToString());
      return rec;
    }
    if (!r->ok()) {
      rec.Fail("Execute: " + r->status().ToString());
      return rec;
    }
    const join::ExecutionReport& report = r->value();
    NodePairs expected = ReferencePairs(spec, snapshot_);
    if (options_.corrupt_reference && op == 0) {
      expected.emplace_back(simulator.num_nodes(), simulator.num_nodes() + 1);
    }
    const std::vector<NodeId>& excluded = report.certificate.excluded_nodes;
    const std::string diff =
        CompareRows(WithoutExcluded(expected, excluded), report.result);
    if (!diff.empty()) rec.Fail("output check: " + diff);

    rec.packets = report.total_cost.join_packets;
    rec.bytes = report.total_cost.join_bytes;
    rec.energy_mj = report.total_cost.energy_mj;
    rec.reference_rows = expected.size();
    rec.returned_rows = report.result.matched_combinations;
    RecordCounters(report, &rec);

    if (log != nullptr) {
      const ReplayResult replay = ReplayStation(
          tb_->data(), tb_->quantization(), q->value(), epoch, excluded,
          report.result.contributing_nodes, log, op);
      if (replay.matched_combinations != report.result.matched_combinations) {
        rec.Fail("replay: ComputeExactJoin matched " +
                 std::to_string(replay.matched_combinations) +
                 " combinations, the execution " +
                 std::to_string(report.result.matched_combinations));
      }
      rec.counters["join.collected_wire_bytes"] =
          static_cast<double>(replay.collected_wire_bytes);
      rec.counters["join.filter_combinations"] =
          static_cast<double>(replay.filter_combinations);
      rec.counters["replay.filter_points"] =
          static_cast<double>(replay.filter_points);
      rec.counters["replay.contributing_keys"] =
          static_cast<double>(replay.contributing_keys);
    }
    return rec;
  }

 private:
  /// The queries of round `round`, with this run's seeded thresholds.
  std::vector<QuerySpec> RoundQueries(uint64_t round) const {
    sensjoin::Rng rng(seed_ * 0x9e3779b97f4a7c15ULL + round);
    auto fraction_query = [&](double f) {
      const double scaled =
          f * rng.UniformDouble(1.0 - kFractionJitter, 1.0 + kFractionJitter);
      return TempGapQuery(TempGapForNodeFraction(temps_, scaled));
    };
    std::vector<QuerySpec> queries;
    for (int draw = 0; draw < kDrawsPerRound; ++draw) {
      if (kind_ == Kind::kFieldSparse) {
        for (double f : kSparseFractions) queries.push_back(fraction_query(f));
        continue;
      }
      for (double f : kPaperFractions) queries.push_back(fraction_query(f));
      if (kind_ != Kind::kPaperMix) continue;
      for (double d : kPaperDmins) {
        const double scaled =
            d * rng.UniformDouble(1.0 - kDistanceJitter, 1.0 + kDistanceJitter);
        queries.push_back(NearTempFarQuery(scaled));
      }
    }
    return queries;
  }

  sim::FaultPlan LossPlan() const {
    sim::FaultPlan plan;
    plan.default_loss_rate = kMinLoss;
    plan.arq.enabled = true;
    plan.seed = seed_ * 1000 + 7;
    sensjoin::Rng rng(seed_ ^ 0x1055ULL);
    const auto& tree = tb_->tree();
    for (NodeId u = 0; u < tree.num_nodes(); ++u) {
      if (!tree.InTree(u) || u == tree.root()) continue;
      plan.link_overrides.push_back(
          {u, tree.parent(u), rng.UniformDouble(kMinLoss, kMaxLoss)});
    }
    return plan;
  }

  static void RecordCounters(const join::ExecutionReport& r, OpRecord* rec) {
    auto& c = rec->counters;
    c["join.collected_points"] = static_cast<double>(r.collected_points);
    c["join.filter_points"] = static_cast<double>(r.filter_points);
    c["join.treecut_exited_nodes"] =
        static_cast<double>(r.treecut_exited_nodes);
    c["join.candidate_tuples"] = static_cast<double>(r.candidate_tuples);
    c["join.matched_combinations"] =
        static_cast<double>(r.result.matched_combinations);
    c["join.contributing_nodes"] =
        static_cast<double>(r.result.contributing_nodes.size());
    c["join.collection_packets"] =
        static_cast<double>(r.total_cost.phases.collection_packets);
    c["join.filter_packets"] =
        static_cast<double>(r.total_cost.phases.filter_packets);
    c["join.final_packets"] =
        static_cast<double>(r.total_cost.phases.final_packets);
    c["sim.retransmitted_packets"] =
        static_cast<double>(r.total_cost.retransmitted_packets);
    c["sim.ack_packets"] = static_cast<double>(r.total_cost.ack_packets);
    c["join.attempts"] = r.attempts;
    c["join.recovery_requests"] = static_cast<double>(r.recovery_requests);
    c["net.repairs_attempted"] = static_cast<double>(r.repairs_attempted);
    c["net.repairs_succeeded"] = static_cast<double>(r.repairs_succeeded);
    c["join.watchdog_expirations"] =
        static_cast<double>(r.watchdog_expirations);
    c["join.coverage"] = r.certificate.coverage();
  }

  const Kind kind_;
  const uint64_t seed_;
  const Options options_;
  std::unique_ptr<testbed::Testbed> tb_;
  std::optional<join::SensJoinExecutor> executor_;
  std::vector<double> temps_;  ///< sorted epoch-0 sensor temperatures
  std::vector<QuerySpec> round_;
  std::vector<NodeId> victims_;
  FieldSnapshot snapshot_;
};

}  // namespace

std::unique_ptr<Workload> MakeOneShotWorkload(const std::string& name,
                                              uint64_t seed,
                                              const Options& options) {
  Kind kind;
  if (name == "paper-mix") {
    kind = Kind::kPaperMix;
  } else if (name == "field-sparse") {
    kind = Kind::kFieldSparse;
  } else if (name == "field-lossy") {
    kind = Kind::kFieldLossy;
  } else {
    return nullptr;
  }
  return std::make_unique<OneShotWorkload>(kind, seed, options);
}

}  // namespace perfbench
