#include "sensjoin/service/join_service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "sensjoin/common/logging.h"
#include "sensjoin/join/executor_context.h"
#include "sensjoin/join/result.h"
#include "sensjoin/obs/trace.h"

namespace sensjoin::service {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Folds one group's network cost into the epoch rollup.
void AccumulateCost(join::CostReport* into, const join::CostReport& from) {
  into->phases.collection_packets += from.phases.collection_packets;
  into->phases.filter_packets += from.phases.filter_packets;
  into->phases.final_packets += from.phases.final_packets;
  into->join_packets += from.join_packets;
  into->join_bytes += from.join_bytes;
  into->energy_mj += from.energy_mj;
  into->retransmitted_packets += from.retransmitted_packets;
  into->ack_packets += from.ack_packets;
  into->retransmit_energy_mj += from.retransmit_energy_mj;
  into->ack_energy_mj += from.ack_energy_mj;
  into->corrupted_packets += from.corrupted_packets;
  into->undetected_corrupted_packets += from.undetected_corrupted_packets;
  into->crc_bytes_sent += from.crc_bytes_sent;
  into->integrity_retransmit_energy_mj += from.integrity_retransmit_energy_mj;
  into->crc_energy_mj += from.crc_energy_mj;
  into->repair_packets += from.repair_packets;
  into->repair_bytes_sent += from.repair_bytes_sent;
  into->repair_energy_mj += from.repair_energy_mj;
  into->duplicate_packets += from.duplicate_packets;
  into->replayed_packets += from.replayed_packets;
  into->duplicate_energy_mj += from.duplicate_energy_mj;
  into->replay_energy_mj += from.replay_energy_mj;
  if (into->per_node_packets.size() < from.per_node_packets.size()) {
    into->per_node_packets.resize(from.per_node_packets.size(), 0);
  }
  for (size_t i = 0; i < from.per_node_packets.size(); ++i) {
    into->per_node_packets[i] += from.per_node_packets[i];
  }
}

}  // namespace

JoinService::JoinService(sim::Simulator& sim, const data::NetworkData& data,
                         net::RoutingTree tree,
                         join::QuantizationConfig quantization,
                         ServiceConfig config)
    : sim_(sim),
      data_(data),
      tree_(std::move(tree)),
      quantization_(std::move(quantization)),
      config_(config),
      registry_(data.schema(), config.max_queries) {}

StatusOr<QueryId> JoinService::Register(const std::string& sql) {
  return Register(sql, config_.protocol);
}

StatusOr<QueryId> JoinService::Register(const std::string& sql,
                                        join::ProtocolConfig protocol) {
  return registry_.Register(sql, protocol, next_epoch_);
}

Status JoinService::Cancel(QueryId id) {
  return registry_.Cancel(id, next_epoch_);
  // Group membership is re-derived at the next RunEpoch; a group whose
  // last member left is dismantled there.
}

std::string JoinService::GroupKeyOf(const QueryRecord& record) const {
  const join::ProtocolConfig& p = record.protocol;
  std::string key = record.signature;
  key += "|tc=";
  key += p.use_treecut ? "1" : "0";
  key += ",dmax=";
  key += std::to_string(p.dmax_bytes);
  key += ",sff=";
  key += p.use_selective_forwarding ? "1" : "0";
  key += ",fmem=";
  key += std::to_string(p.filter_memory_bytes);
  key += ",rep=";
  key += std::to_string(static_cast<int>(p.representation));
  if (!config_.share_phases) {
    // Dedicated baseline: every query is its own group on the same
    // deployment, so shared-vs-dedicated cost attribution is apples to
    // apples.
    key += "|q=";
    key += std::to_string(record.id);
  }
  return key;
}

void JoinService::RepairTopology() {
  tree_ = net::RoutingTree::Build(sim_, tree_.root());
  for (auto& [key, group] : groups_) {
    group.engine->Reset();
    for (auto& [id, filter] : group.filters) filter.Reset();
  }
}

StatusOr<ServiceEpochReport> JoinService::RunEpoch() {
  const uint64_t epoch = next_epoch_;
  const std::vector<QueryId> active = registry_.ActiveIds();
  if (active.empty()) {
    return Status::FailedPrecondition("no active queries to execute");
  }
  obs::ScopedPhase span(sim_.tracer(), sim_.events(),
                        obs::Phase::kServiceEpoch);
  size_t rebuilds = 0;
  for (int attempt = 0; attempt <= config_.protocol.max_retries; ++attempt) {
    ServiceEpochReport report;
    report.epoch = epoch;
    report.active_queries = active.size();
    report.tree_rebuilds = rebuilds;
    SENSJOIN_ASSIGN_OR_RETURN(const bool ok,
                              RunEpochAttempt(epoch, active, &report));
    if (ok) {
      ++next_epoch_;
      return report;
    }
    // Topology changed under the epoch: repair, reset every group's
    // distributed state (it indexes the old tree) and re-run the whole
    // epoch with bootstrap collections. Partial results of the aborted
    // attempt are discarded, never delivered.
    RepairTopology();
    ++rebuilds;
  }
  return Status::ResourceExhausted(
      "continuous service epoch failed after retries");
}

StatusOr<bool> JoinService::RunEpochAttempt(uint64_t epoch,
                                           const std::vector<QueryId>& active,
                                           ServiceEpochReport* report) {
  // Re-derive the grouping from the active set (admissions and
  // cancellations since the last epoch take effect here). `active` is
  // ascending, so each group's first member is its representative (lowest
  // QueryId).
  std::map<std::string, std::vector<QueryRecord*>> members_by_key;
  for (QueryId id : active) {
    QueryRecord* record = registry_.GetMutable(id);
    SENSJOIN_CHECK(record != nullptr);
    record->state = QueryState::kRunning;
    members_by_key[GroupKeyOf(*record)].push_back(record);
  }
  for (auto it = groups_.begin(); it != groups_.end();) {
    it = members_by_key.count(it->first) != 0 ? std::next(it)
                                              : groups_.erase(it);
  }
  report->groups = members_by_key.size();
  report->sharing_factor = static_cast<double>(active.size()) /
                           static_cast<double>(members_by_key.size());

  std::vector<GroupEpochReport> group_reports;
  std::map<QueryId, join::ExecutionReport> staged;

  for (auto& [key, members] : members_by_key) {
    Group& group =
        groups_
            .try_emplace(key, std::make_unique<join::DeltaGroupExecutor>(
                                  sim_, data_, quantization_,
                                  members.front()->protocol))
            .first->second;
    // Station-side caches of departed members die with their membership.
    for (auto it = group.filters.begin(); it != group.filters.end();) {
      const QueryId id = it->first;
      const bool still_member =
          std::any_of(members.begin(), members.end(),
                      [id](const QueryRecord* m) { return m->id == id; });
      it = still_member ? std::next(it) : group.filters.erase(it);
    }

    const join::StatsSnapshot before(sim_);
    const QueryRecord* representative = members.front();

    join::DeltaGroupExecutor::CollectOutcome collected;
    SENSJOIN_RETURN_IF_ERROR(group.engine->Collect(
        tree_, representative->query, epoch, &collected));
    if (collected.failed) return false;

    // Base-station computation: per-member incremental filters, then the
    // group filter as their union (conservative for every member).
    const auto cpu_start = std::chrono::steady_clock::now();
    const join::PointSet collected_set = group.engine->CollectedSet();
    join::PointSet union_filter = group.engine->codec()->EmptySet();
    std::vector<uint64_t> scratch;
    for (QueryRecord* m : members) {
      join::IncrementalJoinFilter& filter = group.filters[m->id];
      const size_t reuses = filter.reuses();
      const size_t increments = filter.incremental_updates();
      const size_t recomputes = filter.full_recomputes();
      const join::FilterJoinResult& result =
          filter.Update(m->query, *group.engine->codec(), collected_set,
                        collected.added, collected.removed);
      report->filter_reuses += filter.reuses() - reuses;
      report->filter_incremental_updates +=
          filter.incremental_updates() - increments;
      report->filter_full_recomputes += filter.full_recomputes() - recomputes;
      union_filter.UnionInPlace(result.filter, &scratch);
    }
    report->station_cpu_s += SecondsSince(cpu_start);

    join::DeltaGroupExecutor::FinalOutcome final_outcome;
    SENSJOIN_RETURN_IF_ERROR(
        group.engine->DisseminateAndFinalize(union_filter, &final_outcome));
    if (final_outcome.failed) return false;
    const join::CostReport group_cost = before.DeltaTo(sim_);

    // Per-member exact joins over the group's candidate pool: each member
    // applies its own predicates and projection, discarding the other
    // members' false positives. Members agree on FROM entries and
    // selections (the sharing signature), so the representative's context
    // splits the pool once for all of them.
    const auto join_start = std::chrono::steady_clock::now();
    const std::vector<std::vector<const data::Tuple*>> per_table =
        group.engine->context()->PerTableCandidates(final_outcome.candidates);
    for (QueryRecord* m : members) {
      join::ExecutionReport er;
      er.success = true;
      er.shared_group_size = members.size();
      er.cost = group_cost;
      er.total_cost = group_cost;
      er.collected_points = collected_set.size();
      er.filter_points = group.filters[m->id].last().filter.size();
      er.delta_changed_nodes = collected.changed_nodes;
      er.delta_resyncs = collected.resyncs + final_outcome.resyncs;
      er.treecut_exited_nodes = collected.treecut_exited;
      er.final_tuples_shipped = final_outcome.final_tuples_shipped;
      er.candidate_tuples = final_outcome.candidates.size();
      er.result = join::ComputeExactJoin(m->query, per_table);
      report->matched_rows += er.result.rows.size();
      staged.emplace(m->id, std::move(er));
    }
    report->station_cpu_s += SecondsSince(join_start);

    if (collected.bootstrap) ++report->bootstraps;
    report->delta_resyncs += collected.resyncs + final_outcome.resyncs;
    report->changed_nodes += collected.changed_nodes;
    AccumulateCost(&report->cost, group_cost);

    GroupEpochReport gr;
    gr.group_key = key;
    gr.members = members.size();
    gr.bootstrap = collected.bootstrap;
    gr.cost = group_cost;
    group_reports.push_back(std::move(gr));
  }

  // The whole epoch succeeded: deliver the staged per-query reports.
  for (auto& [id, er] : staged) {
    registry_.GetMutable(id)->reports.push_back(std::move(er));
  }
  last_group_reports_ = std::move(group_reports);
  return true;
}

}  // namespace sensjoin::service
