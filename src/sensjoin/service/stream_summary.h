#ifndef SENSJOIN_SERVICE_STREAM_SUMMARY_H_
#define SENSJOIN_SERVICE_STREAM_SUMMARY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sensjoin/join/execution_report.h"
#include "sensjoin/service/join_service.h"
#include "sensjoin/service/query_registry.h"
#include "sensjoin/sim/time.h"

namespace sensjoin::service {

/// How one query's result changed in one epoch. A row's identity is its
/// contributor node set (JoinResult::row_nodes), compared as a multiset:
/// readings drift every epoch, so a kept row usually carries new values.
/// An aggregate's single row has the empty set as its identity.
struct EpochStreamSummary {
  QueryId query = 0;
  uint64_t epoch = 0;
  uint64_t rows = 0;     ///< result rows this epoch: added + kept
  uint64_t added = 0;    ///< identities absent from the previous epoch
  uint64_t removed = 0;  ///< previous identities now gone
  uint64_t kept = 0;     ///< previous rows = removed + kept
  uint64_t candidate_tuples = 0;     ///< ExecutionReport::candidate_tuples
  uint64_t filter_points = 0;        ///< ExecutionReport::filter_points
  uint64_t delta_changed_nodes = 0;  ///< ExecutionReport::delta_changed_nodes

  bool operator==(const EpochStreamSummary&) const = default;
};

/// Per-query, per-epoch summary of a JoinService's result streams, fed
/// through its report sink (`service.set_report_sink(summarizer.Sink())`).
/// It keeps each query's previous-epoch row identities only, flat and
/// sorted, and drops those of a query that missed an epoch (cancelled), so
/// its state is O(active queries x rows of one epoch). The summaries are
/// one fixed-size record per (query, epoch). A query's first observed
/// epoch counts every row as added.
class StreamSummarizer {
 public:
  /// Summarizes one committed report; calls follow the sink's order
  /// (ascending epoch, then ascending QueryId).
  void Observe(QueryId id, uint64_t epoch,
               const join::ExecutionReport& report);

  /// A report sink forwarding to Observe; `this` must outlive its use.
  ReportSink Sink();

  /// Every summary so far, in observation order.
  const std::vector<EpochStreamSummary>& summaries() const {
    return summaries_;
  }

  /// `{"schema": "sensjoin-stream-summary-v1", "summaries": [{...}, ...]}`
  /// with one object per summary.
  std::string ToJson() const;
  /// Header line plus one line per summary, same field order as the JSON.
  std::string ToCsv() const;

 private:
  /// Sorted contributor sets of one epoch's rows, in CSR layout: row i's
  /// nodes are nodes[offsets[i] .. offsets[i + 1]).
  struct Identities {
    uint64_t epoch = 0;
    std::vector<uint32_t> offsets{0};
    std::vector<sim::NodeId> nodes;
    size_t size() const { return offsets.size() - 1; }
  };

  static Identities IdentitiesOf(uint64_t epoch,
                                 const join::JoinResult& result);

  std::map<QueryId, Identities> previous_;
  std::vector<EpochStreamSummary> summaries_;
};

}  // namespace sensjoin::service

#endif  // SENSJOIN_SERVICE_STREAM_SUMMARY_H_
