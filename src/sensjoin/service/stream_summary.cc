#include "sensjoin/service/stream_summary.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <utility>

#include "sensjoin/obs/export.h"

namespace sensjoin::service {
namespace {

using Tuple = std::span<const sim::NodeId>;

struct Field {
  const char* name;
  uint64_t EpochStreamSummary::*member;
};

constexpr Field kFields[] = {
    {"query", &EpochStreamSummary::query},
    {"epoch", &EpochStreamSummary::epoch},
    {"rows", &EpochStreamSummary::rows},
    {"added", &EpochStreamSummary::added},
    {"removed", &EpochStreamSummary::removed},
    {"kept", &EpochStreamSummary::kept},
    {"candidate_tuples", &EpochStreamSummary::candidate_tuples},
    {"filter_points", &EpochStreamSummary::filter_points},
    {"delta_changed_nodes", &EpochStreamSummary::delta_changed_nodes},
};

bool Less(Tuple a, Tuple b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

}  // namespace

StreamSummarizer::Identities StreamSummarizer::IdentitiesOf(
    uint64_t epoch, const join::JoinResult& result) {
  // Aggregates have one synthetic row and no row_nodes: its identity is
  // the empty set.
  const auto tuple = [&result](size_t row) -> Tuple {
    return row < result.row_nodes.size() ? Tuple(result.row_nodes[row])
                                         : Tuple();
  };
  std::vector<size_t> order(result.rows.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&tuple](size_t a, size_t b) {
    return Less(tuple(a), tuple(b));
  });
  Identities ids;
  ids.epoch = epoch;
  ids.offsets.reserve(order.size() + 1);
  for (const size_t row : order) {
    const Tuple t = tuple(row);
    ids.nodes.insert(ids.nodes.end(), t.begin(), t.end());
    ids.offsets.push_back(static_cast<uint32_t>(ids.nodes.size()));
  }
  return ids;
}

void StreamSummarizer::Observe(QueryId id, uint64_t epoch,
                               const join::ExecutionReport& report) {
  // A query that missed the previous epoch was cancelled: its identities
  // can never be diffed again.
  std::erase_if(previous_, [epoch](const auto& entry) {
    return entry.second.epoch + 1 < epoch;
  });
  Identities current = IdentitiesOf(epoch, report.result);

  EpochStreamSummary s;
  s.query = id;
  s.epoch = epoch;
  s.rows = current.size();
  s.candidate_tuples = report.candidate_tuples;
  s.filter_points = report.filter_points;
  s.delta_changed_nodes = report.delta_changed_nodes;

  const auto it = previous_.find(id);
  if (it != previous_.end() && it->second.epoch + 1 == epoch) {
    // Multiset intersection of two sorted identity lists.
    const Identities& prev = it->second;
    const auto at = [](const Identities& ids, size_t i) {
      return Tuple(ids.nodes).subspan(ids.offsets[i],
                                      ids.offsets[i + 1] - ids.offsets[i]);
    };
    size_t i = 0;
    size_t j = 0;
    while (i < prev.size() && j < current.size()) {
      const Tuple a = at(prev, i);
      const Tuple b = at(current, j);
      if (Less(a, b)) {
        ++i;
      } else if (Less(b, a)) {
        ++j;
      } else {
        ++s.kept;
        ++i;
        ++j;
      }
    }
    s.removed = prev.size() - s.kept;
  }
  s.added = s.rows - s.kept;
  summaries_.push_back(s);
  previous_.insert_or_assign(id, std::move(current));
}

ReportSink StreamSummarizer::Sink() {
  return [this](QueryId id, uint64_t epoch,
                const join::ExecutionReport& report) {
    Observe(id, epoch, report);
  };
}

std::string StreamSummarizer::ToJson() const {
  std::string out = "{\"schema\": \"" +
                    obs::JsonEscape("sensjoin-stream-summary-v1") +
                    "\", \"summaries\": [";
  for (size_t i = 0; i < summaries_.size(); ++i) {
    out += i == 0 ? "\n  {" : ",\n  {";
    for (size_t f = 0; f < std::size(kFields); ++f) {
      if (f > 0) out += ", ";
      out += '"';
      out += obs::JsonEscape(kFields[f].name);
      out += "\": ";
      out += obs::JsonDouble(
          static_cast<double>(summaries_[i].*kFields[f].member));
    }
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

std::string StreamSummarizer::ToCsv() const {
  std::string out;
  for (size_t f = 0; f < std::size(kFields); ++f) {
    if (f > 0) out += ",";
    out += kFields[f].name;
  }
  out += "\n";
  for (const EpochStreamSummary& s : summaries_) {
    for (size_t f = 0; f < std::size(kFields); ++f) {
      if (f > 0) out += ",";
      out += obs::JsonDouble(static_cast<double>(s.*kFields[f].member));
    }
    out += "\n";
  }
  return out;
}

}  // namespace sensjoin::service
