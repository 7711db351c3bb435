#include "metrics.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <map>

namespace perfbench {

int32_t SpanLog::Open(const char* name, int64_t op, bool replay) {
  Span s;
  s.name = name;
  s.op = op;
  s.parent = open_.empty() ? -1 : open_.back();
  s.replay = replay;
  s.start_s = NowSeconds();
  spans_.push_back(s);
  const int32_t id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void SpanLog::Close(int32_t id) {
  spans_[id].end_s = NowSeconds();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void SpanLog::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw BenchError("cannot write spans to " + path);
  out.precision(17);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"op\":" << s.op
        << ",\"parent\":" << s.parent
        << ",\"replay\":" << (s.replay ? "true" : "false")
        << ",\"start_s\":" << s.start_s << ",\"end_s\":" << s.end_s << "}\n";
  }
}

namespace {

/// Linear interpolation between closest ranks.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double SumCounter(const std::vector<OpRecord>& ops, const std::string& name) {
  double sum = 0.0;
  for (const OpRecord& r : ops) {
    const auto it = r.counters.find(name);
    if (it != r.counters.end()) sum += it->second;
  }
  return sum;
}

double MeanCounter(const std::vector<OpRecord>& ops, const std::string& name) {
  return ops.empty() ? 0.0 : SumCounter(ops, name) / ops.size();
}

std::vector<double> CounterSeries(const std::vector<OpRecord>& ops,
                                  const std::string& name) {
  std::vector<double> v;
  for (const OpRecord& r : ops) {
    const auto it = r.counters.find(name);
    v.push_back(it != r.counters.end() ? it->second : 0.0);
  }
  return v;
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

std::vector<Metric> EndToEndMetrics(const RunData& run) {
  const std::vector<OpRecord>& ops = run.ops;
  std::vector<double> latency_ms;
  double busy_s = 0.0;
  size_t ok = 0;
  for (const OpRecord& r : ops) {
    latency_ms.push_back(r.latency_s * 1e3);
    busy_s += r.latency_s;
    ok += r.ok ? 1 : 0;
  }
  double packets = 0.0, bytes = 0.0, energy = 0.0, returned = 0.0,
         reference = 0.0;
  for (const OpRecord& r : ops) {
    packets += static_cast<double>(r.packets);
    bytes += static_cast<double>(r.bytes);
    energy += r.energy_mj;
    returned += static_cast<double>(r.returned_rows);
    reference += static_cast<double>(r.reference_rows);
  }
  const double n = static_cast<double>(ops.size());
  return {
      {"setup_s", Median(run.setup_s), "s"},
      {"ops_per_s", Ratio(n, busy_s), "op/s"},
      {"latency_ms_p50", Quantile(latency_ms, 0.5), "ms"},
      {"latency_ms_p90", Quantile(latency_ms, 0.9), "ms"},
      {"peak_rss_mb", run.peak_rss_mb, "MB"},
      {"packets_per_op", Ratio(packets, n), "packets/op"},
      {"bytes_per_op", Ratio(bytes, n), "bytes/op"},
      {"energy_mj_per_op", Ratio(energy, n), "mJ/op"},
      {"result_recall", reference > 0.0 ? returned / reference : 1.0, "ratio"},
      {"ok_op_share", Ratio(static_cast<double>(ok), n), "ratio"},
  };
}

std::vector<Metric> PerLayerMetrics(const RunData& run, const SpanLog& log) {
  const std::vector<OpRecord>& ops = run.ops;
  const size_t n = ops.size();

  // Per-operation span seconds by name, live and replayed apart; set-up
  // and individual spans by name for the per-call medians.
  std::vector<std::map<std::string, double>> live(n), replay(n);
  std::map<std::string, std::vector<double>> calls;
  for (const SpanLog::Span& s : log.spans()) {
    calls[s.name].push_back(s.seconds());
    if (s.op < 0 || static_cast<size_t>(s.op) >= n) continue;
    (s.replay ? replay : live)[s.op][s.name] += s.seconds();
  }
  auto per_op = [&](const std::vector<std::map<std::string, double>>& side,
                    const char* name) {
    std::vector<double> v;
    for (const auto& m : side) {
      const auto it = m.find(name);
      v.push_back(it != m.end() ? it->second : 0.0);
    }
    return v;
  };
  // Per-operation layer times are means, so that they add up to the mean
  // operation time; single calls are summarized by their median.
  auto mean_ms = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / v.size() * 1e3;
  };
  auto call_median_ms = [&](const char* name) {
    const auto it = calls.find(name);
    return it != calls.end() ? Median(it->second) * 1e3 : 0.0;
  };

  const std::vector<double> sense = per_op(replay, "data.sense");
  const std::vector<double> codec = per_op(replay, "join.codec");
  const std::vector<double> filter = per_op(replay, "join.filter");
  const std::vector<double> exact = per_op(replay, "join.exact");
  const std::vector<double> execute = per_op(live, "join.execute");
  const std::vector<double> epoch = per_op(live, "service.run_epoch");
  const std::vector<double> station_cpu =
      CounterSeries(ops, "service.station_cpu_s");
  const bool is_service = SumCounter(ops, "service.sharing_factor") > 0.0;

  // The protocol's share of an operation: the one-shot Execute span minus
  // the replayed station spans (derived), or the service's RunEpoch span
  // minus its own station CPU time.
  std::vector<double> protocol(n), network(n);
  double replayed = 0.0, engine = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double station = sense[i] + codec[i] + filter[i] + exact[i];
    network[i] = std::max(0.0, epoch[i] - station_cpu[i]);
    protocol[i] = is_service ? network[i]
                             : std::max(0.0, execute[i] - station);
    replayed += station;
    engine += is_service ? epoch[i] : execute[i];
  }
  double protocol_s = 0.0;
  for (double p : protocol) protocol_s += p;

  const size_t tenth = std::max<size_t>(1, n / 10);
  const std::vector<double> first10(sense.begin(),
                                    sense.begin() + std::min(tenth, n));
  const std::vector<double> last10(sense.end() - std::min(tenth, n),
                                   sense.end());

  std::vector<double> latency;
  for (const OpRecord& r : ops) latency.push_back(r.latency_s);

  const double reuses = SumCounter(ops, "service.filter_reuses");
  const double incremental =
      SumCounter(ops, "service.filter_incremental_updates");
  const double full = SumCounter(ops, "service.filter_full_recomputes");
  const double maintained = reuses + incremental + full;
  const std::vector<double> rss = CounterSeries(ops, "service.rss_mb");
  const double rss_growth =
      is_service && n > 1 ? (rss.back() - rss.front()) / (n - 1) : 0.0;

  return {
      {"testbed.create_ms", call_median_ms("testbed.create"), "ms"},
      {"query.parse_ms", call_median_ms("query.parse"), "ms"},
      {"data.sense_ms.first10", mean_ms(first10), "ms"},
      {"data.sense_ms.last10", mean_ms(last10), "ms"},
      {"join.codec_ms", mean_ms(codec), "ms"},
      {"join.collected_points", MeanCounter(ops, "join.collected_points"),
       "count/op"},
      {"join.collected_wire_bytes",
       MeanCounter(ops, "join.collected_wire_bytes"), "bytes/op"},
      {"join.filter_ms", mean_ms(filter), "ms"},
      {"join.filter_combinations",
       MeanCounter(ops, "join.filter_combinations"), "count/op"},
      {"join.filter_points", MeanCounter(ops, "join.filter_points"),
       "count/op"},
      {"join.filter_precision",
       Ratio(SumCounter(ops, "replay.contributing_keys"),
             SumCounter(ops, "replay.filter_points")),
       "ratio"},
      {"join.exact_ms", mean_ms(exact), "ms"},
      {"join.candidate_tuples", MeanCounter(ops, "join.candidate_tuples"),
       "count/op"},
      {"join.matched_combinations",
       MeanCounter(ops, "join.matched_combinations"), "count/op"},
      {"join.final_useful_ratio",
       Ratio(SumCounter(ops, "join.contributing_nodes"),
             SumCounter(ops, "join.candidate_tuples")),
       "ratio"},
      {"join.protocol_ms", mean_ms(protocol), "ms"},
      {"join.collection_packets", MeanCounter(ops, "join.collection_packets"),
       "packets/op"},
      {"join.filter_packets", MeanCounter(ops, "join.filter_packets"),
       "packets/op"},
      {"join.final_packets", MeanCounter(ops, "join.final_packets"),
       "packets/op"},
      {"join.treecut_exited_nodes",
       MeanCounter(ops, "join.treecut_exited_nodes"), "count/op"},
      {"sim.events", MeanCounter(ops, "sim.events"), "count/op"},
      {"sim.events_per_s", Ratio(SumCounter(ops, "sim.events"), protocol_s),
       "1/s"},
      {"sim.retransmitted_packets",
       MeanCounter(ops, "sim.retransmitted_packets"), "packets/op"},
      {"sim.ack_packets", MeanCounter(ops, "sim.ack_packets"), "packets/op"},
      {"join.attempts", MeanCounter(ops, "join.attempts"), "count/op"},
      {"join.recovery_requests", MeanCounter(ops, "join.recovery_requests"),
       "count/op"},
      {"net.repairs_attempted", MeanCounter(ops, "net.repairs_attempted"),
       "count/op"},
      {"net.repair_success_ratio",
       Ratio(SumCounter(ops, "net.repairs_succeeded"),
             SumCounter(ops, "net.repairs_attempted")),
       "ratio"},
      {"join.watchdog_expirations",
       MeanCounter(ops, "join.watchdog_expirations"), "count/op"},
      {"join.coverage", MeanCounter(ops, "join.coverage"), "ratio"},
      {"service.epoch_ms", is_service ? mean_ms(epoch) : 0.0, "ms"},
      {"service.station_cpu_ms", is_service ? mean_ms(station_cpu) : 0.0,
       "ms"},
      {"service.network_ms", is_service ? mean_ms(network) : 0.0, "ms"},
      {"service.admission_ms", call_median_ms("service.admission"), "ms"},
      {"service.filter_reuse_ratio", Ratio(reuses, maintained), "ratio"},
      {"service.filter_incremental_ratio", Ratio(incremental, maintained),
       "ratio"},
      {"service.filter_full_recomputes",
       MeanCounter(ops, "service.filter_full_recomputes"), "count/op"},
      {"service.changed_nodes", MeanCounter(ops, "service.changed_nodes"),
       "count/op"},
      {"service.sharing_factor", MeanCounter(ops, "service.sharing_factor"),
       "ratio"},
      {"service.rows_per_epoch", MeanCounter(ops, "service.rows"), "rows"},
      {"service.rss_growth_mb_per_epoch", rss_growth, "MB"},
      {"trace.op_latency_ms_p50", Median(latency) * 1e3, "ms"},
      {"trace.replay_share", Ratio(replayed, engine), "ratio"},
  };
}

uint64_t SimDigest(const RunData& run) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const OpRecord& r : run.ops) {
    uint64_t energy_bits;
    std::memcpy(&energy_bits, &r.energy_mj, sizeof(energy_bits));
    mix(r.packets);
    mix(r.bytes);
    mix(energy_bits);
    mix(r.reference_rows);
    mix(r.returned_rows);
  }
  return h;
}

std::string ResultLine(bool correct, size_t attempted, size_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  return out + "}}";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
