#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sensjoin/sensjoin.h"

namespace sensjoin::sim {
namespace {

Simulator MakeChain() {
  std::vector<Point> pos = {{0, 0}, {40, 0}, {80, 0}};
  return Simulator(Radio(pos, 50.0));
}

TEST(TraceTest, RecordsUnicastsWithDeliveryState) {
  Simulator sim = MakeChain();
  std::vector<TraceRecord> records;
  sim.SetTraceSink([&](const TraceRecord& r) { records.push_back(r); });

  Message ok;
  ok.src = 0;
  ok.dst = 1;
  ok.kind = MessageKind::kCollection;
  ok.payload_bytes = 90;  // 3 fragments
  sim.SendUnicast(ok);

  sim.radio().FailLink(1, 2);
  Message lost;
  lost.src = 1;
  lost.dst = 2;
  lost.kind = MessageKind::kFinal;
  lost.payload_bytes = 5;
  sim.SendUnicast(lost);

  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].src, 0);
  EXPECT_EQ(records[0].dst, 1);
  EXPECT_EQ(records[0].kind, MessageKind::kCollection);
  EXPECT_EQ(records[0].fragments, 3);
  EXPECT_EQ(records[0].payload_bytes, 90u);
  EXPECT_FALSE(records[0].broadcast);
  EXPECT_TRUE(records[0].delivered);
  EXPECT_FALSE(records[1].delivered);
}

TEST(TraceTest, RecordsBroadcasts) {
  Simulator sim = MakeChain();
  std::vector<TraceRecord> records;
  sim.SetTraceSink([&](const TraceRecord& r) { records.push_back(r); });
  Message msg;
  msg.src = 1;
  msg.kind = MessageKind::kBeacon;
  msg.payload_bytes = 4;
  sim.Broadcast(msg);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].broadcast);
  EXPECT_EQ(records[0].dst, kInvalidNode);
}

TEST(TraceTest, SinkCanBeRemoved) {
  Simulator sim = MakeChain();
  int count = 0;
  sim.SetTraceSink([&](const TraceRecord&) { ++count; });
  Message msg;
  msg.src = 0;
  msg.dst = 1;
  msg.payload_bytes = 1;
  sim.SendUnicast(msg);
  sim.SetTraceSink({});
  sim.SendUnicast(msg);
  EXPECT_EQ(count, 1);
}

TEST(TraceTest, TraceCountsMatchAccounting) {
  // Trace an entire SENS-Join execution: the sum of traced fragments must
  // equal the simulator's packet counters.
  testbed::TestbedParams params;
  params.placement.num_nodes = 120;
  params.placement.area_width_m = 320;
  params.placement.area_height_m = 320;
  auto tb = testbed::Testbed::Create(params);
  ASSERT_TRUE(tb.ok());
  auto q = (*tb)->ParseQuery(
      "SELECT A.hum, B.hum FROM sensors A, sensors B "
      "WHERE |A.temp - B.temp| < 0.3 "
      "AND distance(A.x, A.y, B.x, B.y) > 300 ONCE");
  ASSERT_TRUE(q.ok());
  uint64_t traced_fragments = 0;
  (*tb)->simulator().SetTraceSink([&](const sim::TraceRecord& r) {
    if (IsJoinProcessingKind(r.kind)) traced_fragments += r.fragments;
  });
  auto report = (*tb)->MakeSensJoin().Execute(*q, 0);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(traced_fragments, report->cost.join_packets);
}

}  // namespace
}  // namespace sensjoin::sim

namespace sensjoin::obs {
namespace {

TraceEvent MakeEvent(sim::SimTime time) {
  TraceEvent e;
  e.time = time;
  e.node = 1;
  e.kind = EventKind::kFragTx;
  e.msg_kind = sim::MessageKind::kCollection;
  e.count = 2;
  e.bytes = 96;
  e.energy_mj = 1.0;
  return e;
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer;
  tracer.set_enabled(false);
  tracer.Record(MakeEvent(1.0));
  tracer.BeginPhase(Phase::kTreeBuild, 2.0);
  tracer.EndPhase(Phase::kTreeBuild, 3.0);
  tracer.ObserveMessage(100, 3);
  EXPECT_TRUE(tracer.buffer().empty());
  EXPECT_EQ(tracer.buffer().dropped(), 0u);
  const MetricsSnapshot snap = tracer.metrics().Snapshot(3.0);
  for (const auto& c : snap.counters) EXPECT_EQ(c.value, 0u) << c.name;
  for (const auto& h : snap.histograms) EXPECT_EQ(h.count, 0u) << h.name;
}

TEST(TracerTest, ReenabledTracerRecordsAgain) {
  Tracer tracer;
  tracer.set_enabled(false);
  tracer.Record(MakeEvent(1.0));
  tracer.set_enabled(true);
  tracer.Record(MakeEvent(2.0));
  EXPECT_EQ(tracer.buffer().size(), 1u);
}

TEST(TraceBufferTest, WrapRecyclesOldestAndCountsDropped) {
  const size_t capacity = 2 * TraceBuffer::kChunkEvents;
  TraceBuffer buffer(capacity);
  const size_t total = capacity + TraceBuffer::kChunkEvents + 7;
  for (size_t i = 0; i < total; ++i) {
    buffer.Append(MakeEvent(static_cast<sim::SimTime>(i)));
  }
  EXPECT_LE(buffer.size(), capacity);
  EXPECT_EQ(buffer.size() + buffer.dropped(), total);
  // Retained events are the newest, still in append order.
  sim::SimTime prev = -1.0;
  size_t seen = 0;
  buffer.ForEach([&](const TraceEvent& e) {
    EXPECT_GT(e.time, prev);
    prev = e.time;
    ++seen;
  });
  EXPECT_EQ(seen, buffer.size());
  EXPECT_EQ(prev, static_cast<sim::SimTime>(total - 1));
}

TEST(TraceBufferTest, ClearResets) {
  TraceBuffer buffer(TraceBuffer::kChunkEvents);
  for (size_t i = 0; i < 2 * TraceBuffer::kChunkEvents; ++i) {
    buffer.Append(MakeEvent(static_cast<sim::SimTime>(i)));
  }
  EXPECT_GT(buffer.dropped(), 0u);
  buffer.Clear();
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(buffer.dropped(), 0u);
  buffer.Append(MakeEvent(0.0));
  EXPECT_EQ(buffer.size(), 1u);
}

TEST(TracerTest, ScopedPhaseStampsEvents) {
  if (!kTracingCompiledIn) GTEST_SKIP() << "built with SENSJOIN_TRACING=0";
  Tracer tracer;
  sim::EventQueue clock;
  {
    ScopedPhase span(&tracer, clock, Phase::kTreeBuild);
    EXPECT_EQ(tracer.current_phase(), Phase::kTreeBuild);
    tracer.Record(MakeEvent(clock.now()));
  }
  EXPECT_EQ(tracer.current_phase(), Phase::kNone);
  std::vector<TraceEvent> events;
  tracer.buffer().ForEach(
      [&](const TraceEvent& e) { events.push_back(e); });
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, EventKind::kPhaseBegin);
  EXPECT_EQ(events[1].kind, EventKind::kFragTx);
  EXPECT_EQ(events[1].phase, Phase::kTreeBuild);
  EXPECT_EQ(events[2].kind, EventKind::kPhaseEnd);
}

TEST(TracerTest, NullTracerScopedPhaseIsNoOp) {
  sim::EventQueue clock;
  ScopedPhase span(nullptr, clock, Phase::kTreeBuild);
}

TEST(MetricsTest, HistogramBucketsAndStats) {
  Histogram h({1.0, 10.0, 100.0});
  h.Observe(0.5);
  h.Observe(5.0);
  h.Observe(50.0);
  h.Observe(500.0);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 555.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 500.0);
  ASSERT_EQ(h.bucket_counts().size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(h.bucket_counts()[0], 1u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
}

TEST(MetricsTest, RegistryReturnsStableInstruments) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("a");
  a.Add(3);
  // Creating more instruments must not invalidate the first reference.
  for (int i = 0; i < 100; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    registry.GetCounter(name);
  }
  EXPECT_EQ(registry.GetCounter("a").value(), 3u);
  EXPECT_EQ(&registry.GetCounter("a"), &a);

  registry.GetGauge("g").Set(2.5);
  registry.GetHistogram("h", {1.0}).Observe(0.5);
  const MetricsSnapshot snap = registry.Snapshot(7.0);
  EXPECT_DOUBLE_EQ(snap.time, 7.0);
  EXPECT_EQ(snap.counters.front().name, "a");
  EXPECT_EQ(snap.counters.front().value, 3u);
  registry.ResetAll();
  EXPECT_EQ(registry.GetCounter("a").value(), 0u);
}

TEST(TracerTest, SimulatorRecordsFaultEvents) {
  if (!kTracingCompiledIn) GTEST_SKIP() << "built with SENSJOIN_TRACING=0";
  std::vector<Point> pos = {{0, 0}, {40, 0}, {80, 0}};
  sim::Simulator sim{sim::Radio(pos, 50.0)};
  Tracer tracer;
  sim.set_tracer(&tracer);

  sim.radio().FailLink(0, 1);
  sim.radio().RestoreLink(0, 1);
  sim.ScheduleCrash(2, 1.0);
  sim.ScheduleRecovery(2, 2.0);
  sim.events().Run();

  std::vector<EventKind> kinds;
  tracer.buffer().ForEach(
      [&](const TraceEvent& e) { kinds.push_back(e.kind); });
  ASSERT_EQ(kinds.size(), 4u);
  EXPECT_EQ(kinds[0], EventKind::kLinkDown);
  EXPECT_EQ(kinds[1], EventKind::kLinkUp);
  EXPECT_EQ(kinds[2], EventKind::kCrash);
  EXPECT_EQ(kinds[3], EventKind::kRestore);
}

class TracedExecutionTest : public ::testing::Test {
 protected:
  static testbed::TestbedParams SmallParams() {
    testbed::TestbedParams params;
    params.placement.num_nodes = 120;
    params.placement.area_width_m = 320;
    params.placement.area_height_m = 320;
    return params;
  }

  static constexpr const char* kQuery =
      "SELECT A.hum, B.hum FROM sensors A, sensors B "
      "WHERE |A.temp - B.temp| < 0.3 "
      "AND distance(A.x, A.y, B.x, B.y) > 300 ONCE";
};

TEST_F(TracedExecutionTest, SummarizeCrossChecksCostReport) {
  if (!kTracingCompiledIn) GTEST_SKIP() << "built with SENSJOIN_TRACING=0";
  auto tb = testbed::Testbed::Create(SmallParams());
  ASSERT_TRUE(tb.ok());
  Tracer tracer;
  (*tb)->AttachTracer(&tracer);
  auto q = (*tb)->ParseQuery(kQuery);
  ASSERT_TRUE(q.ok());
  (*tb)->DisseminateQuery(*q);

  auto ext = (*tb)->MakeExternalJoin().Execute(*q, 0);
  ASSERT_TRUE(ext.ok());
  auto sens = (*tb)->MakeSensJoin().Execute(*q, 0);
  ASSERT_TRUE(sens.ok());
  ASSERT_EQ(ext->attempts, 1);
  ASSERT_EQ(sens->attempts, 1);

  const TraceSummary summary = Summarize(tracer);
  const auto kSensPhases = {
      Phase::kJoinAttrCollection, Phase::kBaseStationJoin,
      Phase::kFilterDissemination, Phase::kFinalResult};
  const auto kExtPhases = {Phase::kExternalCollection};

  // Packet and byte totals are integer event counts on both sides; they
  // must match exactly.
  EXPECT_EQ(
      summary.TxFragments(kSensPhases, sim::MessageKind::kCollection),
      sens->cost.phases.collection_packets);
  EXPECT_EQ(summary.TxFragments(kSensPhases, sim::MessageKind::kFilter),
            sens->cost.phases.filter_packets);
  EXPECT_EQ(summary.TxFragments(kSensPhases, sim::MessageKind::kFinal),
            sens->cost.phases.final_packets);
  EXPECT_EQ(summary.TxFragments(kExtPhases, sim::MessageKind::kFinal),
            ext->cost.phases.final_packets);

  uint64_t sens_bytes = 0;
  for (Phase p : kSensPhases) sens_bytes += summary.phase(p).tx_frame_bytes;
  EXPECT_EQ(sens_bytes, sens->cost.join_bytes);
  EXPECT_EQ(summary.phase(Phase::kExternalCollection).tx_frame_bytes,
            ext->cost.join_bytes);

  // Per-event energies sum to the simulator's total for the phase span;
  // only the floating-point summation order differs.
  EXPECT_NEAR(summary.EnergyMj(kSensPhases), sens->cost.energy_mj,
              1e-9 * sens->cost.energy_mj);
  EXPECT_NEAR(summary.EnergyMj(kExtPhases), ext->cost.energy_mj,
              1e-9 * ext->cost.energy_mj);

  const std::vector<uint64_t> per_node = summary.PerNodeJoinTx(kSensPhases);
  ASSERT_LE(per_node.size(), sens->cost.per_node_packets.size());
  std::vector<uint64_t> want = sens->cost.per_node_packets;
  want.resize(per_node.size());
  EXPECT_EQ(per_node, want);
}

TEST_F(TracedExecutionTest, ExportedTraceHasSchemaAndTracks) {
  if (!kTracingCompiledIn) GTEST_SKIP() << "built with SENSJOIN_TRACING=0";
  auto tb = testbed::Testbed::Create(SmallParams());
  ASSERT_TRUE(tb.ok());
  Tracer tracer;
  (*tb)->AttachTracer(&tracer);
  auto q = (*tb)->ParseQuery(kQuery);
  ASSERT_TRUE(q.ok());
  auto report = (*tb)->MakeSensJoin().Execute(*q, 0);
  ASSERT_TRUE(report.ok());
  CaptureSimulatorMetrics((*tb)->simulator(), &tracer.metrics());

  TraceExportOptions options;
  options.extra_sections.emplace_back("crossCheck", "{\"probe\":1}");
  const std::string json = ChromeTraceJson(tracer, options);
  EXPECT_NE(json.find("\"sensjoin-trace-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"JoinAttributeCollection\""),
            std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"sensor nodes\""), std::string::npos);
  EXPECT_NE(json.find("\"sim.total_energy_mj\""), std::string::npos);
  EXPECT_NE(json.find("\"crossCheck\":{\"probe\":1}"), std::string::npos);
}

TEST(MetricsExportTest, CsvCoversEveryInstrument) {
  MetricsRegistry registry;
  registry.GetCounter("c").Add(4);
  registry.GetGauge("g").Set(1.5);
  registry.GetHistogram("h", {2.0}).Observe(1.0);
  const std::string csv = MetricsCsv(registry.Snapshot(0.0));
  EXPECT_NE(csv.find("kind,name,field,value"), std::string::npos);
  EXPECT_NE(csv.find("counter,c,value,4"), std::string::npos);
  EXPECT_NE(csv.find("gauge,g,value,1.5"), std::string::npos);
  EXPECT_NE(csv.find("histogram,h,count,1"), std::string::npos);
  EXPECT_NE(csv.find("le=inf"), std::string::npos);
}

TEST(MetricsExportTest, JsonDoubleHandlesNonFinite) {
  EXPECT_EQ(JsonDouble(std::numeric_limits<double>::quiet_NaN()), "0");
  EXPECT_EQ(JsonDouble(std::numeric_limits<double>::infinity()), "1e308");
  EXPECT_EQ(JsonDouble(-std::numeric_limits<double>::infinity()), "-1e308");
  EXPECT_EQ(JsonDouble(2.5), "2.5");
}

}  // namespace
}  // namespace sensjoin::obs
