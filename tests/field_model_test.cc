#include "sensjoin/data/field_model.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sensjoin/common/rng.h"
#include "sensjoin/data/network_data.h"
#include "sensjoin/join/executor_context.h"
#include "sensjoin/query/query.h"
#include "sensjoin/testbed/testbed.h"

namespace sensjoin::data {
namespace {

FieldParams DefaultParams() {
  FieldParams p;
  p.base = 20.0;
  p.gradient_per_m = 0.01;
  p.num_bumps = 6;
  p.bump_amplitude = 3.0;
  p.bump_sigma_m = 100.0;
  p.noise_sigma = 0.05;
  return p;
}

TEST(ScalarFieldTest, SameSeedSameField) {
  Rng r1(9);
  Rng r2(9);
  ScalarField f1(DefaultParams(), 500, 500, r1);
  ScalarField f2(DefaultParams(), 500, 500, r2);
  for (double x = 0; x < 500; x += 97) {
    for (double y = 0; y < 500; y += 83) {
      EXPECT_DOUBLE_EQ(f1.ValueAt({x, y}), f2.ValueAt({x, y}));
    }
  }
}

TEST(ScalarFieldTest, MeasurementsAreDeterministicPerEpoch) {
  Rng rng(9);
  ScalarField f(DefaultParams(), 500, 500, rng);
  const double a = f.Measure({100, 100}, 5, 3);
  const double b = f.Measure({100, 100}, 5, 3);
  EXPECT_DOUBLE_EQ(a, b);
  // Different node or epoch changes the noise.
  EXPECT_NE(a, f.Measure({100, 100}, 6, 3));
  EXPECT_NE(a, f.Measure({100, 100}, 5, 4));
}

TEST(ScalarFieldTest, TemporalCorrelationOfConsecutiveEpochs) {
  // Consecutive epochs differ only by jitter + drift, which are far smaller
  // than cross-node differences: the continuous executor's premise.
  Rng rng(12);
  ScalarField f(DefaultParams(), 500, 500, rng);
  double max_step = 0.0;
  for (int node = 0; node < 50; ++node) {
    const Point p{10.0 * node, 7.0 * node};
    const double step =
        std::abs(f.Measure(p, node, 1) - f.Measure(p, node, 0));
    max_step = std::max(max_step, step);
  }
  EXPECT_LT(max_step, 0.3);
}

TEST(ScalarFieldTest, NoiseFreeFieldWithoutNoiseParams) {
  FieldParams p = DefaultParams();
  p.noise_sigma = 0;
  p.temporal_noise_sigma = 0;
  p.drift_sigma = 0;
  Rng rng(9);
  ScalarField f(p, 500, 500, rng);
  EXPECT_DOUBLE_EQ(f.Measure({10, 10}, 1, 0), f.ValueAt({10, 10}));
  EXPECT_DOUBLE_EQ(f.Measure({10, 10}, 1, 9), f.ValueAt({10, 10}));
}

TEST(ScalarFieldTest, SpatialAutocorrelation) {
  // Nearby points must be more similar than far-apart points on average —
  // the property the quadtree representation exploits (Sec. V-A).
  Rng rng(21);
  ScalarField f(DefaultParams(), 1000, 1000, rng);
  Rng sampler(22);
  double near_diff = 0;
  double far_diff = 0;
  const int samples = 2000;
  for (int i = 0; i < samples; ++i) {
    const Point p{sampler.UniformDouble(100, 900),
                  sampler.UniformDouble(100, 900)};
    const Point near{p.x + 10, p.y};
    const Point far{sampler.UniformDouble(100, 900),
                    sampler.UniformDouble(100, 900)};
    near_diff += std::abs(f.ValueAt(p) - f.ValueAt(near));
    far_diff += std::abs(f.ValueAt(p) - f.ValueAt(far));
  }
  EXPECT_LT(near_diff, far_diff * 0.5);
}

TEST(NetworkDataTest, SchemaStartsWithCoordinates) {
  NetworkData data({{0, 0}, {10, 10}}, 100, 100);
  Rng rng(1);
  data.AddField("temp", DefaultParams(), rng);
  EXPECT_EQ(data.schema().num_attributes(), 3);
  EXPECT_EQ(data.schema().attribute(0).name, "x");
  EXPECT_EQ(data.schema().attribute(1).name, "y");
  EXPECT_EQ(data.schema().attribute(2).name, "temp");
}

TEST(NetworkDataTest, SenseReturnsPositionAndReadings) {
  NetworkData data({{0, 0}, {30, 40}}, 100, 100);
  Rng rng(1);
  data.AddField("temp", DefaultParams(), rng);
  const Tuple t = data.Sense(1, 0);
  EXPECT_EQ(t.node, 1);
  EXPECT_DOUBLE_EQ(t.values[0], 30.0);
  EXPECT_DOUBLE_EQ(t.values[1], 40.0);
  EXPECT_GT(t.values[2], 0.0);
  // ONCE semantics: re-sensing the same epoch is identical.
  EXPECT_EQ(data.Sense(1, 0), t);
}

TEST(NetworkDataTest, RelationMembership) {
  NetworkData data({{0, 0}, {10, 0}, {20, 0}}, 100, 100);
  EXPECT_TRUE(data.BelongsTo(0, "anything"));  // homogeneous default
  data.AssignRelation("hot", {1});
  EXPECT_FALSE(data.BelongsTo(0, "hot"));
  EXPECT_TRUE(data.BelongsTo(1, "hot"));
  EXPECT_TRUE(data.BelongsTo(2, "cold"));  // unassigned name: all nodes
}

TEST(NetworkDataTest, MaterializeRespectsMembership) {
  NetworkData data({{0, 0}, {10, 0}, {20, 0}}, 100, 100);
  Rng rng(1);
  data.AddField("temp", DefaultParams(), rng);
  data.AssignRelation("hot", {0, 2});
  const Relation r = data.Materialize("hot", 0);
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.tuple(0).node, 0);
  EXPECT_EQ(r.tuple(1).node, 2);
}

// ---- Differential oracle: sensing against the per-read drift walk -------

/// Reference copy of the field's hash-based standard-normal deviate.
double ReferenceHashGaussian(uint64_t salt, uint64_t a, uint64_t b) {
  auto mix = [](uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  const uint64_t h1 = mix(salt ^ mix(a * 0x9e3779b97f4a7c15ULL + b));
  const uint64_t h2 = mix(h1 + 0x9e3779b97f4a7c15ULL);
  double u1 = static_cast<double>(h1 >> 11) * 0x1.0p-53;
  const double u2 = static_cast<double>(h2 >> 11) * 0x1.0p-53;
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

/// Reference measurement: recomputes the network-wide drift walk from
/// epoch 1 on every read, as one self-contained O(epoch) computation.
double ReferenceMeasure(const ScalarField& f, const Point& p, int32_t node,
                        uint64_t epoch) {
  const FieldParams& params = f.params();
  const uint64_t salt = f.noise_salt();
  double v = f.ValueAt(p);
  if (params.noise_sigma > 0) {
    v += params.noise_sigma *
         ReferenceHashGaussian(salt, static_cast<uint64_t>(node), 0);
  }
  if (params.temporal_noise_sigma > 0) {
    v += params.temporal_noise_sigma *
         ReferenceHashGaussian(salt ^ 0x5ca1ab1eULL,
                               static_cast<uint64_t>(node), epoch);
  }
  if (params.drift_sigma > 0 && epoch > 0) {
    double drift = 0.0;
    for (uint64_t e = 1; e <= epoch; ++e) {
      drift += params.drift_sigma *
               ReferenceHashGaussian(salt ^ 0xdeadbeefULL, 0xffffffffULL, e);
    }
    v += drift;
  }
  return v;
}

/// Bit pattern of a double: equality here is bit-identity (it tells -0.0
/// from +0.0).
uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectBitIdentical(const std::vector<double>& actual,
                        const std::vector<double>& expected,
                        const std::string& where) {
  ASSERT_EQ(actual.size(), expected.size()) << where;
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(Bits(actual[i]), Bits(expected[i]))
        << where << " attribute " << i << ": " << actual[i] << " vs "
        << expected[i];
  }
}

/// Every default deployment field, plus fields without drift, without
/// temporal jitter and without either.
std::vector<testbed::NamedField> OracleFields() {
  std::vector<testbed::NamedField> fields = testbed::DefaultFields();
  FieldParams no_drift = DefaultParams();
  no_drift.drift_sigma = 0;
  FieldParams no_jitter = DefaultParams();
  no_jitter.temporal_noise_sigma = 0;
  FieldParams still = DefaultParams();
  still.drift_sigma = 0;
  still.temporal_noise_sigma = 0;
  fields.push_back({"no_drift", no_drift});
  fields.push_back({"no_jitter", no_jitter});
  fields.push_back({"still", still});
  return fields;
}

TEST(SensingOracleTest, SnapshotReadsMatchPerReadDriftWalk) {
  constexpr uint64_t kSeed = 77;
  constexpr double kSide = 600;
  Rng placement_rng(5);
  std::vector<Point> positions;
  for (int i = 0; i < 9; ++i) {
    positions.push_back({placement_rng.UniformDouble(0, kSide),
                         placement_rng.UniformDouble(0, kSide)});
  }
  NetworkData data(positions, kSide, kSide);
  // Twin fields drawn from an identical generator in the same order are the
  // network's fields; the reference reads them independently.
  Rng data_rng(kSeed);
  Rng twin_rng(kSeed);
  std::vector<ScalarField> twins;
  for (const testbed::NamedField& field : OracleFields()) {
    data.AddField(field.name, field.params, data_rng);
    twins.emplace_back(field.params, kSide, kSide, twin_rng);
  }
  auto q = query::AnalyzedQuery::FromString(
      "SELECT A.temp, B.temp FROM sensors A, sensors B "
      "WHERE A.temp - B.temp > 0.5 ONCE",
      data.schema());
  ASSERT_TRUE(q.ok()) << q.status();

  for (const uint64_t epoch : {0ull, 1ull, 2ull, 37ull, 500ull}) {
    const join::ExecutorContext ctx(data, *q, epoch);
    const Relation all = data.Materialize("sensors", epoch);
    ASSERT_EQ(all.size(), positions.size());
    for (int id = 0; id < data.num_nodes(); ++id) {
      const Point& p = positions[id];
      std::vector<double> expected = {p.x, p.y};
      for (size_t f = 0; f < twins.size(); ++f) {
        expected.push_back(ReferenceMeasure(twins[f], p, id, epoch));
        EXPECT_EQ(Bits(twins[f].Measure(p, id, epoch)), Bits(expected.back()))
            << "field " << f << " node " << id << " epoch " << epoch;
      }
      const std::string where =
          "node " + std::to_string(id) + " epoch " + std::to_string(epoch);
      ExpectBitIdentical(data.Sense(id, epoch).values, expected,
                         "Sense " + where);
      ExpectBitIdentical(all.tuple(id).values, expected,
                         "Materialize " + where);
      // The base station (node 0) contributes no tuple; every sensor does
      // (the query has no selection).
      if (id == 0) continue;
      ASSERT_TRUE(ctx.info(id).has_tuple) << where;
      ExpectBitIdentical(ctx.info(id).tuple.values, expected,
                         "ExecutorContext " + where);
    }
  }
}

TEST(NetworkDataDeathTest, DuplicateFieldAborts) {
  NetworkData data({{0, 0}}, 100, 100);
  Rng rng(1);
  data.AddField("temp", DefaultParams(), rng);
  EXPECT_DEATH(data.AddField("temp", DefaultParams(), rng), "duplicate");
}

}  // namespace
}  // namespace sensjoin::data
