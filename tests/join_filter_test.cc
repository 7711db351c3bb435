#include "sensjoin/join/join_filter.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "sensjoin/common/rng.h"
#include "sensjoin/data/schema.h"
#include "sensjoin/join/join_attr_codec.h"
#include "sensjoin/query/query.h"

namespace sensjoin::join {
namespace {

// Schema: temp(0), hum(1).
data::Schema MakeSchema() { return data::Schema({{"temp", 2}, {"hum", 2}}); }

query::AnalyzedQuery MustAnalyze(const std::string& sql) {
  auto q = query::AnalyzedQuery::FromString(sql, MakeSchema());
  SENSJOIN_CHECK(q.ok()) << q.status();
  return std::move(q).value();
}

JoinAttrCodec MakeCodec(int flag_bits, double resolution = 0.1) {
  DimensionSpec d;
  d.attr_name = "temp";
  d.attr_index = 0;
  d.min_val = 0;
  d.max_val = 50;
  d.resolution = resolution;
  auto q = Quantizer::Create({d});
  SENSJOIN_CHECK(q.ok());
  return JoinAttrCodec(std::move(q).value(), flag_bits);
}

TEST(JoinFilterTest, TableRelationBitsAssignsDistinctRelations) {
  const auto self_join = MustAnalyze(
      "SELECT A.hum FROM s A, s B WHERE A.temp = B.temp ONCE");
  EXPECT_EQ(TableRelationBits(self_join), (std::vector<int>{0, 0}));
  const auto hetero = MustAnalyze(
      "SELECT A.hum FROM hot A, cold B WHERE A.temp = B.temp ONCE");
  EXPECT_EQ(TableRelationBits(hetero), (std::vector<int>{0, 1}));
}

TEST(JoinFilterTest, KeepsOnlyKeysWithPartners) {
  const auto q = MustAnalyze(
      "SELECT A.hum FROM s A, s B WHERE A.temp - B.temp > 5 ONCE");
  const JoinAttrCodec codec = MakeCodec(1);
  PointSet collected = codec.EmptySet();
  const uint64_t cold = codec.EncodeTuple({10.0}, 1);
  const uint64_t mid = codec.EncodeTuple({18.0}, 1);
  const uint64_t hot = codec.EncodeTuple({30.0}, 1);
  collected.Insert(cold);
  collected.Insert(mid);
  collected.Insert(hot);
  const FilterJoinResult r = ComputeJoinFilter(q, codec, collected);
  // hot-cold and hot-mid differ by >5; mid-cold differ by 8 > 5 as well,
  // so all three participate.
  EXPECT_EQ(r.filter.size(), 3u);

  // Tighten: only hot-cold qualifies when the threshold is 15.
  const auto q2 = MustAnalyze(
      "SELECT A.hum FROM s A, s B WHERE A.temp - B.temp > 15 ONCE");
  const FilterJoinResult r2 = ComputeJoinFilter(q2, codec, collected);
  EXPECT_EQ(r2.filter.size(), 2u);
  EXPECT_TRUE(r2.filter.Contains(cold));
  EXPECT_TRUE(r2.filter.Contains(hot));
  EXPECT_FALSE(r2.filter.Contains(mid));
}

TEST(JoinFilterTest, EmptyWhenNothingJoins) {
  const auto q = MustAnalyze(
      "SELECT A.hum FROM s A, s B WHERE A.temp - B.temp > 100 ONCE");
  const JoinAttrCodec codec = MakeCodec(1);
  PointSet collected = codec.EmptySet();
  collected.Insert(codec.EncodeTuple({10.0}, 1));
  collected.Insert(codec.EncodeTuple({30.0}, 1));
  const FilterJoinResult r = ComputeJoinFilter(q, codec, collected);
  EXPECT_TRUE(r.filter.empty());
  EXPECT_EQ(r.combinations_matched, 0u);
}

TEST(JoinFilterTest, RespectsRelationEligibility) {
  // hot.temp = cold.temp, but the only equal-temperature pair is two "hot"
  // points -> no match.
  const auto q = MustAnalyze(
      "SELECT A.hum FROM hot A, cold B WHERE A.temp = B.temp ONCE");
  const JoinAttrCodec codec = MakeCodec(2);
  PointSet collected = codec.EmptySet();
  collected.Insert(codec.EncodeTuple({20.0}, 0b01));  // hot (relation bit 0)
  collected.Insert(codec.EncodeTuple({20.5}, 0b01));  // hot, nearby cell
  collected.Insert(codec.EncodeTuple({30.0}, 0b10));  // cold, far away
  const FilterJoinResult r = ComputeJoinFilter(q, codec, collected);
  EXPECT_TRUE(r.filter.empty());

  // A cold point in the same cell as a hot one matches both.
  collected.Insert(codec.EncodeTuple({20.0}, 0b10));
  const FilterJoinResult r2 = ComputeJoinFilter(q, codec, collected);
  EXPECT_EQ(r2.filter.size(), 2u);
}

TEST(JoinFilterTest, QuantizationNeverDropsARealMatch) {
  // Property (footnote 2): for random data, every pair matching exactly
  // must land in the filter, at any resolution.
  const auto q = MustAnalyze(
      "SELECT A.hum FROM s A, s B WHERE |A.temp - B.temp| < 0.7 ONCE");
  Rng rng(99);
  for (double resolution : {0.05, 0.1, 0.5, 2.0}) {
    const JoinAttrCodec codec = MakeCodec(1, resolution);
    std::vector<double> temps;
    PointSet collected = codec.EmptySet();
    for (int i = 0; i < 120; ++i) {
      temps.push_back(rng.UniformDouble(-5, 55));  // includes out-of-range
      collected.Insert(codec.EncodeTuple({temps.back()}, 1));
    }
    const FilterJoinResult r = ComputeJoinFilter(q, codec, collected);
    for (size_t i = 0; i < temps.size(); ++i) {
      bool has_partner = false;
      for (size_t j = 0; j < temps.size(); ++j) {
        if (std::abs(temps[i] - temps[j]) < 0.7) has_partner = true;
      }
      if (has_partner) {
        EXPECT_TRUE(r.filter.Contains(codec.EncodeTuple({temps[i]}, 1)))
            << "temp " << temps[i] << " at resolution " << resolution;
      }
    }
  }
}

TEST(JoinFilterTest, CoarserResolutionOnlyAddsFalsePositives) {
  const auto q = MustAnalyze(
      "SELECT A.hum FROM s A, s B WHERE |A.temp - B.temp| < 1.0 ONCE");
  Rng rng(7);
  std::vector<double> temps;
  for (int i = 0; i < 80; ++i) temps.push_back(rng.UniformDouble(0, 50));

  auto filter_count = [&](double resolution) {
    const JoinAttrCodec codec = MakeCodec(1, resolution);
    PointSet collected = codec.EmptySet();
    for (double t : temps) collected.Insert(codec.EncodeTuple({t}, 1));
    const FilterJoinResult r = ComputeJoinFilter(q, codec, collected);
    // Count matched raw tuples (a key may cover several tuples).
    int matched = 0;
    for (double t : temps) {
      matched += r.filter.Contains(codec.EncodeTuple({t}, 1)) ? 1 : 0;
    }
    return matched;
  };
  EXPECT_LE(filter_count(0.05), filter_count(1.0));
  EXPECT_LE(filter_count(1.0), filter_count(8.0));
}

}  // namespace
}  // namespace sensjoin::join
