#include "sensjoin/join/filter_index.h"

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "reference_filter_join.h"
#include "sensjoin/common/rng.h"
#include "sensjoin/data/schema.h"
#include "sensjoin/join/join_attr_codec.h"
#include "sensjoin/join/join_filter.h"
#include "sensjoin/query/query.h"

namespace sensjoin::join {
namespace {

// Schema: x(0), y(1), temp(2), hum(3).
data::Schema MakeSchema() {
  return data::Schema({{"x", 2}, {"y", 2}, {"temp", 2}, {"hum", 2}});
}

query::AnalyzedQuery MustAnalyze(const std::string& sql) {
  auto q = query::AnalyzedQuery::FromString(sql, MakeSchema());
  SENSJOIN_CHECK(q.ok()) << q.status() << " for " << sql;
  return std::move(q).value();
}

// Quantizes x/y at resolution 4 over [0, 260] and temp at 0.1 over [0, 50].
JoinAttrCodec MakeCodec(int flag_bits) {
  DimensionSpec x;
  x.attr_name = "x";
  x.attr_index = 0;
  x.min_val = 0;
  x.max_val = 260;
  x.resolution = 4;
  DimensionSpec y = x;
  y.attr_name = "y";
  y.attr_index = 1;
  DimensionSpec temp;
  temp.attr_name = "temp";
  temp.attr_index = 2;
  temp.min_val = 0;
  temp.max_val = 50;
  temp.resolution = 0.1;
  auto q = Quantizer::Create({x, y, temp});
  SENSJOIN_CHECK(q.ok()) << q.status();
  return JoinAttrCodec(std::move(q).value(), flag_bits);
}

PointSet RandomCollected(const JoinAttrCodec& codec, int n, int num_relations,
                         Rng* rng) {
  std::vector<uint64_t> keys;
  keys.reserve(n);
  const uint8_t all = static_cast<uint8_t>((1u << num_relations) - 1);
  for (int i = 0; i < n; ++i) {
    const double x = rng->UniformDouble(-10, 270);  // includes out-of-range
    const double y = rng->UniformDouble(-10, 270);
    const double t = rng->UniformDouble(-2, 52);
    const uint8_t flags =
        static_cast<uint8_t>(rng->UniformInt(1, all));  // nonempty membership
    keys.push_back(codec.EncodeTuple({x, y, t}, flags));
  }
  PointSet out = codec.EmptySet();
  out.InsertAll(std::move(keys));
  return out;
}

// The core property: the planned DFS must agree with the exhaustive
// nested-loop reference bit for bit — same filter keys and same number of
// matching combinations — on every query. Index probes may only shrink
// combinations_evaluated.
void ExpectEquivalent(const query::AnalyzedQuery& q, const JoinAttrCodec& codec,
                      const PointSet& collected, const std::string& label) {
  const FilterJoinResult want =
      reference::ReferenceJoinFilter(q, codec, collected);
  const FilterJoinResult got = ComputeJoinFilter(q, codec, collected);
  EXPECT_EQ(want.filter.keys(), got.filter.keys()) << label;
  EXPECT_EQ(want.combinations_matched, got.combinations_matched) << label;
  EXPECT_LE(got.combinations_evaluated, want.combinations_evaluated) << label;
}

TEST(FilterIndexTest, BandJoinMatchesNaive) {
  const auto q = MustAnalyze(
      "SELECT A.hum, B.hum FROM s A, s B "
      "WHERE |A.temp - B.temp| < 0.9 ONCE");
  const JoinAttrCodec codec = MakeCodec(1);
  Rng rng(11);
  const PointSet collected = RandomCollected(codec, 80, 1, &rng);
  const FilterJoinResult r = ComputeJoinFilter(q, codec, collected);
  EXPECT_GT(r.constraints_extracted, 0u);
  EXPECT_GT(r.index_probes, 0u);
  ExpectEquivalent(q, codec, collected, "band");
}

TEST(FilterIndexTest, DistanceJoinMatchesNaive) {
  const auto q = MustAnalyze(
      "SELECT A.hum, B.hum FROM s A, s B "
      "WHERE distance(A.x, A.y, B.x, B.y) < 60 ONCE");
  const JoinAttrCodec codec = MakeCodec(1);
  Rng rng(12);
  const PointSet collected = RandomCollected(codec, 80, 1, &rng);
  EXPECT_GT(ComputeJoinFilter(q, codec, collected).index_probes, 0u);
  ExpectEquivalent(q, codec, collected, "distance");
}

TEST(FilterIndexTest, NoExtractableConstraintEnumeratesEligibleKeys) {
  // != never yields a range: the planner extracts nothing, every level
  // enumerates its eligible keys, and the result still matches the
  // reference.
  const auto q = MustAnalyze(
      "SELECT A.hum FROM s A, s B WHERE A.temp != B.temp ONCE");
  const JoinAttrCodec codec = MakeCodec(1);
  const FilterJoinPlan plan(q, codec);
  EXPECT_FALSE(plan.has_probes());
  EXPECT_EQ(plan.num_constraints(), 0);

  Rng rng(13);
  const PointSet collected = RandomCollected(codec, 50, 1, &rng);
  const FilterJoinResult r = ComputeJoinFilter(q, codec, collected);
  EXPECT_EQ(r.constraints_extracted, 0u);
  EXPECT_EQ(r.index_probes, 0u);
  EXPECT_GT(r.combinations_matched, 0u);
  ExpectEquivalent(q, codec, collected, "!=");
}

TEST(FilterIndexTest, RandomizedQueriesMatchNaive) {
  // Property: over randomized multi-relation queries mixing band, distance,
  // equality, shifted-difference and unextractable predicates, the indexed
  // engine is bit-identical to the exhaustive DFS.
  const std::vector<std::string> pair_preds = {
      "|$L.temp - $R.temp| < 0.9",
      "|$L.temp - $R.temp| < 2.5",
      "$L.temp - $R.temp > 5",
      "$L.temp = $R.temp",
      "distance($L.x, $L.y, $R.x, $R.y) < 50",
      "distance($L.x, $L.y, $R.x, $R.y) < 120",
      "distance($L.x, $L.y, $R.x, $R.y) > 150",
      "$L.temp != $R.temp",
      "$L.x + 2 * $R.x < 300",
  };
  auto instantiate = [](std::string tmpl, const std::string& l,
                        const std::string& r) {
    for (std::string::size_type p; (p = tmpl.find("$L")) != std::string::npos;)
      tmpl.replace(p, 2, l);
    for (std::string::size_type p; (p = tmpl.find("$R")) != std::string::npos;)
      tmpl.replace(p, 2, r);
    return tmpl;
  };

  Rng rng(77);
  for (int trial = 0; trial < 25; ++trial) {
    const int num_tables = static_cast<int>(rng.UniformInt(2, 3));
    const bool self_join = rng.NextBool(0.5);
    const std::vector<std::string> names = {"A", "B", "C"};
    std::string from;
    for (int t = 0; t < num_tables; ++t) {
      if (t > 0) from += ", ";
      from += (self_join ? "s " : "r" + std::to_string(t) + " ") + names[t];
    }
    // Chain consecutive tables, then sprinkle extra predicates.
    std::string where;
    for (int t = 0; t + 1 < num_tables; ++t) {
      if (t > 0) where += " AND ";
      where += instantiate(
          pair_preds[rng.UniformInt(0, pair_preds.size() - 1)], names[t],
          names[t + 1]);
    }
    const int extras = static_cast<int>(rng.UniformInt(0, 2));
    for (int e = 0; e < extras; ++e) {
      const int l = static_cast<int>(rng.UniformInt(0, num_tables - 1));
      const int r = static_cast<int>(rng.UniformInt(0, num_tables - 1));
      if (l == r) continue;
      where += " AND " + instantiate(
                             pair_preds[rng.UniformInt(0, pair_preds.size() - 1)],
                             names[l], names[r]);
    }
    const std::string sql =
        "SELECT A.hum FROM " + from + " WHERE " + where + " ONCE";
    const auto q = MustAnalyze(sql);
    const JoinAttrCodec codec = MakeCodec(self_join ? 1 : num_tables);
    // Keep 3-way joins small; the reference engine is cubic.
    const int n = num_tables == 3 ? 30 : 70;
    const PointSet collected =
        RandomCollected(codec, n, self_join ? 1 : num_tables, &rng);
    ExpectEquivalent(q, codec, collected, sql);
  }
}

TEST(FilterIndexTest, PlanOrdersTablesAndExtractsConstraints) {
  const auto q = MustAnalyze(
      "SELECT A.hum FROM s A, s B, s C "
      "WHERE |A.temp - B.temp| < 0.5 "
      "AND distance(B.x, B.y, C.x, C.y) < 60 ONCE");
  const JoinAttrCodec codec = MakeCodec(1);
  const FilterJoinPlan plan(q, codec);
  ASSERT_EQ(plan.levels().size(), 3u);
  EXPECT_TRUE(plan.has_probes());
  // The temp band gives one probe; the distance predicate gives a box (two
  // probes) once both of its tables are placed.
  EXPECT_GE(plan.num_constraints(), 2);
  // Every predicate is scheduled exactly once.
  size_t preds = 0;
  for (const auto& level : plan.levels()) preds += level.preds.size();
  EXPECT_EQ(preds, 2u);
  // Level 0 never has probes (nothing to probe against yet).
  EXPECT_TRUE(plan.levels()[0].probes.empty());
}

// Drives an IncrementalJoinFilter through a seeded random sequence of
// collected-set changes. After every Update the filter must equal the
// reference join over the same collected set, and combinations_matched must
// count what the taken path enumerated: every match on a full recompute,
// exactly the matches touching an added key on an incremental update (each
// once, so a pivot that revisits or skips a combination shows), and the
// previous count on a reuse.
struct DeltaCoverage {
  size_t matched = 0;
  size_t reuses = 0;
  size_t incremental = 0;
  size_t full = 0;
};

DeltaCoverage DriveIncrementalFilter(const std::string& sql, int pool_size,
                                     int steps, uint64_t seed) {
  const auto q = MustAnalyze(sql);
  const JoinAttrCodec codec = MakeCodec(1);
  Rng rng(seed);
  const std::vector<uint64_t> pool =
      RandomCollected(codec, pool_size, 1, &rng).keys();
  std::set<uint64_t> current;
  for (uint64_t key : pool) {
    if (rng.NextBool(0.5)) current.insert(key);
  }
  const auto collected_of = [&](const std::set<uint64_t>& keys) {
    return PointSet::FromKeys(codec.layout(),
                              std::vector<uint64_t>(keys.begin(), keys.end()));
  };

  IncrementalJoinFilter filter;
  DeltaCoverage cov;
  std::vector<uint64_t> added;
  std::vector<uint64_t> removed;
  for (int step = 0; step < steps; ++step) {
    const std::set<uint64_t> before = current;
    if (step > 0) {
      switch (rng.UniformInt(0, 4)) {
        case 0:  // no change
          break;
        case 1:  // remove keys outside the filter only
          for (uint64_t key : before) {
            if (!filter.last().filter.Contains(key) && rng.NextBool(0.2)) {
              current.erase(key);
            }
          }
          break;
        case 2:  // remove anything, including filter members
          for (uint64_t key : before) {
            if (rng.NextBool(0.1)) current.erase(key);
          }
          [[fallthrough]];
        default:  // add a few keys
          for (int i = static_cast<int>(rng.UniformInt(1, 4)); i > 0; --i) {
            current.insert(pool[rng.UniformInt(0, pool.size() - 1)]);
          }
          break;
      }
    }
    added.clear();
    removed.clear();
    std::set_difference(current.begin(), current.end(), before.begin(),
                        before.end(), std::back_inserter(added));
    std::set_difference(before.begin(), before.end(), current.begin(),
                        current.end(), std::back_inserter(removed));

    const size_t reuses = filter.reuses();
    const size_t incremental = filter.incremental_updates();
    const size_t previous_matched =
        filter.valid() ? filter.last().combinations_matched : 0;
    const PointSet collected = collected_of(current);
    const FilterJoinResult& got =
        filter.Update(q, codec, collected, added, removed);
    const FilterJoinResult want =
        reference::ReferenceJoinFilter(q, codec, collected);
    EXPECT_EQ(got.filter.keys(), want.filter.keys()) << sql << " step " << step;
    cov.matched += want.combinations_matched;
    if (filter.reuses() > reuses) {
      ++cov.reuses;
      EXPECT_EQ(got.combinations_matched, previous_matched) << sql;
    } else if (filter.incremental_updates() > incremental) {
      ++cov.incremental;
      std::set<uint64_t> old_keys = current;
      for (uint64_t key : added) old_keys.erase(key);
      const size_t old_matched =
          reference::ReferenceJoinFilter(q, codec, collected_of(old_keys))
              .combinations_matched;
      EXPECT_EQ(got.combinations_matched,
                want.combinations_matched - old_matched)
          << sql << " step " << step;
    } else {
      ++cov.full;
      EXPECT_EQ(got.combinations_matched, want.combinations_matched)
          << sql << " step " << step;
    }
  }
  return cov;
}

TEST(IncrementalJoinFilterTest, MatchesReferenceAcrossRandomDeltas) {
  const struct {
    const char* sql;
    int pool_size;
  } cases[] = {
      {"SELECT A.hum FROM s A, s B WHERE |A.temp - B.temp| < 0.9 ONCE", 90},
      {"SELECT A.hum FROM s A, s B "
       "WHERE distance(A.x, A.y, B.x, B.y) < 40 ONCE",
       90},
      {"SELECT A.hum FROM s A, s B WHERE A.temp != B.temp ONCE", 60},
      {"SELECT A.hum FROM s A, s B, s C WHERE |A.temp - B.temp| < 2.5 "
       "AND distance(B.x, B.y, C.x, C.y) < 80 ONCE",
       36},
  };
  uint64_t seed = 41;
  for (const auto& c : cases) {
    const DeltaCoverage cov =
        DriveIncrementalFilter(c.sql, c.pool_size, /*steps=*/40, seed++);
    // Vacuity floors: the joins match something, and every maintenance
    // path ran.
    EXPECT_GT(cov.matched, 0u) << c.sql;
    EXPECT_GE(cov.reuses, 1u) << c.sql;
    EXPECT_GE(cov.incremental, 1u) << c.sql;
    EXPECT_GE(cov.full, 2u) << c.sql;
  }
}

}  // namespace
}  // namespace sensjoin::join
