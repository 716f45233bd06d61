#include <cmath>
#include <cstring>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/tpch.h"
#include "plan/cost_model.h"
#include "query/generator.h"
#include "query/tpch_queries.h"
#include "util/rng.h"

namespace moqo {
namespace {

TableDef BigTable() { return {"big", 1000000.0, 100.0, true}; }

CostModel MakeModel(MetricSchema schema = MetricSchema::Standard3()) {
  return CostModel(std::move(schema), CostModelParams{});
}

TEST(ScanCostTest, FullSeqScanHasZeroError) {
  const CostModel model = MakeModel();
  const OpCost oc = model.ScanCost(
      BigTable(), 1.0, OperatorDesc::Scan(ScanAlg::kSeqScan, 1, 1.0));
  const int err = model.schema().IndexOf(MetricId::kPrecisionError);
  EXPECT_DOUBLE_EQ(oc.cost[err], 0.0);
  EXPECT_DOUBLE_EQ(oc.output_rows, 1000000.0);
  EXPECT_GT(oc.cost[model.schema().IndexOf(MetricId::kTime)], 0.0);
}

TEST(ScanCostTest, SamplingTradesTimeForError) {
  const CostModel model = MakeModel();
  const TableDef t = BigTable();
  const OpCost full =
      model.ScanCost(t, 1.0, OperatorDesc::Scan(ScanAlg::kSeqScan, 1, 1.0));
  const OpCost sampled = model.ScanCost(
      t, 1.0, OperatorDesc::Scan(ScanAlg::kSeqScan, 1, 0.0625));
  const int time = model.schema().IndexOf(MetricId::kTime);
  const int err = model.schema().IndexOf(MetricId::kPrecisionError);
  EXPECT_LT(sampled.cost[time], full.cost[time]);
  EXPECT_GT(sampled.cost[err], full.cost[err]);
  EXPECT_LT(sampled.output_rows, full.output_rows);
  EXPECT_LE(sampled.cost[err], 1.0);
}

TEST(ScanCostTest, CoarserSamplesHaveLargerError) {
  const CostModel model = MakeModel();
  const TableDef t = BigTable();
  const int err = model.schema().IndexOf(MetricId::kPrecisionError);
  double prev = 0.0;
  for (double rate : {0.25, 0.0625, 0.015625}) {
    const OpCost oc = model.ScanCost(
        t, 1.0, OperatorDesc::Scan(ScanAlg::kSeqScan, 1, rate));
    EXPECT_GT(oc.cost[err], prev);
    prev = oc.cost[err];
  }
}

TEST(ScanCostTest, ParallelismTradesTimeForCores) {
  const CostModel model = MakeModel();
  const TableDef t = BigTable();
  const int time = model.schema().IndexOf(MetricId::kTime);
  const int cores = model.schema().IndexOf(MetricId::kCores);
  const OpCost w1 =
      model.ScanCost(t, 1.0, OperatorDesc::Scan(ScanAlg::kSeqScan, 1, 1.0));
  const OpCost w8 =
      model.ScanCost(t, 1.0, OperatorDesc::Scan(ScanAlg::kSeqScan, 8, 1.0));
  EXPECT_LT(w8.cost[time], w1.cost[time]);
  EXPECT_DOUBLE_EQ(w1.cost[cores], 1.0);
  EXPECT_DOUBLE_EQ(w8.cost[cores], 8.0);
}

TEST(ScanCostTest, ParallelismIncreasesFees) {
  const CostModel model = MakeModel(MetricSchema::Cloud2());
  const TableDef t = BigTable();
  const int fees = model.schema().IndexOf(MetricId::kFees);
  const OpCost w1 =
      model.ScanCost(t, 1.0, OperatorDesc::Scan(ScanAlg::kSeqScan, 1, 1.0));
  const OpCost w8 =
      model.ScanCost(t, 1.0, OperatorDesc::Scan(ScanAlg::kSeqScan, 8, 1.0));
  EXPECT_GT(w8.cost[fees], w1.cost[fees]);
}

TEST(ScanCostTest, IndexScanWinsForSelectivePredicates) {
  const CostModel model = MakeModel();
  const TableDef t = BigTable();
  const int time = model.schema().IndexOf(MetricId::kTime);
  const auto seq = OperatorDesc::Scan(ScanAlg::kSeqScan, 1, 1.0);
  const auto idx = OperatorDesc::Scan(ScanAlg::kIndexScan, 1, 1.0);
  // Selective predicate: index wins.
  EXPECT_LT(model.ScanCost(t, 0.0001, idx).cost[time],
            model.ScanCost(t, 0.0001, seq).cost[time]);
  // Non-selective predicate: sequential wins.
  EXPECT_GT(model.ScanCost(t, 1.0, idx).cost[time],
            model.ScanCost(t, 1.0, seq).cost[time]);
}

// Builds a two-level plan by hand to exercise JoinCost.
struct JoinFixture {
  CostModel model = MakeModel();
  PlanNode left;
  PlanNode right;
  JoinFixture() {
    const OpCost l = model.ScanCost(
        BigTable(), 0.01, OperatorDesc::Scan(ScanAlg::kSeqScan, 1, 1.0));
    const OpCost r = model.ScanCost(
        {"dim", 1000.0, 100.0, true}, 1.0,
        OperatorDesc::Scan(ScanAlg::kSeqScan, 1, 1.0));
    left.tables = TableSet::Singleton(0);
    left.op = OperatorDesc::Scan(ScanAlg::kSeqScan, 1, 1.0);
    left.cost = l.cost;
    left.output_cardinality = l.output_rows;
    right.tables = TableSet::Singleton(1);
    right.op = OperatorDesc::Scan(ScanAlg::kSeqScan, 1, 1.0);
    right.cost = r.cost;
    right.output_cardinality = r.output_rows;
  }
};

TEST(JoinCostTest, MonotoneAggregation) {
  // Paper §5.1 requires the cost of a plan to be >= the cost of each
  // sub-plan in every metric.
  JoinFixture f;
  for (JoinAlg alg : {JoinAlg::kHashJoin, JoinAlg::kSortMergeJoin,
                      JoinAlg::kBlockNestedLoop}) {
    for (int w : {1, 4}) {
      const OpCost oc =
          f.model.JoinCost(f.left, f.right, 0.001, OperatorDesc::Join(alg, w));
      for (int i = 0; i < f.model.schema().dims(); ++i) {
        EXPECT_GE(oc.cost[i], f.left.cost[i]) << "metric " << i;
        EXPECT_GE(oc.cost[i], f.right.cost[i]) << "metric " << i;
      }
    }
  }
}

TEST(JoinCostTest, OutputCardinalityUsesSelectivity) {
  JoinFixture f;
  const OpCost oc = f.model.JoinCost(f.left, f.right, 0.001,
                                     OperatorDesc::Join(JoinAlg::kHashJoin, 1));
  EXPECT_DOUBLE_EQ(oc.output_rows,
                   f.left.output_cardinality * f.right.output_cardinality *
                       0.001);
}

TEST(JoinCostTest, CoresAreMaxOfChildrenAndOwnWorkers) {
  JoinFixture f;
  const int cores = f.model.schema().IndexOf(MetricId::kCores);
  f.left.cost[cores] = 4.0;
  f.right.cost[cores] = 2.0;
  const OpCost w1 = f.model.JoinCost(f.left, f.right, 0.001,
                                     OperatorDesc::Join(JoinAlg::kHashJoin, 1));
  EXPECT_DOUBLE_EQ(w1.cost[cores], 4.0);
  const OpCost w8 = f.model.JoinCost(f.left, f.right, 0.001,
                                     OperatorDesc::Join(JoinAlg::kHashJoin, 8));
  EXPECT_DOUBLE_EQ(w8.cost[cores], 8.0);
}

TEST(JoinCostTest, ErrorPropagatesWithInflation) {
  JoinFixture f;
  const int err = f.model.schema().IndexOf(MetricId::kPrecisionError);
  f.left.cost[err] = 0.1;
  f.right.cost[err] = 0.05;
  const OpCost oc = f.model.JoinCost(f.left, f.right, 0.001,
                                     OperatorDesc::Join(JoinAlg::kHashJoin, 1));
  EXPECT_DOUBLE_EQ(oc.cost[err],
                   0.1 * f.model.params().join_error_inflation);
  // Error is capped at 1.
  f.left.cost[err] = 0.99;
  const OpCost capped = f.model.JoinCost(
      f.left, f.right, 0.001, OperatorDesc::Join(JoinAlg::kHashJoin, 1));
  EXPECT_DOUBLE_EQ(capped.cost[err], 1.0);
}

// --- The PONO property on the full cost model. ---
//
// With sampling disabled, every plan for a table set has the same output
// cardinality, so plan cost is a pure function of the sub-plan cost
// vectors and the PONO of paper Definition 1 holds exactly. The property
// test substitutes randomly weakened sub-plan costs and verifies the
// aggregated cost is weakened by at most the same factor.
TEST(PonoModelTest, ExactForAllJoinOperatorsWithoutSampling) {
  Rng rng(77);
  const CostModel model = MakeModel();
  JoinFixture f;
  for (int trial = 0; trial < 500; ++trial) {
    const double alpha = 1.0 + rng.NextDouble();
    PlanNode weak_left = f.left;
    PlanNode weak_right = f.right;
    for (int i = 0; i < model.schema().dims(); ++i) {
      weak_left.cost[i] *= rng.UniformDouble(1.0, alpha);
      weak_right.cost[i] *= rng.UniformDouble(1.0, alpha);
    }
    const JoinAlg alg = static_cast<JoinAlg>(rng.Uniform(3));
    const int w = 1 << rng.Uniform(4);
    const OperatorDesc op = OperatorDesc::Join(alg, w);
    const OpCost base = model.JoinCost(f.left, f.right, 0.001, op);
    const OpCost weak = model.JoinCost(weak_left, weak_right, 0.001, op);
    for (int i = 0; i < model.schema().dims(); ++i) {
      EXPECT_LE(weak.cost[i], alpha * base.cost[i] + 1e-9)
          << "metric " << i << " alg " << static_cast<int>(alg);
    }
  }
}

TEST(OperatorsTest, ScanAlternativesCoverAlgorithmsAndRates) {
  OperatorOptions options;
  options.max_workers = 4;
  options.max_sampling_rates_per_table = 2;
  const auto alts = ScanAlternatives(BigTable(), options);
  int seq = 0, idx = 0, sampled = 0;
  for (const OperatorDesc& op : alts) {
    EXPECT_TRUE(op.is_scan);
    if (op.scan_alg() == ScanAlg::kSeqScan) ++seq;
    if (op.scan_alg() == ScanAlg::kIndexScan) {
      ++idx;
      EXPECT_EQ(op.workers, 1);  // Index scans are single-threaded.
    }
    if (op.sampling_permille != 1000) ++sampled;
  }
  EXPECT_GT(seq, 0);
  EXPECT_GT(idx, 0);
  EXPECT_GT(sampled, 0);
}

TEST(OperatorsTest, NoIndexScanWithoutIndex) {
  OperatorOptions options;
  TableDef t = BigTable();
  t.has_index = false;
  for (const OperatorDesc& op : ScanAlternatives(t, options)) {
    EXPECT_NE(op.scan_alg(), ScanAlg::kIndexScan);
  }
}

TEST(OperatorsTest, NestedLoopOnlyForSmallInputs) {
  OperatorOptions options;
  bool has_nl_small = false;
  for (const OperatorDesc& op : JoinAlternatives(100.0, 1e8, options)) {
    if (op.join_alg() == JoinAlg::kBlockNestedLoop) has_nl_small = true;
  }
  EXPECT_TRUE(has_nl_small);
  for (const OperatorDesc& op : JoinAlternatives(1e8, 1e8, options)) {
    EXPECT_NE(op.join_alg(), JoinAlg::kBlockNestedLoop);
  }
}

TEST(OperatorsTest, ToStringRendersVariants) {
  EXPECT_EQ(OperatorDesc::Scan(ScanAlg::kSeqScan, 1, 1.0).ToString(),
            "SeqScan");
  EXPECT_EQ(OperatorDesc::Scan(ScanAlg::kSeqScan, 4, 0.25).ToString(),
            "SeqScan(sample=25.0%)[w=4]");
  EXPECT_EQ(OperatorDesc::Join(JoinAlg::kHashJoin, 8).ToString(),
            "HashJoin[w=8]");
}

TEST(PlanFactoryTest, CanCombineRequiresEdgeAndConnectivity) {
  const Catalog catalog = MakeTpchCatalog();
  const auto blocks = TpchBlocksWithTables(catalog, 3);
  ASSERT_FALSE(blocks.empty());
  const PlanFactory factory(blocks[0], catalog, MetricSchema::Standard3());
  // q3: c - o - l chain (c=0, o=1, l=2).
  EXPECT_TRUE(factory.CanCombine(TableSet(0b001), TableSet(0b010)));
  EXPECT_FALSE(factory.CanCombine(TableSet(0b001), TableSet(0b100)));
  EXPECT_FALSE(factory.CanCombine(TableSet(0b011), TableSet(0b010)));
  EXPECT_TRUE(factory.CanCombine(TableSet(0b011), TableSet(0b100)));
}

TEST(PlanFactoryTest, ForEachScanYieldsAllAlternatives) {
  const Catalog catalog = MakeTpchCatalog();
  const auto blocks = TpchBlocksWithTables(catalog, 2);
  ASSERT_FALSE(blocks.empty());
  OperatorOptions op_options;
  const PlanFactory factory(blocks[0], catalog, MetricSchema::Standard3(),
                            CostModelParams{}, op_options);
  int count = 0;
  factory.ForEachScan(0, [&](const OperatorDesc& op, const OpCost& oc) {
    EXPECT_TRUE(op.is_scan);
    EXPECT_TRUE(oc.cost.IsFinite());
    EXPECT_TRUE(oc.cost.IsNonNegative());
    EXPECT_GE(oc.output_rows, 1.0);
    ++count;
  });
  const TableDef& table =
      catalog.Get(blocks[0].tables[0].table);
  EXPECT_EQ(static_cast<size_t>(count),
            ScanAlternatives(table, op_options).size());
}

// ForEachJoin walks join-alternative lists the factory built once; they
// must match JoinAlternatives for the inputs at hand on both sides of
// the nested-loop threshold, for either input being the small one. The
// pair is unordered: each hash join comes twice, building on a and then
// on b, and each symmetric alternative once with a on the left, each
// costed for the orientation it reports.
TEST(PlanFactoryTest, ForEachJoinYieldsJoinAlternatives) {
  const Catalog catalog = MakeTpchCatalog();
  const auto blocks = TpchBlocksWithTables(catalog, 2);
  ASSERT_FALSE(blocks.empty());
  for (const bool nested_loop : {true, false}) {
    OperatorOptions op_options;
    op_options.enable_nested_loop = nested_loop;
    const PlanFactory factory(blocks[0], catalog, MetricSchema::Standard3(),
                              CostModelParams{}, op_options);
    const double limit = op_options.nested_loop_max_inner_rows;
    for (const double small : {1.0, limit, std::nextafter(limit, 1e300)}) {
      for (const bool small_a : {true, false}) {
        PlanNode a;
        a.tables = TableSet::Singleton(0);
        a.cost = CostVector(3, 1.0);
        a.output_cardinality = small_a ? small : 1e8;
        PlanNode b = a;
        b.tables = TableSet::Singleton(1);
        b.output_cardinality = small_a ? 1e8 : small;
        struct Yield {
          OperatorDesc op;
          OpCost oc;
          bool a_left;
        };
        std::vector<Yield> got;
        factory.ForEachJoin(
            a, b, [&](const OperatorDesc& op, const OpCost& oc, bool a_left) {
              got.push_back({op, oc, a_left});
            });
        std::vector<std::pair<OperatorDesc, bool>> want;
        for (const OperatorDesc& op : JoinAlternatives(
                 a.output_cardinality, b.output_cardinality, op_options)) {
          want.emplace_back(op, true);
          if (op.join_alg() == JoinAlg::kHashJoin) want.emplace_back(op, false);
        }
        ASSERT_EQ(got.size(), want.size()) << "rows=" << small;
        const double selectivity =
            factory.graph().SelectivityBetween(a.tables, b.tables);
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].op.alg, want[i].first.alg) << "rows=" << small;
          EXPECT_EQ(got[i].op.workers, want[i].first.workers)
              << "rows=" << small;
          EXPECT_EQ(got[i].a_left, want[i].second) << "rows=" << small;
          const OpCost expect =
              got[i].a_left
                  ? factory.cost_model().JoinCost(a, b, selectivity,
                                                  got[i].op)
                  : factory.cost_model().JoinCost(b, a, selectivity,
                                                  got[i].op);
          EXPECT_TRUE(got[i].oc.cost.Equals(expect.cost)) << "i=" << i;
          EXPECT_EQ(got[i].oc.output_rows, expect.output_rows) << "i=" << i;
        }
      }
    }
  }
}

// ForEachSplit yields each unordered half of the ordered split set that
// SubsetIter + CanCombine enumerate exactly once, oriented q1 < q2 by
// mask and in descending order of q1, for every subset of 6-table chain,
// star, cycle and clique graphs.
TEST(PlanFactoryTest, ForEachSplitYieldsEachUnorderedSplitOnce) {
  for (const Topology topology : {Topology::kChain, Topology::kStar,
                                  Topology::kCycle, Topology::kClique}) {
    Catalog catalog;
    Rng rng(11);
    GeneratorOptions gen;
    gen.num_tables = 6;
    gen.topology = topology;
    const Query query = RandomQuery(rng, gen, &catalog);
    const PlanFactory factory(query, catalog, MetricSchema::Standard3());
    const uint32_t full = TableSet::Full(6).mask();
    size_t total = 0;
    for (uint32_t mask = 1; mask <= full; ++mask) {
      const TableSet q(mask);
      std::set<std::pair<uint32_t, uint32_t>> ordered;
      for (SubsetIter split(q); !split.Done(); split.Next()) {
        if (factory.CanCombine(split.Subset(), split.Complement())) {
          ordered.emplace(split.Subset().mask(), split.Complement().mask());
        }
      }
      std::vector<std::pair<uint32_t, uint32_t>> got;
      factory.ForEachSplit(q, [&](TableSet q1, TableSet q2) {
        got.emplace_back(q1.mask(), q2.mask());
      });
      ASSERT_EQ(got.size() * 2, ordered.size())
          << "topology " << static_cast<int>(topology) << " q=" << mask;
      for (size_t i = 0; i < got.size(); ++i) {
        const auto [q1, q2] = got[i];
        EXPECT_LT(q1, q2) << "q=" << mask;
        EXPECT_EQ(ordered.count({q1, q2}), 1u) << "q=" << mask;
        EXPECT_EQ(ordered.count({q2, q1}), 1u) << "q=" << mask;
        if (i > 0) {
          EXPECT_LT(q1, got[i - 1].first) << "q=" << mask;
        }
      }
      total += got.size();
    }
    EXPECT_GT(total, 0u) << "topology " << static_cast<int>(topology);
  }
}

// Bit pattern equality: the symmetry the enumeration relies on is exact,
// not approximate.
bool SameBits(double x, double y) {
  uint64_t bx = 0;
  uint64_t by = 0;
  std::memcpy(&bx, &x, sizeof(x));
  std::memcpy(&by, &y, sizeof(y));
  return bx == by;
}

// A random sub-plan node: cardinality log-uniform over [1, 1e8] (either
// side of the nested-loop threshold), random non-negative costs, and an
// order tag that is unsorted, sorted on the merge key or sorted on
// another key.
PlanNode RandomNode(Rng& rng, int dims, int merge_order) {
  PlanNode node;
  node.output_cardinality = std::pow(10.0, rng.UniformDouble(0.0, 8.0));
  node.cost = CostVector(dims);
  for (int i = 0; i < dims; ++i) {
    node.cost[i] =
        rng.Bernoulli(0.1) ? 0.0 : std::pow(10.0, rng.UniformDouble(-3, 6));
  }
  const int orders[] = {0, merge_order, merge_order + 1};
  node.order = static_cast<uint8_t>(orders[rng.Uniform(3)]);
  return node;
}

// Swapping the inputs of a join marked symmetric (IsSymmetricJoin) leaves
// its cost, output rows and order bit-identical, with interesting orders
// on and off, for Standard3 and all six metrics. ForEachJoin yields such
// joins in one orientation only, so this is the oracle that no cost
// vector is lost by skipping the mirrors. Hash join must differ for some
// pair, or the comparison would prove nothing.
TEST(JoinCostTest, SymmetricJoinsIgnoreInputOrderBitForBit) {
  Rng rng(2024);
  for (const MetricSchema& schema :
       {MetricSchema::Standard3(), MetricSchema::Full6()}) {
    const CostModel model = MakeModel(schema);
    int hash_asymmetric = 0;
    int symmetric_checked = 0;
    for (int trial = 0; trial < 4000; ++trial) {
      const int merge_order =
          rng.Bernoulli(0.2) ? 0 : 1 + static_cast<int>(rng.Uniform(10));
      const PlanNode l = RandomNode(rng, schema.dims(), merge_order);
      const PlanNode r = RandomNode(rng, schema.dims(), merge_order);
      const double selectivity = std::pow(10.0, rng.UniformDouble(-8, 0));
      const int workers = 1 << rng.Uniform(4);
      for (const JoinAlg alg : {JoinAlg::kHashJoin, JoinAlg::kSortMergeJoin,
                                JoinAlg::kBlockNestedLoop}) {
        const OperatorDesc op = OperatorDesc::Join(alg, workers);
        const OpCost lr = model.JoinCost(l, r, selectivity, op, merge_order);
        const OpCost rl = model.JoinCost(r, l, selectivity, op, merge_order);
        bool same = SameBits(lr.output_rows, rl.output_rows) &&
                    lr.order == rl.order;
        for (int i = 0; i < schema.dims(); ++i) {
          same = same && SameBits(lr.cost[i], rl.cost[i]);
        }
        if (!IsSymmetricJoin(alg)) {
          hash_asymmetric += same ? 0 : 1;
          continue;
        }
        ++symmetric_checked;
        ASSERT_TRUE(same) << "alg " << static_cast<int>(alg) << " trial "
                          << trial << " l.order " << int{l.order}
                          << " r.order " << int{r.order} << " merge_order "
                          << merge_order;
      }
    }
    EXPECT_GT(symmetric_checked, 0);
    EXPECT_GT(hash_asymmetric, 0);
  }
}

}  // namespace
}  // namespace moqo
