// Tests for the plan arena, plan printing, and instrumentation counters.
#include <gtest/gtest.h>

#include "core/counters.h"
#include "plan/arena.h"
#include "plan/plan_printer.h"
#include "query/query.h"
#include "viz/frontier_view.h"

namespace moqo {
namespace {

TEST(PlanArenaTest, AddScanAndJoin) {
  PlanArena arena;
  const PlanId a = arena.AddScan(
      TableSet::Singleton(0), OperatorDesc::Scan(ScanAlg::kSeqScan, 1, 1.0),
      CostVector{1.0, 1.0}, 100.0);
  const PlanId b = arena.AddScan(
      TableSet::Singleton(1),
      OperatorDesc::Scan(ScanAlg::kIndexScan, 1, 1.0), CostVector{2.0, 1.0},
      50.0, /*order=*/3);
  const PlanId j = arena.AddJoin(
      TableSet(0b11), a, b, OperatorDesc::Join(JoinAlg::kHashJoin, 2),
      CostVector{5.0, 2.0}, 10.0);
  EXPECT_EQ(arena.size(), 3u);
  EXPECT_TRUE(arena.at(a).IsScan());
  EXPECT_FALSE(arena.at(j).IsScan());
  EXPECT_EQ(arena.at(j).left, a);
  EXPECT_EQ(arena.at(j).right, b);
  EXPECT_EQ(arena.at(b).order, 3);
  EXPECT_EQ(arena.at(j).order, 0);
  EXPECT_DOUBLE_EQ(arena.at(j).output_cardinality, 10.0);
}

TEST(PlanArenaTest, MoveTransfersOwnership) {
  PlanArena arena;
  arena.AddScan(TableSet::Singleton(0),
                OperatorDesc::Scan(ScanAlg::kSeqScan, 1, 1.0),
                CostVector{1.0}, 10.0);
  PlanArena moved = std::move(arena);
  EXPECT_EQ(moved.size(), 1u);
}

struct PrinterFixture {
  Catalog catalog;
  Query query;
  PlanArena arena;
  PlanId join;

  PrinterFixture() {
    const TableId a = catalog.AddTable({"alpha", 100.0, 100.0, true});
    const TableId b = catalog.AddTable({"beta", 100.0, 100.0, true});
    QueryBuilder builder("q");
    builder.AddTable(a, 1.0, "A");
    builder.AddTable(b);  // No alias: printed as t1.
    builder.AddJoin(0, 1, 0.01);
    query = builder.Build();
    const PlanId s0 = arena.AddScan(
        TableSet::Singleton(0),
        OperatorDesc::Scan(ScanAlg::kSeqScan, 1, 1.0), CostVector{1.0},
        100.0);
    const PlanId s1 = arena.AddScan(
        TableSet::Singleton(1),
        OperatorDesc::Scan(ScanAlg::kIndexScan, 1, 0.25), CostVector{0.5},
        25.0);
    join = arena.AddJoin(TableSet(0b11), s0, s1,
                         OperatorDesc::Join(JoinAlg::kSortMergeJoin, 4),
                         CostVector{3.0}, 10.0);
  }
};

TEST(PlanPrinterTest, OneLineRendering) {
  PrinterFixture f;
  EXPECT_EQ(PlanToString(f.arena, f.join, f.query),
            "SortMergeJoin[w=4](SeqScan(A), IndexScan(sample=25.0%)(t1))");
}

TEST(PlanPrinterTest, TreeRenderingContainsCostsAndRows) {
  PrinterFixture f;
  const std::string tree = PlanToTreeString(f.arena, f.join, f.query);
  EXPECT_NE(tree.find("SortMergeJoin[w=4]  rows=10"), std::string::npos);
  EXPECT_NE(tree.find("  SeqScan(A)"), std::string::npos);
  EXPECT_NE(tree.find("cost=[3]"), std::string::npos);
  // Children indented deeper than the root.
  EXPECT_LT(tree.find("SortMergeJoin"), tree.find("SeqScan"));
}

TEST(CountersTest, ToStringContainsAllFields) {
  Counters c;
  c.plans_generated = 7;
  c.pairs_generated = 3;
  c.pairs_skipped = 2;
  c.candidate_retrievals = 11;
  const std::string s = c.ToString();
  EXPECT_NE(s.find("plans=7"), std::string::npos);
  EXPECT_NE(s.find("pairs=3"), std::string::npos);
  EXPECT_NE(s.find("skipped_pairs=2"), std::string::npos);
  EXPECT_NE(s.find("cand_retrievals=11"), std::string::npos);
}

TEST(CountersTest, PerPlanTrackingIsOptIn) {
  Counters c;
  c.OnCandidateRetrieved(5);
  EXPECT_TRUE(c.retrievals_by_plan.empty());
  c.track_per_plan = true;
  c.OnCandidateRetrieved(5);
  c.OnCandidateRetrieved(5);
  EXPECT_EQ(c.retrievals_by_plan[5], 2u);
  EXPECT_EQ(c.candidate_retrievals, 3u);
}

std::vector<CellIndex::Entry> MakeEntries(
    std::initializer_list<CostVector> costs) {
  std::vector<CellIndex::Entry> out;
  uint32_t id = 0;
  for (const CostVector& c : costs) {
    CellIndex::Entry e;
    e.id = id++;
    e.cost = c;
    out.push_back(e);
  }
  return out;
}

TEST(FrontierViewTest, ScatterRendersPoints) {
  const auto entries = MakeEntries(
      {CostVector{1.0, 10.0, 0.0}, CostVector{10.0, 1.0, 0.0}});
  const std::string plot = RenderScatter(
      entries, MetricSchema::Standard3(), CostVector::Infinite(3));
  EXPECT_NE(plot.find('*'), std::string::npos);
  EXPECT_NE(plot.find("x=time"), std::string::npos);
  EXPECT_NE(plot.find("y=cores"), std::string::npos);
  EXPECT_NE(plot.find("(2 plans)"), std::string::npos);
}

TEST(FrontierViewTest, ScatterRespectsBounds) {
  const auto entries = MakeEntries(
      {CostVector{1.0, 1.0, 0.0}, CostVector{100.0, 1.0, 0.0}});
  CostVector bounds = CostVector::Infinite(3);
  bounds[0] = 10.0;
  const std::string plot =
      RenderScatter(entries, MetricSchema::Standard3(), bounds);
  EXPECT_NE(plot.find("(1 plans)"), std::string::npos);
}

TEST(FrontierViewTest, EmptyFrontierRendersPlaceholder) {
  const std::string plot = RenderScatter({}, MetricSchema::Standard3(),
                                         CostVector::Infinite(3));
  EXPECT_NE(plot.find("no plans"), std::string::npos);
}

TEST(FrontierViewTest, TableSortedByFirstMetric) {
  const auto entries = MakeEntries(
      {CostVector{5.0, 1.0, 0.0}, CostVector{1.0, 2.0, 0.5}});
  const std::string table =
      RenderTable(entries, MetricSchema::Standard3());
  // Row 0 is the cheaper-time plan.
  const size_t row0 = table.find("\n  0   ");
  const size_t row1 = table.find("\n  1   ");
  ASSERT_NE(row0, std::string::npos);
  ASSERT_NE(row1, std::string::npos);
  EXPECT_LT(table.find("precision_error"), row0);
  EXPECT_LT(row0, row1);
}

TEST(FrontierViewTest, TableTruncatesAtMaxRows) {
  std::vector<CellIndex::Entry> entries;
  for (int i = 0; i < 10; ++i) {
    CellIndex::Entry e;
    e.id = static_cast<uint32_t>(i);
    e.cost = CostVector{static_cast<double>(i), 0.0, 0.0};
    entries.push_back(e);
  }
  const std::string table =
      RenderTable(entries, MetricSchema::Standard3(), 3);
  EXPECT_NE(table.find("... 7 more"), std::string::npos);
}

}  // namespace
}  // namespace moqo
