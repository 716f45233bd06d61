// Cross-query fragment sharing tests: canonical sub-join-graph keys must
// collide exactly for order-preserving renumberings of the same fragment
// (and miss otherwise, catalog fingerprint included), and the fingerprint
// must cover every statistic and cost option; seeding from a warm store must
// leave every frontier bit-identical to a cold sequential run — at every
// iteration, for serial and pooled phase 2, and through the sharded
// service for shard counts {1, 2, 4} — while measurably cutting the
// optimizer's generation work (pair/plan counters, asserted like the
// coalescing step counts); seeded cells must list their plans in the
// donor's index order; diverged (re-bounded) seeded runs must stay
// correct α-approximations and never publish; and the store itself must
// evict under a byte budget without ever invalidating a snapshot a
// reader holds (hammered under TSan in CI).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/tpch.h"
#include "core/iama.h"
#include "pareto/coverage.h"
#include "query/query.h"
#include "service/fragment_store.h"
#include "service/optimizer_service.h"
#include "test_helpers.h"
#include "util/thread_pool.h"

namespace moqo {
namespace {

// --- Shared workload: queries overlapping on a fixed 4-table chain ---------

// The shared core: customer - orders - lineitem - supplier with fixed
// local and join selectivities. Every query below embeds this chain with
// the same table order and the same internal predicate sequence, so its
// sub-join-graphs canonicalize onto the same fragment keys.
void AddCoreChain(QueryBuilder* b, int* refs) {
  refs[0] = b->AddTable(TpchTable::kCustomer, 0.5);
  refs[1] = b->AddTable(TpchTable::kOrders, 1.0);
  refs[2] = b->AddTable(TpchTable::kLineitem, 0.25);
  refs[3] = b->AddTable(TpchTable::kSupplier, 1.0);
}

void AddCoreJoins(QueryBuilder* b, const int* refs) {
  b->AddJoin(refs[0], refs[1], 1e-5);
  b->AddJoin(refs[1], refs[2], 2e-6);
  b->AddJoin(refs[2], refs[3], 1e-4);
}

// The plain core query (the donor in most tests).
Query CoreQuery() {
  QueryBuilder b("core");
  int refs[4];
  AddCoreChain(&b, refs);
  AddCoreJoins(&b, refs);
  return b.Build();
}

// Core + one variant-specific table joined to a variant-specific root:
// overlapping-but-distinct queries sharing the core's sub-join-graphs.
Query VariantQuery(int variant) {
  QueryBuilder b("variant" + std::to_string(variant));
  int refs[4];
  AddCoreChain(&b, refs);
  const int extra =
      b.AddTable(TpchTable::kPart, 0.1 + 0.2 * (variant % 4));
  AddCoreJoins(&b, refs);
  // Attach the extra table at a per-variant root, with the predicate
  // appended after the core sequence (keeps the core's internal
  // predicate order — and hence its canonical keys — intact).
  b.AddJoin(refs[variant % 4], extra, 1e-3);
  return b.Build();
}

// The core embedded at shifted local indices: one leading extra table,
// core at positions 1..4. Order-preserving renumberings like this must
// collide onto the same canonical fragment keys.
Query RenumberedQuery() {
  QueryBuilder b("renumbered");
  const int lead = b.AddTable(TpchTable::kNation, 0.9);
  int refs[4];
  AddCoreChain(&b, refs);
  AddCoreJoins(&b, refs);
  b.AddJoin(lead, refs[0], 1e-2);
  return b.Build();
}

IamaOptions SmallIama(int levels = 4) {
  IamaOptions iama;
  iama.schedule = ResolutionSchedule(levels, 1.02, 0.3);
  return iama;
}

// Runs one query alone: a plain single-threaded IamaSession stepped
// `iterations` times, returning the final snapshot (the cold sequential
// reference every fragment-seeded run must match bit for bit).
FrontierSnapshot SequentialFinalSnapshot(const Query& query,
                                         const Catalog& catalog,
                                         const ServiceOptions& service_opts,
                                         const IamaOptions& iama,
                                         int iterations) {
  const PlanFactory factory(query, catalog, service_opts.schema,
                            service_opts.cost_params,
                            service_opts.operator_options);
  IamaSession session(factory, iama);
  FrontierSnapshot snap;
  for (int i = 0; i < iterations; ++i) {
    snap = session.Step();
    session.ApplyAction(UserAction::Continue());
  }
  return snap;
}

// Steps a session to completion (`levels` iterations) recording the
// frontier signature after every step.
std::vector<std::vector<std::vector<double>>> RunTrajectory(
    IamaSession* session, int iterations) {
  std::vector<std::vector<std::vector<double>>> out;
  for (int i = 0; i < iterations; ++i) {
    out.push_back(FrontierSignature(session->Step().plans));
    session->ApplyAction(UserAction::Continue());
  }
  return out;
}

// Runs `query` cold with fragment publishing on and pushes every cell
// into `store`; returns the donor's trajectory for reference.
std::vector<std::vector<std::vector<double>>> WarmStore(
    FragmentStore* store, const Query& query, const Catalog& catalog,
    const OperatorOptions& op_options, const IamaOptions& iama) {
  const MetricSchema schema = MetricSchema::Standard3();
  PlanFactory factory(query, catalog, schema, CostModelParams{}, op_options);
  IamaOptions donor_iama = iama;
  donor_iama.optimizer.fragment_publish = true;
  IamaSession session(factory, donor_iama);
  auto trajectory = RunTrajectory(&session, iama.schedule.NumLevels());
  FragmentStoreProvider provider(store, query, schema, iama,
                                 op_options.enable_interesting_orders,
                                 /*min_tables=*/2);
  provider.PublishAll(
      session.optimizer().PublishableFragments());
  return trajectory;
}

// --- FragmentStore unit tests ----------------------------------------------

std::shared_ptr<StoredFragment> MakeFragment(int resolution_complete,
                                             size_t plans) {
  auto frag = std::make_shared<StoredFragment>();
  frag->resolution_complete = resolution_complete;
  frag->plans.resize(plans);
  for (size_t i = 0; i < plans; ++i) {
    frag->plans[i].cost = CostVector{1.0 + static_cast<double>(i), 2.0, 0.1};
    frag->plans[i].output_rows = 10.0;
  }
  return frag;
}

TEST(FragmentStoreTest, LookupHonorsResolutionAndLru) {
  FragmentStore store({/*capacity_bytes=*/1 << 20});
  store.Publish("a", MakeFragment(/*resolution_complete=*/2, 3));
  EXPECT_EQ(store.Lookup("a", 3), nullptr);  // Too coarse: a miss.
  ASSERT_NE(store.Lookup("a", 2), nullptr);
  ASSERT_NE(store.Lookup("a", 0), nullptr);
  EXPECT_EQ(store.Lookup("b", 0), nullptr);
  const FragmentStoreStats stats = store.Stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.publishes, 1u);
  EXPECT_EQ(stats.entries, 1u);

  // A finer run replaces the entry; a coarser one is dropped.
  store.Publish("a", MakeFragment(3, 3));
  EXPECT_NE(store.Lookup("a", 3), nullptr);
  store.Publish("a", MakeFragment(1, 3));
  EXPECT_NE(store.Lookup("a", 3), nullptr);
  EXPECT_EQ(store.Stats().publish_ignored, 1u);
}

TEST(FragmentStoreTest, EvictsUnderByteBudgetAndKeepsReaderSnapshots) {
  // A budget fitting roughly one entry: publishing more evicts,
  // but snapshots already handed out stay valid (refcounted).
  FragmentStore store({/*capacity_bytes=*/2048});
  store.Publish("k0", MakeFragment(2, 8));
  std::shared_ptr<const StoredFragment> held = store.Lookup("k0", 0);
  ASSERT_NE(held, nullptr);
  for (int i = 1; i <= 8; ++i) {
    store.Publish("k" + std::to_string(i), MakeFragment(2, 8));
  }
  const FragmentStoreStats stats = store.Stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, 2048u);
  // The held snapshot is intact even though "k0" was evicted.
  EXPECT_EQ(store.Lookup("k0", 0), nullptr);
  EXPECT_EQ(held->plans.size(), 8u);
  EXPECT_EQ(held->plans[7].output_rows, 10.0);
}

TEST(FragmentStoreTest, ZeroBudgetStoresNothing) {
  FragmentStore store({/*capacity_bytes=*/0});
  store.Publish("a", MakeFragment(2, 3));
  EXPECT_EQ(store.Lookup("a", 0), nullptr);
  EXPECT_EQ(store.Stats().entries, 0u);
}

// Refcount/eviction hammering: concurrent publishers and readers on a
// tiny budget; readers dereference their snapshots after eviction. Run
// under TSan in CI.
TEST(FragmentStoreTest, ConcurrentPublishLookupEvictionRace) {
  FragmentStore store({/*capacity_bytes=*/4096});
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 500; ++i) {
        const std::string key = "k" + std::to_string((t * 7 + i) % 13);
        if (i % 2 == 0) {
          store.Publish(key, MakeFragment(2, 4 + i % 5));
        } else if (auto snap = store.Lookup(key, 0)) {
          // Touch the payload: must stay valid across evictions.
          volatile double sink = snap->plans.front().output_rows;
          (void)sink;
        }
      }
      stop.store(true);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(stop.load());
  EXPECT_LE(store.Stats().bytes, 4096u);
}

// --- Canonical key tests ----------------------------------------------------

TEST(FragmentKeyTest, OrderPreservingRenumberingsCollide) {
  const Query core = CoreQuery();
  const Query shifted = RenumberedQuery();
  const MetricSchema schema = MetricSchema::Standard3();
  const IamaOptions iama = SmallIama();
  FragmentQueryBinding core_binding(core, schema, iama,
                                    /*orders_enabled=*/false,
                                    /*catalog_fingerprint=*/0);
  FragmentQueryBinding shifted_binding(shifted, schema, iama, false, 0);

  // The core chain occupies locals {0..3} in `core` and {1..4} in
  // `shifted`; every connected sub-chain must produce the same key.
  const uint32_t sub_chains[] = {0b0011, 0b0110, 0b1100, 0b0111, 0b1110,
                                 0b1111};
  for (const uint32_t mask : sub_chains) {
    const std::string* a = core_binding.KeyFor(TableSet(mask));
    const std::string* b = shifted_binding.KeyFor(TableSet(mask << 1));
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(*a, *b) << "mask " << mask;
  }
  // A cell touching the shifted query's extra table must not collide.
  const std::string* lead =
      shifted_binding.KeyFor(TableSet(0b00011));  // {nation, customer}
  ASSERT_NE(lead, nullptr);
  EXPECT_NE(*lead, *core_binding.KeyFor(TableSet(0b0011)));
}

TEST(FragmentKeyTest, SelectivityFingerprintAndOptionsChangeTheKey) {
  const Query core = CoreQuery();
  Query tweaked = CoreQuery();
  tweaked.tables[1].predicate_selectivity = 0.75;
  const MetricSchema schema = MetricSchema::Standard3();
  const IamaOptions iama = SmallIama();

  FragmentQueryBinding base(core, schema, iama, false,
                            /*catalog_fingerprint=*/0);
  FragmentQueryBinding sel(tweaked, schema, iama, false, 0);
  FragmentQueryBinding fingerprint(core, schema, iama, false,
                                   /*catalog_fingerprint=*/1);
  IamaOptions other_schedule = SmallIama(/*levels=*/5);
  FragmentQueryBinding sched(core, schema, other_schedule, false, 0);
  FragmentQueryBinding orders(core, schema, iama, /*orders_enabled=*/true, 0);

  const TableSet cell(0b1111);
  const std::string key = *base.KeyFor(cell);
  EXPECT_NE(key, *sel.KeyFor(cell));
  EXPECT_NE(key, *fingerprint.KeyFor(cell));
  EXPECT_NE(key, *sched.KeyFor(cell));
  EXPECT_NE(key, *orders.KeyFor(cell));
  // Singletons never participate.
  EXPECT_EQ(base.KeyFor(TableSet(0b0001)), nullptr);
}

// The catalog fingerprint moves with every input a cell's frontier
// reads outside its key: any table statistic, any cost-model parameter,
// any operator option. Catalogs built alike agree, and table names,
// which are display-only, do not count.
TEST(FragmentKeyTest, CatalogFingerprintCoversStatisticsAndCostOptions) {
  const Catalog catalog = MakeTpchCatalog();
  const CostModelParams params;
  const OperatorOptions ops;
  const auto fingerprint = [](const Catalog& c, const CostModelParams& p,
                              const OperatorOptions& o) {
    return FragmentCatalogFingerprint(*c.Snapshot(), p, o);
  };
  const uint64_t base = fingerprint(catalog, params, ops);
  EXPECT_EQ(fingerprint(MakeTpchCatalog(), params, ops), base);

  const std::vector<std::function<void(TableDef*)>> table_changes = {
      [](TableDef* t) { t->cardinality += 1.0; },
      [](TableDef* t) { t->row_bytes += 1.0; },
      [](TableDef* t) { t->has_index = !t->has_index; },
  };
  for (TableId id = 0; id < catalog.NumTables(); ++id) {
    for (size_t c = 0; c < table_changes.size(); ++c) {
      Catalog changed = MakeTpchCatalog();
      TableDef def = changed.Get(id);
      table_changes[c](&def);
      ASSERT_TRUE(changed.ReplaceTable(id, def).ok());
      EXPECT_NE(fingerprint(changed, params, ops), base)
          << "table " << id << " change " << c;
    }
    Catalog renamed = MakeTpchCatalog();
    TableDef def = renamed.Get(id);
    def.name += "_renamed";
    ASSERT_TRUE(renamed.ReplaceTable(id, def).ok());
    EXPECT_EQ(fingerprint(renamed, params, ops), base) << "table " << id;
  }

  // CostModelParams is all doubles: perturb each one by one ulp.
  constexpr size_t kParams = sizeof(CostModelParams) / sizeof(double);
  static_assert(sizeof(CostModelParams) == kParams * sizeof(double));
  for (size_t i = 0; i < kParams; ++i) {
    double fields[kParams];
    std::memcpy(fields, &params, sizeof(params));
    fields[i] = std::nextafter(fields[i], 1e300);
    CostModelParams changed;
    std::memcpy(&changed, fields, sizeof(changed));
    EXPECT_NE(fingerprint(catalog, changed, ops), base)
        << "CostModelParams field " << i;
  }

  const std::vector<std::function<void(OperatorOptions*)>> op_changes = {
      [](OperatorOptions* o) { o->max_workers += 1; },
      [](OperatorOptions* o) { o->max_sampling_rates_per_table += 1; },
      [](OperatorOptions* o) { o->enable_index_scans = !o->enable_index_scans; },
      [](OperatorOptions* o) { o->enable_sort_merge = !o->enable_sort_merge; },
      [](OperatorOptions* o) {
        o->enable_nested_loop = !o->enable_nested_loop;
      },
      [](OperatorOptions* o) {
        o->enable_interesting_orders = !o->enable_interesting_orders;
      },
      [](OperatorOptions* o) { o->nested_loop_max_inner_rows += 1.0; },
  };
  for (size_t c = 0; c < op_changes.size(); ++c) {
    OperatorOptions changed = ops;
    op_changes[c](&changed);
    EXPECT_NE(fingerprint(catalog, params, changed), base)
        << "OperatorOptions change " << c;
  }
}

// --- Core-level seeding: bit-identity and work savings ----------------------

// A fully warmed store must let an identical query re-derive its entire
// trajectory with zero pair enumeration, bit-identically — for serial
// and pooled phase 2 alike.
TEST(FragmentSeedingTest, FullyWarmRunIsBitIdenticalWithZeroPairs) {
  const Catalog catalog = MakeTpchCatalog();
  const OperatorOptions op_options = TinyOperatorOptions(/*sampling=*/true);
  const IamaOptions iama = SmallIama();
  const Query query = CoreQuery();
  FragmentStore store({/*capacity_bytes=*/4 << 20});
  const auto reference =
      WarmStore(&store, query, catalog, op_options, iama);
  ASSERT_GT(store.Stats().publishes, 0u);

  const MetricSchema schema = MetricSchema::Standard3();
  PlanFactory factory(query, catalog, schema, CostModelParams{}, op_options);
  for (const int threads : {1, 3}) {
    FragmentStoreProvider provider(&store, query, schema, iama,
                                   op_options.enable_interesting_orders, 2);
    ThreadPool pool(threads);
    IamaOptions seeded_iama = iama;
    seeded_iama.optimizer.fragment_store = &provider;
    seeded_iama.optimizer.pool = &pool;
    IamaSession session(factory, seeded_iama);
    const auto warm = RunTrajectory(&session, iama.schedule.NumLevels());
    ASSERT_EQ(warm, reference) << "threads " << threads;
    const Counters& counters = session.optimizer().counters();
    EXPECT_EQ(counters.pairs_generated, 0u);
    EXPECT_GT(counters.fragment_cells_seeded, 0u);
    EXPECT_GT(counters.fragment_plans_seeded, 0u);
  }
}

// Overlapping-but-distinct queries: each variant must match its own cold
// trajectory exactly while doing strictly less enumeration work, with
// the store warmed only by the plain core query and earlier variants.
TEST(FragmentSeedingTest, OverlappingQueriesStayBitIdenticalAndSaveWork) {
  const Catalog catalog = MakeTpchCatalog();
  const OperatorOptions op_options = TinyOperatorOptions(/*sampling=*/true);
  const IamaOptions iama = SmallIama();
  const MetricSchema schema = MetricSchema::Standard3();
  FragmentStore store({/*capacity_bytes=*/8 << 20});
  WarmStore(&store, CoreQuery(), catalog, op_options, iama);

  for (int variant = 0; variant < 3; ++variant) {
    const Query query = VariantQuery(variant);
    PlanFactory factory(query, catalog, schema, CostModelParams{},
                        op_options);
    // Cold reference trajectory and work counters.
    IamaSession cold(factory, iama);
    const auto cold_trajectory =
        RunTrajectory(&cold, iama.schedule.NumLevels());
    const uint64_t cold_pairs = cold.optimizer().counters().pairs_generated;

    FragmentStoreProvider provider(&store, query, schema, iama,
                                   op_options.enable_interesting_orders, 2);
    IamaOptions seeded_iama = iama;
    seeded_iama.optimizer.fragment_store = &provider;
    seeded_iama.optimizer.fragment_publish = true;
    IamaSession warm(factory, seeded_iama);
    const auto warm_trajectory =
        RunTrajectory(&warm, iama.schedule.NumLevels());

    ASSERT_EQ(warm_trajectory, cold_trajectory) << query.name;
    const Counters& counters = warm.optimizer().counters();
    EXPECT_GT(counters.fragment_cells_seeded, 0u) << query.name;
    EXPECT_LT(counters.pairs_generated, cold_pairs) << query.name;
    // Later variants may reuse this one's non-shared cells too.
    provider.PublishAll(
        warm.optimizer().PublishableFragments());
  }
}

// Interesting orders on: the canonical order-tag translation (internal,
// external, and none classes) must survive a round trip through the
// store. The donor and consumer list their external predicates first and
// in different numbers, so local tags differ and the remap is
// non-trivial; bit-identity then proves it exact.
TEST(FragmentSeedingTest, OrderTagsSurviveCanonicalRoundTrip) {
  const Catalog catalog = MakeTpchCatalog();
  OperatorOptions op_options = TinyOperatorOptions(/*sampling=*/false);
  op_options.enable_interesting_orders = true;
  const IamaOptions iama = SmallIama();
  const MetricSchema schema = MetricSchema::Standard3();

  // Donor: extra table joined to the core head, predicate listed FIRST —
  // the head's first incident predicate is external to the core cells.
  Query donor;
  {
    QueryBuilder b("donor");
    int refs[4];
    AddCoreChain(&b, refs);
    const int extra = b.AddTable(TpchTable::kPart, 0.3);
    b.AddJoin(refs[0], extra, 1e-3);  // External predicate, index 0.
    AddCoreJoins(&b, refs);           // Core predicates at indices 1..3.
    donor = b.Build();
  }
  // Consumer: TWO leading external predicates (to a different table with
  // different selectivities), shifting the core predicate indices — and
  // with them every internal order tag — relative to the donor.
  Query consumer;
  {
    QueryBuilder b("consumer");
    int refs[4];
    AddCoreChain(&b, refs);
    const int e1 = b.AddTable(TpchTable::kNation, 0.8);
    const int e2 = b.AddTable(TpchTable::kRegion, 0.7);
    b.AddJoin(refs[0], e1, 5e-3);  // External, index 0.
    b.AddJoin(e1, e2, 2e-2);       // Outside the core, index 1.
    AddCoreJoins(&b, refs);        // Core predicates at indices 2..4.
    consumer = b.Build();
  }

  FragmentStore store({/*capacity_bytes=*/8 << 20});
  WarmStore(&store, donor, catalog, op_options, iama);

  PlanFactory factory(consumer, catalog, schema, CostModelParams{},
                      op_options);
  IamaSession cold(factory, iama);
  const auto cold_trajectory =
      RunTrajectory(&cold, iama.schedule.NumLevels());

  FragmentStoreProvider provider(&store, consumer, schema, iama,
                                 /*orders_enabled=*/true, 2);
  IamaOptions seeded_iama = iama;
  seeded_iama.optimizer.fragment_store = &provider;
  IamaSession warm(factory, seeded_iama);
  const auto warm_trajectory =
      RunTrajectory(&warm, iama.schedule.NumLevels());

  ASSERT_EQ(warm_trajectory, cold_trajectory);
  EXPECT_GT(warm.optimizer().counters().fragment_cells_seeded, 0u);
  EXPECT_LT(warm.optimizer().counters().pairs_generated,
            cold.optimizer().counters().pairs_generated);
}

// Re-bounding a seeded session unseals its cells: the frontier under the
// new bounds must still be a correct α-approximation (checked against a
// from-scratch run at those bounds), and the diverged run must not
// export anything for publication.
TEST(FragmentSeedingTest, DivergedSeededRunStaysCorrectAndNeverPublishes) {
  const Catalog catalog = MakeTpchCatalog();
  const OperatorOptions op_options = TinyOperatorOptions(/*sampling=*/true);
  const IamaOptions iama = SmallIama();
  const MetricSchema schema = MetricSchema::Standard3();
  const Query query = CoreQuery();
  FragmentStore store({/*capacity_bytes=*/4 << 20});
  WarmStore(&store, query, catalog, op_options, iama);

  PlanFactory factory(query, catalog, schema, CostModelParams{}, op_options);
  // Pick non-trivial new bounds from a probe run's final frontier.
  IamaSession probe(factory, iama);
  FrontierSnapshot probe_final;
  for (int i = 0; i < iama.schedule.NumLevels(); ++i) {
    probe_final = probe.Step();
    probe.ApplyAction(UserAction::Continue());
  }
  ASSERT_FALSE(probe_final.plans.empty());
  CostVector new_bounds(schema.dims());
  for (const CellIndex::Entry& e : probe_final.plans) {
    new_bounds = new_bounds.Max(e.cost);
  }
  new_bounds = new_bounds.Scaled(0.75);  // Tighter than the full frontier.

  FragmentStoreProvider provider(&store, query, schema, iama,
                                 op_options.enable_interesting_orders, 2);
  IamaOptions seeded_iama = iama;
  seeded_iama.optimizer.fragment_store = &provider;
  seeded_iama.optimizer.fragment_publish = true;
  IamaSession session(factory, seeded_iama);
  session.Step();
  session.ApplyAction(UserAction::Continue());
  session.Step();
  ASSERT_TRUE(session.SetBounds(new_bounds));
  FrontierSnapshot diverged;
  for (int i = 0; i < iama.schedule.NumLevels(); ++i) {
    diverged = session.Step();
    session.ApplyAction(UserAction::Continue());
  }
  ASSERT_EQ(diverged.resolution, iama.schedule.MaxResolution());

  // Reference: a cold run bounded at new_bounds from the start.
  IamaOptions ref_iama = iama;
  ref_iama.initial_bounds = new_bounds;
  IamaSession reference(factory, ref_iama);
  FrontierSnapshot ref_final;
  for (int i = 0; i < iama.schedule.NumLevels(); ++i) {
    ref_final = reference.Step();
    reference.ApplyAction(UserAction::Continue());
  }
  const CoverageReport coverage = CheckCoverage(
      CostsOf(diverged.plans), CostsOf(ref_final.plans),
      iama.schedule.Alpha(iama.schedule.MaxResolution()), new_bounds);
  EXPECT_TRUE(coverage.covered)
      << coverage.violations << " of " << coverage.required
      << " uncovered, worst factor " << coverage.worst_factor;

  // Diverged runs export nothing.
  EXPECT_TRUE(
      session.optimizer().PublishableFragments().empty());
}

// Seeding is exact only if a seeded cell's index walks its plans in the
// donor's order (FRAGMENT_SHARING.md); FrontierSignature sorts its rows,
// so the bit-identity tests above cannot see the order. For every sealed
// cell of a seeded session and every resolution r, Res^q[∞, 0..r] must
// list the donor's cost bits, order tags and resolutions in the donor's
// order — over chains, stars and cycles of 4-7 tables, with and without
// interesting orders.
TEST(FragmentSeedingTest, SeededCellsKeepTheDonorIndexOrder) {
  const MetricSchema schema = MetricSchema::Standard3();
  const CostVector everything = CostVector::Infinite(schema.dims());
  const IamaOptions iama = SmallIama();
  const Topology topologies[] = {Topology::kChain, Topology::kStar,
                                 Topology::kCycle};
  const auto bits = [](double v) {
    uint64_t out;
    std::memcpy(&out, &v, sizeof(out));
    return out;
  };
  size_t cells_checked = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Catalog catalog;
    Rng rng(seed);
    GeneratorOptions gen;
    gen.num_tables = 4 + static_cast<int>(seed % 4);
    gen.topology = topologies[seed % 3];
    const Query query = RandomQuery(rng, gen, &catalog);
    OperatorOptions op_options = TinyOperatorOptions(/*sampling=*/true);
    op_options.enable_interesting_orders = seed % 2 == 1;
    const PlanFactory factory(query, catalog, schema, CostModelParams{},
                              op_options);
    FragmentStore store({/*capacity_bytes=*/16 << 20});
    FragmentStoreProvider provider(&store, query, schema, iama,
                                   op_options.enable_interesting_orders, 2);

    IamaOptions donor_iama = iama;
    donor_iama.optimizer.fragment_publish = true;
    IamaSession donor(factory, donor_iama);
    RunTrajectory(&donor, iama.schedule.NumLevels());
    provider.PublishAll(
        donor.optimizer().PublishableFragments());

    IamaOptions seeded_iama = iama;
    seeded_iama.optimizer.fragment_store = &provider;
    const IamaSession seeded(factory, seeded_iama);
    const IncrementalOptimizer& warm = seeded.optimizer();
    ASSERT_GT(warm.counters().fragment_cells_seeded, 0u) << "seed " << seed;
    const uint32_t full = TableSet::Full(gen.num_tables).mask();
    for (uint32_t mask = 1; mask <= full; ++mask) {
      const TableSet q(mask);
      if (!warm.IsSealed(q)) continue;
      ++cells_checked;
      for (int r = 0; r <= iama.schedule.MaxResolution(); ++r) {
        const std::vector<CellIndex::Entry> want =
            donor.optimizer().ResultPlansFor(q, everything, r);
        const std::vector<CellIndex::Entry> got =
            warm.ResultPlansFor(q, everything, r);
        ASSERT_EQ(got.size(), want.size())
            << "seed " << seed << " cell " << mask << " r " << r;
        for (size_t i = 0; i < got.size(); ++i) {
          for (int d = 0; d < schema.dims(); ++d) {
            ASSERT_EQ(bits(got[i].cost[d]), bits(want[i].cost[d]))
                << "seed " << seed << " cell " << mask << " r " << r
                << " entry " << i;
          }
          ASSERT_EQ(got[i].order, want[i].order);
          ASSERT_EQ(got[i].resolution, want[i].resolution);
        }
      }
    }
  }
  EXPECT_GE(cells_checked, 200u);
}

// --- Service-level tests -----------------------------------------------------

ServiceOptions FragmentServiceOptions(int shards, size_t fragment_bytes) {
  ServiceOptions options;
  options.num_threads = 2;
  options.num_shards = shards;
  options.operator_options = TinyOperatorOptions(/*sampling=*/true);
  // Isolate the fragment path: no whole-query cache, no coalescing.
  options.frontier_cache_capacity = 0;
  options.coalesce_in_flight = false;
  options.fragment_cache_bytes = fragment_bytes;
  return options;
}

SubmitRequest FragmentRequest(const Query& query) {
  SubmitRequest request;
  request.query = query;
  request.iama.schedule = ResolutionSchedule(4, 1.02, 0.3);
  return request;
}

// The acceptance bar: with fragment sharing on, every frontier equals
// the cold sequential run bit for bit — for shard counts {1, 2, 4},
// replaying an overlapping workload twice so the second pass is fully
// warm (also exercised under TSan in CI).
TEST(OptimizerServiceFragmentTest, WarmFrontiersBitIdenticalAcrossShards) {
  const Catalog catalog = MakeTpchCatalog();
  std::vector<Query> workload = {CoreQuery(), VariantQuery(0),
                                 VariantQuery(1), VariantQuery(2),
                                 RenumberedQuery()};
  const int iterations =
      FragmentRequest(workload.front()).iama.schedule.NumLevels();

  for (const int shards : {1, 2, 4}) {
    ServiceOptions service_opts =
        FragmentServiceOptions(shards, /*fragment_bytes=*/16 << 20);
    OptimizerService service(catalog, service_opts);
    for (int pass = 0; pass < 2; ++pass) {
      for (const Query& query : workload) {
        const SubmitRequest submit = FragmentRequest(query);
        const QueryId id = service.Submit(submit).value().id;
        const QueryResult result = service.Wait(id);
        ASSERT_EQ(result.state, QueryState::kDone) << query.name;
        EXPECT_EQ(result.iterations, iterations);
        const FrontierSnapshot reference = SequentialFinalSnapshot(
            query, catalog, service_opts, submit.iama, iterations);
        ASSERT_EQ(FrontierSignature(result.frontier.plans),
                  FrontierSignature(reference.plans))
            << query.name << " shards " << shards << " pass " << pass;
      }
    }
    const ServiceStats stats = service.stats();
    EXPECT_GT(stats.fragment_publishes, 0u);
    EXPECT_GT(stats.fragment_hits, 0u);
  }
}

// The coalescing-style work assertion: a warm store must cut the
// enumeration counters. A repeat of the core query re-derives its
// frontier without generating a single sub-plan pair; an overlapping
// variant does strictly less work than on a fragment-less service.
TEST(OptimizerServiceFragmentTest, WarmStoreCutsOptimizerWork) {
  const Catalog catalog = MakeTpchCatalog();

  // Cold counters from a service without a fragment store.
  ServiceOptions cold_opts = FragmentServiceOptions(1, /*fragment_bytes=*/0);
  OptimizerService cold_service(catalog, cold_opts);
  const QueryResult cold_variant = cold_service.Wait(
      cold_service.Submit(FragmentRequest(VariantQuery(0))).value().id);
  ASSERT_EQ(cold_variant.state, QueryState::kDone);
  ASSERT_GT(cold_variant.pairs_generated, 0u);

  ServiceOptions warm_opts =
      FragmentServiceOptions(1, /*fragment_bytes=*/16 << 20);
  OptimizerService service(catalog, warm_opts);
  const QueryResult first =
      service.Wait(service.Submit(FragmentRequest(CoreQuery())).value().id);
  ASSERT_EQ(first.state, QueryState::kDone);
  EXPECT_GT(first.pairs_generated, 0u);

  // Identical query again (whole-query cache is off): fully seeded.
  const QueryResult repeat =
      service.Wait(service.Submit(FragmentRequest(CoreQuery())).value().id);
  ASSERT_EQ(repeat.state, QueryState::kDone);
  EXPECT_EQ(repeat.pairs_generated, 0u);
  EXPECT_FALSE(repeat.from_cache);
  EXPECT_EQ(repeat.iterations, cold_variant.iterations);

  // Overlapping variant: strictly less work than without the store.
  const QueryResult warm_variant = service.Wait(
      service.Submit(FragmentRequest(VariantQuery(0))).value().id);
  ASSERT_EQ(warm_variant.state, QueryState::kDone);
  EXPECT_LT(warm_variant.pairs_generated, cold_variant.pairs_generated);
  EXPECT_GT(warm_variant.pairs_generated, 0u);

  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.fragment_hits, 0u);
  EXPECT_GT(stats.fragment_publishes, 0u);
}

// Eviction under a tiny byte budget must never affect results — only the
// hit rate.
TEST(OptimizerServiceFragmentTest, TinyBudgetEvictsButStaysCorrect) {
  const Catalog catalog = MakeTpchCatalog();
  ServiceOptions service_opts =
      FragmentServiceOptions(2, /*fragment_bytes=*/4096);
  OptimizerService service(catalog, service_opts);
  std::vector<Query> workload = {CoreQuery(), VariantQuery(0),
                                 VariantQuery(1), CoreQuery()};
  for (const Query& query : workload) {
    const SubmitRequest submit = FragmentRequest(query);
    const int iterations = submit.iama.schedule.NumLevels();
    const QueryResult result = service.Wait(service.Submit(submit).value().id);
    ASSERT_EQ(result.state, QueryState::kDone);
    const FrontierSnapshot reference = SequentialFinalSnapshot(
        query, catalog, service_opts, submit.iama, iterations);
    ASSERT_EQ(FrontierSignature(result.frontier.plans),
              FrontierSignature(reference.plans))
        << query.name;
  }
  EXPECT_GT(service.stats().fragment_evictions, 0u);
}

// The service-level refresh protocol, fragment side, for shard counts
// {1, 2, 4}: after RefreshCatalog, a resubmitted identical query must
// miss every pre-refresh fragment (catalog fingerprint in the key) and
// pay the full enumeration price on the NEW statistics — matching a cold
// run on the new catalog bit for bit — and then re-warm the store under
// the new fingerprint. Runs admitted before the refresh publish nothing.
TEST(OptimizerServiceFragmentTest, RefreshCatalogInvalidatesFragments) {
  const SubmitRequest submit = FragmentRequest(CoreQuery());
  const int iterations = submit.iama.schedule.NumLevels();
  for (const int shards : {1, 2, 4}) {
    Catalog catalog = MakeTpchCatalog();
    ServiceOptions service_opts =
        FragmentServiceOptions(shards, /*fragment_bytes=*/16 << 20);
    OptimizerService service(catalog, service_opts);

    const QueryResult cold = service.Wait(service.Submit(submit).value().id);
    ASSERT_EQ(cold.state, QueryState::kDone);
    ASSERT_GT(cold.pairs_generated, 0u);
    // Publishing happens on the shard thread after the result is
    // already waitable; with idle shards around, an immediate
    // resubmission could be stolen and step before the store is warm.
    // The zero-pairs assertion needs the publish to have landed.
    while (service.stats().fragment_publishes == 0) {
      std::this_thread::yield();
    }
    // Store warm: an identical resubmission is fully seeded.
    const QueryResult warm = service.Wait(service.Submit(submit).value().id);
    ASSERT_EQ(warm.state, QueryState::kDone);
    ASSERT_EQ(warm.pairs_generated, 0u);

    // Statistics drift on a core-chain table, then refresh.
    ASSERT_TRUE(
        catalog
            .UpdateStats(TpchTable::kOrders,
                         catalog.Get(TpchTable::kOrders).cardinality * 16.0)
            .ok());
    const uint64_t v1 = service.RefreshCatalog();
    EXPECT_EQ(service.catalog_version(), v1);

    // Full price again: every pre-refresh fragment names other statistics.
    const uint64_t publishes_before_recold =
        service.stats().fragment_publishes;
    const QueryResult recold =
        service.Wait(service.Submit(submit).value().id);
    ASSERT_EQ(recold.state, QueryState::kDone);
    EXPECT_EQ(recold.catalog_version, v1);
    EXPECT_GT(recold.pairs_generated, 0u) << "shards " << shards;
    const FrontierSnapshot new_reference = SequentialFinalSnapshot(
        CoreQuery(), catalog, service_opts, submit.iama, iterations);
    ASSERT_EQ(FrontierSignature(recold.frontier.plans),
              FrontierSignature(new_reference.plans))
        << "shards " << shards;
    // Same publish barrier before asserting the re-warmed zero-pairs.
    while (service.stats().fragment_publishes == publishes_before_recold) {
      std::this_thread::yield();
    }

    // The store re-warms under the new fingerprint.
    const QueryResult rewarm =
        service.Wait(service.Submit(submit).value().id);
    ASSERT_EQ(rewarm.state, QueryState::kDone);
    EXPECT_EQ(rewarm.pairs_generated, 0u) << "shards " << shards;
    ASSERT_EQ(FrontierSignature(rewarm.frontier.plans),
              FrontierSignature(new_reference.plans));
  }
}

// A run admitted before the refresh must not publish its (dead-
// statistics) fragments — even though it completes in state kDone after
// the refresh. The single-shard service is parked on a blocker so the
// donor is provably in flight when RefreshCatalog lands.
TEST(OptimizerServiceFragmentTest, StaleRunsDoNotPublishFragments) {
  Catalog catalog = MakeTpchCatalog();
  ServiceOptions service_opts =
      FragmentServiceOptions(1, /*fragment_bytes=*/16 << 20);
  OptimizerService service(catalog, service_opts);

  // Blocker: parks the shard inside its first observer call.
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false, released = false, blocked_once = false;
  SubmitRequest blocker_submit = FragmentRequest(VariantQuery(3));
  blocker_submit.max_iterations = 1000000;
  blocker_submit.observer = [&](QueryId, const FrontierSnapshot&) {
    std::unique_lock<std::mutex> lock(mu);
    if (blocked_once) return;
    blocked_once = entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return released; });
  };
  const QueryId blocker =
      service.Submit(std::move(blocker_submit)).value().id;
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }

  // Admitted pre-refresh; completes post-refresh as a stale run.
  const QueryId stale =
      service.Submit(FragmentRequest(CoreQuery())).value().id;
  ASSERT_TRUE(
      catalog
          .UpdateStats(TpchTable::kOrders,
                       catalog.Get(TpchTable::kOrders).cardinality * 16.0)
          .ok());
  service.RefreshCatalog();
  {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
    cv.notify_all();
  }
  ASSERT_TRUE(service.Cancel(blocker));
  service.Wait(blocker);
  const QueryResult rs = service.Wait(stale);
  ASSERT_EQ(rs.state, QueryState::kDone);
  EXPECT_EQ(service.stats().fragment_publishes, 0u);
}

// Submit owns no fragment knobs: injecting a provider or enabling
// publishing per-query must be rejected like pool/thread injection.
TEST(OptimizerServiceFragmentTest, SubmitRejectsFragmentKnobs) {
  const Catalog catalog = MakeTpchCatalog();
  ServiceOptions service_opts = FragmentServiceOptions(1, 1 << 20);
  OptimizerService service(catalog, service_opts);
  FragmentStore store({1 << 20});
  FragmentStoreProvider provider(&store, CoreQuery(),
                                 MetricSchema::Standard3(), SmallIama(),
                                 false, 2);
  SubmitRequest bad = FragmentRequest(CoreQuery());
  bad.iama.optimizer.fragment_store = &provider;
  EXPECT_EQ(service.Submit(std::move(bad)).status().code(),
            StatusCode::kInvalidArgument);
  SubmitRequest bad2 = FragmentRequest(CoreQuery());
  bad2.iama.optimizer.fragment_publish = true;
  EXPECT_EQ(service.Submit(std::move(bad2)).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace moqo
