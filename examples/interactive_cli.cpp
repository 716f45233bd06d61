// Interactive MOQO command-line session — the closest thing to the
// paper's Figure 1 interface a terminal offers.
//
// Usage:
//   ./build/interactive_cli [--threads N] [tpch-block-name]   (default: q5)
//
// --threads N runs the optimizer's phase-2 enumeration on N threads (the
// frontier is identical to the single-threaded run, just produced faster
// on multi-core machines).
//
// Commands (read from stdin):
//   step               run one optimizer invocation and refine resolution
//   bound <m> <value>  set an upper bound on metric index m (0-based)
//   unbound <m>        remove the bound on metric m
//   show               re-print the current frontier plot and table
//   plan <row>         print the plan tree of a frontier row
//   select <row>       choose a plan and exit
//   quit               exit without selecting
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "catalog/tpch.h"
#include "core/iama.h"
#include "plan/plan_printer.h"
#include "query/tpch_queries.h"
#include "util/thread_pool.h"
#include "viz/frontier_view.h"

using namespace moqo;

namespace {

std::vector<CellIndex::Entry> SortedByTime(
    std::vector<CellIndex::Entry> plans) {
  std::sort(plans.begin(), plans.end(),
            [](const CellIndex::Entry& a, const CellIndex::Entry& b) {
              return a.cost[0] < b.cost[0];
            });
  return plans;
}

void Show(const IamaSession& session, const MetricSchema& schema) {
  const auto plans = SortedByTime(session.optimizer().ResultPlans(
      session.bounds(), session.resolution()));
  std::printf("%s", RenderScatter(plans, schema, session.bounds()).c_str());
  std::printf("%s", RenderTable(plans, schema, 20).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string block_name = "q5";
  int num_threads = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads") {
      if (i + 1 >= argc || (num_threads = std::atoi(argv[++i])) < 1) {
        std::fprintf(stderr,
                     "usage: interactive_cli [--threads N] [block]\n");
        return 1;
      }
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr,
                   "unknown flag '%s'\n"
                   "usage: interactive_cli [--threads N] [block]\n",
                   arg.c_str());
      return 1;
    } else {
      block_name = arg;
    }
  }
  const Catalog catalog = MakeTpchCatalog();
  Query query;
  bool found = false;
  for (const Query& q : TpchQueryBlocks(catalog)) {
    if (q.name == block_name) {
      query = q;
      found = true;
    }
  }
  if (!found) {
    std::fprintf(stderr, "unknown TPC-H block '%s'\n", block_name.c_str());
    return 1;
  }

  const MetricSchema schema = MetricSchema::Standard3();
  const PlanFactory factory(query, catalog, schema);
  ThreadPool pool(num_threads);
  IamaOptions options;
  options.schedule = ResolutionSchedule(12, 1.01, 0.2);
  options.optimizer.pool = &pool;
  IamaSession session(factory, options);

  std::printf(
      "interactive MOQO on TPC-H %s (%d tables, %d threads); metrics: %s\n",
      query.name.c_str(), query.NumTables(), num_threads,
      schema.ToString().c_str());
  std::printf("commands: step | bound <m> <v> | unbound <m> | show | "
              "plan <row> | select <row> | quit\n\n");

  CostVector bounds = session.bounds();
  FrontierSnapshot snap = session.Step();
  std::printf("[iteration %d, alpha=%.4f]\n", snap.iteration, snap.alpha);
  Show(session, schema);

  std::string line;
  while (std::printf("moqo> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty()) continue;
    if (cmd == "quit") break;
    if (cmd == "step") {
      session.ApplyAction(UserAction::Continue());
      snap = session.Step();
      std::printf("[iteration %d, alpha=%.4f]\n", snap.iteration,
                  snap.alpha);
      Show(session, schema);
    } else if (cmd == "bound" || cmd == "unbound") {
      int metric = -1;
      in >> metric;
      if (metric < 0 || metric >= schema.dims()) {
        std::printf("metric index must be in [0, %d)\n", schema.dims());
        continue;
      }
      double value = std::numeric_limits<double>::infinity();
      if (cmd == "bound" && !(in >> value)) {
        std::printf("usage: bound <metric> <value>\n");
        continue;
      }
      bounds[metric] = value;
      session.ApplyAction(UserAction::SetBounds(bounds));
      snap = session.Step();
      std::printf("[iteration %d, alpha=%.4f, resolution reset]\n",
                  snap.iteration, snap.alpha);
      Show(session, schema);
    } else if (cmd == "show") {
      Show(session, schema);
    } else if (cmd == "plan" || cmd == "select") {
      size_t row = 0;
      if (!(in >> row)) {
        std::printf("usage: %s <row>\n", cmd.c_str());
        continue;
      }
      const auto plans = SortedByTime(session.optimizer().ResultPlans(
          session.bounds(), session.resolution()));
      if (row >= plans.size()) {
        std::printf("row out of range (frontier has %zu plans)\n",
                    plans.size());
        continue;
      }
      std::printf("%s", PlanToTreeString(session.optimizer().arena(),
                                         plans[row].id, query)
                            .c_str());
      if (cmd == "select") {
        std::printf("selected plan %u — optimization finished.\n",
                    plans[row].id);
        return 0;
      }
    } else {
      std::printf("unknown command '%s'\n", cmd.c_str());
    }
  }
  return 0;
}
