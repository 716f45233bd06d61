// moqo_bench workloads: four traffic mixes, each a fixed, seeded list of
// queries per closed-loop client, plus the optimizerd configuration the
// server under test runs with.
#ifndef MOQO_BENCH_E2E_WORKLOAD_H_
#define MOQO_BENCH_E2E_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "query/query.h"
#include "service/optimizer_service.h"

namespace moqo {
namespace e2e {

// Closed-loop clients, each on its own thread and connection.
inline constexpr int kClients = 4;

enum class Mix {
  kCold,     // Fresh 10-table chains only.
  kRepeat,   // Zipf repeats over 5-table templates plus fresh 5-table ones.
  kHeadOfLine,  // Fresh 3-6-table chains plus a share of 10-table chains.
};

struct WorkloadSpec {
  const char* name;
  Mix mix;
  // Fragment-store hot-tier budget.
  size_t hot_bytes;
  // Persistent cold tier (an append-only log under the results dir).
  bool cold_tier;
  // kRepeat: templates, each run once during set-up.
  int templates;
  // kRepeat: zipf exponent of template popularity.
  double zipf_s;
  // kRepeat: share of fresh 5-table queries. kHeadOfLine: share of
  // 10-table queries.
  double share;
  // Upper bound on one client's query rate, used only to size the
  // seeded stream so a run never exhausts it.
  double max_client_qps;
};

// The four workloads, in run order. Unknown names return nullptr.
const std::vector<WorkloadSpec>& AllWorkloads();
const WorkloadSpec* FindWorkload(const std::string& name);

// One submission of a client's stream: a template repeat or a fresh query.
struct Item {
  int template_id = -1;  // >= 0: index into Workload::templates.
  int fresh_id = -1;     // >= 0: index into Workload::fresh.
};

// A workload's inputs: catalog, templates and per-client streams, all
// derived from the seed, and a warm-up batch that is the same for every
// seed (it is part of set-up, whose time must not depend on the seed).
struct Workload {
  const WorkloadSpec* spec = nullptr;
  Catalog catalog;
  std::vector<Query> templates;
  std::vector<Query> fresh;
  std::vector<std::vector<Item>> warmup;   // One list per client.
  std::vector<std::vector<Item>> streams;  // One per client.

  const Query& QueryOf(const Item& item) const {
    return item.template_id >= 0
               ? templates[static_cast<size_t>(item.template_id)]
               : fresh[static_cast<size_t>(item.fresh_id)];
  }
};

// Builds the workload for a run of `seconds`. `template_scale` (0, 1]
// shrinks the template count (the --smoke mode).
Workload BuildWorkload(const WorkloadSpec& spec, uint64_t seed,
                       double seconds, double template_scale);

// Every template once, split across the clients (the store pre-warm).
std::vector<std::vector<Item>> TemplateLists(const Workload& workload);

// optimizerd's defaults (examples/optimizerd.cpp) with the service
// bench's operator options; `store_path` enables the cold tier.
ServiceOptions OptimizerdOptions(const WorkloadSpec& spec,
                                 const std::string& store_path);

}  // namespace e2e
}  // namespace moqo

#endif  // MOQO_BENCH_E2E_WORKLOAD_H_
