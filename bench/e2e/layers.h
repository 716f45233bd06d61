// Per-layer measurement of the traced run. The traced e2e phase's
// completed submissions are replayed below the wire — through an
// in-process OptimizerService (service layer) and then serially through
// PlanFactory / IamaSession::Step with a timing FragmentProvider over a
// server-configured FragmentStore (store, core, plan, pareto and index
// layers) — and the captured wire payloads are re-encoded and decoded
// (net layer). Spans share request ids with the net spans.
#ifndef MOQO_BENCH_E2E_LAYERS_H_
#define MOQO_BENCH_E2E_LAYERS_H_

#include <string>
#include <vector>

#include "common.h"
#include "load.h"
#include "trace.h"
#include "workload.h"

namespace moqo {
namespace e2e {

struct LayerReport {
  std::vector<Metric> metrics;
  double service_final_p50_ms = 0.0;  // For net.overhead_ms_p50.
};

// Replays `lists` (per client, the items the traced e2e phase completed)
// through the service, core and pool layers; each replay phase stops
// issuing new queries after `budget_s`. Store logs go under `store_dir`.
LayerReport ReplayLayers(const Workload& workload,
                         const std::vector<std::vector<Item>>& lists,
                         double budget_s, const std::string& store_dir,
                         Tracer* tracer);

// Wire-codec costs on the captured payloads: encode/decode of RESULT,
// encode of SNAPSHOT, and the RESULT size.
std::vector<Metric> CodecMetrics(const NetCapture& capture);

}  // namespace e2e
}  // namespace moqo

#endif  // MOQO_BENCH_E2E_LAYERS_H_
