// The system under test and the load that drives it: an in-process
// optimizerd (OptimizerService behind net::OptimizerServer on loopback)
// and kClients closed-loop net::OptimizerClient sessions.
#ifndef MOQO_BENCH_E2E_LOAD_H_
#define MOQO_BENCH_E2E_LOAD_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "net/server.h"
#include "net/wire.h"
#include "service/optimizer_service.h"
#include "trace.h"
#include "workload.h"

namespace moqo {
namespace e2e {

// optimizerd, booted in process.
class Server {
 public:
  // Boots the service and starts listening on an ephemeral loopback
  // port; exits the process if the listener cannot start.
  Server(const Workload& workload, const std::string& store_path);

  uint16_t port() const { return server_.port(); }
  OptimizerService& service() { return service_; }

 private:
  OptimizerService service_;
  net::OptimizerServer server_;  // Declared last: stops before the service.
};

// What one client saw of one submission.
struct QuerySample {
  int client = 0;
  size_t index = 0;  // Position in the client's list.
  bool ok = false;   // Admitted, RESULT received, state kDone.
  bool from_cache = false;
  double submit_ms = 0.0;  // Submit call until SUBMIT_OK.
  double ttff_ms = -1.0;   // Submit call until the first SNAPSHOT frame.
  double final_ms = 0.0;   // Submit call until RESULT.
  // Between consecutive SNAPSHOT frames of distinct iterations (the
  // final event repeats the last step's frontier and is not a gap).
  std::vector<double> gaps_ms;
  uint64_t snapshots = 0;
  uint64_t dropped = 0;  // Snapshot events lost to drop-oldest.
  uint64_t digest = 0;   // FrontierDigest of the RESULT frontier.
};

// Decoded payloads kept by a traced run for timing the wire codec.
struct NetCapture {
  std::vector<QueryResult> results;
  std::vector<net::SnapshotMsg> snapshots;
};

struct LoadOptions {
  // Items are issued only while the window is open; the one in flight
  // when it closes still completes.
  double seconds = std::numeric_limits<double>::infinity();
  Tracer* tracer = nullptr;     // Traced run: net spans.
  NetCapture* capture = nullptr;  // Traced run: payload capture.
};

struct LoadResult {
  std::vector<QuerySample> samples;  // Every attempted submission.
  double wall_s = 0.0;               // Window open until the last RESULT.
  double steal_share = 0.0;          // Over the same span.
  uint64_t attempted = 0;
  uint64_t failed = 0;  // Rejected, transport error, or not kDone.
};

// Drives `lists[c]` on client c, closed loop: each client sends its next
// query only when the previous RESULT arrived.
LoadResult RunClosedLoop(uint16_t port, const Workload& workload,
                         const std::vector<std::vector<Item>>& lists,
                         const LoadOptions& options);

// Waits until completed runs' fragment publishes have landed (they run
// on the shard thread after the RESULT went out), then drains the cold
// tier's write-behind queue.
void SettlePublishes(OptimizerService& service);

}  // namespace e2e
}  // namespace moqo

#endif  // MOQO_BENCH_E2E_LOAD_H_
