// optimizerd — the anytime multi-objective optimizer as a network
// service: an OptimizerService behind the TCP wire protocol
// (docs/NETWORK_API.md), with per-tenant quotas, load shedding, and
// graceful drain for rolling restarts.
//
// Usage:
//   ./build/optimizerd [--port P] [--host H] [--threads N] [--shards N]
//                      [--max-inflight N] [--max-iterations N]
//                      [--shed-hint-ms D]
//                      [--quota TENANT=MAX[:WEIGHT]] [--default-quota MAX[:WEIGHT]]
//                      [--max-connections N] [--fragment-cache-mb M]
//                      [--store-path FILE] [--store-budget-mb M]
//                      [--fsync MODE]
//
//   --port P           TCP port; 0 (default) picks an ephemeral port
//   --host H           bind address (default 127.0.0.1)
//   --threads N        worker budget across shards (default 4)
//   --shards N         scheduler shards (default 2)
//   --max-inflight N   run-count bound; beyond it submits are load-shed
//                      with kShedding + retry-after (default 64; 0 = off)
//   --max-iterations N per-submission step ceiling; larger requests are
//                      rejected with kInvalidArgument so one client
//                      cannot park a near-infinite run in an in-flight
//                      slot (default 100000; 0 = off)
//   --shed-hint-ms D   retry-after hint per queued run (default 25)
//   --quota T=M[:W]    per-tenant in-flight quota and fair-share weight;
//                      repeatable (e.g. --quota gold=32:4 --quota free=2)
//   --default-quota M[:W]  quota for tenants without an explicit entry
//   --max-connections N    refuse connections beyond N (default 0 = off)
//   --fragment-cache-mb M  cross-query fragment store budget (default 16)
//   --store-path FILE  persist the fragment store's cold tier to FILE
//                      (append-only log; replayed at boot, so a restart
//                      with the same path warm-starts bit-identically).
//                      Prints one "optimizerd: fragment store ..." replay
//                      report line before "listening" (scripts parse it)
//   --store-budget-mb M  cold-tier *live*-byte budget: once the log's
//                      live bytes exceed it, the oldest fragments are
//                      dropped (demotion-to-drop) so a long-running
//                      daemon's disk footprint stays bounded (0 = off)
//   --fsync MODE       fragment-log durability: none (default; written
//                      bytes survive process death regardless), interval
//                      (fdatasync on a periodic tick of the write-behind
//                      thread), always (fdatasync every append)
//
// A numeric flag must be a whole number in its range (threads and shards
// >= 1, port <= 65535, the others >= 0; --shed-hint-ms may be
// fractional). Like an unknown flag, a bad value exits 2 naming the flag.

// Prints exactly one line "optimizerd: listening on HOST:PORT" once
// serving (scripts parse it; see tests/optimizerd_smoke.sh), then blocks.
// SIGINT/SIGTERM trigger a graceful drain: admission closes (new submits
// get kDraining), in-flight runs finish and deliver results to their
// clients, then the process exits 0 with a stats summary.
#include <signal.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>

#include "catalog/tpch.h"
#include "net/server.h"
#include "service/optimizer_service.h"
#include "util/str.h"

using namespace moqo;

namespace {

constexpr long long kIntMax = std::numeric_limits<int>::max();
constexpr long long kSizeMax = static_cast<long long>(
    std::min<unsigned long long>(std::numeric_limits<size_t>::max(),
                                 std::numeric_limits<long long>::max()));

// The value `text` of numeric flag `flag`: all of it must parse (strtod
// for a double flag, strtoll otherwise) to a number in [lo, hi].
// Anything else exits 2 naming the flag, as an unknown flag does.
template <typename T>
T NumericFlag(const std::string& flag, const std::string& text, T lo, T hi) {
  static_assert(std::is_same_v<T, long long> || std::is_same_v<T, double>);
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  T value;
  std::string range;
  if constexpr (std::is_same_v<T, double>) {
    value = std::strtod(begin, &end);
    range = StrFormat("a number in [%g, %g]", lo, hi);
  } else {
    value = std::strtoll(begin, &end, 10);
    range = StrFormat("an integer in [%lld, %lld]", lo, hi);
  }
  if (end == begin || *end != '\0' || errno == ERANGE || !(value >= lo) ||
      !(value <= hi)) {
    std::fprintf(stderr, "%s wants %s, got '%s'\n", flag.c_str(),
                 range.c_str(), begin);
    std::exit(2);
  }
  return value;
}

// Parses flag `flag`'s value "MAX" or "MAX:WEIGHT" into a TenantQuota.
TenantQuota ParseQuota(const std::string& flag, const std::string& spec) {
  const size_t colon = spec.find(':');
  TenantQuota q;
  q.max_inflight =
      static_cast<int>(NumericFlag(flag, spec.substr(0, colon), 0LL, kIntMax));
  if (colon != std::string::npos) {
    q.weight = static_cast<int>(
        NumericFlag(flag, spec.substr(colon + 1), 0LL, kIntMax));
  }
  return q;
}

}  // namespace

int main(int argc, char** argv) {
  ServiceOptions service_options;
  service_options.num_threads = 4;
  service_options.num_shards = 2;
  service_options.max_inflight_runs = 64;
  service_options.max_iterations_limit = 100000;
  service_options.fragment_cache_bytes = 16u << 20;
  net::ServerOptions server_options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    // The ranges keep every cast below exact (and << 20 from wrapping).
    auto integer = [&](long long lo, long long hi) {
      return NumericFlag(arg, next(), lo, hi);
    };
    if (arg == "--port") {
      server_options.port = static_cast<uint16_t>(integer(0, 65535));
    } else if (arg == "--host") {
      server_options.host = next();
    } else if (arg == "--threads") {
      service_options.num_threads = static_cast<int>(integer(1, kIntMax));
    } else if (arg == "--shards") {
      service_options.num_shards = static_cast<int>(integer(1, kIntMax));
    } else if (arg == "--max-inflight") {
      service_options.max_inflight_runs =
          static_cast<size_t>(integer(0, kSizeMax));
    } else if (arg == "--max-iterations") {
      service_options.max_iterations_limit =
          static_cast<int>(integer(0, kIntMax));
    } else if (arg == "--shed-hint-ms") {
      // At most an hour: the hint is a retry delay, not a ban.
      service_options.shed_retry_hint_ms = NumericFlag(arg, next(), 0.0, 3.6e6);
    } else if (arg == "--quota") {
      const std::string spec = next();
      const size_t eq = spec.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "--quota wants TENANT=MAX[:WEIGHT]\n");
        return 2;
      }
      service_options.tenant_quotas[spec.substr(0, eq)] =
          ParseQuota(arg, spec.substr(eq + 1));
    } else if (arg == "--default-quota") {
      service_options.default_quota = ParseQuota(arg, next());
    } else if (arg == "--max-connections") {
      server_options.max_connections =
          static_cast<size_t>(integer(0, kSizeMax));
    } else if (arg == "--fragment-cache-mb") {
      service_options.fragment_cache_bytes =
          static_cast<size_t>(integer(0, kSizeMax >> 20)) << 20;
    } else if (arg == "--store-path") {
      service_options.fragment_store_path = next();
    } else if (arg == "--store-budget-mb") {
      service_options.fragment_cold_budget_bytes =
          static_cast<size_t>(integer(0, kSizeMax >> 20)) << 20;
    } else if (arg == "--fsync") {
      const std::string mode = next();
      if (mode == "none") {
        service_options.fragment_fsync = FragmentFsyncMode::kNone;
      } else if (mode == "interval") {
        service_options.fragment_fsync = FragmentFsyncMode::kInterval;
      } else if (mode == "always") {
        service_options.fragment_fsync = FragmentFsyncMode::kAlways;
      } else {
        std::fprintf(stderr, "--fsync wants none|interval|always\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  // Block the shutdown signals before any thread spawns, so every
  // service/server thread inherits the mask and sigwait below is the
  // only consumer.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  Catalog catalog = MakeTpchCatalog();
  OptimizerService service(catalog, service_options);
  if (!service_options.fragment_store_path.empty() &&
      service.fragment_store() != nullptr) {
    // Replay report (before "listening": the smoke test asserts a warm
    // boot recovers fragments and sheds at most one torn record).
    const FragmentStoreStats fs = service.fragment_store()->Stats();
    const Status cold = service.fragment_store()->cold_status();
    std::printf(
        "optimizerd: fragment store %s: replayed %llu fragments, "
        "torn bytes %llu, decode errors %llu%s%s\n",
        service_options.fragment_store_path.c_str(),
        static_cast<unsigned long long>(fs.replayed_fragments),
        static_cast<unsigned long long>(fs.replay_torn_bytes),
        static_cast<unsigned long long>(fs.cold_decode_errors),
        cold.ok() ? "" : ", DEGRADED: ", cold.ok() ? "" : cold.ToString().c_str());
    std::fflush(stdout);
  }
  net::OptimizerServer server(&service, server_options);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "optimizerd: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("optimizerd: listening on %s:%u\n", server_options.host.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  int sig = 0;
  sigwait(&sigs, &sig);

  // Graceful drain: close admission first, let in-flight runs finish
  // and stream their results out, then tear the sockets down.
  std::printf("optimizerd: signal %d, draining\n", sig);
  std::fflush(stdout);
  server.BeginDrain();
  service.WaitIdle();
  server.Shutdown();
  if (service.fragment_store() != nullptr) {
    // Push the tail of the write-behind queue to disk before reporting
    // (the store destructor would too; this makes the summary exact).
    service.fragment_store()->Flush();
  }

  const ServiceStats stats = service.stats();
  if (!service_options.fragment_store_path.empty()) {
    // Same DEGRADED suffix as the replay line: a cold tier that failed
    // mid-run (a full disk, say) is visible outside the process.
    const Status cold = service.fragment_store() != nullptr
                            ? service.fragment_store()->cold_status()
                            : Status::OK();
    std::printf(
        "optimizerd: store publishes %llu, cold hits %llu, promotions %llu, "
        "demotions %llu, compactions %llu%s%s\n",
        static_cast<unsigned long long>(stats.fragment_publishes),
        static_cast<unsigned long long>(stats.fragment_cold_hits),
        static_cast<unsigned long long>(stats.fragment_promotions),
        static_cast<unsigned long long>(stats.fragment_demotions),
        static_cast<unsigned long long>(stats.fragment_compactions),
        cold.ok() ? "" : ", DEGRADED: ",
        cold.ok() ? "" : cold.ToString().c_str());
  }
  std::printf(
      "optimizerd: drained. submitted %llu, completed %llu, cancelled %llu, "
      "cache hits %llu, coalesced %llu, quota-rejected %llu, shed %llu, "
      "drain-rejected %llu, snapshot drops %llu\n",
      static_cast<unsigned long long>(stats.submitted),
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.cancelled),
      static_cast<unsigned long long>(stats.cache_hits),
      static_cast<unsigned long long>(stats.coalesced),
      static_cast<unsigned long long>(stats.quota_rejected),
      static_cast<unsigned long long>(stats.shed),
      static_cast<unsigned long long>(stats.drain_rejected),
      static_cast<unsigned long long>(stats.snapshot_drops));
  return 0;
}
