#include "load.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "net/client.h"

namespace moqo {
namespace e2e {
namespace {

constexpr size_t kMaxCaptured = 4096;

// Runs one client's list; appends its samples to `out`.
void ClientLoop(net::OptimizerClient* client, int c, const Workload& workload,
                const std::vector<Item>& list, Clock::time_point window_end,
                const LoadOptions& options,
                std::vector<QuerySample>* out, NetCapture* capture,
                Clock::time_point* last_result) {
  Tracer* tracer = options.tracer;
  for (size_t i = 0; i < list.size() && Clock::now() < window_end; ++i) {
    QuerySample s;
    s.client = c;
    s.index = i;
    const int64_t request = RequestId(c, i);
    const uint64_t query_span = tracer != nullptr ? tracer->NewId() : 0;
    SubmitRequest req;
    req.query = workload.QueryOf(list[i]);
    req.subscribe = true;
    const Clock::time_point t0 = Clock::now();
    StatusOr<SubmitResponse> submitted = client->Submit(req);
    Clock::time_point t = Clock::now();
    s.submit_ms = MsBetween(t0, t);
    if (tracer != nullptr) {
      tracer->Add({0, query_span, "net", "submit", t0, t, request});
    }
    if (!submitted.ok()) {
      out->push_back(s);
      // Admission rejections keep the connection; transport errors do not.
      const StatusCode code = submitted.status().code();
      if (code == StatusCode::kInternal ||
          code == StatusCode::kFailedPrecondition) {
        break;
      }
      continue;
    }
    const QueryId id = submitted.value().id;
    bool transport_ok = true;
    int last_iteration = -1;
    Clock::time_point last_frame = t0;
    for (;;) {
      const Clock::time_point w0 = Clock::now();
      StatusOr<bool> more = client->WaitSnapshot(id);
      t = Clock::now();
      if (tracer != nullptr) {
        tracer->Add({0, query_span, "net", "wait_snapshot", w0, t, request});
      }
      if (!more.ok()) {
        transport_ok = false;
        break;
      }
      if (!more.value()) break;  // RESULT arrived; no more frames.
      for (net::SnapshotMsg& msg : client->TakeSnapshots(id)) {
        ++s.snapshots;
        s.dropped += msg.dropped;
        if (s.ttff_ms < 0.0) {
          s.ttff_ms = MsBetween(t0, t);
        } else if (msg.frontier.iteration != last_iteration) {
          s.gaps_ms.push_back(MsBetween(last_frame, t));
        }
        if (msg.frontier.iteration != last_iteration) {
          last_iteration = msg.frontier.iteration;
          last_frame = t;
        }
        if (capture != nullptr && capture->snapshots.size() < kMaxCaptured) {
          capture->snapshots.push_back(std::move(msg));
        }
      }
    }
    if (!transport_ok) {
      out->push_back(s);
      break;
    }
    const Clock::time_point w0 = Clock::now();
    StatusOr<QueryResult> result = client->Wait(id);
    t = Clock::now();
    s.final_ms = MsBetween(t0, t);
    if (tracer != nullptr) {
      tracer->Add({0, query_span, "net", "wait", w0, t, request});
      tracer->Add({query_span, 0, "net", "query", t0, t, request});
    }
    if (!result.ok()) {
      out->push_back(s);
      break;
    }
    *last_result = t;
    const QueryResult& r = result.value();
    s.ok = r.state == QueryState::kDone && s.ttff_ms >= 0.0;
    s.from_cache = r.from_cache;
    s.digest = FrontierDigest(r.frontier);
    if (capture != nullptr && capture->results.size() < kMaxCaptured) {
      capture->results.push_back(r);
    }
    out->push_back(std::move(s));
  }
}

}  // namespace

Server::Server(const Workload& workload, const std::string& store_path)
    : service_(workload.catalog,
               OptimizerdOptions(*workload.spec, store_path)),
      server_(&service_, net::ServerOptions{}) {
  const Status started = server_.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "moqo_bench: server: %s\n",
                 started.ToString().c_str());
    std::exit(1);
  }
}

LoadResult RunClosedLoop(uint16_t port, const Workload& workload,
                         const std::vector<std::vector<Item>>& lists,
                         const LoadOptions& options) {
  const size_t clients = lists.size();
  std::vector<net::OptimizerClient> conns(clients);
  for (net::OptimizerClient& conn : conns) {
    const Status st = conn.Connect("127.0.0.1", port);
    if (!st.ok()) {
      std::fprintf(stderr, "moqo_bench: connect: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  }
  std::vector<std::vector<QuerySample>> per_client(clients);
  std::vector<NetCapture> captures(clients);
  std::vector<Clock::time_point> last_result(clients);
  const CpuTimes cpu_start = ReadCpuTimes();
  const Clock::time_point start = Clock::now();
  const Clock::time_point window_end =
      std::isinf(options.seconds)
          ? Clock::time_point::max()
          : start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(options.seconds));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    last_result[c] = start;
    threads.emplace_back([&, c] {
      ClientLoop(&conns[c], static_cast<int>(c), workload, lists[c],
                 window_end, options, &per_client[c],
                 options.capture != nullptr ? &captures[c] : nullptr,
                 &last_result[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  const CpuTimes cpu_end = ReadCpuTimes();

  for (size_t c = 0; c < clients; ++c) {
    if (!std::isinf(options.seconds) &&
        per_client[c].size() == lists[c].size()) {
      std::fprintf(stderr,
                   "moqo_bench: client %zu ran out of its list before the "
                   "window closed; the stream is sized too small\n",
                   c);
    }
  }
  LoadResult result;
  result.wall_s =
      MsBetween(start,
                *std::max_element(last_result.begin(), last_result.end())) /
      1000.0;
  result.steal_share = StealShare(cpu_start, cpu_end);
  for (size_t c = 0; c < clients; ++c) {
    for (QuerySample& s : per_client[c]) {
      ++result.attempted;
      if (!s.ok) ++result.failed;
      result.samples.push_back(std::move(s));
    }
    if (options.capture != nullptr) {
      for (QueryResult& r : captures[c].results) {
        options.capture->results.push_back(std::move(r));
      }
      for (net::SnapshotMsg& m : captures[c].snapshots) {
        options.capture->snapshots.push_back(std::move(m));
      }
    }
  }
  return result;
}

void SettlePublishes(OptimizerService& service) {
  // Publishes land on the shard thread shortly after the RESULT went
  // out; a sustained quiet window (10 polls, ~20 ms) rules out a
  // straggler.
  uint64_t last = service.stats().fragment_publishes;
  for (int quiet = 0; quiet < 10;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const uint64_t now = service.stats().fragment_publishes;
    quiet = now == last ? quiet + 1 : 0;
    last = now;
  }
  if (service.fragment_store() != nullptr) service.fragment_store()->Flush();
}

}  // namespace e2e
}  // namespace moqo
