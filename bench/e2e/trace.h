// In-memory span recorder of the traced run. Spans are recorded from the
// benchmark's own files around calls into each layer's public API —
// nothing inside src/ is instrumented — and written out once, at exit.
#ifndef MOQO_BENCH_E2E_TRACE_H_
#define MOQO_BENCH_E2E_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace moqo {
namespace e2e {

// Spans of one submission share its request id across layers.
inline int64_t RequestId(int client, size_t index) {
  return static_cast<int64_t>(client) * 1000000 + static_cast<int64_t>(index);
}

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root.
  const char* layer = "";
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  int64_t request = -1;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  // Spans kept per layer; later ones are only counted in dropped(). The
  // cap bounds the trace file and keeps every layer in it.
  static constexpr size_t kMaxSpansPerLayer = 40000;

  // Reserves a span id, for parents recorded after their children.
  uint64_t NewId() { return next_id_.fetch_add(1) + 1; }
  // Records a finished span (id 0 = assign a fresh one); returns its id.
  uint64_t Add(Span span);
  size_t size() const;
  uint64_t dropped() const;
  // `[{"id":..,"parent":..,"layer":..,"name":..,"start_us":..,
  // "end_us":..,"request":..}, ...]`, times relative to the origin.
  std::string SpansJson() const;

 private:
  const Clock::time_point origin_;
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::string, size_t> per_layer_;
  uint64_t dropped_ = 0;
};

}  // namespace e2e
}  // namespace moqo

#endif  // MOQO_BENCH_E2E_TRACE_H_
