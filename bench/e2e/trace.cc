#include "trace.h"

#include "util/str.h"

namespace moqo {
namespace e2e {

uint64_t Tracer::Add(Span span) {
  if (span.id == 0) span.id = NewId();
  std::lock_guard<std::mutex> lock(mu_);
  size_t& kept = per_layer_[span.layer];
  if (kept < kMaxSpansPerLayer) {
    ++kept;
    spans_.push_back(span);
  } else {
    ++dropped_;
  }
  return span.id;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::string Tracer::SpansJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "[";
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += StrFormat(
        "%s\n  {\"id\": %llu, \"parent\": %llu, \"layer\": \"%s\", "
        "\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
        "\"request\": %lld}",
        i == 0 ? "" : ",", static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent), s.layer, s.name,
        us(s.start), us(s.end), static_cast<long long>(s.request));
  }
  return out + "\n]";
}

}  // namespace e2e
}  // namespace moqo
