// Shared helpers of moqo_bench: clocks, percentiles, frontier digests,
// the JSON result writer and the host block stamped on every output.
#ifndef MOQO_BENCH_E2E_COMMON_H_
#define MOQO_BENCH_E2E_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/iama.h"

namespace moqo {
namespace e2e {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Median and p90 follow util/stats.h's rounded-index Percentile. A p90
// is only trustworthy with at least 10 samples beyond it, i.e. n >= 100;
// every workload is sized for that and the sample counts are printed.
double P50(const std::vector<double>& v);
double P90(const std::vector<double>& v);
double Mean(const std::vector<double>& v);

// Order-insensitive FNV-1a over a frontier's exact cost bits, order tags
// and resolutions — the same digest `loadgen --digest` prints, so the
// two tools can be diffed against each other.
uint64_t FrontierDigest(const FrontierSnapshot& frontier);

// One metric of a result: name, value, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Machine-wide CPU time from /proc/stat, in clock ticks.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;  // Time the hypervisor ran something else.
};
// Zeros when /proc/stat cannot be read.
CpuTimes ReadCpuTimes();
// Share of the CPU time between two readings that was stolen.
double StealShare(const CpuTimes& from, const CpuTimes& to);

// Where and how the numbers were taken: cores, compiler, build type,
// source commit, seed, the filesystem holding the fragment log, and the
// share of CPU time the hypervisor stole during the measured window.
struct HostBlock {
  std::string commit = "none";  // "<sha>", "<sha>+dirty" or "none".
  uint64_t seed = 0;
  std::string store_fs = "none";  // statfs(2) type of the store directory.
  double steal_share = 0.0;
};

// Renders `s` as a JSON string literal.
std::string JsonString(const std::string& s);
// Renders a number with all its significant digits (%.17g).
std::string JsonNumber(double v);
// `{"nproc": .., "compiler": .., ...}` for the host block.
std::string HostJson(const HostBlock& host);
// `{"name": {"value": v, "unit": u}, ...}`.
std::string MetricsJson(const std::vector<Metric>& metrics);

// Writes `contents` to `path`, creating parent directories; false on I/O
// failure (reported on stderr).
bool WriteFile(const std::string& path, const std::string& contents);
// Filesystem type name of the directory holding `path` (e.g. "tmpfs",
// "ext4"), or the hex magic when unknown.
std::string FilesystemType(const std::string& path);
// ru_maxrss of this process in MB.
double PeakRssMb();

}  // namespace e2e
}  // namespace moqo

#endif  // MOQO_BENCH_E2E_COMMON_H_
