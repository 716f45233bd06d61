#include "common.h"

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "util/stats.h"
#include "util/str.h"

#ifndef MOQO_BENCH_COMPILER
#define MOQO_BENCH_COMPILER "unknown"
#endif
#ifndef MOQO_BENCH_BUILD_TYPE
#define MOQO_BENCH_BUILD_TYPE "unknown"
#endif

namespace moqo {
namespace e2e {

double P50(const std::vector<double>& v) { return Percentile(v, 0.50); }
double P90(const std::vector<double>& v) { return Percentile(v, 0.90); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

uint64_t FrontierDigest(const FrontierSnapshot& frontier) {
  std::vector<std::string> rows;
  rows.reserve(frontier.plans.size());
  for (const CellIndex::Entry& e : frontier.plans) {
    std::string row;
    for (int i = 0; i < e.cost.dims(); ++i) {
      AppendHexDouble(&row, e.cost[i]);
      row += ',';
    }
    row += '|';
    row += std::to_string(static_cast<int>(e.order));
    row += '|';
    row += std::to_string(static_cast<int>(e.resolution));
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  std::string all;
  for (const std::string& row : rows) {
    all += row;
    all += ';';
  }
  return Fnv1a64(all);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += StrFormat("\\u%04x", static_cast<unsigned>(c));
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) { return StrFormat("%.17g", v); }

CpuTimes ReadCpuTimes() {
  CpuTimes times;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return times;
  // "cpu user nice system idle iowait irq softirq steal ..."; the guest
  // fields after steal are already counted in user and nice.
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) times.total += x;
    times.steal = v[7];
  }
  std::fclose(f);
  return times;
}

double StealShare(const CpuTimes& from, const CpuTimes& to) {
  if (to.total <= from.total) return 0.0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

std::string HostJson(const HostBlock& host) {
  return StrFormat(
      "{\"nproc\": %ld, \"compiler\": %s, \"build_type\": %s, "
      "\"commit\": %s, \"seed\": %llu, \"store_fs\": %s, "
      "\"steal_share\": %s}",
      sysconf(_SC_NPROCESSORS_ONLN), JsonString(MOQO_BENCH_COMPILER).c_str(),
      JsonString(MOQO_BENCH_BUILD_TYPE).c_str(),
      JsonString(host.commit).c_str(),
      static_cast<unsigned long long>(host.seed),
      JsonString(host.store_fs).c_str(),
      JsonNumber(host.steal_share).c_str());
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

bool WriteFile(const std::string& path, const std::string& contents) {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "moqo_bench: cannot write %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return false;
  }
  const bool ok =
      std::fwrite(contents.data(), 1, contents.size(), f) == contents.size();
  return std::fclose(f) == 0 && ok;
}

std::string FilesystemType(const std::string& path) {
  struct statfs st;
  const std::string dir = std::filesystem::path(path).parent_path().string();
  if (::statfs(dir.empty() ? "." : dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994UL:
      return "tmpfs";
    case 0xEF53UL:
      return "ext4";
    case 0x9123683EUL:
      return "btrfs";
    case 0x58465342UL:
      return "xfs";
    case 0x794C7630UL:
      return "overlayfs";
    default:
      return StrFormat("0x%lx", static_cast<unsigned long>(st.f_type));
  }
}

double PeakRssMb() {
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

}  // namespace e2e
}  // namespace moqo
