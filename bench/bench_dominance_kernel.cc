// bench_dominance_kernel — microbenchmark of the Pareto kernel
// (pareto/kernel.h) against array-of-structs scalar loops.
//
// Two workloads:
//
//   probe    first-dominator search with early exit (pruning's
//            "∃ pA ⪯ α·c(p)" range probe) at cell sizes {2, 4, 8} x dims
//            {2, 3}, the sizes the probed cells of the end-to-end
//            workloads have: scalar = early-exit CostVector::Dominates
//            loop over a vector; kernel = FindDominating over a CostBank.
//   judge_order  the order phase 2 judges a cell's plans in, at batch
//            sizes {256, 4096, 16384} x 3 dims, from scores computed as
//            the optimizer computes them: scalar = std::sort of a copy of
//            the 80-byte batch records the optimizer sorted before, by
//            (score, id); kernel = JudgeOrder.
//
// Throughput is reported in million probes per second (probe) and
// million plans ordered per second (judge_order), plus the kernel/scalar
// speedup. Each side of a row is the median of 5 samples of ~80 ms each,
// reported with the samples' min-max; the speedup is the ratio of the
// medians. Output: a table on stdout and BENCH_kernel.json in the
// working directory, with a host block (bench_common.h's HostJson), so
// the perf trajectory is tracked across commits.
//
// Usage:
//   ./build/bench_dominance_kernel            run + write BENCH_kernel.json
//   ./build/bench_dominance_kernel --verify   check FindDominating and
//                                             JudgeOrder against linear
//                                             scans and std::sort; exits
//                                             nonzero on any mismatch
//                                             (also a ctest test)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cost/cost_vector.h"
#include "pareto/kernel.h"
#include "util/rng.h"

namespace moqo {
namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

CostVector RandomCost(Rng& rng, int dims) {
  CostVector c(dims);
  for (int d = 0; d < dims; ++d) {
    c[d] = 0.25 * static_cast<double>(rng.UniformInt(0, 63));
  }
  return c;
}

struct Workload {
  std::vector<CostVector> cell;   // Scalar (AoS) cell contents.
  BankArena arena;
  CostBank bank;                  // The same contents in lane layout.
  std::vector<CostVector> probes; // Query bounds, ~50% hit rate.

  Workload(int cell_size, int dims, uint64_t seed) : bank(dims, &arena) {
    Rng rng(seed);
    cell.reserve(static_cast<size_t>(cell_size));
    for (int i = 0; i < cell_size; ++i) {
      const CostVector c = RandomCost(rng, dims);
      cell.push_back(c);
      bank.PushBack(c.data());
    }
    // Half loose probes (hit early — the cheap case for everyone), half
    // selective probes (mostly miss — the case that drives pruning cost,
    // where the whole cell is scanned).
    for (int i = 0; i < 32; ++i) probes.push_back(RandomCost(rng, dims));
    for (int i = 0; i < 32; ++i) {
      CostVector tight = RandomCost(rng, dims);
      for (int d = 0; d < dims; ++d) tight[d] *= 0.05;
      probes.push_back(tight);
    }
  }
};

// One side's throughput in million ops/sec: the median of
// kSamples timed samples, and their range.
struct Rate {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

struct Result {
  const char* workload;
  int cell_size;
  int dims;
  Rate scalar;
  Rate kernel;
  double speedup() const {
    return scalar.median > 0.0 ? kernel.median / scalar.median : 0.0;
  }
};

constexpr int kSamples = 5;

// Calibrates reps so one sample of body(0..reps-1) runs ~80ms, then
// times kSamples such samples. `ops_per_rep` converts a rep into the
// row's unit.
template <typename F>
Rate Measure(F&& body, double ops_per_rep) {
  long reps = 1;
  for (;;) {
    const double t0 = NowMs();
    for (long r = 0; r < reps; ++r) body(r);
    const double elapsed = NowMs() - t0;
    if (elapsed >= 80.0 || reps > (1L << 40)) break;
    reps *= elapsed < 8.0 ? 10 : 2;
  }
  std::vector<double> rates;
  for (int s = 0; s < kSamples; ++s) {
    const double t0 = NowMs();
    for (long r = 0; r < reps; ++r) body(r);
    const double ms = NowMs() - t0;
    rates.push_back(static_cast<double>(reps) * ops_per_rep / ms / 1e3);
  }
  std::sort(rates.begin(), rates.end());
  return {rates[kSamples / 2], rates.front(), rates.back()};
}

Result BenchProbe(const Workload& w) {
  // Metric: million probes/sec over the identical probe stream; both
  // sides exit at the first dominating entry.
  const size_t n = w.cell.size();
  uint64_t sink = 0;
  const Rate scalar = Measure(
      [&](long r) {
        const CostVector& b = w.probes[static_cast<size_t>(r) % 64];
        for (size_t i = 0; i < n; ++i) {
          if (w.cell[i].Dominates(b)) {
            sink += i;
            return;
          }
        }
      },
      1.0);
  const Rate kernel = Measure(
      [&](long r) {
        const CostVector& b = w.probes[static_cast<size_t>(r) % 64];
        sink += FindDominating(w.bank, b.data());
      },
      1.0);
  if (sink == 0xDEAD) std::printf("#");
  return {"probe", static_cast<int>(n), w.bank.dims(), scalar, kernel};
}

// The plan batch record the optimizer sorted before JudgeOrder: id,
// cost vector, score and order tag, 80 bytes.
struct SortedBatchEntry {
  uint32_t id = 0;
  CostVector cost;
  double score = 0.0;
  uint8_t order = 0;
};

bool ScoreThenId(const SortedBatchEntry& a, const SortedBatchEntry& b) {
  return a.score < b.score || (a.score == b.score && a.id < b.id);
}

// A phase-2-like batch: `n` plans with log-uniform costs, scored the way
// the optimizer scores them (each metric normalized by its batch mean),
// ids ascending with position.
std::vector<SortedBatchEntry> ScoredBatch(size_t n, int dims, Rng& rng) {
  std::vector<SortedBatchEntry> batch(n);
  CostVector scale(dims, 0.0);
  for (size_t i = 0; i < n; ++i) {
    batch[i].id = static_cast<uint32_t>(i);
    batch[i].cost = CostVector(dims);
    for (int d = 0; d < dims; ++d) {
      batch[i].cost[d] = std::pow(10.0, rng.UniformDouble(0.0, 6.0));
      scale[d] += batch[i].cost[d];
    }
  }
  for (int d = 0; d < dims; ++d) scale[d] = n / scale[d];
  for (SortedBatchEntry& e : batch) {
    for (int d = 0; d < dims; ++d) e.score += e.cost[d] * scale[d];
  }
  return batch;
}

Result BenchJudgeOrder(int batch_size, int dims, uint64_t seed) {
  Rng rng(seed);
  const size_t n = static_cast<size_t>(batch_size);
  const std::vector<SortedBatchEntry> batch = ScoredBatch(n, dims, rng);
  std::vector<double> scores(n);
  std::vector<uint32_t> ids(n);
  for (size_t i = 0; i < n; ++i) {
    scores[i] = batch[i].score;
    ids[i] = batch[i].id;
  }
  uint64_t sink = 0;
  std::vector<SortedBatchEntry> work;
  const Rate scalar = Measure(
      [&](long) {
        work = batch;
        std::sort(work.begin(), work.end(), ScoreThenId);
        sink += work[n / 2].id;
      },
      static_cast<double>(n));
  std::vector<uint32_t> order;
  const Rate kernel = Measure(
      [&](long) {
        JudgeOrder(scores.data(), ids.data(), n, &order);
        sink += order[n / 2];
      },
      static_cast<double>(n));
  if (sink == 0xDEAD) std::printf("#");
  return {"judge_order", batch_size, dims, scalar, kernel};
}

// --verify: FindDominating against a linear scan (hit and `scanned`
// count) and JudgeOrder against std::sort. Returns the number of
// mismatches.
int Verify() {
  int failures = 0;
  Rng rng(20260808);
  for (int trial = 0; trial < 500; ++trial) {
    const int dims = 2 + trial % 3;
    const int n = 1 + static_cast<int>(rng.Uniform(512));
    Workload w(n, dims, 1000 + static_cast<uint64_t>(trial));
    for (const CostVector& b : w.probes) {
      uint32_t expect = kKernelNpos;
      size_t expect_scanned = w.cell.size();
      for (size_t i = 0; i < w.cell.size(); ++i) {
        if (w.cell[i].Dominates(b)) {
          expect = static_cast<uint32_t>(i);
          expect_scanned = i + 1;
          break;
        }
      }
      size_t scanned = 0;
      if (FindDominating(w.bank, b.data(), &scanned) != expect ||
          scanned != expect_scanned) {
        std::fprintf(stderr, "FindDominating mismatch trial %d\n", trial);
        ++failures;
      }
    }
  }
  // Judge order: JudgeOrder against std::sort of the batch records, on
  // scored batches whose ids ascend (phase 2) or are shuffled (phase 1),
  // with a coarse copy of every score so that ties occur.
  for (int trial = 0; trial < 300; ++trial) {
    Rng local(4242 + static_cast<uint64_t>(trial));
    const size_t n = local.Uniform(trial % 10 == 0 ? 20000 : 600);
    std::vector<SortedBatchEntry> batch = ScoredBatch(n, 3, local);
    for (SortedBatchEntry& e : batch) {
      if (local.Bernoulli(0.3)) e.score = std::floor(e.score * 8.0) / 8.0;
    }
    if (trial % 2 == 1) {
      for (size_t i = n; i > 1; --i) {
        std::swap(batch[i - 1].id, batch[local.Uniform(i)].id);
      }
    }
    std::vector<double> scores(n);
    std::vector<uint32_t> ids(n);
    for (size_t i = 0; i < n; ++i) {
      scores[i] = batch[i].score;
      ids[i] = batch[i].id;
    }
    std::vector<uint32_t> order;
    JudgeOrder(scores.data(), ids.data(), n, &order);
    std::vector<SortedBatchEntry> sorted = batch;
    std::sort(sorted.begin(), sorted.end(), ScoreThenId);
    bool same = order.size() == n;
    for (size_t i = 0; i < n && same; ++i) {
      same = batch[order[i]].id == sorted[i].id;
    }
    if (!same) {
      std::fprintf(stderr, "judge order mismatch trial %d (n %zu)\n", trial,
                   n);
      ++failures;
    }
  }
  return failures;
}

int Main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--verify") {
      const int failures = Verify();
      if (failures != 0) {
        std::fprintf(stderr, "verify: %d mismatches\n", failures);
        return 1;
      }
      std::printf("verify: FindDominating and JudgeOrder match the "
                  "scalar references\n");
      return 0;
    }
  }

  std::vector<Result> results;
  std::printf("%-12s %6s %6s %28s %28s %10s\n", "workload", "cell", "dims",
              "scalar_mops [min-max]", "kernel_mops [min-max]", "speedup");
  for (int dims : {2, 3}) {
    for (int cell : {2, 4, 8}) {
      const Workload w(cell, dims, static_cast<uint64_t>(cell) * 31 + dims);
      results.push_back(BenchProbe(w));
    }
  }
  for (int batch : {256, 4096, 16384}) {
    results.push_back(BenchJudgeOrder(batch, 3, 11));
  }
  for (const Result& r : results) {
    std::printf("%-12s %6d %6d %10.1f [%7.1f-%7.1f] %10.1f [%7.1f-%7.1f] "
                "%9.2fx\n",
                r.workload, r.cell_size, r.dims, r.scalar.median,
                r.scalar.min, r.scalar.max, r.kernel.median, r.kernel.min,
                r.kernel.max, r.speedup());
  }

  FILE* f = std::fopen("BENCH_kernel.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"dominance_kernel\",\n");
    std::fprintf(f, "  %s,\n", bench::HostJson().c_str());
    std::fprintf(f,
                 "  \"unit\": \"million ops/sec (probe: probes, "
                 "judge_order: plans; cell = batch size for judge_order)\",\n");
    std::fprintf(f,
                 "  \"samples\": \"each side is the median of %d samples of "
                 "~80 ms; *_min and *_max are the samples' range\",\n",
                 kSamples);
    std::fprintf(f, "  \"configs\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
      const Result& r = results[i];
      std::fprintf(f,
                   "    {\"workload\": \"%s\", \"cell\": %d, \"dims\": %d, "
                   "\"scalar_mops\": %.1f, \"scalar_min\": %.1f, "
                   "\"scalar_max\": %.1f, \"kernel_mops\": %.1f, "
                   "\"kernel_min\": %.1f, \"kernel_max\": %.1f, "
                   "\"speedup\": %.2f}%s\n",
                   r.workload, r.cell_size, r.dims, r.scalar.median,
                   r.scalar.min, r.scalar.max, r.kernel.median,
                   r.kernel.min, r.kernel.max, r.speedup(),
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_kernel.json\n");
  }
  return 0;
}

}  // namespace
}  // namespace moqo

int main(int argc, char** argv) { return moqo::Main(argc, argv); }
