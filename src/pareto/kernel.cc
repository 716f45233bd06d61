#include "pareto/kernel.h"

#include <algorithm>

// GCC's SSE2 baseline refuses to vectorize double-compare loops that
// store byte masks ("no vectype" for the mixed widths), but the same
// loops vectorize cleanly with AVX2. target_clones gives each mask
// helper an AVX2 body behind a runtime ifunc dispatch while keeping the
// portable scalar fallback; comparisons are exact either way, so the
// masks — and therefore frontier contents — are bit-identical. Disabled
// under the sanitizers: ifunc resolvers run before the TSan/ASan
// runtimes initialize and segfault on startup.
#if defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__) && \
    !defined(__clang__) && !defined(__SANITIZE_THREAD__) &&         \
    !defined(__SANITIZE_ADDRESS__)
#define MOQO_KERNEL_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define MOQO_KERNEL_CLONES
#endif

namespace moqo {
namespace {

// Block size (entries) for the early-exit search: big enough that the
// per-block lane passes vectorize and amortize, small enough that a hit
// near the front of a large cell wastes at most 31 lane compares.
constexpr size_t kSearchBlock = 32;

// Rounds a capacity up to the lane padding.
size_t PadCapacity(size_t n) {
  return (n + kLanePad - 1) / kLanePad * kLanePad;
}

// One streaming compare per metric lane: initialize the byte mask from
// the first lane, then fold later lanes in with &. Each helper touches
// two contiguous arrays only — the shape auto-vectorizers handle best.
MOQO_KERNEL_CLONES
void MaskLeqInit(const double* lane, double c, uint8_t* m, size_t n) {
  for (size_t i = 0; i < n; ++i) m[i] = lane[i] <= c;
}

MOQO_KERNEL_CLONES
void MaskLeqFold(const double* lane, double c, uint8_t* m, size_t n) {
  for (size_t i = 0; i < n; ++i) m[i] &= static_cast<uint8_t>(lane[i] <= c);
}

MOQO_KERNEL_CLONES
void MaskGeqInit(const double* lane, double c, uint8_t* m, size_t n) {
  for (size_t i = 0; i < n; ++i) m[i] = lane[i] >= c;
}

MOQO_KERNEL_CLONES
void MaskGeqFold(const double* lane, double c, uint8_t* m, size_t n) {
  for (size_t i = 0; i < n; ++i) m[i] &= static_cast<uint8_t>(lane[i] >= c);
}

MOQO_KERNEL_CLONES
uint8_t MaskAny(const uint8_t* m, size_t n) {
  uint8_t any = 0;
  for (size_t i = 0; i < n; ++i) any |= m[i];
  return any;
}

MOQO_KERNEL_CLONES
size_t MaskCount(const uint8_t* m, size_t n) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) count += m[i];
  return count;
}

}  // namespace

void BankArena::NewChunk(size_t min_doubles) {
  // Chunks double up to 64K doubles (512 KiB); a request larger than
  // the growth curve gets a dedicated chunk.
  constexpr size_t kMinChunk = 1024;
  constexpr size_t kMaxChunk = 64 * 1024;
  size_t next = chunk_size_ == 0 ? kMinChunk
                                 : std::min(chunk_size_ * 2, kMaxChunk);
  next = std::max(next, min_doubles);
  chunks_.push_back(std::make_unique<double[]>(next));
  chunk_size_ = next;
  used_ = 0;
}

void CostBank::Grow(size_t min_capacity) {
  MOQO_CHECK(dims_ >= 1);
  size_t next = capacity_ == 0 ? kLanePad : capacity_ * 2;
  next = PadCapacity(std::max(next, min_capacity));
  double* fresh;
  std::unique_ptr<double[]> fresh_owned;
  if (arena_ != nullptr) {
    // The old block is abandoned in place; the arena reclaims it with
    // everything else at epoch reset (no per-block free).
    fresh = arena_->Allocate(static_cast<size_t>(dims_) * next);
  } else {
    fresh_owned =
        std::make_unique<double[]>(static_cast<size_t>(dims_) * next);
    fresh = fresh_owned.get();
  }
  for (int d = 0; d < dims_; ++d) {
    if (size_ > 0) {
      std::memcpy(fresh + static_cast<size_t>(d) * next,
                  lanes_ + static_cast<size_t>(d) * capacity_,
                  size_ * sizeof(double));
    }
  }
  lanes_ = fresh;
  heap_ = std::move(fresh_owned);
  capacity_ = next;
}

// Lane-at-a-time mask passes: one streaming compare loop per metric,
// folded into the byte mask with &.
void DominatedMask(const CostBank& bank, const double* c, uint8_t* leq,
                   uint8_t* geq) {
  const size_t n = bank.size();
  const int dims = bank.dims();
  if (leq != nullptr) {
    MaskLeqInit(bank.Lane(0), c[0], leq, n);
    for (int d = 1; d < dims; ++d) MaskLeqFold(bank.Lane(d), c[d], leq, n);
  }
  if (geq != nullptr) {
    MaskGeqInit(bank.Lane(0), c[0], geq, n);
    for (int d = 1; d < dims; ++d) MaskGeqFold(bank.Lane(d), c[d], geq, n);
  }
}

uint32_t FindDominating(const CostBank& bank, const double* bounds,
                        size_t* scanned) {
  const size_t n = bank.size();
  const int dims = bank.dims();
  uint8_t m[kSearchBlock];
  size_t base = 0;
  // Full blocks, lane at a time with two early-outs: a block whose
  // lane-0 mask is already empty skips the remaining lanes entirely (the
  // common case for the selective α·c(p) pruning probes), and a block
  // that survives all lanes reports its first set bit.
  for (; base + kSearchBlock <= n; base += kSearchBlock) {
    MaskLeqInit(bank.Lane(0) + base, bounds[0], m, kSearchBlock);
    uint8_t any = MaskAny(m, kSearchBlock);
    for (int d = 1; d < dims && any != 0; ++d) {
      MaskLeqFold(bank.Lane(d) + base, bounds[d], m, kSearchBlock);
      any = MaskAny(m, kSearchBlock);
    }
    if (any) {
      for (size_t j = 0; j < kSearchBlock; ++j) {
        if (m[j]) {
          if (scanned != nullptr) *scanned += base + j + 1;
          return static_cast<uint32_t>(base + j);
        }
      }
    }
  }
  // Tail (and banks smaller than one block): per-entry early exit, the
  // scalar cost profile — batching buys nothing below the block size.
  for (size_t i = base; i < n; ++i) {
    bool dom = true;
    for (int d = 0; d < dims; ++d) {
      if (bank.Lane(d)[i] > bounds[d]) {
        dom = false;
        break;
      }
    }
    if (dom) {
      if (scanned != nullptr) *scanned += i + 1;
      return static_cast<uint32_t>(i);
    }
  }
  if (scanned != nullptr) *scanned += n;
  return kKernelNpos;
}

size_t FilterByBounds(const CostBank& bank, const double* bounds,
                      uint8_t* mask) {
  DominatedMask(bank, bounds, mask, nullptr);
  return MaskCount(mask, bank.size());
}

}  // namespace moqo
