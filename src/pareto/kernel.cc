#include "pareto/kernel.h"

#include <algorithm>
#include <cstring>

namespace moqo {
namespace {

// One plan of a batch being ordered for the judge. No member
// initializers, so scratch arrays of records are not zero-filled.
struct JudgeRecord {
  uint64_t key;  // The score's bits, -0.0 folded to +0.0.
  uint32_t id;
  uint32_t pos;  // Position in the caller's batch.
};
static_assert(sizeof(JudgeRecord) == 16, "JudgeRecord must stay 16 bytes");

bool JudgeLess(const JudgeRecord& a, const JudgeRecord& b) {
  if (a.key != b.key) return a.key < b.key;
  if (a.id != b.id) return a.id < b.id;
  return a.pos < b.pos;
}

// Below this many records std::sort beats the radix sort's histogram
// set-up.
constexpr size_t kRadixCutoff = 64;

// The radix sort orders records by the high half of the key only: four
// 8-bit passes instead of eight. A high half carries the sign, the
// exponent and 20 mantissa bits, so it separates almost every pair of
// scores; the runs it leaves tied are finished with JudgeLess.
constexpr int kRadixPasses = 4;
constexpr int kRadixShift = 32;

// Sorts rec[0..n) by JudgeLess (n >= 1).
void RadixSortRecords(JudgeRecord* rec, size_t n) {
  uint32_t hist[kRadixPasses][256] = {};
  for (size_t i = 0; i < n; ++i) {
    for (int b = 0; b < kRadixPasses; ++b) {
      ++hist[b][(rec[i].key >> (kRadixShift + 8 * b)) & 0xFF];
    }
  }
  std::unique_ptr<JudgeRecord[]> tmp(new JudgeRecord[n]);
  JudgeRecord* src = rec;
  JudgeRecord* dst = tmp.get();
  for (int b = 0; b < kRadixPasses; ++b) {
    const int shift = kRadixShift + 8 * b;
    uint32_t* h = hist[b];
    // Every record has the same digit here: the pass would move nothing.
    if (h[(src[0].key >> shift) & 0xFF] == n) continue;
    uint32_t sum = 0;
    for (int v = 0; v < 256; ++v) {
      const uint32_t count = h[v];
      h[v] = sum;
      sum += count;
    }
    for (size_t i = 0; i < n; ++i) {
      dst[h[(src[i].key >> shift) & 0xFF]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != rec) std::memcpy(rec, src, n * sizeof(JudgeRecord));
  // The passes are stable, so each run of equal high halves is in
  // position order; it needs sorting only where that is not already
  // (key, id) order, as with ids that ascend with position.
  for (size_t lo = 0; lo < n;) {
    size_t hi = lo + 1;
    bool sorted = true;
    for (; hi < n && (rec[hi].key >> kRadixShift) ==
                         (rec[lo].key >> kRadixShift);
         ++hi) {
      sorted = sorted && !JudgeLess(rec[hi], rec[hi - 1]);
    }
    if (!sorted) std::sort(rec + lo, rec + hi, JudgeLess);
    lo = hi;
  }
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

void CostBank::Grow() {
  MOQO_DCHECK(arena_ != nullptr);
  const size_t next = capacity_ == 0 ? 4 : capacity_ * 2;
  // The old block is abandoned in place; the arena reclaims it with
  // everything else when it dies (no per-block free).
  double* fresh = arena_->Allocate(static_cast<size_t>(dims_) * next);
  if (size_ > 0) {
    for (int d = 0; d < dims_; ++d) {
      std::memcpy(fresh + static_cast<size_t>(d) * next,
                  lanes_ + static_cast<size_t>(d) * capacity_,
                  size_ * sizeof(double));
    }
  }
  lanes_ = fresh;
  capacity_ = next;
}

uint32_t FindDominating(const CostBank& bank, const double* bounds,
                        size_t* scanned) {
  const size_t n = bank.size();
  for (size_t i = 0; i < n; ++i) {
    if (bank.Dominates(i, bounds)) {
      if (scanned != nullptr) *scanned += i + 1;
      return static_cast<uint32_t>(i);
    }
  }
  if (scanned != nullptr) *scanned += n;
  return kKernelNpos;
}

void JudgeOrder(const double* scores, const uint32_t* ids, size_t n,
                std::vector<uint32_t>* order) {
  std::unique_ptr<JudgeRecord[]> rec(new JudgeRecord[n]);
  for (size_t i = 0; i < n; ++i) {
    MOQO_DCHECK(scores[i] >= 0.0);
    uint64_t key = 0;
    if (scores[i] != 0.0) std::memcpy(&key, &scores[i], sizeof(key));
    rec[i] = {key, ids[i], static_cast<uint32_t>(i)};
  }
  if (n < kRadixCutoff) {
    std::sort(rec.get(), rec.get() + n, JudgeLess);
  } else {
    RadixSortRecords(rec.get(), n);
  }
  order->resize(n);
  for (size_t i = 0; i < n; ++i) (*order)[i] = rec[i].pos;
}

}  // namespace moqo
