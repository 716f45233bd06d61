// Data-oriented Pareto kernel: struct-of-arrays cost banks and batched
// dominance primitives.
//
// The enumeration/dominance inner loop is the service's per-step cost
// wall (BENCH_service.json: ttff_p99 degrades ~5x as inflight grows at a
// fixed worker budget). The classic layout — one heap node per indexed
// plan holding a CostVector, compared entry-by-entry through checked
// operator[] — is memory-bound: every dominance check walks 56-byte
// structs to read 2-3 doubles. This kernel stores each cell's costs as
// contiguous per-metric lanes ("cost banks") and compares one candidate
// against a whole cell with flat, vectorizable loops.
//
// Layout. A CostBank holds `dims` lanes of doubles. Lane d occupies
// [d * capacity, d * capacity + size); capacities are padded to
// kLanePad so lane loops can be unrolled/vectorized without scalar
// tails. Entry i's cost vector is (lane_0[i], ..., lane_{dims-1}[i]).
// Banks draw their storage from a BankArena when one is supplied — a
// bump allocator (abandoned blocks are reclaimed wholesale when the
// arena dies, never entry-by-entry) — and from the heap otherwise.
//
// Contract. All primitives use exact IEEE-754 comparisons — the same
// `<=` / `>=` the scalar CostVector::Dominates path performs, in the
// same per-entry order for order-sensitive operations — so structures
// built through the kernel are bit-identical to scalar-built ones
// (asserted by kernel_test's randomized property suite and the
// bench_dominance_kernel --verify CI smoke). Costs are finite (the
// index checks on insert); query bounds may contain +infinity. NaNs are
// never stored, so every comparison is total.
//
// See docs/KERNEL.md for the full layout and batching contract.
#ifndef MOQO_PARETO_KERNEL_H_
#define MOQO_PARETO_KERNEL_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "util/common.h"

namespace moqo {

// Lane padding (doubles): lane starts are aligned to this many elements
// so a 256-bit SIMD lane never straddles two logical lanes.
inline constexpr size_t kLanePad = 4;

// "Not found" result of the kernel search primitives.
inline constexpr uint32_t kKernelNpos = 0xFFFFFFFFu;

// Bump allocator for cost-bank lane storage, shared by many indexes (the
// optimizer keeps one for all result sets and one for all candidate
// sets). Blocks are handed out and never individually freed — when a
// bank grows it abandons its old block — and the whole arena is
// reclaimed at once when its owner dies. This replaces per-cell vector
// reallocation churn with pointer bumps, and keeps the lanes closely
// packed in memory.
//
// Thread-safe: the optimizer's workers grow the banks of different
// indexes at the same time. Only bank growth allocates, so the mutex is
// rarely taken.
class BankArena {
 public:
  BankArena() = default;
  BankArena(const BankArena&) = delete;
  BankArena& operator=(const BankArena&) = delete;

  // Returns an uninitialized block of `n` doubles (n > 0).
  double* Allocate(size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    if (MOQO_PREDICT_FALSE(used_ + n > chunk_size_)) NewChunk(n);
    double* out = chunks_.back().get() + used_;
    used_ += n;
    return out;
  }

 private:
  void NewChunk(size_t min_doubles);

  std::mutex mu_;  // Guards the chunk list and the bump pointer.
  std::vector<std::unique_ptr<double[]>> chunks_;
  size_t chunk_size_ = 0;  // Capacity of chunks_.back().
  size_t used_ = 0;        // Doubles consumed in chunks_.back().
};

// Struct-of-arrays cost storage for one cell (or one frontier): `dims`
// contiguous double lanes, one per metric, padded to kLanePad. Movable,
// not copyable (a bank may alias arena storage).
class CostBank {
 public:
  CostBank() = default;
  // `arena` may be null: the bank then owns heap storage. A non-null
  // arena must outlive the bank.
  explicit CostBank(int dims, BankArena* arena = nullptr)
      : dims_(dims), arena_(arena) {
    MOQO_CHECK(dims >= 1);
  }

  CostBank(CostBank&& other) noexcept { *this = std::move(other); }
  CostBank& operator=(CostBank&& other) noexcept {
    lanes_ = other.lanes_;
    heap_ = std::move(other.heap_);
    size_ = other.size_;
    capacity_ = other.capacity_;
    dims_ = other.dims_;
    arena_ = other.arena_;
    other.lanes_ = nullptr;
    other.size_ = other.capacity_ = 0;
    return *this;
  }
  CostBank(const CostBank&) = delete;
  CostBank& operator=(const CostBank&) = delete;

  int dims() const { return dims_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // Entries the current lane block can hold. Callers keeping parallel
  // payload arrays reserve to this after a PushBack so all lanes of an
  // entry grow in one step instead of four separate reallocations.
  size_t capacity() const { return capacity_; }

  // Lane d: `size()` live values at 8-byte stride.
  const double* Lane(int d) const {
    MOQO_DCHECK(d >= 0 && d < dims_);
    return lanes_ + static_cast<size_t>(d) * capacity_;
  }
  // Entry i's component d.
  double At(size_t i, int d) const {
    MOQO_DCHECK(i < size_);
    return Lane(d)[i];
  }

  // Appends one cost vector (`dims()` doubles).
  void PushBack(const double* cost) {
    if (MOQO_PREDICT_FALSE(size_ == capacity_)) Grow(size_ + 1);
    for (int d = 0; d < dims_; ++d) {
      lanes_[static_cast<size_t>(d) * capacity_ + size_] = cost[d];
    }
    ++size_;
  }

  // Removes entry i by moving the last entry into its place (the
  // index/frontier eviction order — callers replicate the same move on
  // their payload lanes).
  void SwapRemove(size_t i) {
    MOQO_DCHECK(i < size_);
    const size_t last = size_ - 1;
    for (int d = 0; d < dims_; ++d) {
      double* lane = lanes_ + static_cast<size_t>(d) * capacity_;
      lane[i] = lane[last];
    }
    size_ = last;
  }

  // Drops all entries; keeps the current storage block.
  void Clear() { size_ = 0; }

 private:
  void Grow(size_t min_capacity);

  double* lanes_ = nullptr;  // Lane-major block of dims_ * capacity_.
  std::unique_ptr<double[]> heap_;  // Owns lanes_ when arena_ == null.
  size_t size_ = 0;
  size_t capacity_ = 0;
  int dims_ = 0;
  BankArena* arena_ = nullptr;
};

// --- Batched dominance primitives -----------------------------------------
//
// All masks are byte masks: out[i] is 1/0 for entry i. Callers provide
// scratch of at least bank.size() bytes. The loops are written so the
// compiler vectorizes them (per-lane streaming compares folded with &).

// DominatedMask: compares every entry against candidate `c`
// (`bank.dims()` doubles) in one pass over the lanes.
//   leq[i] = 1 iff entry_i ⪯ c  (the entry dominates the candidate)
//   geq[i] = 1 iff c ⪯ entry_i  (the candidate dominates the entry)
// Either output may be null when only one side is needed. Equality is
// leq & geq; strict dominance is one side minus the intersection.
void DominatedMask(const CostBank& bank, const double* c, uint8_t* leq,
                   uint8_t* geq);

// First entry (in insertion order) whose cost is ⪯ `bounds`, or
// kKernelNpos. Early-exits block-wise; the batched form of "is anything
// in this cell inside the query box" (pruning's dominance probe).
// `scanned`, when non-null, receives the number of entries examined
// (instrumentation for Counters::dominance_checks).
uint32_t FindDominating(const CostBank& bank, const double* bounds,
                        size_t* scanned = nullptr);

// FilterByBounds: mask[i] = 1 iff entry_i ⪯ bounds. Returns the number
// of matching entries. The batched form of boundary-cell filtering in
// range queries (Collect/Drain/ForEachInRange).
size_t FilterByBounds(const CostBank& bank, const double* bounds,
                      uint8_t* mask);

// --- Judge order ----------------------------------------------------------
//
// JudgeOrder: the order in which pruning judges a batch of plans. Sets
// `order` to the positions 0..n-1 sorted by (scores[pos], ids[pos])
// ascending; positions whose (score, id) pairs are equal keep their
// input order. This is exactly std::stable_sort under (score, id), and
// std::sort's order whenever the ids are distinct. Scores must be
// non-negative and not NaN (-0.0 counts as +0.0); ids are arbitrary.
//
// A non-negative double orders like its bit pattern read as an unsigned
// integer, so the primitive sorts 16-byte {score bits, id, position}
// records by a stable LSD radix sort over the high 32 score bits (four
// 8-bit digits; a digit every record shares costs no pass), then sorts
// each run of equal high halves by (score bits, id) — only a check where
// the run already is in that order, as phase 2's runs of equal scores
// are, since its ids are ascending enumeration positions. Batches below
// a small cutoff take std::sort over the same records.
void JudgeOrder(const double* scores, const uint32_t* ids, size_t n,
                std::vector<uint32_t>* order);

}  // namespace moqo

#endif  // MOQO_PARETO_KERNEL_H_
