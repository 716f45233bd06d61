// Pareto kernel: struct-of-arrays cost banks, the arena they draw
// from, the one dominance probe, and the judge order.
//
// Every CellIndex cell keeps its costs as contiguous per-metric lanes
// (a "cost bank") bump-allocated from a BankArena, instead of one
// CostVector per plan. Cells also carry min/max cost boxes
// (index/cell_index.h), so a pruning probe scans only the cells its
// bounds cut, and those hold few plans: over the four moqo_bench
// workloads the probed banks held 2.4-2.6 entries on average and at
// most 9. So dominance is one scalar early-exit loop per entry
// (CostBank::Dominates, FindDominating); nothing is batched.
//
// Layout. A CostBank holds `dims` lanes of doubles. Lane d occupies
// [d * capacity, d * capacity + size); capacities double from 4. Entry
// i's cost vector is (lane_0[i], ..., lane_{dims-1}[i]).
//
// Contract. Dominance is the exact IEEE-754 `>` test
// CostVector::Dominates makes, entry by entry in insertion order, so
// structures built on the kernel are bit-identical to scalar-built ones
// (asserted by kernel_test and bench_dominance_kernel --verify). Costs
// are finite (the index checks on insert); query bounds may contain
// +infinity but never NaN (IamaSession and OptimizerService reject NaN
// bounds), so every comparison is total.
//
// See docs/KERNEL.md for the layout and the invariants.
#ifndef MOQO_PARETO_KERNEL_H_
#define MOQO_PARETO_KERNEL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "util/common.h"

namespace moqo {

// "Not found" result of FindDominating (and of the index's slot lookups).
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

// Struct-of-arrays cost storage for one cell: `dims` contiguous double
// lanes, one per metric, drawn from a BankArena. Movable, not copyable
// (a copy would alias the arena block).
class CostBank {
 public:
  CostBank() = default;
  // `arena` must be non-null and outlive the bank.
  CostBank(int dims, BankArena* arena) : dims_(dims), arena_(arena) {
    MOQO_CHECK(dims >= 1);
    MOQO_CHECK(arena != nullptr);
  }

  CostBank(CostBank&& other) noexcept { *this = std::move(other); }
  CostBank& operator=(CostBank&& other) noexcept {
    lanes_ = other.lanes_;
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

  // Entry i ⪯ c (`dims()` doubles): no component of the entry exceeds
  // c's, the `>` test CostVector::Dominates makes.
  bool Dominates(size_t i, const double* c) const {
    MOQO_DCHECK(i < size_);
    for (int d = 0; d < dims_; ++d) {
      if (lanes_[static_cast<size_t>(d) * capacity_ + i] > c[d]) return false;
    }
    return true;
  }

  // Appends one cost vector (`dims()` doubles).
  void PushBack(const double* cost) {
    if (MOQO_PREDICT_FALSE(size_ == capacity_)) Grow();
    for (int d = 0; d < dims_; ++d) {
      lanes_[static_cast<size_t>(d) * capacity_ + size_] = cost[d];
    }
    ++size_;
  }

  // Removes entry i by moving the last entry into its place (the index's
  // eviction order; callers replicate the same move on their payload
  // lanes).
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
  // Doubles the capacity (4 when empty) into a fresh arena block.
  void Grow();

  double* lanes_ = nullptr;  // Lane-major block of dims_ * capacity_.
  size_t size_ = 0;
  size_t capacity_ = 0;
  int dims_ = 0;
  BankArena* arena_ = nullptr;
};

// First entry (in insertion order) whose cost is ⪯ `bounds`, or
// kKernelNpos: pruning's "is some plan of this cell inside the query
// box" probe, one early-exit CostBank::Dominates test per entry.
// `scanned`, when non-null, is advanced by the entries tested (the
// hit's index + 1, or all of them on a miss), which
// Counters::dominance_checks sums.
uint32_t FindDominating(const CostBank& bank, const double* bounds,
                        size_t* scanned = nullptr);

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
