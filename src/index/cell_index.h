// CellIndex: multidimensional range-queryable plan index.
//
// The paper indexes result and candidate plans by cost vector and by
// resolution level and retrieves them with range queries of the form
// S[0..b, 0..r] (§4.1). Following the paper's §5.3 and footnote 3, we use a
// cell structure in the spirit of Bentley & Friedman [3] with logarithmic
// partitioning of the cost space: each plan lives in the cell identified by
// (resolution level, interesting-order tag, ⌊log_γ cost_i⌋ for each metric
// i). Each cell also keeps the per-metric min/max box of the costs it
// holds. A range query walks the occupied cells, skips cells whose box
// lies outside the query box, takes cells whose box lies inside it
// wholesale, and filters entries only in the remaining boundary cells.
//
// Data-oriented layout (docs/KERNEL.md). Cells are stored in a flat
// vector in creation order; a small open-addressing hash maps the packed
// 64-bit cell key to its slot — no per-node allocation, no pointer-chasing
// bucket walks. Each cell keeps its entries in struct-of-arrays form: the
// cost vectors live in a pareto/kernel.h CostBank (per-metric contiguous
// double lanes, bump-allocated from a BankArena), with the plan id and
// Δ-visibility state in one parallel payload array. Boundary cells are
// filtered entry by entry with CostBank::Dominates, and dominance probes
// run FindDominating, the same early-exit test. Iteration order — and
// therefore every downstream insertion order — is a deterministic
// function of the insertion history alone, which is what the
// bit-identity suites (serial vs pooled, warm vs cold fragment seeding,
// remote vs in-process) rely on.
//
// The index additionally maintains per-entry *visibility stamps* used by
// the optimizer's Δ-set logic (paper §4.2, function Fresh): Collect()
// marks every retrieved entry with the current invocation number and
// reports whether the entry was already visible in the immediately
// preceding invocation. Entries that were not are exactly the Δ-set
// members that still need to be combined with their peers.
#ifndef MOQO_INDEX_CELL_INDEX_H_
#define MOQO_INDEX_CELL_INDEX_H_

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "cost/cost_vector.h"
#include "pareto/kernel.h"
#include "util/common.h"

namespace moqo {

// Wildcard for the `required_order` parameter of range queries: match
// entries with any interesting-order tag.
inline constexpr int kAnyOrder = -1;

// Visibility-stamp sentinel: an entry whose last_visible is kNeverVisible
// classifies as Δ at its first Collect in *any* invocation i >= 1
// (kNeverVisible + 1 wraps to 0, which never equals a live invocation
// number). Used for seeded fragment entries and by ResetVisibility —
// real invocation counters start at 1 and can never reach it.
inline constexpr uint32_t kNeverVisible = 0xFFFFFFFFu;

// The logarithmic cell width of the optimizer's plan indexes.
inline constexpr double kCellGamma = 2.0;

class CellIndex {
 public:
  // A materialized entry view (the storage itself is struct-of-arrays).
  struct Entry {
    uint32_t id = 0;             // Caller-defined payload (PlanId).
    uint32_t last_visible = 0;   // Last invocation that collected this entry.
    CostVector cost;
    uint8_t resolution = 0;
    uint8_t order = 0;           // Interesting-order tag (0 = unordered).
    bool delta = true;           // Entry classification in `last_visible`.
  };

  // A retrieved entry together with its Δ classification for the current
  // invocation. Deliberately slim — phase 2 streams over millions of
  // these per step and only pairs ids; costs stay in the bank lanes.
  struct Collected {
    uint32_t id = 0;
    bool delta = true;
  };

  // `dims` is the number of cost metrics; `gamma` the logarithmic cell
  // width (costs c and c' share a dimension bucket iff
  // ⌊log_γ c⌋ = ⌊log_γ c'⌋). The cells' cost lanes are bump-allocated
  // from `arena`, which must outlive the index; without one the index
  // owns its own.
  explicit CellIndex(int dims, double gamma = kCellGamma,
                     BankArena* arena = nullptr);

  // Where an entry lives: its cell's slot and its position in the cell.
  // Valid until the next Drain or Clear, the only calls that move or
  // drop entries; a slot survives growth of the cell store. Phase 2
  // inserts under a placeholder id and patches it through the handle
  // once the plan has an arena id.
  struct Handle {
    uint32_t slot = kKernelNpos;
    uint32_t index = 0;
  };

  // Inserts an entry; `invocation` stamps it as first visible (and Δ) in
  // the given optimizer invocation. `order` tags the plan's interesting
  // tuple order (0 = none); the order participates in the cell key so
  // order-restricted dominance queries skip whole cells.
  Handle Insert(uint32_t id, const CostVector& cost, int resolution,
                uint32_t invocation, int order = 0);

  // Replaces the id of the entry at `handle`.
  void SetId(Handle handle, uint32_t id) {
    cells_[handle.slot].entries[handle.index].id = id;
  }

  // Visits every entry with resolution <= max_res and cost ⪯ bounds.
  // Does not touch visibility stamps.
  template <typename F>
  void ForEachInRange(const CostVector& bounds, int max_res, F&& fn) const {
    MOQO_CHECK(bounds.dims() == dims_);
    Entry scratch;
    for (const Cell& cell : cells_) {
      if (cell.size() == 0) continue;
      const CellRelation rel = Classify(cell, bounds, max_res, kAnyOrder);
      if (rel == CellRelation::kOutside) continue;
      const bool boundary = rel == CellRelation::kBoundary;
      for (size_t i = 0; i < cell.size(); ++i) {
        if (boundary && !cell.bank.Dominates(i, bounds.data())) continue;
        fn(MaterializeEntry(cell, i, &scratch));
      }
    }
  }

  // Visits every entry with resolution <= max_res in the index's order
  // (cells in creation order, each cell's entries in insertion order)
  // straight from the lanes, without materializing an Entry:
  // fn(id, bank, i, resolution, order), where entry i of `bank` holds the
  // entry's cost. Does not touch visibility stamps.
  template <typename F>
  void ForEachEntry(int max_res, F&& fn) const {
    for (const Cell& cell : cells_) {
      if (cell.resolution > max_res) continue;
      for (size_t i = 0; i < cell.size(); ++i) {
        fn(cell.entries[i].id, cell.bank, i, cell.resolution, cell.order);
      }
    }
  }

  // True if some entry with resolution <= max_res and a matching order
  // tag (kAnyOrder = all) has cost ⪯ bounds. If `checked` is non-null,
  // the number of per-entry dominance checks performed is added to it
  // (instrumentation for Prune).
  bool AnyInRange(const CostVector& bounds, int max_res,
                  uint64_t* checked = nullptr,
                  int required_order = kAnyOrder) const;

  // Finds the first entry, in (cell creation, entry) order, with
  // resolution <= max_res, matching order tag, and cost ⪯ bounds; returns
  // true and materializes it into `*out` (when non-null); entries live
  // in lanes, so there is no node to point at. `checked` counts the
  // entries of boundary cells scanned; cells classified by their box
  // cost none.
  bool FindInRange(const CostVector& bounds, int max_res, Entry* out,
                   uint64_t* checked = nullptr,
                   int required_order = kAnyOrder) const;

  // Retrieves all entries in range for optimizer invocation `invocation`,
  // updating visibility stamps: an entry's Δ flag is true iff it was not
  // visible during invocation-1 (or was inserted/classified Δ earlier in
  // the current invocation).
  std::vector<Collected> Collect(const CostVector& bounds, int max_res,
                                 uint32_t invocation);

  // Removes and returns all entries with resolution <= max_res and
  // cost ⪯ bounds. (Used to re-consider candidate plans: Algorithm 2
  // lines 8-9 retrieve and delete candidates before pruning them again.)
  // A cell whose box lies inside the query is emptied in entry order; a
  // boundary cell gives up its matches by swap-with-back compaction.
  std::vector<Entry> Drain(const CostVector& bounds, int max_res);

  // Marks every entry as never collected (last_visible = kNeverVisible),
  // so the next Collect classifies all of them as Δ regardless of the
  // invocation number. Used when a bounds change hits a fragment-seeded
  // optimizer: sealed cells were never enumerated, so their sub-plan
  // pairings must all be (re)tried — the fresh-pair registry keeps
  // already-combined pairs from generating twice.
  void ResetVisibility();

  size_t size() const { return size_; }
  size_t NumCells() const;
  void Clear();

 private:
  // Packed cell key, the KeyMap's key: byte 7 = resolution, byte 6 =
  // interesting-order tag, bytes 0..5 = biased per-dimension log buckets.
  using Key = uint64_t;

  enum class CellRelation { kOutside, kBoundary, kInside };

  // Per-entry payload beside the cost lanes: the caller's id plus the
  // Δ-visibility state. One array rather than three parallel ones —
  // Collect, Drain, and the materializing walks always read every field
  // of an entry together, and a single push_back per insert keeps the
  // seeding hot path to one growing array beside the bank.
  struct Payload {
    uint32_t id = 0;
    uint32_t last_visible = 0;
    uint8_t delta = 1;
  };

  // One cost cell in struct-of-arrays layout. All entries of a cell
  // share its resolution and order (both are part of the key), so they
  // are stored once per cell instead of once per entry.
  struct Cell {
    // Per-metric min (lo) and max (hi) over every cost inserted since the
    // cell was last empty: Insert widens it, a drain that empties the
    // cell resets it, and a partial drain leaves it wide, which only
    // makes it looser. Range walks classify the cell by it.
    double lo[kMaxMetrics];
    double hi[kMaxMetrics];
    uint8_t resolution = 0;
    uint8_t order = 0;
    CostBank bank;                 // dims cost lanes.
    std::vector<Payload> entries;  // Payload lane, parallel to the bank.
    size_t size() const { return entries.size(); }
    // Makes the box empty (lo = +inf, hi = -inf).
    void ResetBox();
  };

  // Open-addressing hash from packed cell key to slot in cells_. Linear
  // probing over a power-of-two table; replaces std::unordered_map's
  // per-node allocations and bucket-list walks on the hot insert path.
  class KeyMap {
   public:
    // Returns the mapped slot or kKernelNpos.
    uint32_t Find(Key key) const;
    // Inserts a key that must not be present.
    void Insert(Key key, uint32_t slot);
    void Clear();

   private:
    void Rehash(size_t capacity);
    static size_t Mix(Key key);

    std::vector<Key> keys_;
    std::vector<uint32_t> slots_;  // kKernelNpos = empty slot.
    size_t count_ = 0;
    size_t mask_ = 0;  // capacity - 1; 0 when empty.
  };

  int Bucket(double value) const;
  Key MakeKey(const CostVector& cost, int resolution, int order) const;
  // Classifies a non-empty cell against the query (resolution <= max_res,
  // the order requirement, cost ⪯ bounds) by its resolution, order and
  // box: outside when some lo exceeds its bound, inside when every hi is
  // within its bound, boundary otherwise.
  CellRelation Classify(const Cell& cell, const CostVector& bounds,
                        int max_res, int required_order) const {
    if (cell.resolution > max_res) return CellRelation::kOutside;
    if (required_order != kAnyOrder && cell.order != required_order) {
      return CellRelation::kOutside;
    }
    const double* b = bounds.data();
    bool inside = true;
    for (int d = 0; d < dims_; ++d) {
      if (cell.lo[d] > b[d]) return CellRelation::kOutside;
      if (cell.hi[d] > b[d]) inside = false;
    }
    return inside ? CellRelation::kInside : CellRelation::kBoundary;
  }
  // Finds or creates the cell for (cost, resolution, order); returns
  // its slot in cells_.
  uint32_t CellFor(const CostVector& cost, int resolution, int order);
  // Copies entry i of `cell` into *e and returns it.
  const Entry& MaterializeEntry(const Cell& cell, size_t i, Entry* e) const;

  int dims_;
  double inv_log_gamma_;
  size_t size_ = 0;
  std::unique_ptr<BankArena> own_arena_;  // Set when no arena was given.
  BankArena* arena_ = nullptr;
  // Creation-order cell store. A fully drained cell stays as an empty
  // husk (and keeps its KeyMap slot) so a later re-insert reuses it; the
  // husk count is bounded by the number of distinct keys ever touched.
  std::vector<Cell> cells_;
  KeyMap map_;
};

}  // namespace moqo

#endif  // MOQO_INDEX_CELL_INDEX_H_
