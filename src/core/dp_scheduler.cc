#include "core/dp_scheduler.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <exception>
#include <future>
#include <limits>
#include <memory>
#include <ranges>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>

#include "core/dp_dense_step.h"
#include "runtime/thread_pool.h"
#include "util/error.h"
#include "util/histogram.h"

namespace rcbr::core {

namespace {

constexpr std::uint32_t kNoParent = 0xffffffffu;

// ---- Worker team -------------------------------------------------------
//
// A fixed set of workers (the caller plus threads submitted to a
// runtime::ThreadPool) that repeatedly executes one phase function,
// synchronized by a generation counter. The pool's queue is touched once
// at construction; per-epoch phase dispatch is two atomic operations, so
// thousands of tiny parallel regions per solve stay cheap. Determinism
// holds because every phase partitions work by rate index, never by
// arrival order.
class Team {
 public:
  Team(runtime::ThreadPool* pool, std::size_t workers) : workers_(workers) {
    if (workers_ <= 1) return;
    futures_.reserve(workers_ - 1);
    for (std::size_t w = 1; w < workers_; ++w) {
      futures_.push_back(pool->Submit([this, w] { WorkerLoop(w); }));
    }
  }

  ~Team() {
    if (workers_ <= 1) return;
    stop_.store(true, std::memory_order_release);
    gen_.fetch_add(1, std::memory_order_release);
    for (std::future<void>& f : futures_) f.get();
  }

  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  std::size_t workers() const { return workers_; }

  /// Runs fn(0), ..., fn(workers-1) concurrently (the caller runs slot 0)
  /// and returns when all slots finished. Rethrows the first exception.
  void Run(const std::function<void(std::size_t)>& fn) {
    if (workers_ <= 1) {
      fn(0);
      return;
    }
    fn_ = &fn;
    pending_.store(workers_ - 1, std::memory_order_relaxed);
    gen_.fetch_add(1, std::memory_order_release);
    fn(0);
    while (pending_.load(std::memory_order_acquire) != 0) {
      std::this_thread::yield();
    }
    if (error_) {
      std::exception_ptr e = error_;
      error_ = nullptr;
      std::rethrow_exception(e);
    }
  }

 private:
  void WorkerLoop(std::size_t w) {
    std::uint64_t seen = 0;
    for (;;) {
      while (gen_.load(std::memory_order_acquire) == seen) {
        std::this_thread::yield();
      }
      ++seen;
      if (stop_.load(std::memory_order_acquire)) return;
      try {
        (*fn_)(w);
      } catch (...) {
        error_ = std::current_exception();  // one survivor is enough
      }
      pending_.fetch_sub(1, std::memory_order_release);
    }
  }

  std::atomic<std::uint64_t> gen_{0};
  std::atomic<std::size_t> pending_{0};
  std::atomic<bool> stop_{false};
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::exception_ptr error_;
  std::size_t workers_ = 1;
  std::vector<std::future<void>> futures_;
};

// ---- Frontier storage --------------------------------------------------

/// One sorted run of live nodes: buffer ascending, weight strictly
/// descending (the Lemma-1 Pareto invariant).
struct Run {
  const double* buf = nullptr;
  const double* wgt = nullptr;
  const std::uint32_t* back = nullptr;
  std::size_t n = 0;
};

/// SoA trellis frontier: one run per rate level inside shared arrays.
/// Slots [begin[v], end[v]) hold rate v's frontier; the arrays are sized
/// by per-rate output *capacity*, so runs may be separated by gaps.
struct Frontier {
  std::vector<double> buf;
  std::vector<double> wgt;
  std::vector<std::uint32_t> back;
  std::vector<std::uint32_t> begin;
  std::vector<std::uint32_t> end;

  void ResizeRates(std::size_t num_rates) {
    begin.assign(num_rates, 0);
    end.assign(num_rates, 0);
  }

  void EnsureCapacity(std::size_t n) {
    if (buf.size() < n) {
      buf.resize(n);
      wgt.resize(n);
      back.resize(n);
    }
  }

  Run run(std::size_t v) const {
    return {buf.data() + begin[v], wgt.data() + begin[v],
            back.data() + begin[v],
            static_cast<std::size_t>(end[v] - begin[v])};
  }

  std::size_t size(std::size_t v) const { return end[v] - begin[v]; }

  std::size_t live() const {
    std::size_t n = 0;
    for (std::size_t v = 0; v < begin.size(); ++v) n += end[v] - begin[v];
    return n;
  }
};

/// Writer over a preallocated output slice (one rate's, or a fold's),
/// applying the Pareto push rule in place.
struct SliceOut {
  double* buf = nullptr;
  double* wgt = nullptr;
  std::uint32_t* back = nullptr;
  std::uint32_t n = 0;

  void Push(double b, double w, std::uint32_t bk) {
    if (n != 0) {
      const std::uint32_t last = n - 1;
      if (b == buf[last]) {
        if (w >= wgt[last]) return;
        wgt[last] = w;
        back[last] = bk;
        return;
      }
      if (w >= wgt[last]) return;
    }
    buf[n] = b;
    wgt[n] = w;
    back[n] = bk;
    ++n;
  }
};

/// A tight Pareto list: the cross-rate global frontier built by grid cell.
struct ParetoList {
  std::vector<double> buf;
  std::vector<double> wgt;
  std::vector<std::uint32_t> back;

  void clear() {
    buf.clear();
    wgt.clear();
    back.clear();
  }
  Run run() const { return {buf.data(), wgt.data(), back.data(), buf.size()}; }

  /// Appends (b, w) keeping the Pareto invariant: equal buffer keeps the
  /// lighter node, a weight at or above the running minimum is dominated.
  void Push(double b, double w, std::uint32_t bk) {
    if (!buf.empty()) {
      const std::size_t last = buf.size() - 1;
      if (b == buf[last]) {
        if (w >= wgt[last]) return;
        wgt[last] = w;
        back[last] = bk;
        return;
      }
      if (w >= wgt[last]) return;
    }
    buf.push_back(b);
    wgt.push_back(w);
    back.push_back(bk);
  }
};

/// Merges two buffer-sorted runs into `out`, sweeping with the Pareto
/// rule. Exact (buffer, weight) ties prefer `a` — merges always fold in
/// ascending rate order, so the lowest rate wins ties at every thread
/// count.
void MergeRuns(const Run& a, const Run& b, SliceOut& out) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.n || j < b.n) {
    const bool take_a =
        j >= b.n ||
        (i < a.n && (a.buf[i] < b.buf[j] ||
                     (a.buf[i] == b.buf[j] && a.wgt[i] <= b.wgt[j])));
    if (take_a) {
      out.Push(a.buf[i], a.wgt[i], a.back[i]);
      ++i;
    } else {
      out.Push(b.buf[j], b.wgt[j], b.back[j]);
      ++j;
    }
  }
}

/// True when MergeRuns(a, b) would return `a` unchanged: every node of `b`
/// weighs at least the `a` node with the largest buffer at or below its
/// own. That `a` node is pushed first (`a`'s buffers strictly ascend and
/// ties prefer `a`) and stays the running minimum, so Push drops `b`'s.
bool Dominates(const Run& a, const Run& b) {
  std::size_t k = 0;  // `a` nodes with buffer <= b.buf[j]
  for (std::size_t j = 0; j < b.n; ++j) {
    while (k < a.n && a.buf[k] <= b.buf[j]) ++k;
    if (k == 0 || a.wgt[k - 1] > b.wgt[j]) return false;
  }
  return true;
}

/// The fold's Pareto lists, in arrays that only grow: a fold writes at
/// most the live nodes into them, in place.
struct FoldList {
  std::vector<double> buf;
  std::vector<double> wgt;
  std::vector<std::uint32_t> back;
  std::size_t n = 0;

  Run run() const { return {buf.data(), wgt.data(), back.data(), n}; }
  SliceOut writer(std::size_t capacity) {
    if (buf.size() < capacity) {
      buf.resize(capacity);
      wgt.resize(capacity);
      back.resize(capacity);
    }
    return {buf.data(), wgt.data(), back.data(), 0};
  }
};

/// Pareto-folds the runs of `cur` into `acc` in ascending rate order,
/// skipping the merge of any run `acc` already dominates.
void FoldRuns(const Frontier& cur, FoldList& acc, FoldList& scratch) {
  const std::size_t live = cur.live();
  acc.n = 0;
  for (std::size_t v = 0; v < cur.begin.size(); ++v) {
    const Run r = cur.run(v);
    if (r.n == 0) continue;
    if (acc.n == 0) {
      SliceOut out = acc.writer(live);
      std::copy_n(r.buf, r.n, out.buf);
      std::copy_n(r.wgt, r.n, out.wgt);
      std::copy_n(r.back, r.n, out.back);
      acc.n = r.n;
      continue;
    }
    if (Dominates(acc.run(), r)) continue;
    SliceOut out = scratch.writer(live);
    MergeRuns(acc.run(), r, out);
    scratch.n = out.n;
    std::swap(acc, scratch);
  }
}

/// One buffer cell of the grid-indexed global frontier. While the cells
/// fill, the lightest node seen on it, as a flat frontier index (kNoParent
/// while empty). After the sweep, the global envelope: the least weight on
/// or below the cell and, where that drops, the global node's parent.
struct GridCell {
  double wgt = std::numeric_limits<double>::infinity();
  std::uint32_t node = kNoParent;
};

/// Keeps `node` on `cell` iff it is strictly lighter, so the first of
/// equally light nodes stays. Which node a cell keeps depends on the data,
/// so the update is branch-free rather than a branch that mispredicts on it.
void KeepLighter(GridCell& cell, double wgt, std::uint32_t node) {
  const std::uint32_t keep = 0u - (wgt < cell.wgt ? 0u : 1u);
  cell.wgt = std::min(cell.wgt, wgt);
  cell.node = (cell.node & keep) | (node & ~keep);
}

/// One worker's grid cells for the next epoch's global frontier, filled as
/// the transform writes its rates' nodes: cell m keeps the lightest node
/// written on buffer m·Q, the lowest rate on an exact tie. `covered`
/// drops when a node is off the grid or past the prepared cells.
struct GridFill {
  std::vector<GridCell> cells;  // by cell index m
  /// The cells written since the last Reset (none while hi < lo).
  std::int64_t lo = std::numeric_limits<std::int64_t>::max();
  std::int64_t hi = -1;
  bool covered = false;

  void Touch(std::int64_t first, std::int64_t last) {
    lo = std::min(lo, first);
    hi = std::max(hi, last);
  }

  /// Empties the cells written since the last Reset and starts a fill,
  /// covering every node so far iff `on`.
  void Reset(bool on) {
    if (lo <= hi) {
      std::fill(cells.begin() + lo, cells.begin() + hi + 1, GridCell{});
    }
    lo = std::numeric_limits<std::int64_t>::max();
    hi = -1;
    covered = on;
  }
};

/// Per-(epoch, rate) transition coefficients; see docs/algorithms.md §1.
struct EpochCoeffs {
  bool feasible = false;
  double b_max = 0;     // max admissible starting buffer
  double shift = 0;     // q_end = max(b + shift, floor_q)
  double floor_q = 0;   // Lindley value of an initially empty buffer
  double cost_add = 0;  // beta * rate * slots
};

/// Backtracking records live in byte-addressed pages of 64 KiB. A page is
/// allocated once and never moves, so an append never copies the records
/// before it: a block holds its records plus one partly filled page.
constexpr std::size_t kPageShift = 16;
constexpr std::size_t kPageBytes = std::size_t{1} << kPageShift;

/// Narrowest record width, in bytes, whose all-ones value (the no-parent
/// sentinel) exceeds every value up to `largest`.
unsigned RecordWidth(std::size_t largest) {
  if (largest < 0xffu) return 1;
  if (largest < 0xffffu) return 2;
  return 4;
}

/// Where one epoch's values sit in its block's pages: the K run-end
/// offsets, then one parent per survivor, each `width` bytes from byte
/// `base`. The base is a multiple of the width, so no value straddles a
/// page.
struct EpochRecords {
  std::size_t base = 0;
  unsigned width = 4;
};

/// Backtracking records for one streaming block of epochs. Each epoch
/// appends its survivors rate-major, so a record's rate is the run it
/// falls in: the epoch's K run ends count its records through each rate.
/// A record's parent is its offset among the previous epoch's records; in
/// the block's first epoch it is the flat index of its seed node in the
/// checkpoint frontier entering the block (kNoParent in block 0). Every
/// value of an epoch is stored at that epoch's RecordWidth.
struct ArenaBlock {
  std::int64_t first_epoch = 0;
  std::size_t nodes = 0;  // records appended (survives spilling)
  std::size_t bytes = 0;  // page bytes used, alignment included
  bool resident = true;
  std::vector<std::unique_ptr<unsigned char[]>> pages;
  std::vector<EpochRecords> epochs;

  /// Value `i` of epoch `ep`: run end i for i < K, else the parent of
  /// record i - K. The all-ones sentinel reads as kNoParent.
  std::uint32_t Get(const EpochRecords& ep, std::size_t i) const {
    const std::size_t at = ep.base + i * ep.width;
    const unsigned char* p =
        pages[at >> kPageShift].get() + (at & (kPageBytes - 1));
    switch (ep.width) {
      case 1:
        return *p == 0xffu ? kNoParent : *p;
      case 2: {
        std::uint16_t v;
        std::memcpy(&v, p, sizeof(v));
        return v == 0xffffu ? kNoParent : v;
      }
      default: {
        std::uint32_t v;
        std::memcpy(&v, p, sizeof(v));
        return v;
      }
    }
  }

  /// Opens an epoch of `width`-byte values at the next aligned byte.
  void BeginEpoch(unsigned width) {
    bytes = (bytes + width - 1) / width * width;
    epochs.push_back({bytes, width});
  }

  /// Appends `n` values to the open epoch, narrowed to its width
  /// (kNoParent becomes the all-ones sentinel).
  void Append(const std::uint32_t* src, std::size_t n) {
    switch (epochs.back().width) {
      case 1:
        AppendAs<std::uint8_t>(src, n);
        break;
      case 2:
        AppendAs<std::uint16_t>(src, n);
        break;
      default:
        AppendAs<std::uint32_t>(src, n);
    }
  }

  void Free() {
    resident = false;
    pages = decltype(pages)();
    epochs = decltype(epochs)();
  }

 private:
  template <class T>
  void AppendAs(const std::uint32_t* src, std::size_t n) {
    while (n != 0) {
      const std::size_t page = bytes >> kPageShift;
      if (page == pages.size()) {
        pages.push_back(
            std::make_unique_for_overwrite<unsigned char[]>(kPageBytes));
      }
      const std::size_t off = bytes & (kPageBytes - 1);
      const std::size_t chunk = std::min(n, (kPageBytes - off) / sizeof(T));
      unsigned char* dst = pages[page].get() + off;
      for (std::size_t i = 0; i < chunk; ++i) {
        const auto v = static_cast<T>(src[i]);
        std::memcpy(dst + i * sizeof(T), &v, sizeof(T));
      }
      bytes += chunk * sizeof(T);
      src += chunk;
      n -= chunk;
    }
  }
};

struct DpConfig {
  std::int64_t total_slots = 0;
  std::int64_t period = 1;
  std::int64_t num_epochs = 0;
  std::size_t num_rates = 0;
  double alpha = 0;
  double beta = 0;
  double quantum = 0;
  double inv_quantum = 0;     // 1 / quantum, when quantum > 0
  std::vector<double> bound;  // per-slot buffer bound
  /// Cells [0, grid_cells) hold every end buffer the bound admits.
  std::int64_t grid_cells = 0;
};

/// Cell m = b/Q of a non-negative buffer b, given inv_q = 1/Q.
/// std::nearbyint is a libm call without SSE4.1; adding 0.5 and truncating
/// rounds inline. The signed conversions are one instruction each way, the
/// unsigned ones are not.
std::int64_t CellOf(double b, double inv_q) {
  return static_cast<std::int64_t>(b * inv_q + 0.5);
}

class Trellis {
 public:
  Trellis(const std::vector<double>& workload, const DpOptions& options);
  DpResult Solve();

 private:
  void AdvanceEpoch(Frontier& cur, std::int64_t e, ArenaBlock& block,
                    bool record);
  void BuildGlobal(const Frontier& cur);
  bool BuildGlobalOnGrid(const Frontier& cur);
  void TransformRate(const Frontier& cur, std::size_t v, std::int64_t e,
                     std::size_t w, SliceOut& out);
  void Scatter(const SliceOut& out, std::size_t w);
  void DenseStep(const Run& own, std::size_t i, std::int64_t m_s,
                 std::size_t span, double b_cut, double grid_add,
                 double cost_add, std::size_t w, SliceOut& out);
  void StartBlock(std::int64_t first_epoch);
  /// Sizes the epoch table of `blk` once, so appends never move it.
  void ReserveEpochs(ArenaBlock& blk) const;
  void SpillOverBudget();
  void RecomputeBlock(std::size_t b);
  std::pair<std::size_t, std::size_t> Chunk(std::size_t w) const;

  const std::vector<double>& workload_;
  const DpOptions& opt_;
  DpConfig cfg_;

  std::unique_ptr<runtime::ThreadPool> pool_;
  std::unique_ptr<Team> team_;

  Frontier cur_;
  Frontier nxt_;
  ParetoList global_;  // built by grid cell
  FoldList fold_;      // or by the rate-order fold
  FoldList fold_scratch_;
  Run global_run_;     // this epoch's global frontier, from either
  std::vector<GridCell> cells_;  // the global envelope, reused
  bool grid_global_ = false;     // cells_ hold this epoch's global envelope
  std::int64_t grid_first_ = 0;  // cell index of cells_[0]
  /// Per-worker cells of the frontier the transform writes, for the next
  /// epoch's global build; cells [0, fill_cells_) may be written.
  std::vector<GridFill> fills_;
  std::int64_t fill_cells_ = 0;
  bool fill_covered_ = false;  // fills_ hold every node of `cur`
  /// Per-worker dense-step scratch: the own run's weights and parents by
  /// input cell (+inf off its nodes).
  std::vector<std::vector<double>> dense_wgt_;
  std::vector<std::vector<std::uint32_t>> dense_back_;
  std::vector<EpochCoeffs> coeffs_;
  std::vector<std::uint32_t> cap_off_;  // per-rate output offsets, size K+1
  std::vector<std::uint32_t> run_end_;  // one epoch's K run ends

  std::vector<ArenaBlock> blocks_;
  /// The frontier entering block b (b >= 1), its runs packed without
  /// gaps: the seed for on-demand recompute, plus the `back` map from
  /// checkpoint-flat indices to offsets among the previous block's
  /// last-epoch records (the cross-block backtracking link).
  std::vector<Frontier> checkpoints_;
  std::int64_t block_epochs_ = 0;
  std::size_t resident_nodes_ = 0;
  std::size_t resident_bytes_ = 0;
  std::size_t total_nodes_ = 0;
  std::size_t peak_live_ = 0;
  std::size_t peak_resident_ = 0;
  std::size_t peak_record_bytes_ = 0;
  std::int64_t spilled_blocks_ = 0;
  std::int64_t recomputed_epochs_ = 0;

  obs::Counter* ctr_epochs_ = nullptr;
  obs::Counter* ctr_candidates_ = nullptr;
  obs::Counter* ctr_retained_ = nullptr;
};

void ValidateOptions(const std::vector<double>& workload,
                     const DpOptions& options) {
  Require(!workload.empty(), "ComputeOptimalSchedule: empty workload");
  Require(!options.rate_levels.empty(),
          "ComputeOptimalSchedule: no rate levels");
  for (double level : options.rate_levels) {
    Require(std::isfinite(level),
            "ComputeOptimalSchedule: rate levels must be finite");
  }
  Require(std::is_sorted(options.rate_levels.begin(),
                         options.rate_levels.end()),
          "ComputeOptimalSchedule: rate levels must be ascending");
  for (std::size_t i = 1; i < options.rate_levels.size(); ++i) {
    Require(options.rate_levels[i] > options.rate_levels[i - 1],
            "ComputeOptimalSchedule: rate levels must be strictly ascending");
  }
  Require(options.rate_levels.front() >= 0,
          "ComputeOptimalSchedule: negative rate level");
  Require(options.rate_levels.size() <= 0xffff,
          "ComputeOptimalSchedule: more than 65535 rate levels");
  Require(options.decision_period >= 1,
          "ComputeOptimalSchedule: decision_period must be >= 1");
  Require(!std::isnan(options.buffer_quantum_bits) &&
              options.buffer_quantum_bits >= 0 &&
              std::isfinite(options.buffer_quantum_bits),
          "ComputeOptimalSchedule: buffer quantum must be finite and >= 0");
  Require(!std::isnan(options.buffer_bits) && options.buffer_bits >= 0,
          "ComputeOptimalSchedule: buffer bound must be >= 0 (not NaN)");
  Require(std::isfinite(options.cost.per_renegotiation) &&
              options.cost.per_renegotiation >= 0,
          "ComputeOptimalSchedule: per-renegotiation cost must be finite "
          "and >= 0");
  Require(std::isfinite(options.cost.per_bandwidth) &&
              options.cost.per_bandwidth >= 0,
          "ComputeOptimalSchedule: per-bandwidth cost must be finite and "
          ">= 0");
  Require(!std::isnan(options.final_buffer_bits) &&
              options.final_buffer_bits >= 0,
          "ComputeOptimalSchedule: final buffer bound must be >= 0 (not "
          "NaN)");
  Require(options.checkpoint_slots >= 0,
          "ComputeOptimalSchedule: checkpoint_slots must be >= 0");
  Require(options.max_resident_nodes > 0,
          "ComputeOptimalSchedule: max_resident_nodes must be positive");
}

Trellis::Trellis(const std::vector<double>& workload,
                 const DpOptions& options)
    : workload_(workload), opt_(options) {
  ValidateOptions(workload, options);

  cfg_.total_slots = static_cast<std::int64_t>(workload.size());
  cfg_.period = options.decision_period;
  cfg_.num_epochs = (cfg_.total_slots + cfg_.period - 1) / cfg_.period;
  cfg_.num_rates = options.rate_levels.size();
  cfg_.alpha = options.cost.per_renegotiation;
  cfg_.beta = options.cost.per_bandwidth;
  cfg_.quantum = options.buffer_quantum_bits;
  if (cfg_.quantum > 0) cfg_.inv_quantum = 1.0 / cfg_.quantum;

  // Per-slot buffer bound: constant B, or the last-d-slots arrival window
  // for the delay variant (see header).
  cfg_.bound.resize(workload.size());
  const bool delay_mode = options.delay_bound_slots >= 0;
  if (delay_mode) {
    // A positive buffer_bits combines with the delay bound: the occupancy
    // must respect both the physical buffer and the deadline window.
    const double hard_buffer =
        options.buffer_bits > 0 ? options.buffer_bits
                                : std::numeric_limits<double>::infinity();
    const std::int64_t d = options.delay_bound_slots;
    double window = 0;
    for (std::int64_t t = 0; t < cfg_.total_slots; ++t) {
      window += workload[static_cast<std::size_t>(t)];
      if (t - d >= 0) window -= workload[static_cast<std::size_t>(t - d)];
      cfg_.bound[static_cast<std::size_t>(t)] = std::min(window, hard_buffer);
    }
  } else {
    std::fill(cfg_.bound.begin(), cfg_.bound.end(), options.buffer_bits);
  }
  // An end buffer is ceil(q/Q)·Q for q at most the bound plus rounding,
  // so cells past the largest bound's, with slack, stay empty. An
  // unbounded buffer leaves the limit to the cell bound of AdvanceEpoch.
  if (cfg_.quantum > 0) {
    const double top = *std::ranges::max_element(cfg_.bound) * cfg_.inv_quantum;
    cfg_.grid_cells = top < 0x1p40 ? static_cast<std::int64_t>(top) + 4
                                   : std::numeric_limits<std::int64_t>::max();
  }

  // Streaming block cadence: a few thousand epochs by default, which keeps
  // the per-block working set small against typical frontiers while the
  // checkpoints stay sparse.
  block_epochs_ = options.checkpoint_slots > 0
                      ? std::max<std::int64_t>(
                            1, options.checkpoint_slots / cfg_.period)
                      : 4096;
  block_epochs_ = std::min(block_epochs_, cfg_.num_epochs);

  // Worker team: the transform parallelizes over rate levels, so more
  // workers than rates is pure overhead.
  std::size_t workers = opt_.threads == 0 ? runtime::HardwareThreads()
                                          : opt_.threads;
  workers = std::min(workers, cfg_.num_rates);
  workers = std::max<std::size_t>(workers, 1);
  if (workers > 1) {
    pool_ = std::make_unique<runtime::ThreadPool>(workers - 1);
  }
  team_ = std::make_unique<Team>(pool_.get(), workers);
  dense_wgt_.resize(workers);
  dense_back_.resize(workers);
  fills_.resize(workers);

  cur_.ResizeRates(cfg_.num_rates);
  nxt_.ResizeRates(cfg_.num_rates);
  coeffs_.resize(cfg_.num_rates);
  cap_off_.resize(cfg_.num_rates + 1);
  run_end_.resize(cfg_.num_rates);

  ctr_epochs_ = obs::FindCounter(opt_.recorder, "dp.epochs");
  ctr_candidates_ = obs::FindCounter(opt_.recorder, "dp.candidate_nodes");
  ctr_retained_ = obs::FindCounter(opt_.recorder, "dp.retained_nodes");
}

std::pair<std::size_t, std::size_t> Trellis::Chunk(std::size_t w) const {
  const std::size_t workers = team_->workers();
  const std::size_t k = cfg_.num_rates;
  return {w * k / workers, (w + 1) * k / workers};
}

void Trellis::BuildGlobal(const Frontier& cur) {
  grid_global_ = BuildGlobalOnGrid(cur);
  if (grid_global_) {
    global_run_ = global_.run();
  } else {
    FoldRuns(cur, fold_, fold_scratch_);
    global_run_ = fold_.run();
  }
}

/// The fold's result built by grid cell m = b/Q from the cells the last
/// transform filled (each keeps its strictly lightest node, the lowest rate
/// on an exact tie): an ascending sweep keeps a cell iff it is lighter than
/// every cell below it, leaving the envelope in cells_ for the dense step.
/// Returns false, leaving the global frontier to the fold, when the fill
/// does not cover every node (quantum 0, a buffer that is not double(m)·Q,
/// a cell past the prepared ones) or the grid has far more cells than live
/// nodes (docs/algorithms.md §1, "Grid-indexed global frontier").
bool Trellis::BuildGlobalOnGrid(const Frontier& cur) {
  if (!fill_covered_) return false;
  // Each run's ends bound the buffers, and its first weight bounds its
  // weights: a finite one lets an empty cell's +inf take any node.
  const double inf = std::numeric_limits<double>::infinity();
  double lo = inf;
  double hi = -inf;
  std::size_t live = 0;
  for (std::size_t v = 0; v < cfg_.num_rates; ++v) {
    if (cur.size(v) == 0) continue;
    if (!(cur.wgt[cur.begin[v]] < inf)) return false;
    live += cur.size(v);
    lo = std::min(lo, cur.buf[cur.begin[v]]);
    hi = std::max(hi, cur.buf[cur.end[v] - 1]);
  }
  if (live == 0) return false;
  const double inv_q = cfg_.inv_quantum;
  const std::int64_t first = CellOf(lo, inv_q);
  const std::int64_t last = CellOf(hi, inv_q);
  const auto cells = static_cast<std::size_t>(last - first + 1);
  if (cells > 4 * live + 64) return false;
  if (cells_.size() < cells) cells_.resize(cells);

  // Workers filled ascending rate chunks: merged in worker order, the
  // lowest rate keeps an exact tie as in a one-worker fill.
  GridFill& fill = fills_[0];
  fill.Touch(first, last);
  for (std::size_t w = 1; w < fills_.size(); ++w) {
    for (std::int64_t m = first; m <= last; ++m) {
      KeepLighter(fill.cells[m], fills_[w].cells[m].wgt,
                  fills_[w].cells[m].node);
    }
  }
  global_.clear();
  double running = inf;
  for (std::size_t c = 0; c < cells; ++c) {
    GridCell& cell = cells_[c];
    cell = fill.cells[first + c];
    if (cell.wgt < running) {
      running = cell.wgt;
      global_.Push(cur.buf[cell.node], running, cur.back[cell.node]);
      cell.node = cur.back[cell.node];
    }
    cell.wgt = running;
  }
  grid_first_ = first;
  return true;
}

/// Transition coefficients over epoch `e`'s slots at rate level `v` —
/// bit-identical arithmetic to the original per-slot loop.
EpochCoeffs ComputeCoeffs(const std::vector<double>& workload,
                          const DpConfig& cfg, double rate,
                          std::int64_t t0, std::int64_t epoch_slots) {
  EpochCoeffs er;
  er.feasible = true;
  er.cost_add = cfg.beta * rate * static_cast<double>(epoch_slots);
  double prefix = 0;         // P_s
  double lindley_empty = 0;  // N_s: queue starting empty
  double b_max = std::numeric_limits<double>::infinity();
  for (std::int64_t s = 0; s < epoch_slots; ++s) {
    const double a = workload[static_cast<std::size_t>(t0 + s)];
    const double cap = cfg.bound[static_cast<std::size_t>(t0 + s)];
    prefix += a;
    lindley_empty = std::max(lindley_empty + a - rate, 0.0);
    if (lindley_empty > cap) {
      er.feasible = false;  // even an empty buffer overflows
      break;
    }
    b_max = std::min(b_max, cap - prefix + rate * static_cast<double>(s + 1));
  }
  er.b_max = b_max;
  er.shift = prefix - rate * static_cast<double>(epoch_slots);
  er.floor_q = lindley_empty;
  return er;
}

void Trellis::TransformRate(const Frontier& cur, std::size_t v,
                            std::int64_t e, std::size_t w, SliceOut& out) {
  const std::int64_t t0 = e * cfg_.period;
  const std::int64_t epoch_slots =
      std::min(cfg_.period, cfg_.total_slots - t0);
  EpochCoeffs& er = coeffs_[v];
  er = ComputeCoeffs(workload_, cfg_, opt_.rate_levels[v], t0, epoch_slots);
  out.n = 0;
  if (!er.feasible) return;

  // End-of-epoch buffer, quantized up; monotone in the entering buffer.
  const double quantum = cfg_.quantum;
  const double shift = er.shift;
  const double floor_q = er.floor_q;
  const auto quantize = [quantum](double q) {
    if (quantum <= 0 || q <= 0) return q;
    return std::ceil(q / quantum) * quantum;
  };

  if (e == 0) {
    // Seed: an empty buffer, zero weight, no history. No alpha is charged
    // for the first rate (chosen at call setup).
    const double b0 = 0.0;
    if (b0 > er.b_max + 1e-9) return;
    out.Push(quantize(std::max(b0 + shift, floor_q)), 0.0 + er.cost_add,
             kNoParent);
    Scatter(out, w);
    return;
  }

  const Run own = cur.run(v);
  const Run other = global_run_;
  const double b_cut = er.b_max + 1e-9;

  // A node with b + shift <= floor_q lands on the floor buffer `floor_b`,
  // the lowest end buffer. On an integer grid every buffer is m·Q, so an
  // unclamped node lands exactly on b + ceil(shift/Q)·Q unless shift/Q is
  // within 1e-6 of an integer or the magnitudes leave the exact range
  // (docs/algorithms.md §1, "Clamped prefixes and the grid shift").
  const double floor_b = quantize(floor_q);
  const double largest = std::max(own.n != 0 ? own.buf[own.n - 1] : 0.0,
                                  other.n != 0 ? other.buf[other.n - 1] : 0.0);
  double grid_add = 0;
  bool on_grid = false;
  if (quantum > 0 && quantum == std::floor(quantum)) {
    const double reach = largest + std::abs(shift);
    const double steps = shift / quantum;
    const double up = std::ceil(steps);
    on_grid = reach <= 0x1p30 * quantum && reach + quantum < 0x1p52 &&
              up - steps > 1e-6 && steps - (up - 1) > 1e-6;
    grid_add = up * quantum;
  }
  const auto transform = [=](double b) {
    const double q = b + shift;
    if (q <= floor_q) return floor_b;
    return on_grid ? b + grid_add : quantize(q);
  };

  // Fused transform + Pareto merge of the same-rate frontier (no switch
  // cost) and the alpha-shifted global frontier, streamed in transformed-
  // buffer order, without materializing the transformed lists. Of each
  // stream's clamped prefix only the last node can survive, so the stream
  // starts there; on floor_b, where every earlier node of the stream
  // lies, it compares at the weight of the stream's node 0.
  const double cost_add = er.cost_add;
  const double alpha = cfg_.alpha;
  const auto start = [&](const Run& r) {
    const auto clamped = static_cast<std::size_t>(
        std::partition_point(r.buf, r.buf + r.n,
                             [&](double b) {
                               return b <= b_cut && b + shift <= floor_q;
                             }) -
        r.buf);
    return clamped != 0 ? clamped - 1 : 0;
  };
  std::size_t i = start(own);
  std::size_t j = start(other);
  const double own_floor_w = own.n != 0 ? own.wgt[0] + cost_add : 0;
  const double other_floor_w =
      other.n != 0 ? other.wgt[0] + cost_add + alpha : 0;
  double bi = 0, wi = 0, bj = 0, wj = 0;
  // The weights nodes i and j compare at on a tied buffer.
  double wi_first = 0, wj_first = 0;
  bool have_i = false, have_j = false;
  const auto fetch_own = [&] {
    if (i < own.n && own.buf[i] <= b_cut) {
      bi = transform(own.buf[i]);
      wi = own.wgt[i] + cost_add;
      wi_first = bi == floor_b ? own_floor_w : wi;
      have_i = true;
    } else {
      have_i = false;
    }
  };
  const auto fetch_other = [&] {
    if (j < other.n && other.buf[j] <= b_cut) {
      bj = transform(other.buf[j]);
      wj = other.wgt[j] + cost_add + alpha;
      wj_first = bj == floor_b ? other_floor_w : wj;
      have_j = true;
    } else {
      have_j = false;
    }
  };
  const auto take_next = [&] {
    const bool take_own =
        !have_j ||
        (have_i && (bi < bj || (bi == bj && wi_first <= wj_first)));
    if (take_own) {
      out.Push(bi, wi, own.back[i]);
      ++i;
      fetch_own();
    } else {
      out.Push(bj, wj, other.back[j]);
      ++j;
      fetch_other();
    }
  };
  fetch_own();
  fetch_other();
  while ((have_i && bi == floor_b) || (have_j && bj == floor_b)) take_next();
  if (on_grid && grid_global_ && (have_i || have_j)) {
    // Every remaining node is unclamped and lands on its cell + up, so
    // the rest can run as the dense step over input cells [m_s, m_e]; it
    // does unless the cells are too many per remaining node
    // (docs/algorithms.md §1, "Dense step on the whole-number grid").
    const double inv_q = cfg_.inv_quantum;
    const std::int64_t none = std::numeric_limits<std::int64_t>::max();
    const std::int64_t m_s =
        std::min(have_i ? CellOf(own.buf[i], inv_q) : none,
                 have_j ? CellOf(other.buf[j], inv_q) : none);
    std::int64_t m_e = CellOf(std::min(largest, b_cut), inv_q);
    while (static_cast<double>(m_e) * quantum > b_cut) --m_e;
    const std::int64_t span = m_e - m_s + 1;
    if (dp_internal::TakesDenseStep(span, (own.n - i) + (other.n - j))) {
      Scatter(out, w);
      DenseStep(own, i, m_s, static_cast<std::size_t>(span), b_cut,
                grid_add, cost_add, w, out);
      return;
    }
  }
  while (have_i || have_j) take_next();
  Scatter(out, w);
}

/// Offers a finished slice's nodes to worker `w`'s cells, checking that
/// each buffer is double(m)·Q on a prepared cell m.
void Trellis::Scatter(const SliceOut& out, std::size_t w) {
  GridFill& fill = fills_[w];
  if (!fill.covered || out.n == 0) return;
  const double quantum = cfg_.quantum;
  const double inv_q = cfg_.inv_quantum;
  // Buffers ascend, so the last one bounds the cells (and the casts).
  const double top = out.buf[out.n - 1] * inv_q + 0.5;
  if (!(top < static_cast<double>(fill_cells_))) {
    fill.covered = false;
    return;
  }
  fill.Touch(CellOf(out.buf[0], inv_q), static_cast<std::int64_t>(top));
  const auto flat = static_cast<std::uint32_t>(out.buf - nxt_.buf.data());
  for (std::uint32_t i = 0; i < out.n; ++i) {
    const std::int64_t m = CellOf(out.buf[i], inv_q);
    if (static_cast<double>(m) * quantum != out.buf[i]) {
      fill.covered = false;
      return;
    }
    KeepLighter(fill.cells[m], out.wgt[i], flat + i);
  }
}

void Trellis::DenseStep(const Run& own, std::size_t i, std::int64_t m_s,
                        std::size_t span, double b_cut, double grid_add,
                        double cost_add, std::size_t w, SliceOut& out) {
  // The own run's remaining nodes by input cell; +inf elsewhere never wins.
  const double quantum = cfg_.quantum;
  std::vector<double>& own_wgt = dense_wgt_[w];
  std::vector<std::uint32_t>& own_back = dense_back_[w];
  if (own_wgt.size() < span) {
    own_wgt.resize(span);
    own_back.resize(span);
  }
  std::fill_n(own_wgt.begin(), span, std::numeric_limits<double>::infinity());
  for (; i < own.n && own.buf[i] <= b_cut; ++i) {
    const auto k =
        static_cast<std::size_t>(CellOf(own.buf[i], cfg_.inv_quantum) - m_s);
    own_wgt[k] = own.wgt[i];
    own_back[k] = own.back[i];
  }

  // Each cell offers its lighter stream, own on an exact tie, and is kept
  // where it drops below the running minimum. A cell is written before
  // the test and overwritten if it is not kept, and the winner is picked
  // by mask, so the loop has no branch on the data; the slice holds one
  // spare slot for that write.
  //
  // Input cell m_s + k lands on cell first_out + k, and each node the loop
  // writes there is offered to the next epoch's grid cell, kept or not: a
  // node it overwrites weighs at least the rate's running minimum, which a
  // lower cell already holds, so the next epoch's sweep never keeps it.
  // `up` is a whole number of quanta; shifts are mostly negative, so it
  // rounds by floor, not by truncation.
  GridFill& fill = fills_[w];
  const std::int64_t up = static_cast<std::int64_t>(
      std::floor(grid_add * cfg_.inv_quantum + 0.5));
  const std::int64_t first_out = m_s + up;
  const auto last_out = first_out + static_cast<std::int64_t>(span) - 1;
  const bool fills = fill.covered && first_out >= 0 && last_out < fill_cells_;
  if (fills) {
    fill.Touch(first_out, last_out);
  } else {
    fill.covered = false;
  }
  const auto flat = static_cast<std::uint32_t>(out.buf - nxt_.buf.data());
  const GridCell* global = cells_.data() + (m_s - grid_first_);
  const double alpha = cfg_.alpha;
  const auto walk = [&](auto filling) {
    GridCell* cell = fill.cells.data() + (fills ? first_out : 0);
    double running = out.n != 0 ? out.wgt[out.n - 1]
                                : std::numeric_limits<double>::infinity();
    double b = static_cast<double>(m_s) * quantum + grid_add;
    std::uint32_t n = out.n;
    for (std::size_t k = 0; k < span; ++k) {
      const double wo = own_wgt[k] + cost_add;
      const double wg = global[k].wgt + cost_add + alpha;
      const std::uint32_t own_wins = 0u - (wo <= wg ? 1u : 0u);
      const double wk = std::min(wo, wg);
      out.buf[n] = b;
      out.wgt[n] = wk;
      out.back[n] = (own_back[k] & own_wins) | (global[k].node & ~own_wins);
      if constexpr (decltype(filling)::value) {
        KeepLighter(cell[k], wk, flat + n);
      }
      n += wk < running ? 1u : 0u;
      running = std::min(running, wk);
      b += quantum;
    }
    out.n = n;
  };
  if (fills) {
    walk(std::true_type{});
  } else {
    walk(std::false_type{});
  }
}

void Trellis::StartBlock(std::int64_t first_epoch) {
  if (first_epoch > 0) {
    // Snapshot the frontier entering this block, its runs packed, with
    // `back` still pointing at the previous epoch's records (the
    // cross-block link); then point the live nodes' backpointers at their
    // packed position, so this block's first-epoch records name
    // checkpoint positions.
    checkpoints_.emplace_back();
    Frontier& f = checkpoints_.back();
    const std::size_t live = cur_.live();
    f.buf.resize(live);
    f.wgt.resize(live);
    f.back.resize(live);
    f.ResizeRates(cfg_.num_rates);
    std::uint32_t at = 0;
    for (std::size_t v = 0; v < cfg_.num_rates; ++v) {
      const std::uint32_t from = cur_.begin[v];
      const std::size_t n = cur_.size(v);
      std::copy_n(cur_.buf.begin() + from, n, f.buf.begin() + at);
      std::copy_n(cur_.wgt.begin() + from, n, f.wgt.begin() + at);
      std::copy_n(cur_.back.begin() + from, n, f.back.begin() + at);
      f.begin[v] = at;
      for (std::size_t i = 0; i < n; ++i) cur_.back[from + i] = at++;
      f.end[v] = at;
    }
  }
  blocks_.emplace_back();
  ArenaBlock& blk = blocks_.back();
  blk.first_epoch = first_epoch;
  ReserveEpochs(blk);
}

void Trellis::ReserveEpochs(ArenaBlock& blk) const {
  const std::int64_t epochs =
      std::min(block_epochs_, cfg_.num_epochs - blk.first_epoch);
  blk.epochs.reserve(static_cast<std::size_t>(epochs));
}

void Trellis::SpillOverBudget() {
  // Free the oldest resident blocks (they are recomputable from their
  // checkpoints); the block being written always stays.
  for (std::size_t b = 0;
       resident_nodes_ > opt_.max_resident_nodes && b + 1 < blocks_.size();
       ++b) {
    if (!blocks_[b].resident) continue;
    resident_nodes_ -= blocks_[b].nodes;
    resident_bytes_ -= blocks_[b].bytes;
    blocks_[b].Free();
    ++spilled_blocks_;
  }
}

void Trellis::AdvanceEpoch(Frontier& cur, std::int64_t e, ArenaBlock& block,
                           bool record) {
  const std::int64_t t0 = e * cfg_.period;
  const bool initial = e == 0;
  if (!initial) BuildGlobal(cur);

  // Output capacity per rate: everything the fused merge can emit, plus
  // the dense step's spare slot.
  cap_off_[0] = 0;
  for (std::size_t v = 0; v < cfg_.num_rates; ++v) {
    const std::size_t cap =
        initial ? 1 : cur.size(v) + global_run_.n + 1;
    cap_off_[v + 1] = cap_off_[v] + static_cast<std::uint32_t>(cap);
  }
  nxt_.EnsureCapacity(cap_off_[cfg_.num_rates]);

  // The cells the transform may fill: those the bound admits, and never
  // more than the grid build accepts for as many nodes as the slices hold.
  if (cfg_.quantum > 0) {
    fill_cells_ = std::min<std::int64_t>(
        cfg_.grid_cells, 4 * std::int64_t{cap_off_[cfg_.num_rates]} + 64);
    for (GridFill& fill : fills_) {
      if (std::ssize(fill.cells) < fill_cells_) fill.cells.resize(fill_cells_);
    }
  }

  team_->Run([&](std::size_t w) {
    fills_[w].Reset(fill_cells_ > 0);
    const auto [v0, v1] = Chunk(w);
    for (std::size_t v = v0; v < v1; ++v) {
      SliceOut out{nxt_.buf.data() + cap_off_[v],
                   nxt_.wgt.data() + cap_off_[v],
                   nxt_.back.data() + cap_off_[v], 0};
      TransformRate(cur, v, e, w, out);
      nxt_.begin[v] = cap_off_[v];
      nxt_.end[v] = cap_off_[v] + out.n;
    }
  });
  fill_covered_ = std::ranges::all_of(
      fills_, [](const GridFill& fill) { return fill.covered; });

  // Candidate accounting matches the original: each feasible rate offered
  // its own frontier plus the whole cross-rate frontier (the seed counts
  // one candidate).
  std::size_t candidates = 0;
  std::size_t live = 0;
  for (std::size_t v = 0; v < cfg_.num_rates; ++v) {
    if (coeffs_[v].feasible) {
      candidates += initial ? 1 : cur.size(v) + global_run_.n;
    }
    live += nxt_.size(v);
  }
  if (live == 0) {
    throw Infeasible(
        "ComputeOptimalSchedule: no feasible schedule at slot " +
        std::to_string(t0) +
        " (largest rate level below the bound's requirement)");
  }

  // Record the survivors for backtracking, rate-major: the run ends, then
  // each rate's contiguous backpointer run, which is renumbered to offsets
  // among this epoch's records once the inspect hook has seen it. Parents
  // index the entering frontier's records (or packed checkpoint), fewer
  // than cur.live().
  std::uint32_t at = 0;
  for (std::size_t v = 0; v < cfg_.num_rates; ++v) {
    at += static_cast<std::uint32_t>(nxt_.size(v));
    run_end_[v] = at;
  }
  const std::size_t bytes_before = block.bytes;
  block.BeginEpoch(RecordWidth(std::max(live, cur.live())));
  block.Append(run_end_.data(), cfg_.num_rates);
  for (std::size_t v = 0; v < cfg_.num_rates; ++v) {
    block.Append(nxt_.back.data() + nxt_.begin[v], nxt_.size(v));
  }
  block.nodes += live;

  if (record) {
    total_nodes_ += live;
    resident_nodes_ += live;
    resident_bytes_ += block.bytes - bytes_before;
    peak_live_ = std::max(peak_live_, live);
    peak_resident_ = std::max(peak_resident_, resident_nodes_);
    peak_record_bytes_ = std::max(peak_record_bytes_, resident_bytes_);
    if constexpr (obs::kEnabled) {
      if (ctr_epochs_ != nullptr) ctr_epochs_->Add();
      if (ctr_candidates_ != nullptr) {
        ctr_candidates_->Add(static_cast<std::int64_t>(candidates));
      }
      if (ctr_retained_ != nullptr) {
        ctr_retained_->Add(static_cast<std::int64_t>(live));
      }
      obs::Emit(opt_.recorder, static_cast<double>(t0),
                obs::EventKind::kDpPrune, opt_.obs_id,
                {"candidates", static_cast<double>(candidates)},
                {"survivors", static_cast<double>(live)},
                {"arena_nodes", static_cast<double>(total_nodes_)});
    }
    if (opt_.inspect) {
      DpFrontierView view;
      view.first_slot = t0;
      view.num_rates = cfg_.num_rates;
      view.live_nodes = live;
      view.arena_nodes = total_nodes_;
      view.buf = nxt_.buf.data();
      view.wgt = nxt_.wgt.data();
      view.back = nxt_.back.data();
      view.begin = nxt_.begin.data();
      view.end = nxt_.end.data();
      opt_.inspect(view);
    }
  }
  at = 0;
  for (std::size_t v = 0; v < cfg_.num_rates; ++v) {
    for (std::uint32_t idx = nxt_.begin[v]; idx < nxt_.end[v]; ++idx) {
      nxt_.back[idx] = at++;
    }
  }
  std::swap(cur, nxt_);
}

void Trellis::RecomputeBlock(std::size_t b) {
  ArenaBlock& blk = blocks_[b];
  blk.resident = true;
  blk.nodes = 0;
  blk.bytes = 0;
  ReserveEpochs(blk);

  // Reseed the forward state entering the block and replay it. The replay
  // runs the identical code path (including the parallel transform), so
  // the frontiers — and therefore the records — are bit-identical to the
  // first pass.
  Frontier scratch;
  fill_covered_ = false;  // the cells index the last frontier written
  if (b == 0) {
    scratch.ResizeRates(cfg_.num_rates);
  } else {
    scratch = checkpoints_[b - 1];
    for (std::size_t v = 0; v < cfg_.num_rates; ++v) {
      for (std::uint32_t idx = scratch.begin[v]; idx < scratch.end[v];
           ++idx) {
        scratch.back[idx] = idx;
      }
    }
  }
  const std::int64_t last =
      std::min(blk.first_epoch + block_epochs_, cfg_.num_epochs);
  for (std::int64_t e = blk.first_epoch; e < last; ++e) {
    AdvanceEpoch(scratch, e, blk, /*record=*/false);
    ++recomputed_epochs_;
  }
}

DpResult Trellis::Solve() {
  DpResult result{PiecewiseConstant::Constant(0, 1), 0, 0, 0, 0, 0, 0};

  for (std::int64_t e = 0; e < cfg_.num_epochs; ++e) {
    if (e % block_epochs_ == 0) {
      StartBlock(e);
      SpillOverBudget();
    }
    AdvanceEpoch(cur_, e, blocks_.back(), /*record=*/true);
  }

  // Best terminal node across all rates, subject to the terminal-buffer
  // constraint. Every frontier retains its minimal-buffer state, and both
  // pruning rules only discard nodes dominated in (buffer, weight), so
  // filtering here is exact. Rate-major scan: the lowest rate wins ties,
  // as before.
  const double* best_w = nullptr;
  std::uint32_t best_back = kNoParent;
  for (std::size_t v = 0; v < cfg_.num_rates; ++v) {
    for (std::uint32_t idx = cur_.begin[v]; idx < cur_.end[v]; ++idx) {
      if (cur_.buf[idx] > opt_.final_buffer_bits + 1e-9) continue;
      if (best_w == nullptr || cur_.wgt[idx] < *best_w) {
        best_w = &cur_.wgt[idx];
        best_back = cur_.back[idx];
      }
    }
  }
  if (best_w == nullptr) {
    throw Infeasible(
        "ComputeOptimalSchedule: no schedule drains the buffer to "
        "final_buffer_bits by the end of the session");
  }

  // Backtrack the epoch rate decisions, streaming block by block; spilled
  // blocks are replayed from their checkpoint on demand. The cursor is an
  // offset among one epoch's records; its rate is the first run that ends
  // past it.
  std::vector<std::uint16_t> decisions(
      static_cast<std::size_t>(cfg_.num_epochs));
  const std::size_t k = cfg_.num_rates;
  const auto rates = std::views::iota(std::size_t{0}, k);
  std::uint32_t cursor = best_back;
  for (std::size_t b = blocks_.size(); b-- > 0;) {
    ArenaBlock& blk = blocks_[b];
    if (!blk.resident) RecomputeBlock(b);
    for (std::size_t e = blk.epochs.size(); e-- > 0;) {
      const EpochRecords& ep = blk.epochs[e];
      const auto ends_past = std::ranges::partition_point(
          rates, [&](std::size_t v) { return blk.Get(ep, v) <= cursor; });
      decisions[static_cast<std::size_t>(blk.first_epoch) + e] =
          static_cast<std::uint16_t>(*ends_past);
      cursor = blk.Get(ep, k + cursor);
    }
    blk.Free();  // keep the working set bounded
    if (b > 0) cursor = checkpoints_[b - 1].back[cursor];
  }

  std::vector<Step> steps;
  steps.reserve(static_cast<std::size_t>(cfg_.num_epochs));
  for (std::int64_t e = 0; e < cfg_.num_epochs; ++e) {
    steps.push_back({e * cfg_.period,
                     opt_.rate_levels[decisions[static_cast<std::size_t>(e)]]});
  }
  result.schedule = PiecewiseConstant(std::move(steps), cfg_.total_slots);
  result.optimal_cost = *best_w;
  result.peak_live_nodes = peak_live_;
  result.total_nodes = total_nodes_;
  result.peak_resident_nodes = peak_resident_;
  result.peak_record_bytes = peak_record_bytes_;
  result.recomputed_epochs = recomputed_epochs_;
  if constexpr (obs::kEnabled) {
    obs::Count(opt_.recorder, "dp.spilled_blocks", spilled_blocks_);
  }
  return result;
}

}  // namespace

std::vector<double> UniformRateLevels(double lo, double hi,
                                      std::size_t count) {
  return UniformGrid(lo, hi, count);
}

DpResult ComputeOptimalSchedule(const std::vector<double>& workload_bits,
                                const DpOptions& options) {
  Trellis trellis(workload_bits, options);
  return trellis.Solve();
}

}  // namespace rcbr::core
