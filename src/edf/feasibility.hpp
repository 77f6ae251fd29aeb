#pragma once

/// @file feasibility.hpp
/// The two-constraint EDF feasibility test of paper §18.3.2:
///
///   1. utilization ΣC_i/P_i ≤ 1                       (Eq 18.2)
///   2. h(n, t) ≤ t for all t                          (Eq 18.3)
///
/// with the paper's two refinements of constraint 2: scan only the first
/// busy period (Eq 18.4) and only the deadline checkpoints (Eq 18.5), plus
/// the Liu & Layland shortcut — when every deadline equals its period,
/// constraint 1 alone is necessary and sufficient.
///
/// Three interchangeable scan strategies are provided so the ablation bench
/// can quantify the refinements and property tests can cross-validate them.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "edf/task_set.hpp"
#include "edf/utilization.hpp"

namespace rtether::edf {

/// How constraint 2 (demand criterion) is scanned.
enum class DemandScan {
  /// Every integer slot t in [1, busy period]. Correct but slow; the
  /// reference for cross-validation.
  kEverySlot,
  /// Only the checkpoints of Eq 18.5 within [1, busy period] — the paper's
  /// algorithm and the library default.
  kCheckpoints,
  /// Every integer slot t in [1, hyperperiod + max deadline]. Exhaustive
  /// oracle for tests; falls back to the (equally exact, Eq 18.4) busy-period
  /// bound when the hyperperiod overflows 64 bits *or* exceeds the practical
  /// scan budget `kExhaustiveOracleCap` — a near-64-bit hyperperiod must not
  /// turn the oracle into an out-of-memory abort, and the fallback cannot
  /// change decisions because the busy-period bound is already sufficient.
  kExhaustive,
};

/// Largest bound the kExhaustive oracle will scan beyond the busy period.
/// Hyperperiod-sized extensions above this are skipped (see DemandScan).
inline constexpr Slot kExhaustiveOracleCap = Slot{1} << 22;

/// Why a task set was declared infeasible.
enum class InfeasibleReason {
  kNone,                 ///< feasible
  kUtilizationExceeded,  ///< constraint 1 violated (U > 1)
  kDemandExceeded,       ///< constraint 2 violated at `violation_time`
};

/// Outcome of a feasibility check, with enough detail for diagnostics and
/// for the admission controller's reject messages.
struct FeasibilityReport {
  bool feasible{false};
  InfeasibleReason reason{InfeasibleReason::kNone};
  /// Utilization of the task set (double — reporting only; the constraint
  /// itself is decided by `utilization_exceeds_one`).
  double utilization{0.0};
  /// First instant where h(n,t) > t (only for kDemandExceeded).
  std::optional<Slot> violation_time;
  /// Demand at the violating instant (only for kDemandExceeded).
  std::optional<Slot> violation_demand;
  /// Busy-period length actually scanned (0 when the Liu & Layland fast
  /// path or the utilization test decided).
  Slot scanned_bound{0};
  /// Number of demand evaluations performed (ablation metric).
  std::uint64_t demand_evaluations{0};
  /// True when the Liu & Layland implicit-deadline shortcut decided.
  bool used_utilization_fast_path{false};

  /// Human-readable one-line summary.
  [[nodiscard]] std::string summary() const;
};

/// Runs the full two-constraint test with the chosen demand scan.
[[nodiscard]] FeasibilityReport check_feasibility(
    const TaskSet& set, DemandScan scan = DemandScan::kCheckpoints);

/// Convenience: true iff `check_feasibility(set, scan).feasible`.
[[nodiscard]] bool is_feasible(const TaskSet& set,
                               DemandScan scan = DemandScan::kCheckpoints);

/// Incremental per-link scan state for high-throughput admission.
///
/// `check_feasibility` re-derives everything from scratch: the checkpoint
/// grid is regenerated and sorted, and the demand h(n, t) is re-summed over
/// all n tasks at every instant — O(n · checkpoints) per request, per
/// candidate. A switch admitting a large batch of channel requests repeats
/// that work on nearly identical task sets thousands of times.
///
/// This cache exploits two structural facts:
///
///   1. h(n, t) is a step function that jumps exactly at the checkpoints
///      (Eq 18.5), so memoizing its value at each cached checkpoint lets a
///      candidate task x be trial-tested against `set ∪ {x}` by a single
///      merge-walk: h(set ∪ {x}, t) = cached h(set, t) + h({x}, t), where
///      the cached value at any instant is a floor lookup. O(checkpoints)
///      per trial instead of O(n · checkpoints).
///   2. The grid is computed once per link and maintained *incrementally in
///      both directions*: `commit` folds an admitted task in, `downdate`
///      subtracts a released task back out (each instant carries an owner
///      count — how many shadowed tasks have a checkpoint there — so the
///      released task's private instants are dropped exactly). The link's
///      hyperperiod is not kept at all: `hyperperiod()` derives it on
///      demand from the per-period workload buckets (lcm is
///      order-independent, so the value matches a running lcm over the set
///      bit for bit, including the overflow→nullopt verdict).
///
/// Decisions are bit-identical to `check_feasibility(set ∪ {x},
/// kCheckpoints)`: constraint 1 uses the same exact arithmetic (tasks
/// visited in the same order), the busy-period bound is the same least
/// fixed point, and the merge-walk visits exactly the deduplicated
/// checkpoint union in ascending order, reporting the same first violation.
///
/// The cache shadows one link direction's TaskSet. Every `TaskSet::add`
/// must be mirrored by `commit` and every `TaskSet::remove` by `downdate`
/// (`reset` remains as the cold rebuild for adopting a pre-populated link —
/// and as the release-as-invalidate baseline the churn bench gates
/// against). `check_with` asserts the shadow is in sync.
///
/// `check_with` is const: a trial test — even a rejected one, even one whose
/// busy period reaches past the cached horizon — leaves no residue in the
/// cache. That makes a cache shareable between concurrent readers (the
/// parallel admission engine trial-tests candidates from worker threads) as
/// long as `commit`/`reset`/`reserve_horizon` are externally serialized
/// against them. Callers that want the grid to keep pace with growing busy
/// periods call `reserve_horizon` after a scanned trial (see
/// `core::AdmissionEngine`); a trial past the horizon is still answered
/// exactly, from stack scratch space, just without memoization.
class LinkScanCache {
 public:
  /// Valid for an empty task set.
  LinkScanCache() = default;

  /// Cold rebuild from the link's current task set (adopting a pre-populated
  /// link, or the release-as-invalidate baseline policy). Clamps the horizon
  /// to the set's busy period; releases on the hot path use `downdate`.
  void reset(const TaskSet& set);

  /// Trial-tests `set ∪ {extra}` without mutating anything — the cache
  /// included. Identical verdict and diagnostics to `check_feasibility`
  /// with kCheckpoints. `set` must be the task set this cache shadows;
  /// `extra` must be valid.
  [[nodiscard]] FeasibilityReport check_with(const TaskSet& set,
                                             const PseudoTask& extra) const;

  /// Mirrors a `TaskSet::add(task)` on the shadowed set: folds the task's
  /// demand into every cached checkpoint and merges its own checkpoints in.
  /// `busy_period_after` — the accepted trial's `scanned_bound`, i.e. the
  /// busy period of the set including `task` — warm-starts the next trial's
  /// fixed-point iteration; pass nullopt when unknown (Liu & Layland
  /// fast-path accepts, where no scan ran).
  void commit(const PseudoTask& task,
              std::optional<Slot> busy_period_after = std::nullopt);

  /// Mirrors a `TaskSet::remove` on the shadowed set: subtracts the task's
  /// demand from every cached instant and drops the instants only it owned
  /// (one O(points) sweep), then re-derives the exact utilization state
  /// and the busy period from the per-period buckets —
  /// O(distinct periods) each (the busy period per fixed-point step),
  /// against the O(tasks · points) cold rescan `reset` performs. Only a
  /// utilization state already in its 128-bit overflow fallback is rebuilt
  /// from `set` in O(tasks) (see `UtilizationAccumulator::remove`). The
  /// memoized grid (and its horizon) survives the release, so an identical
  /// re-admit is a pure merge-walk again. `set` must be the post-removal
  /// task set; `task` the exact pseudo-task that was removed.
  void downdate(const TaskSet& set, const PseudoTask& task);

  /// Pre-extends the checkpoint grid to `horizon` (batch pre-pass: pay the
  /// grid generation once per link up front). No-op when already covered.
  void reserve_horizon(const TaskSet& set, Slot horizon);

  /// Highest instant the cached grid covers.
  [[nodiscard]] Slot horizon() const { return horizon_; }

  /// lcm of the shadowed set's periods; nullopt once it overflows 64 bits.
  /// Derived on demand over the distinct periods, O(distinct periods).
  [[nodiscard]] std::optional<Slot> hyperperiod() const;

  /// Number of tasks the cache believes the shadowed set holds.
  [[nodiscard]] std::size_t task_count() const { return task_count_; }

 private:
  /// Appends the shadowed set's checkpoints in (horizon_, limit] — ascending,
  /// deduplicated — and their demands to `points`/`demands`. The generation
  /// shared by `extend` (which folds them into the cache, tracking owner
  /// counts) and by a const `check_with` whose trial bound outruns the
  /// cached horizon (which keeps them on the stack and passes a null
  /// `owners`).
  void grid_beyond(const TaskSet& set, Slot limit, std::vector<Slot>& points,
                   std::vector<Slot>& demands,
                   std::vector<std::uint32_t>* owners) const;

  /// Grows the grid to `new_horizon`, generating only the new instants.
  void extend(const TaskSet& set, Slot new_horizon);

  /// Busy period of `shadowed set ∪ {extra}` — the same least fixed point
  /// `busy_period_with` computes, but iterated over the per-period workload
  /// buckets and warm-started from the shadowed set's cached busy period
  /// (the least fixed point only grows as tasks are added, so starting at
  /// the old one converges to the identical new one in a step or two).
  [[nodiscard]] std::optional<Slot> trial_busy_period(
      const TaskSet& set, const PseudoTask& extra) const;

  /// Recomputes `busy_period_` for the shadowed (post-mutation) set from
  /// the period buckets: the identical least fixed point `busy_period(set)`
  /// finds, in O(distinct periods) per iteration step.
  [[nodiscard]] std::optional<Slot> bucket_busy_period(Slot backlog) const;

  /// Checkpoint instants of the shadowed set in [1, horizon_], ascending,
  /// deduplicated — exactly `checkpoints(set, horizon_)`.
  std::vector<Slot> points_;
  /// demand(set, points_[k]) for each cached instant.
  std::vector<Slot> demands_;
  /// How many shadowed tasks have a checkpoint at points_[k] (t ≡ d_j mod
  /// P_j, t ≥ d_j). `downdate` drops an instant when its last owner leaves,
  /// keeping the grid exactly `checkpoints(set, horizon_)` through churn.
  std::vector<std::uint32_t> owners_;
  Slot horizon_{0};
  std::size_t task_count_{0};
  /// Tasks with deadline != period; 0 enables the Liu & Layland fast path.
  std::size_t non_implicit_{0};
  /// Exact 128-bit utilization state of the shadowed set: trial tests of
  /// constraint 1 are O(1) instead of O(n).
  UtilizationAccumulator utilization_;
  /// Tasks aggregated per distinct period, sorted by P. Σ⌈L/P_i⌉·C_i
  /// distributes over tasks sharing a period, so the busy-period iteration
  /// costs O(distinct periods) per step; the per-bucket fractional counts
  /// let `downdate` re-derive the exact utilization's denominator the same
  /// way.
  std::vector<PeriodBucket> period_buckets_;
  /// Busy period of the shadowed set; nullopt when unknown (after a
  /// fast-path accept) — the next trial then cold-starts from the backlog.
  std::optional<Slot> busy_period_{Slot{0}};
};

}  // namespace rtether::edf
