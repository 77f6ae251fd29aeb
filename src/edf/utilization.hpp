#pragma once

/// @file utilization.hpp
/// Constraint 1 of the feasibility test (paper Eq 18.2): ΣC_i/P_i ≤ 1.
///
/// Evaluating the sum in floating point would make boundary admissions
/// (U exactly 1) depend on summation order; evaluating it as one exact
/// fraction can overflow any fixed width (the common denominator is the lcm
/// of the periods, which explodes for coprime period sets). The test here
/// is exact whenever the running denominator fits in 128 bits — which
/// covers every realistic industrial period set — and otherwise falls back
/// to a fixed-point *upper bound* on U, i.e. it degrades by rejecting a
/// borderline-feasible set (by < n·2⁻³², never the other way). Admission
/// control must never accept an infeasible set; conservatively rejecting a
/// pathological one is the safe failure mode.

#include <cstdint>
#include <span>

#include "edf/task_set.hpp"

namespace rtether::edf {

/// The tasks of one link direction that share a period, aggregated. The
/// busy-period iteration reads the workload (Σ⌈L/P⌉·C distributes over
/// tasks sharing P) and the utilization downdate reads which periods still
/// contribute to the exact sum's common denominator.
struct PeriodBucket {
  Slot period{0};
  /// ΣC of the tasks with this period.
  Slot capacity{0};
  /// How many of those tasks have C mod P ≠ 0 — the ones whose period
  /// enters the exact sum's common denominator.
  std::uint32_t fractional{0};
};

/// True iff ΣC_i/P_i > 1 (with the conservative fallback described above,
/// which can only turn "≤ 1 by a hair" into "exceeds").
[[nodiscard]] bool utilization_exceeds_one(const TaskSet& set);

/// Same test for `set ∪ {extra}` without materializing the union. The extra
/// task is accumulated last, exactly as if it had been `add`ed to the set, so
/// the verdict (including the overflow-fallback path, which is sensitive to
/// accumulation order) is identical to mutating the set and testing it.
[[nodiscard]] bool utilization_exceeds_one_with(const TaskSet& set,
                                                const PseudoTask& extra);

/// Incremental form of the exact test for admission pipelines: keeps the
/// 128-bit accumulation state of a task set so that testing `set ∪ {extra}`
/// is O(1) instead of O(n) per trial. Tasks must be `add`ed in the same
/// order they are added to the mirrored TaskSet; verdicts are then identical
/// to `utilization_exceeds_one_with` (including the conservative
/// fixed-point fallback once the running denominator overflows).
class UtilizationAccumulator {
 public:
  UtilizationAccumulator() = default;

  /// Rebuilds the state from scratch (O(n)).
  void reset(const TaskSet& set);

  /// Folds one more task into the state (mirror of `TaskSet::add`).
  void add(const PseudoTask& task);

  /// Takes `task` back out of the state (mirror of `TaskSet::remove`).
  /// `set` is the post-removal set and `buckets` its per-period aggregate.
  /// In the exact regime this is O(distinct periods): the common
  /// denominator is re-derived as the lcm of the periods whose bucket is
  /// still `fractional`, and the remaining fraction is rescaled onto it.
  /// When the remaining set has U ≤ 1 the result equals a fresh
  /// `reset(set)` exactly: the new lcm divides the old one, so it fits; a
  /// fresh accumulation never overflows (each prefix denominator divides
  /// that lcm and each partial numerator stays at or below its
  /// denominator) nor decides "exceeds" early; and the reduced
  /// (whole, num, den) state it ends in is unique. With U > 1 left the
  /// state is still the exact sum, so both answer "exceeds" to every query.
  /// A state that had already overflowed or decided "exceeds" stopped
  /// reading the set part-way; that one is rebuilt with `reset(set)`
  /// (O(n)), since the fallback verdict depends on accumulation order.
  void remove(const TaskSet& set, const PseudoTask& task,
              std::span<const PeriodBucket> buckets);

  /// Verdict for the accumulated set alone.
  [[nodiscard]] bool exceeds_one() const;

  /// Verdict for `accumulated set ∪ {extra}` without mutating the state.
  [[nodiscard]] bool exceeds_one_with(const PseudoTask& extra) const;

 private:
  __extension__ using UInt128 = unsigned __int128;

  struct ExactState {
    bool valid{true};     ///< false once the denominator overflowed 128 bits
    bool exceeded{false}; ///< decided "exceeds" mid-accumulation
    std::uint64_t whole{0};
    UInt128 num{0};
    UInt128 den{1};
  };

  /// Advances `state` by one task; mirrors the reference accumulation.
  static void advance(ExactState& state, const PseudoTask& task);

  [[nodiscard]] static bool verdict(const ExactState& state, UInt128 upper);

  /// Σ ⌈C·2³²/P⌉ — the conservative fallback sum, kept alongside.
  [[nodiscard]] static UInt128 upper_bound_term(const PseudoTask& task);

  ExactState exact_{};
  UInt128 upper_sum_{0};
};

}  // namespace rtether::edf
