#include "edf/utilization.hpp"

#include <numeric>

#include "common/assert.hpp"

namespace rtether::edf {

namespace {

__extension__ typedef unsigned __int128 UInt128;

constexpr UInt128 kU128Max = ~UInt128{0};

/// lcm of the periods whose bucket still holds a fractional task.
UInt128 fractional_lcm(std::span<const PeriodBucket> buckets) {
  UInt128 den = 1;
  for (const auto& bucket : buckets) {
    if (bucket.fractional == 0) continue;
    const std::uint64_t g = std::gcd(
        static_cast<std::uint64_t>(den % bucket.period), bucket.period);
    den *= bucket.period / g;
  }
  return den;
}

}  // namespace

void UtilizationAccumulator::advance(ExactState& state,
                                     const PseudoTask& task) {
  state.whole += task.capacity / task.period;
  const std::uint64_t cf = task.capacity % task.period;
  if (cf == 0) return;
  const std::uint64_t period = task.period;

  // den' = lcm(den, period); degrade to the fixed-point bound on overflow.
  const std::uint64_t g =
      std::gcd(static_cast<std::uint64_t>(state.den % period), period);
  const std::uint64_t scale = period / g;
  if (scale != 0 && state.den > kU128Max / scale) {
    state.valid = false;
    return;
  }
  const UInt128 new_den = state.den * scale;
  const UInt128 num_scale = new_den / state.den;
  const UInt128 term_scale = new_den / period;
  if (state.num != 0 && num_scale != 0 && state.num > kU128Max / num_scale) {
    state.valid = false;
    return;
  }
  const UInt128 scaled_num = state.num * num_scale;
  if (term_scale != 0 && UInt128{cf} > (kU128Max - scaled_num) / term_scale) {
    state.valid = false;
    return;
  }
  state.num = scaled_num + UInt128{cf} * term_scale;
  state.den = new_den;

  // Peel off whole units to keep num small.
  if (state.num >= state.den) {
    const UInt128 units = state.num / state.den;
    if (units > 0xffffffffULL) {
      state.exceeded = true;  // utilization is absurdly large; decide now
      return;
    }
    state.whole += static_cast<std::uint64_t>(units);
    state.num %= state.den;
  }
  if (state.whole > 1 || (state.whole == 1 && state.num > 0)) {
    state.exceeded = true;
  }
}

UtilizationAccumulator::UInt128 UtilizationAccumulator::upper_bound_term(
    const PseudoTask& task) {
  // ⌈C·2³²/P⌉ ≥ (C/P)·2³², so the sum can only over-report "exceeds".
  const UInt128 scaled = (UInt128{task.capacity} << 32) + task.period - 1;
  return scaled / task.period;
}

bool UtilizationAccumulator::verdict(const ExactState& state, UInt128 upper) {
  if (!state.valid) {
    return upper > (UInt128{1} << 32);
  }
  if (state.exceeded) {
    return true;
  }
  return state.whole > 1 || (state.whole == 1 && state.num > 0);
}

void UtilizationAccumulator::reset(const TaskSet& set) {
  exact_ = ExactState{};
  upper_sum_ = 0;
  for (const auto& task : set.tasks()) {
    add(task);
  }
}

void UtilizationAccumulator::add(const PseudoTask& task) {
  // The fallback sum covers every task; the exact state freezes once it has
  // either overflowed or already decided "exceeds" — exactly where the
  // reference one-shot accumulation would have stopped reading the set.
  upper_sum_ += upper_bound_term(task);
  if (exact_.valid && !exact_.exceeded) {
    advance(exact_, task);
  }
}

void UtilizationAccumulator::remove(const TaskSet& set, const PseudoTask& task,
                                    std::span<const PeriodBucket> buckets) {
  if (!exact_.valid || exact_.exceeded) {
    reset(set);
    return;
  }
  upper_sum_ -= upper_bound_term(task);

  // whole + num/den − C/P, borrowing a unit when the fraction runs short.
  // U ≥ C/P, so the borrow always finds one; num + (den − term) < den then.
  exact_.whole -= task.capacity / task.period;
  const std::uint64_t cf = task.capacity % task.period;
  if (cf != 0) {
    const UInt128 term = UInt128{cf} * (exact_.den / task.period);
    if (exact_.num < term) {
      --exact_.whole;
      exact_.num += exact_.den - term;
    } else {
      exact_.num -= term;
    }
  }
  // The remaining fractional periods divide the new denominator, which
  // divides the old one, so the fraction rescales onto it exactly.
  const UInt128 den = fractional_lcm(buckets);
  if (den != exact_.den) {
    const UInt128 shrink = exact_.den / den;
    RTETHER_ASSERT_MSG(shrink * den == exact_.den && exact_.num % shrink == 0,
                       "period buckets out of sync");
    exact_.num /= shrink;
    exact_.den = den;
  }
}

bool UtilizationAccumulator::exceeds_one() const {
  return verdict(exact_, upper_sum_);
}

bool UtilizationAccumulator::exceeds_one_with(const PseudoTask& extra) const {
  if (exact_.valid && !exact_.exceeded) {
    ExactState trial = exact_;
    advance(trial, extra);
    return verdict(trial, upper_sum_ + upper_bound_term(extra));
  }
  return verdict(exact_, upper_sum_ + upper_bound_term(extra));
}

bool utilization_exceeds_one(const TaskSet& set) {
  UtilizationAccumulator acc;
  acc.reset(set);
  return acc.exceeds_one();
}

bool utilization_exceeds_one_with(const TaskSet& set,
                                  const PseudoTask& extra) {
  UtilizationAccumulator acc;
  acc.reset(set);
  return acc.exceeds_one_with(extra);
}

}  // namespace rtether::edf
