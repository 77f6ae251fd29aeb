#include "edf/feasibility.hpp"

#include <algorithm>
#include <cstdio>

#include "common/math.hpp"
#include "edf/busy_period.hpp"
#include "edf/checkpoints.hpp"
#include "edf/demand.hpp"
#include "edf/hyperperiod.hpp"
#include "edf/utilization.hpp"

namespace rtether::edf {

namespace {

/// Scans h(n,t) ≤ t at the given instants; records the first violation.
bool scan_demand(const TaskSet& set, const std::vector<Slot>& instants,
                 FeasibilityReport& report) {
  for (const Slot t : instants) {
    ++report.demand_evaluations;
    const Slot h = demand(set, t);
    if (h > t) {
      report.feasible = false;
      report.reason = InfeasibleReason::kDemandExceeded;
      report.violation_time = t;
      report.violation_demand = h;
      return false;
    }
  }
  return true;
}

std::vector<Slot> every_slot(Slot bound) {
  std::vector<Slot> instants;
  instants.reserve(static_cast<std::size_t>(bound));
  for (Slot t = 1; t <= bound; ++t) {
    instants.push_back(t);
  }
  return instants;
}

}  // namespace

FeasibilityReport check_feasibility(const TaskSet& set, DemandScan scan) {
  FeasibilityReport report;
  report.utilization = set.utilization();

  // Constraint 1 (Eq 18.2): utilization must not exceed 100 % — decided
  // exactly (see utilization.hpp).
  if (utilization_exceeds_one(set)) {
    report.feasible = false;
    report.reason = InfeasibleReason::kUtilizationExceeded;
    return report;
  }

  // Liu & Layland fast path: with d_i == P_i for every task, U ≤ 1 is
  // necessary and sufficient — no demand scan required.
  if (set.all_implicit_deadline()) {
    report.feasible = true;
    report.used_utilization_fast_path = true;
    return report;
  }

  const auto bp = busy_period(set);
  // U ≤ 1 guarantees convergence; overflow would need astronomically large
  // capacities, which `PseudoTask::valid()` rules out in practice.
  RTETHER_ASSERT_MSG(bp.has_value(), "busy period diverged despite U <= 1");

  Slot bound = *bp;
  if (scan == DemandScan::kExhaustive) {
    // Oracle bound: one full hyperperiod past the largest deadline covers
    // every distinct demand pattern. A hyperperiod that overflows 64 bits
    // — or fits but is too large to ever scan (near-64-bit lcm of coprime
    // periods) — falls back to the busy-period bound, which is already a
    // complete test (Eq 18.4); the extension is redundant belt-and-braces,
    // so the fallback cannot change decisions, only the scanned range.
    if (const auto h = hyperperiod(set)) {
      if (const auto sum = checked_add(*h, set.max_deadline());
          sum && *sum <= kExhaustiveOracleCap) {
        bound = std::max(bound, *sum);
      }
    }
  }
  report.scanned_bound = bound;

  const std::vector<Slot> instants = scan == DemandScan::kCheckpoints
                                         ? checkpoints(set, bound)
                                         : every_slot(bound);
  report.feasible = scan_demand(set, instants, report);
  if (report.feasible) {
    report.reason = InfeasibleReason::kNone;
  }
  return report;
}

bool is_feasible(const TaskSet& set, DemandScan scan) {
  return check_feasibility(set, scan).feasible;
}

namespace {

/// Walks a task's checkpoint sequence d, d+P, d+2P, … restricted to
/// [1, bound], mirroring the generation (and wrap-around guard) of
/// `checkpoints()`.
class TaskCheckpointWalker {
 public:
  TaskCheckpointWalker(const PseudoTask& task, Slot bound)
      : period_(task.period), bound_(bound), next_(task.deadline) {
    live_ = next_ <= bound_;
    while (live_ && next_ < 1) {
      advance();
    }
  }

  [[nodiscard]] bool live() const { return live_; }
  [[nodiscard]] Slot value() const { return next_; }

  void advance() {
    if (bound_ - next_ < period_) {  // same guard as checkpoints()
      live_ = false;
      return;
    }
    next_ += period_;
  }

 private:
  Slot period_;
  Slot bound_;
  Slot next_;
  bool live_;
};

Slot checked_demand_sum(Slot base, const PseudoTask& task, Slot t) {
  const auto sum = checked_add(base, task_demand(task, t));
  RTETHER_ASSERT_MSG(sum.has_value(), "demand overflow");
  return *sum;
}

}  // namespace

namespace {

/// The bucket for `period` in the sorted `buckets`, or where it belongs.
std::vector<PeriodBucket>::iterator find_bucket(
    std::vector<PeriodBucket>& buckets, Slot period) {
  return std::lower_bound(
      buckets.begin(), buckets.end(), period,
      [](const PeriodBucket& bucket, Slot p) { return bucket.period < p; });
}

/// Folds `task` into its period's bucket, keeping buckets sorted.
void bucket_add(std::vector<PeriodBucket>& buckets, const PseudoTask& task) {
  auto it = find_bucket(buckets, task.period);
  if (it == buckets.end() || it->period != task.period) {
    it = buckets.insert(it, PeriodBucket{task.period, 0, 0});
  }
  it->capacity += task.capacity;
  if (task.capacity % task.period != 0) {
    ++it->fractional;
  }
}

}  // namespace

void LinkScanCache::reset(const TaskSet& set) {
  task_count_ = set.size();
  non_implicit_ = 0;
  period_buckets_.clear();
  for (const auto& task : set.tasks()) {
    if (task.deadline != task.period) {
      ++non_implicit_;
    }
    bucket_add(period_buckets_, task);
  }
  utilization_.reset(set);
  busy_period_ = busy_period(set);
  // Clamp the horizon to the set's busy period: rebuilding demand at
  // instants past it is O(tasks × points) wasted — future trials re-extend
  // lazily if they need more.
  horizon_ = std::min(horizon_, busy_period_.value_or(0));
  points_ = checkpoints(set, horizon_);
  demands_.clear();
  demands_.reserve(points_.size());
  for (const Slot t : points_) {
    demands_.push_back(demand(set, t));
  }
  // Owner counts: how many tasks contribute a checkpoint at each instant.
  owners_.assign(points_.size(), 0);
  for (const auto& task : set.tasks()) {
    for (TaskCheckpointWalker walker(task, horizon_); walker.live();
         walker.advance()) {
      const auto it =
          std::lower_bound(points_.begin(), points_.end(), walker.value());
      RTETHER_ASSERT(it != points_.end() && *it == walker.value());
      ++owners_[static_cast<std::size_t>(it - points_.begin())];
    }
  }
}

std::optional<Slot> LinkScanCache::trial_busy_period(
    const TaskSet& set, const PseudoTask& extra) const {
  const auto backlog = checked_add(set.total_capacity(), extra.capacity);
  if (!backlog) return std::nullopt;
  // Warm start: the least fixed point only grows when a task is added, and
  // the workload of the grown set at the old fixed point is ≥ the old fixed
  // point, so iterating from max(old bp, new backlog) converges to exactly
  // the fixed point the cold iteration from the backlog finds.
  Slot length = std::max(busy_period_.value_or(0), *backlog);
  for (;;) {
    Slot next = 0;
    for (const auto& bucket : period_buckets_) {
      const auto contribution =
          checked_mul(ceil_div(length, bucket.period), bucket.capacity);
      if (!contribution) return std::nullopt;
      const auto sum = checked_add(next, *contribution);
      if (!sum) return std::nullopt;
      next = *sum;
    }
    const auto contribution =
        checked_mul(ceil_div(length, extra.period), extra.capacity);
    if (!contribution) return std::nullopt;
    const auto sum = checked_add(next, *contribution);
    if (!sum) return std::nullopt;
    next = *sum;
    if (next == length) return length;
    length = next;
  }
}

void LinkScanCache::grid_beyond(const TaskSet& set, Slot limit,
                                std::vector<Slot>& points,
                                std::vector<Slot>& demands,
                                std::vector<std::uint32_t>* owners) const {
  RTETHER_ASSERT(limit > horizon_);
  std::vector<Slot> fresh;
  for (const auto& task : set.tasks()) {
    // First checkpoint of this task strictly beyond the cached horizon.
    Slot t = task.deadline;
    if (t <= horizon_) {
      const Slot jumps = ceil_div(horizon_ + 1 - t, task.period);
      const auto offset = checked_mul(jumps, task.period);
      if (!offset || *offset > limit - t) {
        continue;
      }
      t += *offset;
    }
    for (; t <= limit; t += task.period) {
      if (t >= 1) {
        fresh.push_back(t);
      }
      if (limit - t < task.period) {
        break;
      }
    }
  }
  std::sort(fresh.begin(), fresh.end());
  // The pre-dedup multiplicity of an instant is its owner count.
  for (std::size_t i = 0; i < fresh.size();) {
    std::size_t j = i;
    while (j < fresh.size() && fresh[j] == fresh[i]) {
      ++j;
    }
    points.push_back(fresh[i]);
    demands.push_back(demand(set, fresh[i]));
    if (owners != nullptr) {
      owners->push_back(static_cast<std::uint32_t>(j - i));
    }
    i = j;
  }
}

void LinkScanCache::extend(const TaskSet& set, Slot new_horizon) {
  grid_beyond(set, new_horizon, points_, demands_, &owners_);
  horizon_ = new_horizon;
}

void LinkScanCache::reserve_horizon(const TaskSet& set, Slot horizon) {
  RTETHER_ASSERT_MSG(set.size() == task_count_, "LinkScanCache out of sync");
  if (horizon > horizon_) {
    extend(set, horizon);
  }
}

FeasibilityReport LinkScanCache::check_with(const TaskSet& set,
                                            const PseudoTask& extra) const {
  RTETHER_ASSERT_MSG(set.size() == task_count_, "LinkScanCache out of sync");
  RTETHER_ASSERT_MSG(extra.valid(), "invalid pseudo-task");

  FeasibilityReport report;
  // Same accumulation as a tentative TaskSet::add would have produced.
  report.utilization = set.utilization() +
                       static_cast<double>(extra.capacity) /
                           static_cast<double>(extra.period);

  if (utilization_.exceeds_one_with(extra)) {
    report.feasible = false;
    report.reason = InfeasibleReason::kUtilizationExceeded;
    return report;
  }

  if (non_implicit_ == 0 && extra.deadline == extra.period) {
    report.feasible = true;
    report.used_utilization_fast_path = true;
    return report;
  }

  const auto bp = trial_busy_period(set, extra);
  RTETHER_ASSERT_MSG(bp.has_value(), "busy period diverged despite U <= 1");
  const Slot bound = *bp;
  report.scanned_bound = bound;

  // A trial whose bound outruns the cached horizon is answered from stack
  // scratch space: the shadowed set's checkpoints in (horizon_, bound] plus
  // their demands, exactly what `extend` would have folded in — but the
  // cache stays untouched (const trials are shareable; callers that expect
  // more trials at this bound call `reserve_horizon` to memoize it).
  std::vector<Slot> beyond_points;
  std::vector<Slot> beyond_demands;
  if (bound > horizon_) {
    grid_beyond(set, bound, beyond_points, beyond_demands, nullptr);
  }

  // Merge-walk the (possibly scratch-augmented) grid with the candidate's
  // own checkpoints. Visits exactly the deduplicated union
  // `checkpoints(set ∪ {extra}, bound)` in ascending order; `base` tracks
  // the cached set's demand, which between its own checkpoints is the value
  // at the last one passed. Every scratch instant is > horizon_ ≥ every
  // cached instant, so "cached first, then scratch" preserves the order.
  TaskCheckpointWalker walker(extra, bound);
  std::size_t i = 0;  // cursor over points_ (≤ min(horizon_, bound))
  std::size_t j = 0;  // cursor over beyond_points (> horizon_)
  Slot base = 0;
  report.feasible = true;
  for (;;) {
    const bool cached_live = i < points_.size() && points_[i] <= bound;
    const bool beyond_live = !cached_live && j < beyond_points.size();
    if (!cached_live && !beyond_live && !walker.live()) {
      break;
    }
    Slot t;
    if (cached_live && (!walker.live() || points_[i] <= walker.value())) {
      t = points_[i];
      base = demands_[i];
      if (walker.live() && walker.value() == t) {
        walker.advance();
      }
      ++i;
    } else if (beyond_live &&
               (!walker.live() || beyond_points[j] <= walker.value())) {
      t = beyond_points[j];
      base = beyond_demands[j];
      if (walker.live() && walker.value() == t) {
        walker.advance();
      }
      ++j;
    } else {
      t = walker.value();
      walker.advance();
    }
    ++report.demand_evaluations;
    const Slot h = checked_demand_sum(base, extra, t);
    if (h > t) {
      report.feasible = false;
      report.reason = InfeasibleReason::kDemandExceeded;
      report.violation_time = t;
      report.violation_demand = h;
      return report;
    }
  }
  report.reason = InfeasibleReason::kNone;
  return report;
}

void LinkScanCache::commit(const PseudoTask& task,
                           std::optional<Slot> busy_period_after) {
  RTETHER_ASSERT_MSG(task.valid(), "invalid pseudo-task");
  // One merge pass, in place from the back: grow the grid by the task's
  // checkpoint count in [1, horizon_] (d, d+P, …, the walker's sequence),
  // then fill it from the top, folding the task's demand into existing
  // instants and splicing in its own checkpoints with their full demand.
  // Instants below d keep their demand (the task contributes nothing there)
  // and stay where they are.
  std::size_t pending = 0;
  Slot own = 0;  // the task's largest checkpoint not yet placed
  if (task.deadline <= horizon_) {
    const Slot steps = (horizon_ - task.deadline) / task.period;
    pending = static_cast<std::size_t>(steps) + 1;
    own = task.deadline + steps * task.period;
  }
  std::size_t i = points_.size();  // old instants not yet placed: [0, i)
  std::size_t out = i + pending;   // merged instants fill [out, end)
  points_.resize(out);
  demands_.resize(out);
  owners_.resize(out);
  // out − i == pending + the shared instants placed so far, so a write at
  // out − 1 never lands on the unplaced old instant i − 1.
  while (pending > 0) {
    --out;
    if (i > 0 && points_[i - 1] >= own) {
      --i;
      const Slot t = points_[i];
      std::uint32_t owners = owners_[i];
      if (t == own) {
        ++owners;
        --pending;
        own -= task.period;
      }
      points_[out] = t;
      demands_[out] = checked_demand_sum(demands_[i], task, t);
      owners_[out] = owners;
    } else {
      // The old demand here is its value at the last old instant below.
      const Slot base = i > 0 ? demands_[i - 1] : 0;
      points_[out] = own;
      demands_[out] = checked_demand_sum(base, task, own);
      owners_[out] = 1;
      --pending;
      own -= task.period;
    }
  }
  // Each shared instant left a one-slot gap at [i, out); close it.
  if (out > i) {
    const auto close = [&](auto& column) {
      column.erase(column.begin() + static_cast<std::ptrdiff_t>(i),
                   column.begin() + static_cast<std::ptrdiff_t>(out));
    };
    close(points_);
    close(demands_);
    close(owners_);
  }

  ++task_count_;
  if (task.deadline != task.period) {
    ++non_implicit_;
  }
  utilization_.add(task);
  bucket_add(period_buckets_, task);
  busy_period_ = busy_period_after;
}

std::optional<Slot> LinkScanCache::hyperperiod() const {
  // lcm is order-independent and every partial lcm divides the full one, so
  // folding the distinct periods gives the value (and the overflow→nullopt
  // verdict) of a running lcm over the set's tasks in any order.
  std::optional<Slot> lcm = Slot{1};
  for (const auto& bucket : period_buckets_) {
    if (!lcm) break;
    lcm = checked_lcm(*lcm, bucket.period);
  }
  return lcm;
}

std::optional<Slot> LinkScanCache::bucket_busy_period(Slot backlog) const {
  if (task_count_ == 0) {
    return Slot{0};
  }
  // U > 1 diverges; refuse up front exactly like `busy_period`.
  if (utilization_.exceeds_one()) {
    return std::nullopt;
  }
  // Same least fixed point as `busy_period(set)`: the workload sum merely
  // distributes over tasks sharing a period.
  Slot length = backlog;
  for (;;) {
    Slot next = 0;
    for (const auto& bucket : period_buckets_) {
      const auto contribution =
          checked_mul(ceil_div(length, bucket.period), bucket.capacity);
      if (!contribution) return std::nullopt;
      const auto sum = checked_add(next, *contribution);
      if (!sum) return std::nullopt;
      next = *sum;
    }
    if (next == length) return length;
    length = next;
  }
}

void LinkScanCache::downdate(const TaskSet& set, const PseudoTask& task) {
  RTETHER_ASSERT_MSG(task.valid(), "invalid pseudo-task");
  RTETHER_ASSERT_MSG(task_count_ > 0 && set.size() == task_count_ - 1,
                     "LinkScanCache out of sync");

  // One sweep: subtract the task's demand everywhere, decrement its owner
  // counts along its own checkpoint sequence and compact away the instants
  // only it owned. The surviving grid is exactly `checkpoints(set,
  // horizon_)` with demands of the post-removal set — the horizon (and the
  // memoization it carries) survives the release, so an identical re-admit
  // is a pure merge-walk again.
  TaskCheckpointWalker walker(task, horizon_);
  std::size_t out = 0;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    const Slot t = points_[i];
    std::uint32_t owners = owners_[i];
    if (walker.live() && walker.value() == t) {
      walker.advance();
      RTETHER_ASSERT_MSG(owners > 0, "owner underflow");
      --owners;
      if (owners == 0) {
        continue;  // the released task's private instant
      }
    }
    const Slot contribution = task_demand(task, t);
    RTETHER_ASSERT_MSG(demands_[i] >= contribution, "demand underflow");
    points_[out] = t;
    demands_[out] = demands_[i] - contribution;
    owners_[out] = owners;
    ++out;
  }
  points_.resize(out);
  demands_.resize(out);
  owners_.resize(out);

  --task_count_;
  if (task.deadline != task.period) {
    RTETHER_ASSERT_MSG(non_implicit_ > 0, "non-implicit underflow");
    --non_implicit_;
  }
  const auto bucket = find_bucket(period_buckets_, task.period);
  RTETHER_ASSERT_MSG(bucket != period_buckets_.end() &&
                         bucket->period == task.period &&
                         bucket->capacity >= task.capacity,
                     "period bucket out of sync");
  bucket->capacity -= task.capacity;
  if (task.capacity % task.period != 0) {
    RTETHER_ASSERT_MSG(bucket->fractional > 0, "period bucket out of sync");
    --bucket->fractional;
  }
  if (bucket->capacity == 0) {
    period_buckets_.erase(bucket);
  }

  // Exact utilization: O(distinct periods) off the buckets, identical to a
  // fresh accumulation over `set` (which it falls back to in the 128-bit
  // overflow regime).
  utilization_.remove(set, task, period_buckets_);
  busy_period_ = bucket_busy_period(set.total_capacity());
}

std::string FeasibilityReport::summary() const {
  // snprintf, not ostringstream: admission rejections build this string on
  // the hot path, and stream construction is ~5× the cost of the formatting
  // itself. "%.6g" matches operator<<'s default double formatting exactly.
  char buffer[160];
  if (feasible) {
    if (used_utilization_fast_path) {
      std::snprintf(buffer, sizeof buffer,
                    "feasible (U=%.6g, Liu&Layland fast path)", utilization);
    } else {
      std::snprintf(
          buffer, sizeof buffer,
          "feasible (U=%.6g, scanned %llu instants up to t=%llu)",
          utilization, static_cast<unsigned long long>(demand_evaluations),
          static_cast<unsigned long long>(scanned_bound));
    }
    return buffer;
  }
  switch (reason) {
    case InfeasibleReason::kUtilizationExceeded:
      std::snprintf(buffer, sizeof buffer,
                    "infeasible: utilization %.6g > 1", utilization);
      break;
    case InfeasibleReason::kDemandExceeded:
      std::snprintf(
          buffer, sizeof buffer, "infeasible: demand %llu > t=%llu",
          static_cast<unsigned long long>(violation_demand.value_or(0)),
          static_cast<unsigned long long>(violation_time.value_or(0)));
      break;
    case InfeasibleReason::kNone:
      std::snprintf(buffer, sizeof buffer, "infeasible: (unspecified)");
      break;
  }
  return buffer;
}

}  // namespace rtether::edf
