#pragma once
/// Measurement primitives shared by the perfbench workloads: the clock,
/// percentile and fixed-segment estimators, the in-memory span tracer and
/// the report that becomes the benchmark's final JSON line.

#include <sched.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_between(std::int64_t from_ns,
                                            std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

/// Median of `values` (mean of the two middle elements for even sizes).
/// Returns 0 for an empty input.
[[nodiscard]] double median(std::vector<double> values);

/// A percentile that knows how many samples lie beyond it.
struct Percentile {
  double value{0.0};
  std::size_t samples{0};
  /// Samples strictly above the nearest-rank index.
  std::size_t beyond{0};
};

/// Nearest-rank percentile, `q` in (0, 1]: the smallest sample such that at
/// least q·n samples are ≤ it.
[[nodiscard]] Percentile percentile(std::vector<double> values, double q);

/// Relative distance between the medians of the first and the last quarter
/// of `series`, as a share of the whole series' median.
[[nodiscard]] double quarter_drift(const std::vector<double>& series);

/// Fixed-size work segments of a timed phase.
///
/// A run is cut into segments of equal work; each segment's rate is work /
/// its wall time, and the run's throughput is the median rate over all
/// segments. A neighbour's burst that stalls fewer than half of the
/// segments leaves the median where it was, while a change that slows most
/// of them moves it.
///
/// Each segment also carries its exact work content (demand evaluations
/// per op, events per slot): counts the program makes, free of host noise.
/// Their first-vs-last-quarter drift is the stationarity guard; the drift
/// of the timed rates is reported next to it. Rate times content is the
/// segment's rate per unit of exact work (events per second), which a
/// heavier or lighter stretch of the workload does not move: the segments
/// where it is at or above its median are the host's quiet ones.
class Segments {
 public:
  /// Closes a segment of `work` units that took `seconds`, with work
  /// content `content`.
  void add(double work, double seconds, double content) {
    if (seconds <= 0.0) return;
    segments_.push_back({work / seconds, content});
  }
  [[nodiscard]] std::size_t size() const { return segments_.size(); }
  [[nodiscard]] std::vector<double> rates() const;
  [[nodiscard]] double median_rate() const { return median(rates()); }
  [[nodiscard]] double rate_drift() const { return quarter_drift(rates()); }
  [[nodiscard]] double content_drift() const;
  /// Per segment: its rate per unit of exact work is at or above the
  /// median.
  [[nodiscard]] std::vector<bool> quiet() const;

 private:
  struct Segment {
    double rate{0.0};
    double content{0.0};
  };

  std::vector<Segment> segments_;
};

/// A uniform random sample of at most `capacity` op times out of every op
/// of a timed phase (Vitter's algorithm R), each tagged with the segment it
/// was timed in. The buffer is allocated and touched up front, so recording
/// never allocates and the process's resident size does not follow the
/// number of ops, which depends on the host's speed. Percentiles over the
/// sample estimate those of all ops.
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity) : slots_(capacity) {}

  void add(double value, std::size_t segment) {
    if (seen_ < slots_.size()) {
      slots_[seen_++] = {value, segment};
      return;
    }
    ++seen_;
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    const std::uint64_t pick = state_ % seen_;
    if (pick < slots_.size()) slots_[pick] = {value, segment};
  }
  /// Ops offered to the reservoir.
  [[nodiscard]] std::uint64_t seen() const { return seen_; }
  /// The kept sample: every op until the reservoir fills.
  [[nodiscard]] std::vector<double> sample() const;
  /// The kept ops timed in segments `keep` marks.
  [[nodiscard]] std::vector<double> sample(const std::vector<bool>& keep) const;

 private:
  struct Slot {
    double value{0.0};
    std::size_t segment{0};
  };
  [[nodiscard]] std::size_t kept() const {
    return seen_ < slots_.size() ? static_cast<std::size_t>(seen_)
                                 : slots_.size();
  }

  std::vector<Slot> slots_;
  std::uint64_t seen_{0};
  std::uint64_t state_{0x2545'f491'4f6c'dd1dULL};
};

/// Op samples kept per timed phase (4 MB), so a p99 has 2600 samples
/// beyond it once the reservoir is full.
inline constexpr std::size_t kOpSamples = std::size_t{1} << 18;

/// Spans recorded in memory by the benchmark's own code around each call
/// into a library layer. A null `Tracer*` disables recording at the call
/// sites, so the untraced run pays one branch per would-be span.
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffU;

  struct Span {
    std::uint32_t name{0};
    std::uint32_t parent{kNoParent};
    std::uint64_t id{0};  ///< op, chunk or scenario the span belongs to
    std::int64_t start_ns{0};
    std::int64_t end_ns{0};
  };

  /// Interns a span name; call outside timed loops.
  [[nodiscard]] std::uint32_t name(std::string_view text);

  [[nodiscard]] std::uint32_t begin(std::uint32_t name, std::uint64_t id) {
    spans_.push_back(Span{name, open_, id, now_ns(), 0});
    open_ = static_cast<std::uint32_t>(spans_.size() - 1);
    return open_;
  }
  void end(std::uint32_t index) {
    Span& span = spans_[index];
    span.end_ns = now_ns();
    open_ = span.parent;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  struct LayerTime {
    std::string name;
    std::uint64_t count{0};
    double self_seconds{0.0};
  };
  /// Self time (duration minus the part covered by child spans) summed per
  /// span name.
  [[nodiscard]] std::vector<LayerTime> self_times() const;
  /// Share of the root spans' wall time that no child span covers: the
  /// benchmark's own loop overhead plus anything the layer spans miss.
  [[nodiscard]] double uncovered_share() const;
  /// Writes one CSV line per span (`index,name,parent,id,start_ns,end_ns`)
  /// for the first `limit` spans, which keeps the file of a long traced run
  /// small; the aggregates above cover every span.
  [[nodiscard]] bool write_csv(const std::string& path,
                               std::size_t limit) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::uint32_t open_{kNoParent};
};

/// RAII span; a no-op when `tracer` is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::uint32_t name, std::uint64_t id)
      : tracer_(tracer), index_(tracer ? tracer->begin(name, id) : 0) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t index_;
};

/// Command-line options of one benchmark process.
struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// Largest relative first-vs-last-quarter drift of the segments' work
  /// content before the run counts as non-stationary (the throughput bound
  /// of BENCHMARK.json); required with --workload.
  double drift_bound{-1.0};
  /// Directory for the traced run's span files.
  std::string trace_dir{"."};
};

/// Everything one run prints: the metrics, the op accounting and every
/// correctness problem found.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, {value, unit}});
  }
  /// Records a failed correctness check; the run then exits non-zero.
  void fail(const std::string& what) { problems_.push_back(what); }
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
  /// Percentile metric that also enforces ≥ 10 samples beyond it; the
  /// value is divided by `divisor` (the host speed scale for end-to-end
  /// times).
  void percentile_metric(const std::string& name,
                         const std::vector<double>& samples, double q,
                         const std::string& unit, double divisor = 1.0);

  std::uint64_t attempted{0};
  std::uint64_t failed{0};

  [[nodiscard]] bool correct() const {
    return problems_.empty() && failed == 0 && attempted > 0;
  }
  [[nodiscard]] const std::vector<std::string>& problems() const {
    return problems_;
  }
  /// The final JSON line: correct, attempted, failed, metrics.
  [[nodiscard]] std::string json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  std::vector<std::string> problems_;
};

/// Peak resident set size of this process, MB.
[[nodiscard]] double peak_rss_mb();

/// Host speed during a run.
///
/// On a shared host, neighbours on the same physical cores change the whole
/// machine's speed by ±25% for minutes at a time: every segment of a 20-s
/// run is slow or none is, so no estimator inside a run can see past it.
/// Each run therefore also times a fixed reference kernel (sorting 64K
/// integers: L2-resident and branchy, like the library's hot loops) before,
/// during and after its work. `scale()` is the run's median kernel time
/// over the kernel's time on a quiet reference host, and the end-to-end
/// time metrics are reported at reference speed: rates times `scale()`,
/// times divided by it. The kernel is the benchmark's own code, so a change
/// to the library moves the metrics and leaves `scale()` alone.
namespace host_speed {

/// Times the reference kernel once.
void sample();
/// Times the reference kernel when 250 ms have passed since the last time;
/// call between timed segments.
void sample_if_due();
/// Median kernel time of this run over the reference host's (> 1: slower).
[[nodiscard]] double scale();

}  // namespace host_speed

/// Pins the process to the CPU it runs on for the object's lifetime, then
/// restores the previous affinity. Single-threaded workloads use it so the
/// host cannot migrate them mid-run, and so the short-lived worker pools
/// the scenario runner starts wake up on the same CPU.
class ScopedPin {
 public:
  ScopedPin();
  ~ScopedPin();
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_{false};
};

/// Runs `setup` `reps` times and returns the median wall time, seconds.
/// The setups run back to back; each one's product replaces the last.
template <typename Fn>
double median_setup_seconds(int reps, Fn&& setup) {
  std::vector<double> times;
  for (int rep = 0; rep < reps; ++rep) {
    const std::int64_t start = now_ns();
    setup(rep);
    times.push_back(seconds_between(start, now_ns()));
  }
  return median(std::move(times));
}

/// Stationarity guard shared by the steady-state workloads.
void check_drift(Report& report, const Segments& segments,
                 const Options& options, const char* what);

/// Estimator self-tests; returns the number of failures.
[[nodiscard]] int run_selftest();

}  // namespace perfbench
