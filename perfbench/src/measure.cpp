#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <fstream>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

Percentile percentile(std::vector<double> values, double q) {
  Percentile result;
  result.samples = values.size();
  if (values.empty()) return result;
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  result.value = values[index];
  result.beyond = values.size() - index - 1;
  return result;
}

double quarter_drift(const std::vector<double>& series) {
  const std::size_t quarter = series.size() / 4;
  if (quarter == 0) return 0.0;
  const double all = median(series);
  if (all == 0.0) return 0.0;
  const std::vector<double> first(series.begin(), series.begin() + quarter);
  const std::vector<double> last(series.end() - quarter, series.end());
  return std::fabs(median(first) - median(last)) / std::fabs(all);
}

std::vector<double> Segments::rates() const {
  std::vector<double> out;
  out.reserve(segments_.size());
  for (const Segment& segment : segments_) out.push_back(segment.rate);
  return out;
}

std::vector<bool> Segments::quiet() const {
  std::vector<double> per_work;
  per_work.reserve(segments_.size());
  for (const Segment& segment : segments_) {
    per_work.push_back(segment.rate * segment.content);
  }
  const double threshold = median(per_work);
  std::vector<bool> out;
  out.reserve(per_work.size());
  for (const double rate : per_work) out.push_back(rate >= threshold);
  return out;
}

std::vector<double> Reservoir::sample() const {
  std::vector<double> out;
  out.reserve(kept());
  for (std::size_t i = 0; i < kept(); ++i) out.push_back(slots_[i].value);
  return out;
}

std::vector<double> Reservoir::sample(const std::vector<bool>& keep) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < kept(); ++i) {
    const Slot& slot = slots_[i];
    if (slot.segment < keep.size() && keep[slot.segment]) {
      out.push_back(slot.value);
    }
  }
  return out;
}

double Segments::content_drift() const {
  std::vector<double> content;
  content.reserve(segments_.size());
  for (const Segment& segment : segments_) content.push_back(segment.content);
  return quarter_drift(content);
}

std::uint32_t Tracer::name(std::string_view text) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == text) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(text);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

namespace {

/// Per-span time covered by direct children.
std::vector<std::int64_t> child_time(const std::vector<Tracer::Span>& spans) {
  std::vector<std::int64_t> covered(spans.size(), 0);
  for (const auto& span : spans) {
    if (span.parent != Tracer::kNoParent) {
      covered[span.parent] += span.end_ns - span.start_ns;
    }
  }
  return covered;
}

}  // namespace

std::vector<Tracer::LayerTime> Tracer::self_times() const {
  std::vector<LayerTime> out(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) out[i].name = names_[i];
  const auto covered = child_time(spans_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out[span.name].count += 1;
    out[span.name].self_seconds +=
        static_cast<double>(span.end_ns - span.start_ns - covered[i]) * 1e-9;
  }
  return out;
}

double Tracer::uncovered_share() const {
  const auto covered = child_time(spans_);
  std::int64_t wall = 0;
  std::int64_t uncovered = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != kNoParent) continue;
    wall += spans_[i].end_ns - spans_[i].start_ns;
    uncovered += spans_[i].end_ns - spans_[i].start_ns - covered[i];
  }
  return wall > 0 ? static_cast<double>(uncovered) / static_cast<double>(wall)
                  : 0.0;
}

bool Tracer::write_csv(const std::string& path, std::size_t limit) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "index,name,parent,id,start_ns,end_ns\n";
  for (std::size_t i = 0; i < std::min(limit, spans_.size()); ++i) {
    const Span& span = spans_[i];
    out << i << ',' << names_[span.name] << ',';
    if (span.parent == kNoParent) {
      out << "-1";
    } else {
      out << span.parent;
    }
    out << ',' << span.id << ',' << span.start_ns << ',' << span.end_ns
        << '\n';
  }
  return static_cast<bool>(out);
}

void Report::percentile_metric(const std::string& name,
                               const std::vector<double>& samples, double q,
                               const std::string& unit, double divisor) {
  const Percentile p = percentile(samples, q);
  check(p.beyond >= 10, name + ": only " + std::to_string(p.beyond) +
                            " of " + std::to_string(p.samples) +
                            " samples beyond the percentile (need 10)");
  std::fprintf(stderr, "  %s = %.6g %s (n=%zu, %zu beyond)\n", name.c_str(),
               p.value, unit.c_str(), p.samples, p.beyond);
  metric(name, p.value / divisor, unit);
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(entry.first) ? entry.first : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           entry.second + "\"}";
  }
  out += "}}";
  return out;
}

ScopedPin::ScopedPin() {
  const int cpu = sched_getcpu();
  if (cpu < 0 || sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
}

ScopedPin::~ScopedPin() {
  if (pinned_) (void)sched_setaffinity(0, sizeof saved_, &saved_);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace host_speed {
namespace {

/// Reference kernel time on a quiet 2.1 GHz Xeon host (4 vCPUs).
constexpr double kReferenceMs = 5.0;

struct State {
  std::vector<std::uint32_t> data = std::vector<std::uint32_t>(1 << 16);
  std::uint64_t fill{0x9e3779b97f4a7c15ULL};
  std::vector<double> samples_ms;
  std::int64_t last_ns{0};
};

State& state() {
  static State instance;
  return instance;
}

}  // namespace

void sample() {
  State& s = state();
  for (auto& value : s.data) {
    s.fill ^= s.fill << 13;
    s.fill ^= s.fill >> 7;
    s.fill ^= s.fill << 17;
    value = static_cast<std::uint32_t>(s.fill);
  }
  const std::int64_t start = now_ns();
  std::sort(s.data.begin(), s.data.end());
  s.last_ns = now_ns();
  s.samples_ms.push_back(static_cast<double>(s.last_ns - start) * 1e-6);
}

void sample_if_due() {
  if (now_ns() - state().last_ns >= 250'000'000) sample();
}

double scale() {
  const double ms = median(state().samples_ms);
  return ms > 0.0 ? ms / kReferenceMs : 1.0;
}

}  // namespace host_speed

void check_drift(Report& report, const Segments& segments,
                 const Options& options, const char* what) {
  const double content = segments.content_drift();
  std::fprintf(stderr,
               "  %s: %zu segments, first/last-quarter drift: work content "
               "%.4f, timed rate %.4f; median rate %.6g\n",
               what, segments.size(), content, segments.rate_drift(),
               segments.median_rate());
  report.check(segments.size() >= 8,
               std::string(what) + ": fewer than 8 segments measured");
  report.check(content <= options.drift_bound,
               std::string(what) + ": first/last-quarter work content "
                                   "differs by " +
                   std::to_string(content) + " (bound " +
                   std::to_string(options.drift_bound) + ")");
}

int run_selftest() {
  int failures = 0;
  const auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      ++failures;
    }
  };
  expect(median({}) == 0.0, "median of nothing is 0");
  expect(median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median");

  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  const Percentile p50 = percentile(hundred, 0.5);
  expect(p50.value == 50.0 && p50.beyond == 50, "nearest-rank p50 of 1..100");
  const Percentile p99 = percentile(hundred, 0.99);
  expect(p99.value == 99.0 && p99.beyond == 1, "nearest-rank p99 of 1..100");
  std::vector<double> thousand;
  for (int i = 1000; i >= 1; --i) thousand.push_back(i);
  const Percentile p99k = percentile(thousand, 0.99);
  expect(p99k.value == 990.0 && p99k.beyond == 10,
         "p99 of 1000 samples leaves exactly 10 beyond");
  expect(percentile({7.0}, 0.99).value == 7.0, "single-sample percentile");

  Segments flat;
  for (std::size_t i = 0; i < 16; ++i) flat.add(100.0, 1.0, 5.0);
  expect(flat.median_rate() == 100.0 && flat.rate_drift() == 0.0 &&
             flat.content_drift() == 0.0,
         "stationary segments have zero drift");
  Segments stalled;
  for (std::size_t i = 0; i < 16; ++i) {
    // Every fourth segment is stalled by a neighbour: half the rate.
    stalled.add(100.0, i % 4 == 0 ? 2.0 : 1.0, 5.0);
  }
  expect(stalled.median_rate() == 100.0,
         "a minority of stalled segments leaves the median rate unchanged");
  Segments loaded;
  for (std::size_t i = 0; i < 16; ++i) {
    // Every other segment carries twice the events at the same host speed,
    // and every fourth is stalled: only the stall makes a segment loud.
    const double events = i % 2 == 0 ? 2.0 : 1.0;
    loaded.add(100.0, (i % 4 == 1 ? 2.0 : 1.0) * events, events);
  }
  const std::vector<bool> quiet = loaded.quiet();
  bool quiet_ok = quiet.size() == 16;
  for (std::size_t i = 0; quiet_ok && i < 16; ++i) {
    quiet_ok = quiet[i] == (i % 4 != 1);
  }
  expect(quiet_ok, "quiet segments are chosen per unit of exact work");
  Segments slowed;
  for (std::size_t i = 0; i < 16; ++i) {
    // A change that slows most segments moves the median.
    slowed.add(100.0, i % 4 == 0 ? 1.0 : 2.0, 5.0);
  }
  expect(slowed.median_rate() == 50.0,
         "slowing most segments moves the median rate");
  Segments decaying;
  for (std::size_t i = 0; i < 16; ++i) {
    decaying.add(100.0, 1.0, 100.0 - 4.0 * static_cast<double>(i));
  }
  expect(decaying.content_drift() > 0.4 && decaying.rate_drift() == 0.0,
         "a draining workload shows drift in its work content");

  Reservoir small(8);
  for (std::size_t i = 0; i < 5; ++i) small.add(static_cast<double>(i), i);
  expect(small.seen() == 5 && small.sample() ==
                                  std::vector<double>{0.0, 1.0, 2.0, 3.0, 4.0},
         "a reservoir below capacity keeps every op in order");
  expect(small.sample({true, false, true}) == std::vector<double>{0.0, 2.0},
         "a reservoir keeps the segment of each op");
  constexpr std::size_t kKept = 1000;
  constexpr int kOffered = 100'000;
  Reservoir full(kKept);
  for (int i = 0; i < kOffered; ++i) full.add(i, 0);
  const std::vector<double> kept = full.sample();
  double kept_mean = 0.0;
  for (const double v : kept) kept_mean += v / static_cast<double>(kKept);
  expect(full.seen() == kOffered && kept.size() == kKept &&
             std::all_of(kept.begin(), kept.end(),
                         [](double v) { return v >= 0.0 && v < kOffered; }),
         "a full reservoir keeps exactly its capacity of offered ops");
  // The mean of a uniform sample of 0..N-1 lies near N/2 (standard error
  // N/sqrt(12·1000) ≈ 0.9% of N); the late ops are not favoured.
  expect(std::fabs(kept_mean / kOffered - 0.5) < 0.05,
         "a full reservoir samples the whole stream uniformly");
  Reservoir tail(kOpSamples);
  for (int i = 1; i <= 100'000; ++i) tail.add(i, 0);
  expect(percentile(tail.sample(), 0.99).beyond == 1000,
         "percentiles over an unfilled reservoir see every op");

  Tracer tracer;
  const std::uint32_t root_name = tracer.name("root");
  const std::uint32_t leaf_name = tracer.name("leaf");
  expect(tracer.name("leaf") == leaf_name, "names are interned");
  const std::uint32_t root = tracer.begin(root_name, 0);
  { ScopedSpan leaf(&tracer, leaf_name, 1); }
  tracer.end(root);
  const auto times = tracer.self_times();
  expect(times.size() == 2 && times[0].count == 1 && times[1].count == 1,
         "self times count each span once");
  const double total = times[0].self_seconds + times[1].self_seconds;
  const auto& spans = tracer.spans();
  expect(std::fabs(total - seconds_between(spans[0].start_ns,
                                           spans[0].end_ns)) < 1e-12,
         "self times add up to the root's wall time");
  expect(spans[1].parent == 0, "child span records its parent");
  return failures;
}

}  // namespace perfbench
