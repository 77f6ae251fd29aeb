/// switch_churn: one closed-loop client making synchronous admit/release
/// calls into the "batched" admission backend of a saturated switch.
///
/// The network is a 256-node star split into cells of 4; every channel
/// stays inside its cell (periods 100–600, capacity 1–2, ADPS). Setup
/// preloads the network to saturation. Each timed step releases a random
/// live channel, then admits fresh contracts on the same source and
/// destination until one is accepted; the last of the bounded tries
/// re-admits the released contract. The live set therefore stays at its
/// post-setup size and every second of the run does the same work.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/random.hpp"
#include "core/admission_backend.hpp"
#include "core/partitioner.hpp"
#include "edf/feasibility.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace rtether;
using core::ChannelOp;
using core::ChannelSpec;

constexpr std::uint32_t kNodes = 256;
constexpr std::uint32_t kCellSize = 4;
constexpr Slot kPeriods[] = {100, 150, 200, 300, 400, 600};
/// Preload requests: enough that every cell's links are saturated.
constexpr std::size_t kPreloadRequests = 40'000;
/// Admit tries per step; the last one re-admits the released contract.
constexpr int kTries = 6;
constexpr std::size_t kStepsPerSegment = 500;
constexpr std::size_t kWarmupSteps = 2'000;
/// Prefix of the timed stream whose counts (accept ratio) are exact, and
/// which the reference controller replays.
constexpr std::size_t kExactSteps = 20'000;
constexpr int kSetupReps = 31;

ChannelSpec contract(Rng& rng, NodeId source, NodeId destination) {
  const Slot period = kPeriods[rng.index(std::size(kPeriods))];
  const Slot capacity = 1 + rng.index(2);
  const Slot deadline =
      2 * capacity + rng.index(period / 2 - 2 * capacity + 1);
  return ChannelSpec{source, destination, period, capacity, deadline};
}

ChannelSpec cell_spec(Rng& rng) {
  const auto cell = static_cast<std::uint32_t>(rng.index(kNodes / kCellSize));
  const std::uint32_t base = cell * kCellSize;
  const auto src = base + static_cast<std::uint32_t>(rng.index(kCellSize));
  auto dst = base + static_cast<std::uint32_t>(rng.index(kCellSize));
  if (dst == src) dst = base + (dst - base + 1) % kCellSize;
  return contract(rng, NodeId{src}, NodeId{dst});
}

/// One call of the stream and what the backend answered: the channel ID
/// for an accepted admit or a release, -1 for a rejected admit.
struct Call {
  ChannelOp op;
  std::int32_t result{-1};
};

std::int32_t result_of(const core::AdmitOutcome& outcome) {
  return outcome.has_value() ? outcome->id.value() : -1;
}

/// The closed-loop client: a saturated backend, its live set and the seeded
/// stream generator.
class ChurnClient {
 public:
  ChurnClient(std::string_view kind, std::uint64_t seed,
              const core::BackendConfig& config = {})
      : backend_(core::make_admission_backend(
            kind, kNodes, core::make_partitioner("ADPS"), config)),
        rng_(seed) {}

  /// Admits the seeded preload stream; returns its calls.
  std::vector<Call> preload() {
    std::vector<Call> calls;
    calls.reserve(kPreloadRequests);
    for (std::size_t i = 0; i < kPreloadRequests; ++i) {
      const ChannelSpec spec = cell_spec(rng_);
      const auto outcome = backend_->admit(spec);
      calls.push_back({ChannelOp::admit(spec), result_of(outcome)});
      if (outcome.has_value()) {
        live_.push_back(outcome->id);
        live_specs_.push_back(spec);
      }
    }
    target_ = live_.size();
    return calls;
  }

  struct Timing {
    Reservoir* op_us{nullptr};  ///< every admit and release call
    std::vector<double>* accept_us{nullptr};
    std::vector<double>* reject_us{nullptr};
    std::vector<double>* release_us{nullptr};
    std::size_t segment{0};  ///< tag of the op_us samples
  };

  /// One step of the stream. Appends its calls to `calls` (when non-null)
  /// and returns the number of backend calls made.
  std::size_t step(std::vector<Call>* calls, const Timing& timing,
                   Tracer* tracer, std::uint32_t admit_span,
                   std::uint32_t release_span) {
    std::size_t ops = 0;
    ChannelSpec released{};
    bool have_released = false;
    NodeId source;
    NodeId destination;
    if (live_.size() >= target_) {
      const std::size_t victim = rng_.index(live_.size());
      const ChannelId id = live_[victim];
      released = live_specs_[victim];
      live_[victim] = live_.back();
      live_.pop_back();
      live_specs_[victim] = live_specs_.back();
      live_specs_.pop_back();
      const std::int64_t t0 = now_ns();
      core::ReleaseOutcome outcome = [&] {
        ScopedSpan span(tracer, release_span, serial_);
        return backend_->release(id);
      }();
      const std::int64_t t1 = now_ns();
      ++ops;
      ++serial_;
      const double us = static_cast<double>(t1 - t0) * 1e-3;
      if (timing.op_us) timing.op_us->add(us, timing.segment);
      if (timing.release_us) timing.release_us->push_back(us);
      if (calls) {
        calls->push_back({ChannelOp::release(id),
                          outcome.has_value() ? outcome->value() : -1});
      }
      if (!outcome.has_value()) ++release_failures_;
      have_released = true;
      source = released.source;
      destination = released.destination;
    } else {
      // A rejected re-admit shrank the live set: refill without releasing.
      const ChannelSpec fresh = cell_spec(rng_);
      source = fresh.source;
      destination = fresh.destination;
    }
    for (int attempt = 0; attempt < kTries; ++attempt) {
      const ChannelSpec spec = attempt == kTries - 1 && have_released
                                   ? released
                                   : contract(rng_, source, destination);
      const std::int64_t t0 = now_ns();
      core::AdmitOutcome outcome = [&] {
        ScopedSpan span(tracer, admit_span, serial_);
        return backend_->admit(spec);
      }();
      const std::int64_t t1 = now_ns();
      ++ops;
      ++serial_;
      ++admits_;
      const double us = static_cast<double>(t1 - t0) * 1e-3;
      if (timing.op_us) timing.op_us->add(us, timing.segment);
      if (outcome.has_value()) {
        if (timing.accept_us) timing.accept_us->push_back(us);
      } else if (timing.reject_us) {
        timing.reject_us->push_back(us);
      }
      if (calls) calls->push_back({ChannelOp::admit(spec), result_of(outcome)});
      if (outcome.has_value()) {
        ++accepts_;
        live_.push_back(outcome->id);
        live_specs_.push_back(spec);
        break;
      }
    }
    return ops;
  }

  [[nodiscard]] core::AdmissionBackend& backend() { return *backend_; }
  [[nodiscard]] std::size_t live() const { return live_.size(); }
  [[nodiscard]] std::size_t target() const { return target_; }
  [[nodiscard]] std::uint64_t admits() const { return admits_; }
  [[nodiscard]] std::uint64_t accepts() const { return accepts_; }
  [[nodiscard]] std::uint64_t release_failures() const {
    return release_failures_;
  }

 private:
  std::unique_ptr<core::AdmissionBackend> backend_;
  Rng rng_;
  std::vector<ChannelId> live_;
  std::vector<ChannelSpec> live_specs_;
  std::size_t target_{0};
  std::uint64_t serial_{0};
  std::uint64_t admits_{0};
  std::uint64_t accepts_{0};
  std::uint64_t release_failures_{0};
};

/// Replays `calls` through `backend` one call at a time; returns how many
/// answers differ from the recorded ones. `admit_us` collects the admit
/// call times when non-null.
std::uint64_t replay(core::AdmissionBackend& backend,
                     const std::vector<Call>& calls,
                     std::vector<double>* admit_us = nullptr) {
  std::uint64_t mismatches = 0;
  for (const Call& call : calls) {
    std::int32_t result = -1;
    if (call.op.kind == ChannelOp::Kind::kAdmit) {
      const std::int64_t t0 = now_ns();
      const auto outcome = backend.admit(call.op.spec);
      if (admit_us) {
        admit_us->push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      }
      result = result_of(outcome);
    } else {
      const auto outcome = backend.release(call.op.id);
      result = outcome.has_value() ? outcome->value() : -1;
    }
    if (result != call.result) ++mismatches;
  }
  return mismatches;
}

std::uint64_t stream_seed(std::uint64_t seed) {
  return SplitMix64(seed ^ 0x5717c4u).next();
}

}  // namespace

void run_switch_churn(const Options& options, Report& report) {
  const ScopedPin pin;
  std::unique_ptr<ChurnClient> client;
  std::vector<Call> preload_calls;
  const double setup_s = median_setup_seconds(kSetupReps, [&](int) {
    client = std::make_unique<ChurnClient>("batched", stream_seed(options.seed));
    preload_calls = client->preload();
  });
  const std::size_t target = client->target();
  std::fprintf(stderr, "switch_churn: %zu live channels after setup\n",
               target);

  std::vector<Call> calls;  // the checked prefix: warm-up + kExactSteps
  calls.reserve((kWarmupSteps + kExactSteps) * (kTries + 1));
  const ChurnClient::Timing no_timing{};
  for (std::size_t i = 0; i < kWarmupSteps; ++i) {
    (void)client->step(&calls, no_timing, nullptr, 0, 0);
  }
  const std::uint64_t warm_admits = client->admits();
  const std::uint64_t warm_accepts = client->accepts();

  Tracer tracer;
  const std::uint32_t segment_span = tracer.name("churn.segment");
  const std::uint32_t admit_span = tracer.name("core.admit");
  const std::uint32_t release_span = tracer.name("core.release");

  // Per-call times of admits and releases alike: admits split into a fast
  // reject and a slower accept cluster of about equal size, so a median of
  // admits alone would sit in the gap between them and jump between runs.
  Reservoir op_us(kOpSamples);
  Segments segments;
  Segments traced_segments;
  std::size_t min_live = client->live();
  std::size_t max_live = client->live();
  std::uint64_t ops_total = 0;
  std::uint64_t exact_admits = 0;
  std::uint64_t exact_accepts = 0;
  std::size_t steps = 0;
  const std::int64_t start = now_ns();
  const auto budget_ns = static_cast<std::int64_t>(options.seconds * 1e9);
  for (std::size_t segment = 0;; ++segment) {
    const bool traced = options.trace && segment % 2 == 1;
    Tracer* t = traced ? &tracer : nullptr;
    const std::int64_t seg_start = now_ns();
    std::uint32_t root = 0;
    if (t) root = t->begin(segment_span, segment);
    const ChurnClient::Timing timing{t ? nullptr : &op_us, nullptr, nullptr,
                                     nullptr, segments.size()};
    std::size_t ops = 0;
    const std::uint64_t evals_before =
        client->backend().stats().demand_evaluations;
    for (std::size_t i = 0; i < kStepsPerSegment; ++i, ++steps) {
      ops += client->step(steps < kExactSteps ? &calls : nullptr, timing, t,
                          admit_span, release_span);
      min_live = std::min(min_live, client->live());
      max_live = std::max(max_live, client->live());
      if (steps + 1 == kExactSteps) {
        exact_admits = client->admits() - warm_admits;
        exact_accepts = client->accepts() - warm_accepts;
      }
    }
    if (t) t->end(root);
    const double seg_s = seconds_between(seg_start, now_ns());
    const auto evals = static_cast<double>(
        client->backend().stats().demand_evaluations - evals_before);
    (traced ? traced_segments : segments)
        .add(static_cast<double>(ops), seg_s,
             evals / static_cast<double>(ops));
    ops_total += ops;
    host_speed::sample_if_due();
    if (steps >= kExactSteps && now_ns() - start >= budget_ns) break;
  }
  const double measured_s = seconds_between(start, now_ns());
  // Peak RSS of the saturated switch after the whole timed phase: the op
  // samples live in a fixed reservoir, so growth here is the library's.
  const double rss_mb = peak_rss_mb();
  std::fprintf(stderr,
               "switch_churn: %zu steps, %llu ops in %.2f s, live %zu..%zu\n",
               steps, static_cast<unsigned long long>(ops_total), measured_s,
               min_live, max_live);

  // Correctness, outside the timed phase: the reference controller must
  // make the same decisions and assign the same IDs on the same stream.
  auto reference = core::make_admission_backend(
      "controller", kNodes, core::make_partitioner("ADPS"));
  const std::uint64_t mismatches =
      replay(*reference, preload_calls) + replay(*reference, calls);
  report.check(mismatches == 0,
               "switch_churn: " + std::to_string(mismatches) +
                   " decisions or IDs differ from the controller replay");
  report.check(client->release_failures() == 0,
               "switch_churn: a live channel failed to release");
  const auto drift_of = [target](std::size_t live) {
    const double d = static_cast<double>(live) - static_cast<double>(target);
    return (d < 0 ? -d : d) / static_cast<double>(target);
  };
  report.check(drift_of(min_live) <= 0.01 && drift_of(max_live) <= 0.01,
               "switch_churn: live set left 1% of its post-setup size");
  check_drift(report, segments, options, "switch_churn ops/s");
  report.attempted = ops_total;
  report.failed = mismatches + client->release_failures();

  const double accept_ratio = static_cast<double>(exact_accepts) /
                              static_cast<double>(exact_admits);
  std::fprintf(stderr, "switch_churn: accept ratio %.6f over %zu steps\n",
               accept_ratio, kExactSteps);
  if (options.trace) {
    report_trace_overhead(report, segments, traced_segments, tracer, options,
                          0.15);
    return;
  }
  const double scale = host_speed::scale();
  report.metric("setup_s", setup_s / scale, "s");
  report.metric("ops_per_s", segments.median_rate() * scale, "1/s");
  const std::vector<double> sampled_us = op_us.sample();
  report.percentile_metric("op_p50_us", sampled_us, 0.50, "us", scale);
  report.percentile_metric("op_p99_us", sampled_us, 0.99, "us", scale);
  report.metric("accept_ratio", accept_ratio, "ratio");
  report.metric("peak_rss_mb", rss_mb, "MB");
}

void probe_core_edf(const Options& options, Report& report) {
  constexpr std::size_t kProbeSteps = 20'000;
  ChurnClient client("batched", stream_seed(options.seed));
  const std::vector<Call> preload_calls = client.preload();

  // edf.check_ns: the plain EDF test on every loaded link after setup.
  const core::NetworkState& state = client.backend().state();
  std::vector<double> check_ns;
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    for (const auto dir :
         {core::LinkDirection::kUplink, core::LinkDirection::kDownlink}) {
      const edf::TaskSet& link = state.link(NodeId{n}, dir);
      if (link.empty()) continue;
      const std::int64_t t0 = now_ns();
      const auto verdict = edf::check_feasibility(link);
      check_ns.push_back(static_cast<double>(now_ns() - t0));
      report.check(verdict.feasible, "edf: a committed link is infeasible");
    }
  }

  std::vector<Call> calls;
  std::vector<double> accept_us;
  std::vector<double> reject_us;
  std::vector<double> release_us;
  const core::AdmissionStats before = client.backend().stats();
  const std::uint64_t admits_before = client.admits();
  for (std::size_t i = 0; i < kProbeSteps; ++i) {
    (void)client.step(&calls, {nullptr, &accept_us, &reject_us, &release_us},
                      nullptr, 0, 0);
  }
  const core::AdmissionStats after = client.backend().stats();
  const auto admits = static_cast<double>(client.admits() - admits_before);

  report.metric("core.admit_accept_p50_us", percentile(accept_us, 0.5).value,
                "us");
  report.metric("core.admit_reject_p50_us", percentile(reject_us, 0.5).value,
                "us");
  report.metric("core.release_p50_us", percentile(release_us, 0.5).value,
                "us");
  report.metric("core.feasibility_tests_per_admit",
                static_cast<double>(after.feasibility_tests -
                                    before.feasibility_tests) /
                    admits,
                "count");
  report.metric("edf.demand_evals_per_admit",
                static_cast<double>(after.demand_evaluations -
                                    before.demand_evaluations) /
                    admits,
                "count");
  report.metric("edf.check_ns", median(check_ns), "ns");

  // The same stream through the reference controller.
  auto controller = core::make_admission_backend(
      "controller", kNodes, core::make_partitioner("ADPS"));
  std::vector<double> controller_us;
  std::uint64_t mismatches = replay(*controller, preload_calls);
  mismatches += replay(*controller, calls, &controller_us);
  report.metric("core.controller_admit_p50_us",
                percentile(controller_us, 0.5).value, "us");

  // The same stream through the resident service: 2 workers, a fixed
  // in-flight window, one producer.
  constexpr std::size_t kWindow = 64;
  core::BackendConfig config;
  config.threads = 2;
  auto service = core::make_admission_backend(
      "service", kNodes, core::make_partitioner("ADPS"), config);
  mismatches += replay(*service, preload_calls);
  std::vector<core::Ticket> tickets(calls.size());
  std::vector<std::int64_t> submitted(calls.size());
  std::vector<std::atomic<std::int64_t>> completed(calls.size());
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < calls.size(); ++i) {
    if (i >= kWindow) tickets[i - kWindow].wait();
    submitted[i] = now_ns();
    tickets[i] = service->submit_async(calls[i].op);
    std::atomic<std::int64_t>* slot = &completed[i];
    tickets[i].on_complete(
        [slot] { slot->store(now_ns(), std::memory_order_release); });
  }
  service->drain();
  for (auto& ticket : tickets) ticket.wait();
  const double service_s = seconds_between(start, now_ns());
  std::vector<double> ticket_us;
  ticket_us.reserve(calls.size());
  for (std::size_t i = 0; i < calls.size(); ++i) {
    std::int64_t done = 0;
    while ((done = completed[i].load(std::memory_order_acquire)) == 0) {
    }
    ticket_us.push_back(static_cast<double>(done - submitted[i]) * 1e-3);
    const std::int32_t result =
        tickets[i].kind() == ChannelOp::Kind::kAdmit
            ? result_of(tickets[i].admit_outcome())
            : (tickets[i].release_outcome().has_value()
                   ? tickets[i].release_outcome()->value()
                   : -1);
    if (result != calls[i].result) ++mismatches;
  }
  report.check(mismatches == 0,
               "core probe: controller or service diverged from batched");
  report.metric("core.service_ops_per_s",
                static_cast<double>(calls.size()) / service_s, "1/s");
  report.metric("core.service_ticket_p50_us",
                percentile(ticket_us, 0.5).value, "us");
  report.metric("core.service_ticket_p99_us",
                percentile(ticket_us, 0.99).value, "us");
}

}  // namespace perfbench
