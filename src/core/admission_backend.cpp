#include "core/admission_backend.hpp"

#include <array>
#include <utility>

#include "core/gate_schedule.hpp"
#include "core/parallel_admission.hpp"

namespace rtether::core {

Ticket AdmissionBackend::submit_async(const ChannelOp& op) {
  if (op.kind == ChannelOp::Kind::kAdmit) {
    return Ticket::completed(admit(op.spec));
  }
  return Ticket::completed(release(op.id));
}

namespace {

class ControllerBackend final : public AdmissionBackend {
 public:
  ControllerBackend(std::uint32_t node_count,
                    std::unique_ptr<DeadlinePartitioner> partitioner,
                    const BackendConfig& config)
      : controller_(node_count, std::move(partitioner), config.admission) {}

  [[nodiscard]] std::string name() const override { return "controller"; }

  ChurnResult submit(std::span<const ChannelOp> ops) override {
    ChurnResult result;
    for (const ChannelOp& op : ops) {
      if (op.kind == ChannelOp::Kind::kAdmit) {
        result.admissions.push_back(controller_.request(op.spec));
      } else {
        result.releases.push_back(controller_.release(op.id));
      }
    }
    return result;
  }

  [[nodiscard]] AdmitOutcome admit(const ChannelSpec& spec) override {
    return controller_.request(spec);
  }
  ReleaseOutcome release(ChannelId id) override {
    return controller_.release(id);
  }
  [[nodiscard]] const NetworkState& state() override {
    return controller_.state();
  }
  [[nodiscard]] const AdmissionStats& stats() override {
    return controller_.stats();
  }
  [[nodiscard]] const DeadlinePartitioner& partitioner() const override {
    return controller_.partitioner();
  }
  void reset() override { controller_.reset(); }

 private:
  AdmissionController controller_;
};

class BatchedBackend final : public AdmissionBackend {
 public:
  BatchedBackend(std::uint32_t node_count,
                 std::unique_ptr<DeadlinePartitioner> partitioner)
      : engine_(node_count, std::move(partitioner)) {}

  [[nodiscard]] std::string name() const override { return "batched"; }

  ChurnResult submit(std::span<const ChannelOp> ops) override {
    return engine_.process(ops);
  }

  [[nodiscard]] AdmitOutcome admit(const ChannelSpec& spec) override {
    return engine_.admit(spec);
  }
  ReleaseOutcome release(ChannelId id) override { return engine_.release(id); }
  [[nodiscard]] const NetworkState& state() override {
    return engine_.state();
  }
  [[nodiscard]] const AdmissionStats& stats() override {
    return engine_.stats();
  }
  [[nodiscard]] const DeadlinePartitioner& partitioner() const override {
    return engine_.partitioner();
  }
  void reset() override { engine_.reset(); }

 private:
  AdmissionEngine engine_;
};

class ParallelBackend final : public AdmissionBackend {
 public:
  ParallelBackend(std::uint32_t node_count,
                  std::unique_ptr<DeadlinePartitioner> partitioner,
                  const BackendConfig& config)
      : engine_(node_count, std::move(partitioner),
                ParallelAdmissionConfig{config.threads,
                                        config.min_parallel_batch}) {}

  [[nodiscard]] std::string name() const override { return "parallel"; }

  ChurnResult submit(std::span<const ChannelOp> ops) override {
    return engine_.process(ops);
  }
  [[nodiscard]] AdmitOutcome admit(const ChannelSpec& spec) override {
    return engine_.admit(spec);
  }
  ReleaseOutcome release(ChannelId id) override { return engine_.release(id); }
  [[nodiscard]] const NetworkState& state() override {
    return engine_.state();
  }
  [[nodiscard]] const AdmissionStats& stats() override {
    return engine_.stats();
  }
  [[nodiscard]] const DeadlinePartitioner& partitioner() const override {
    return engine_.partitioner();
  }
  void reset() override { engine_.reset(); }

 private:
  ParallelAdmissionEngine engine_;
};

class ServiceBackend final : public AdmissionBackend {
 public:
  ServiceBackend(std::uint32_t node_count,
                 std::unique_ptr<DeadlinePartitioner> partitioner,
                 const BackendConfig& config)
      : service_(node_count, std::move(partitioner),
                 AdmissionServiceConfig{config.threads}) {}

  [[nodiscard]] std::string name() const override { return "service"; }

  ChurnResult submit(std::span<const ChannelOp> ops) override {
    return service_.submit(ops);
  }
  [[nodiscard]] AdmitOutcome admit(const ChannelSpec& spec) override {
    return service_.admit(spec);
  }
  ReleaseOutcome release(ChannelId id) override {
    return service_.release(id);
  }
  [[nodiscard]] bool supports_async() const override {
    return service_.mode() == AdmissionService::Mode::kResident;
  }
  Ticket submit_async(const ChannelOp& op) override {
    return service_.submit_async(op);
  }
  void drain() override { service_.drain(); }
  [[nodiscard]] const NetworkState& state() override {
    return service_.state();
  }
  [[nodiscard]] const AdmissionStats& stats() override {
    return service_.stats();
  }
  [[nodiscard]] const DeadlinePartitioner& partitioner() const override {
    return service_.partitioner();
  }
  void reset() override {
    // The resident dispatcher owns the engine, so an in-place table wipe is
    // not available; releasing every live channel reaches the same empty
    // state and the same smallest-free ID allocator.
    service_.drain();
    for (const RtChannel& channel : service_.state().channels()) {
      (void)service_.release(channel.id);
    }
  }

 private:
  AdmissionService service_;
};

/// The rival time-triggered scheme behind the same front door: gate-window
/// synthesis is the admission test. Decisions intentionally differ from
/// the EDF kinds — this backend is the *subject* of differential
/// conformance, not a member of the bit-identical set.
class TtBackend final : public AdmissionBackend {
 public:
  TtBackend(std::uint32_t node_count,
            std::unique_ptr<DeadlinePartitioner> partitioner)
      : admission_(node_count, std::move(partitioner)) {}

  [[nodiscard]] std::string name() const override { return "tt"; }

  ChurnResult submit(std::span<const ChannelOp> ops) override {
    ChurnResult result;
    for (const ChannelOp& op : ops) {
      if (op.kind == ChannelOp::Kind::kAdmit) {
        result.admissions.push_back(admission_.admit(op.spec));
      } else {
        result.releases.push_back(admission_.release(op.id));
      }
    }
    return result;
  }

  [[nodiscard]] AdmitOutcome admit(const ChannelSpec& spec) override {
    return admission_.admit(spec);
  }
  ReleaseOutcome release(ChannelId id) override {
    return admission_.release(id);
  }
  [[nodiscard]] const NetworkState& state() override {
    return admission_.state();
  }
  [[nodiscard]] const AdmissionStats& stats() override {
    return admission_.stats();
  }
  [[nodiscard]] const DeadlinePartitioner& partitioner() const override {
    return admission_.partitioner();
  }
  void reset() override { admission_.reset(); }
  [[nodiscard]] const GateScheduleAdmission* gate_schedule() const override {
    return &admission_;
  }

 private:
  GateScheduleAdmission admission_;
};

constexpr std::array<std::string_view, 4> kBackendKinds = {
    "controller", "batched", "parallel", "service"};

}  // namespace

std::span<const std::string_view> backend_kinds() { return kBackendKinds; }

std::unique_ptr<AdmissionBackend> make_admission_backend(
    std::string_view kind, std::uint32_t node_count,
    std::unique_ptr<DeadlinePartitioner> partitioner,
    const BackendConfig& config) {
  if (kind == "controller") {
    return std::make_unique<ControllerBackend>(node_count,
                                               std::move(partitioner), config);
  }
  if (kind == "batched") {
    return std::make_unique<BatchedBackend>(node_count, std::move(partitioner));
  }
  if (kind == "parallel") {
    return std::make_unique<ParallelBackend>(node_count, std::move(partitioner),
                                             config);
  }
  if (kind == "service") {
    return std::make_unique<ServiceBackend>(node_count, std::move(partitioner),
                                            config);
  }
  if (kind == "tt") {
    return std::make_unique<TtBackend>(node_count, std::move(partitioner));
  }
  return nullptr;
}

}  // namespace rtether::core
