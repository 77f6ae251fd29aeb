#include "analysis/acceptance.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "core/partitioner.hpp"

namespace rtether::analysis {

std::size_t count_accepted(const std::string& scheme,
                           std::uint32_t node_count,
                           const std::vector<core::ChannelSpec>& specs) {
  core::AdmissionController controller(node_count,
                                       core::make_partitioner(scheme));
  std::size_t accepted = 0;
  for (const auto& spec : specs) {
    if (controller.request(spec)) {
      ++accepted;
    }
  }
  return accepted;
}

AcceptanceCurve run_acceptance_sweep(const std::string& scheme,
                                     std::uint32_t node_count,
                                     const RequestStream& stream,
                                     const AcceptanceSweepConfig& config) {
  RTETHER_ASSERT(config.seeds >= 1);
  AcceptanceCurve curve;
  curve.scheme = scheme;
  curve.points.reserve(config.request_counts.size());

  for (const std::size_t requested : config.request_counts) {
    AcceptancePoint point;
    point.requested = requested;
    double sum = 0.0;
    double lo = 0.0;
    double hi = 0.0;
    for (std::uint32_t s = 0; s < config.seeds; ++s) {
      const std::uint64_t seed = config.base_seed + s;
      const auto specs = stream(seed, requested);
      const auto accepted = static_cast<double>(
          count_accepted(scheme, node_count, specs));
      sum += accepted;
      lo = s == 0 ? accepted : std::min(lo, accepted);
      hi = s == 0 ? accepted : std::max(hi, accepted);
    }
    point.accepted_mean = sum / static_cast<double>(config.seeds);
    point.accepted_min = lo;
    point.accepted_max = hi;
    curve.points.push_back(point);
  }
  return curve;
}

AcceptanceCurve run_master_slave_sweep(const std::string& scheme,
                                       const traffic::MasterSlaveConfig&
                                           workload,
                                       const AcceptanceSweepConfig& config) {
  const std::uint32_t node_count = workload.masters + workload.slaves;
  return run_acceptance_sweep(
      scheme, node_count,
      [&workload](std::uint64_t seed, std::size_t count) {
        traffic::MasterSlaveWorkload generator(workload, seed);
        return generator.generate(count);
      },
      config);
}

}  // namespace rtether::analysis
