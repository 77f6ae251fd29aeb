#pragma once

/// @file mgmt_frames.hpp
/// RT-channel management frames: the connection RequestFrame of paper
/// Fig 18.3 and the ResponseFrame of Fig 18.4, plus the teardown pair the
/// paper implies ("the network has capability to add RT channels
/// dynamically") but does not draw.
///
/// Field widths follow the figures exactly: 32-bit T_period / C /
/// T_deadline, 16-bit RT channel ID, 8-bit connection request ID, 1-bit
/// response verdict (carried in the low bit of one octet — the figures count
/// bits, the wire counts bytes). The Ethernet destination (request) and
/// source (response) being "= switch addr." lives in the Ethernet header,
/// not the payload.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "net/address.hpp"

namespace rtether::net {

/// First payload octet of every management frame.
enum class MgmtFrameType : std::uint8_t {
  kConnectRequest = 1,
  kConnectResponse = 2,
  kTeardownRequest = 3,
  kTeardownResponse = 4,
};

/// Peeks at the type octet without consuming the buffer.
[[nodiscard]] std::optional<MgmtFrameType> peek_mgmt_type(
    std::span<const std::uint8_t> payload);

/// Fig 18.3 — sent by the source node to the switch; if admitted, forwarded
/// (with the RT channel ID filled in) to the destination node.
struct RequestFrame {
  /// Source-node-unique ID to match responses to outstanding requests.
  ConnectionRequestId connection_request;
  /// Network-unique ID; only valid after the switch assigns it.
  ChannelId rt_channel;
  MacAddress source_mac;
  MacAddress destination_mac;
  Ipv4Address source_ip;
  Ipv4Address destination_ip;
  /// {P_i, C_i, d_i} in maximal-frame slots (32-bit fields per Fig 18.3).
  std::uint32_t period{0};
  std::uint32_t capacity{0};
  std::uint32_t deadline{0};

  static constexpr std::size_t kWireSize = 36;

  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  static std::optional<RequestFrame> parse(
      std::span<const std::uint8_t> payload);

  friend bool operator==(const RequestFrame&, const RequestFrame&) = default;
};

/// Fig 18.4 — the verdict, relayed destination→switch→source (or emitted by
/// the switch itself on rejection).
///
/// Protocol completion: the figure's format has no field through which the
/// source node can learn the uplink deadline d_iu the switch's DPS
/// assigned, yet §18.3.1 requires the source to run EDF with exactly that
/// deadline — and under ADPS only the switch can compute it. We therefore
/// append a 32-bit d_iu field, filled by the switch when relaying an
/// accepting response (0 on rejection).
struct ResponseFrame {
  ConnectionRequestId connection_request;
  ChannelId rt_channel;
  /// 1 = OK, 0 = Not OK (1-bit field in the figure).
  bool accepted{false};
  /// d_iu in slots (see above; not part of the paper's Fig 18.4).
  std::uint32_t uplink_deadline{0};

  static constexpr std::size_t kWireSize = 9;

  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  static std::optional<ResponseFrame> parse(
      std::span<const std::uint8_t> payload);

  friend bool operator==(const ResponseFrame&,
                         const ResponseFrame&) = default;
};

/// Teardown request (extension): releases an established channel so its
/// capacity returns to the admission pool.
struct TeardownFrame {
  ChannelId rt_channel;
  /// Distinguishes request from acknowledgment.
  bool is_ack{false};

  static constexpr std::size_t kWireSize = 4;

  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  static std::optional<TeardownFrame> parse(
      std::span<const std::uint8_t> payload);

  friend bool operator==(const TeardownFrame&,
                         const TeardownFrame&) = default;
};

}  // namespace rtether::net
