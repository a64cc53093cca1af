// Basic identifier types for the network layer.
#pragma once

#include <cstdint>

#include "util/units.h"

namespace actnet::net {

/// Compute-node index within the simulated cluster (0-based).
using NodeId = std::int32_t;

/// Message identifier assigned at send time. Network's ids carry the
/// sending flow's send ordinal in the high 32 bits (the key of the
/// message's switch-stage draws) and an in-flight table slot in the low
/// 32 bits.
using MessageId = std::uint64_t;

/// The per-flow send ordinal a Network MessageId carries.
inline std::uint64_t msg_ordinal(MessageId id) { return id >> 32; }

/// A message fragment travelling through the network.
struct Packet {
  MessageId msg_id = 0;
  std::uint32_t seq = 0;   ///< packet index within its message
  NodeId src = -1;
  NodeId dst = -1;
  std::uint32_t flow = 0;  ///< fair-queueing flow (global source-rank id)
  Bytes size = 0;          ///< payload bytes carried by this packet
  Tick injected_at = 0;    ///< time the message entered the source NIC
};

}  // namespace actnet::net
