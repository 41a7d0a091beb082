// Real-transport settings and counters (docs/TRANSPORT.md).
//
// A real transport carries the checksummed wire frames of docs/WIRE.md over
// OS sockets on per-node event-loop threads, replacing the DES's virtual-
// latency delivery while reusing everything above it unchanged: the frame
// format, the decoder hardening, the typed dispatch path, and the per-type
// traffic counters. The DES remains the protocol oracle — a real-transport
// run exercises the same cluster logic in wall-clock time (sim/realtime.hpp
// anchors virtual time to the wall clock), it does not replace the
// deterministic trajectory the golden hash locks down.
//
// The one socket backend is loopback TCP (net/transport/tcp_transport.hpp);
// this header holds the plain types the cluster config and the run reports
// share with it.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace str::net {

enum class TransportKind : std::uint8_t {
  kDes = 0,  ///< virtual-latency delivery on the DES (the default)
  kTcp = 1,  ///< loopback TCP with reconnect (one conn per ordered pair)
};

const char* to_string(TransportKind kind);

/// Parse "des" | "tcp". False on anything else.
bool parse_transport(const std::string& name, TransportKind& out);

struct TransportOptions {
  /// Node i listens on 127.0.0.1:(base_port + i). 0 (the default) binds
  /// ephemeral ports, coordinated through the in-process port table — the
  /// right choice everywhere except when a run must use fixed ports.
  std::uint16_t base_port = 0;
};

/// Monotonic counters, one logical set per transport (internally summed
/// over the per-node loops). All counts are frame-granular except the byte
/// totals, which track exactly what crossed (or re-crossed) the kernel
/// boundary, handshakes excluded.
struct TransportStats {
  std::uint64_t frames_sent = 0;      ///< fully handed to the kernel
  std::uint64_t bytes_sent = 0;
  std::uint64_t frames_received = 0;  ///< fully reassembled and delivered
  std::uint64_t bytes_received = 0;
  /// Frames re-offered to a replacement connection because the connection
  /// they were queued on broke before they were fully written. At-least-
  /// once: the receiver may see a duplicate of a frame whose first copy did
  /// arrive; the protocol's request/transaction-id dedup absorbs it.
  std::uint64_t frames_resent = 0;
  std::uint64_t bytes_resent = 0;
  /// Queued frames still unsent at stop(). A connection break never drops
  /// a queued frame: it waits for the replacement connection.
  std::uint64_t frames_dropped = 0;
  std::uint64_t connects = 0;     ///< connections established
  std::uint64_t reconnects = 0;   ///< subset of connects that replace a loss
  std::uint64_t disconnects = 0;  ///< established connections lost
  /// Receive-side partial frames discarded because the peer died mid-frame.
  std::uint64_t partial_frames_discarded = 0;
  /// frames_resent partitioned by the frame's tag byte (frame[4], the wire
  /// message type) — the source of the cluster's `wire.resent.*` counters.
  std::array<std::uint64_t, 256> resent_by_tag{};

  void add(const TransportStats& other);
};

}  // namespace str::net
