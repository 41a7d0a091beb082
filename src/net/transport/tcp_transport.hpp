// Loopback TCP transport with a full connection lifecycle: per-node
// listeners on 127.0.0.1, one connection per ORDERED node pair (i's frames
// to j ride the connection i initiated; j's replies ride j's own), a 4-byte
// little-endian node-id handshake so the acceptor learns who connected,
// nonblocking connect with capped doubling backoff, and
// reconnect-with-resend. See docs/TRANSPORT.md.
//
// Delivery contract: frames between an ordered pair of nodes arrive intact
// (checksummed, reassembled from arbitrary stream chunks) and in send order
// while the underlying connection lives. Across a connection loss the
// transport re-offers still-queued frames on the replacement connection
// (at-least-once, counted per tag in `resent_by_tag` → the cluster's
// `wire.resent.*`), but frames already handed to the kernel may be gone for
// good — exactly the loss the protocol layer's timeout/retry machinery
// (docs/FAULTS.md) recovers from, which is why real-transport clusters
// force recovery on.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "net/transport/transport.hpp"

namespace str::net {

class TcpTransport {
 public:
  /// Invoked with each fully reassembled frame addressed to node `to` — on
  /// a transport loop thread, or on the sending thread for self-sends. Must
  /// be thread-safe; calling send() from inside it is allowed (echo
  /// servers, protocol replies).
  using RxHandler =
      std::function<void(NodeId to, std::vector<std::uint8_t> frame)>;

  explicit TcpTransport(TransportOptions options = {});
  ~TcpTransport();
  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Bind every listener, then bring up `num_nodes` node loops. Throws
  /// std::runtime_error when the OS refuses (a busy port, fd exhaustion) —
  /// callers turn that into a usage error before any simulation time is
  /// spent. Call exactly once.
  void start(std::uint32_t num_nodes, RxHandler rx);

  /// Queue one encoded frame from `from` to `to`. Thread-safe; never
  /// blocks on the network (frames park in per-peer queues until the
  /// destination connection accepts them). from == to loops back through
  /// the RxHandler without touching a socket.
  void send(NodeId from, NodeId to, std::vector<std::uint8_t> frame);

  /// Stop all loops and close every socket; idempotent, called by the
  /// destructor. After stop() no RxHandler invocation is in flight.
  void stop();

  /// Snapshot of the summed per-loop counters. Thread-safe.
  TransportStats stats() const;

  /// Actual listen port of `node` (ephemeral ports resolve at start()).
  std::uint16_t port_of(NodeId node) const { return ports_.at(node); }

  // -- test hooks -----------------------------------------------------------

  /// Forcibly close every connection `node`'s loop owns, as if the peer had
  /// reset them. Synchronous: returns after the loop has done the closing,
  /// with the resend accounting already in stats(); the loop then
  /// reconnects and re-offers the queued frames. Must not be called from
  /// an RxHandler.
  void debug_drop_connections(NodeId node);

  /// Pause (true) or resume (false) all outbound flushing from `node`'s
  /// loop, so tests can pin frames in the outbound queues deterministically
  /// before dropping a connection.
  void debug_pause_writes(NodeId node, bool paused);

 private:
  struct Loop;
  void loop_main(Loop& loop);

  TransportOptions options_;
  RxHandler rx_;
  std::vector<std::uint16_t> ports_;  // filled before any loop thread runs
  std::vector<std::unique_ptr<Loop>> loops_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace str::net
