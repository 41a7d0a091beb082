// Simulated message transport between nodes.
//
// A message is a closure executed at the destination after the one-way
// latency of the (source region, destination region) pair plus bounded
// jitter. Closures keep the transport type-safe without a serialization
// layer; the protocol layer still defines explicit message structs
// (protocol/messages.hpp) as the closure payloads, and the network counts
// messages and exact encoded bytes (wire/messages.hpp frame sizes) so
// experiments can report traffic. A second transport, send_frame + an
// installed FrameHandler, carries real encoded bytes instead of closures
// (the --wire codec mode; see docs/WIRE.md) through the same latency and
// fault pipeline.
//
// The transport is lossy on demand: an attached FaultPlan (net/fault.hpp)
// drops and duplicates messages per-link, cuts region pairs during
// scheduled partition windows, and tracks node liveness so that a crashed
// node receives nothing — including messages that were already in flight
// when it crashed (modelled with a per-node delivery epoch that the crash
// bumps). All stochastic fault decisions draw from a dedicated RNG stream,
// so enabling faults never perturbs the jitter stream and a fault-free plan
// leaves behaviour bit-identical to a plan-less network.
//
// Everything a send writes lives in the sending shard's own cache-line
// aligned slot: its RNG streams, its handler pool and its traffic lane
// (NetworkStats plus the net.latency samples). The lanes are folded into
// stats() and the registry counters by the lattice's fold hook, on the
// control thread between windows, so no send takes a lock.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "common/unique_function.hpp"
#include "net/fault.hpp"
#include "net/topology.hpp"
#include "obs/registry.hpp"
#include "sim/scheduler.hpp"
#include "sim/sharded.hpp"

namespace str::net {

class TcpTransport;

struct NetworkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t wan_messages = 0;  ///< messages crossing a region boundary
  std::uint64_t dropped = 0;       ///< lost to faults (any cause)
  std::uint64_t duplicated = 0;    ///< extra copies delivered
  std::uint64_t corrupted = 0;     ///< deliveries rejected by the integrity
                                   ///< check (bit-flip faults; counted at
                                   ///< delivery, once per rejected copy)
  std::uint64_t inversions = 0;    ///< deliveries overtaking an earlier send
                                   ///< on the same link (jitter reordering)
};

class Network {
 public:
  /// Runs on `sharded`, which must hold one shard per region of `topology`
  /// (shard id == region id). `jitter_frac` adds uniform jitter in
  /// [0, jitter_frac] of the base one-way latency to each message (default
  /// 5%). Installs itself as `sharded`'s cross-shard installer and adds a
  /// fold hook for its traffic lanes, which is why a Network never moves.
  Network(sim::ShardedScheduler& sharded, Topology topology, Rng rng,
          double jitter_frac = 0.05);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Register a node in `region`; nodes must be registered in id order.
  void register_node(NodeId node, RegionId region);

  RegionId region_of(NodeId node) const { return node_region_.at(node); }
  std::uint32_t num_nodes() const {
    return static_cast<std::uint32_t>(node_region_.size());
  }

  /// Deliver `fn` at node `to` after the simulated latency from `from`.
  /// `size_hint` approximates the wire size for traffic accounting.
  /// Under duplication faults the SAME closure object is invoked once per
  /// delivered copy, so `fn` must be invocable multiple times: capture the
  /// message payload by value and hand the handler a copy — never move a
  /// capture out in the body.
  /// Throws std::invalid_argument when either endpoint is not a registered
  /// node — a protocol-layer routing bug, reported eagerly instead of as a
  /// bare std::out_of_range from deep inside the region lookup.
  void send(NodeId from, NodeId to, UniqueFunction<void()> fn,
            std::size_t size_hint = 64);

  /// Receiver side of the encoded transport: invoked at delivery time with
  /// the destination node and the raw frame bytes. Returns true when the
  /// frame decoded and was routed; false rejects it (counted as corrupted).
  /// Deliberately knows nothing about the wire layer's types, so net/ does
  /// not depend on wire/ — the Cluster installs a handler that calls
  /// wire::dispatch_frame.
  using FrameHandler =
      UniqueFunction<bool(NodeId to, const std::uint8_t* data,
                          std::size_t size)>;

  /// Install the frame handler; required before the first send_frame.
  void set_frame_handler(FrameHandler handler) {
    frame_handler_ = std::move(handler);
  }

  /// Ship an encoded frame through the same latency/fault pipeline as
  /// send(). Byte accounting uses the exact frame size; a bit-flip fault
  /// mutates the frame itself, so the receiver's checksum does the
  /// rejecting. The same RNG draws are made as for a closure send of equal
  /// size, keeping both transport modes on one deterministic trajectory.
  void send_frame(NodeId from, NodeId to, std::vector<std::uint8_t> frame);

  /// One-way latency sample between two nodes (includes jitter).
  Timestamp sample_latency(NodeId from, NodeId to);

  const Topology& topology() const { return topology_; }

  /// Traffic totals. Folds every shard's lane first, so it is callable
  /// only while no window runs (between run_until calls, or in a global
  /// task).
  const NetworkStats& stats() {
    fold_lanes();
    return stats_;
  }

  // -- fault injection ------------------------------------------------------

  /// Attach a fault plan; `fault_rng` feeds every stochastic fault decision
  /// (keep it a dedicated fork of the experiment seed). Scheduled events in
  /// the plan (partitions are time-checked per send; crashes) are the
  /// cluster's job to trigger via set_node_down.
  void set_fault_plan(const FaultPlan& plan, Rng fault_rng);
  const FaultPlan& fault_plan() const { return plan_; }

  /// Crash (down=true) or restart (down=false) a node. Crashing bumps the
  /// node's delivery epoch so in-flight messages addressed to it are
  /// dropped at delivery time.
  void set_node_down(NodeId node, bool down);
  bool node_up(NodeId node) const { return node_up_.at(node) != 0; }

  /// Attach a metrics registry; message/byte counters and the per-message
  /// latency timer are resolved once and updated on every send.
  void set_registry(obs::Registry* registry);

  /// Attach a real transport (net/transport/). From then on send_frame
  /// bypasses the simulated latency/fault pipeline after the pre-flight
  /// accounting and hands the frame to the transport; inbound frames come
  /// back through deliver_frame on the realtime driver thread. The DES path
  /// is untouched when no transport is attached.
  void set_transport(TcpTransport* transport) { transport_ = transport; }
  TcpTransport* transport() const { return transport_; }

  /// Inbound side of the real-transport path: route a reassembled frame to
  /// `to` through the installed FrameHandler (checksum rejection counts as
  /// corrupted, same as the DES path). Must run on the protocol thread.
  void deliver_frame(NodeId to, const std::uint8_t* data, std::size_t size);

 private:
  /// Schedule one delivery of `fn` to `to` after `latency`, gated on the
  /// destination still being alive in the same epoch at delivery time.
  /// Same-region deliveries go straight onto the current shard's queue;
  /// cross-region ones (cross-shard, since shard id == region id, so the
  /// lookahead horizon bounds their latency from below) ride the mailbox
  /// with the gate beside the handler and are installed by dst's worker
  /// when its next window starts.
  void schedule_delivery(NodeId to, Timestamp latency,
                         UniqueFunction<void()> fn);

  /// Park `fn` in shard `s`'s handler pool and schedule its gated delivery
  /// on that shard. Called from shard s's own context: its sends, or the
  /// installer when s's window starts.
  void enqueue_delivery(std::uint32_t s, Timestamp at,
                        sim::DeliveryGate gate,
                        UniqueFunction<void()> fn);

  /// Shared send front end: traffic counting plus the pre-flight fault
  /// gauntlet (endpoint down, partition window, drop draw). Returns false
  /// when the message dies before the wire.
  bool begin_send(NodeId from, NodeId to, std::size_t bytes);

  /// Corruption draw (identical in both transport modes): returns true and
  /// sets `bit_index` in [0, bytes*8) when this message is to arrive with
  /// one bit flipped.
  bool corrupt_draw(std::size_t bytes, std::uint64_t& bit_index);

  /// Shared send back end: latency sample, arrival bookkeeping, duplication
  /// draw, delivery scheduling. `fn` must tolerate multiple invocations.
  void finish_send(NodeId from, NodeId to, UniqueFunction<void()> fn);

  void count_corrupted();

  /// Record a delivery time on the directed link and count an inversion if
  /// it overtakes an earlier send.
  void note_arrival(NodeId from, NodeId to, Timestamp arrival);

  void count_drop();

  /// Add every shard's traffic lane to stats_ and to the registry
  /// counters, then zero the lanes. The lattice calls this through its fold
  /// hook, with every worker parked.
  void fold_lanes();

  /// Everything one shard's sends and deliveries write, on cache lines no
  /// other shard's slot shares. Per-shard RNG forks keep every draw
  /// sequence a pure function of the shard's own trajectory, never of
  /// cross-shard interleaving.
  struct alignas(64) ShardSlot {
    explicit ShardSlot(Rng jitter) : rng(jitter) {}
    Rng rng;           ///< jitter stream
    Rng fault_rng{0};  ///< fault stream (forked in set_fault_plan)
    /// In-flight message handlers (slot recycling stays shard-local),
    /// indexed by the slot the scheduled delivery closure captures (see
    /// enqueue_delivery), and the vacated slots.
    std::vector<UniqueFunction<void()>> pool;
    std::vector<std::uint32_t> frees;
    NetworkStats stats;  ///< lane: traffic since the last fold
    obs::Timer latency;  ///< lane: net.latency samples since the last fold
  };

  /// The calling context's shard: its queue (sends execute on the sending
  /// node's shard) and its slot.
  sim::Scheduler& cur_sched() { return sharded_.current(); }
  ShardSlot& cur_slot() {
    return slots_[sim::ShardedScheduler::current_shard()];
  }

  /// Latest scheduled arrival on directed link (from, to). Each sender's
  /// row starts on its own cache line: the row is only touched from the
  /// sender's shard, so the flat layout needs no locking (a hash map would
  /// race on rehash even for disjoint keys) and no two shards write a line.
  Timestamp& last_arrival(NodeId from, NodeId to) {
    return last_arrival_[static_cast<std::size_t>(from) * row_lines_ + to / 8]
        .at[to % 8];
  }
  struct alignas(64) ArrivalLine {
    Timestamp at[8] = {};
  };

  sim::ShardedScheduler& sharded_;
  Topology topology_;
  double jitter_frac_;
  std::vector<RegionId> node_region_;
  NetworkStats stats_;  ///< folded totals
  FaultPlan plan_;
  std::vector<char> node_up_;
  std::vector<std::uint64_t> node_epoch_;
  std::vector<ArrivalLine> last_arrival_;
  std::size_t row_lines_ = 0;  ///< cache lines per sender row
  std::vector<ShardSlot> slots_;  ///< index = shard
  TcpTransport* transport_ = nullptr;
  FrameHandler frame_handler_;
  obs::Counter* c_messages_ = nullptr;
  obs::Counter* c_wan_messages_ = nullptr;
  obs::Counter* c_bytes_ = nullptr;
  obs::Counter* c_dropped_ = nullptr;
  obs::Counter* c_duplicated_ = nullptr;
  obs::Counter* c_corrupted_ = nullptr;
  obs::Counter* c_inversions_ = nullptr;
  obs::Timer* t_latency_ = nullptr;
};

}  // namespace str::net
