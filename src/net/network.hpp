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
// A delivery is a gated event (sim::DeliveryGate): the message closure
// built by the caller is handed down by rvalue reference, scheduled as is
// with the destination's gate beside it — on the sender's shard within a
// region, through the lattice's mailbox across regions — and the
// scheduler asks Network::admit before running it. So the closure is
// built once and moved at most three times (into the mailbox entry, into
// the event slot, out of it), and nothing wraps it.
//
// Everything a send or a refused delivery writes lives in the current
// shard's own cache-line aligned slot: its RNG streams and its traffic
// counts (NetworkStats plus the net.latency samples), so no send takes a
// lock. Readers sum the slots between windows: stats() for the totals,
// merge_into() for the "net.*" instruments of the cluster's merged view.
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
#include "wire/frame.hpp"

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
  /// 5%). Installs itself as `sharded`'s gate predicate, which is why a
  /// Network never moves.
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
  /// net/ carries wire::Frame, the byte container, but knows nothing of
  /// the message codec — the Cluster installs a handler that calls
  /// wire::dispatch_frame.
  using FrameHandler =
      UniqueFunction<bool(NodeId to, const std::uint8_t* data,
                          std::size_t size)>;

  /// Install the frame handler; required before the first send_frame.
  void set_frame_handler(FrameHandler handler) {
    frame_handler_ = std::move(handler);
  }

  /// Ship an encoded frame through the same latency/fault pipeline as
  /// send(). The delivery holds `frame`, a reference the legs of a fan-out
  /// share; a bit-flip fault damages a copy of this leg's own, so the
  /// receiver's checksum rejects this leg alone. Byte accounting uses the
  /// exact frame size, and the same RNG draws are made as for a closure
  /// send of equal size, keeping both transport modes on one deterministic
  /// trajectory. A real transport gets a copy of the bytes.
  void send_frame(NodeId from, NodeId to, wire::Frame frame);

  /// One-way latency sample between two nodes (includes jitter).
  Timestamp sample_latency(NodeId from, NodeId to);

  const Topology& topology() const { return topology_; }

  /// Traffic since construction or the last reset_stats(), summed over
  /// the shards' slots: callable only while no window runs (between
  /// run_until calls, or in a global task).
  NetworkStats stats() const;

  /// Add the traffic counts to `reg` as the "net.*" counters and merge the
  /// per-message latency samples into its "net.latency" timer. Same
  /// window and calling rules as stats().
  void merge_into(obs::Registry& reg) const;

  /// Zero every slot's counts and latency samples (the warmup cutover).
  void reset_stats();

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
                         UniqueFunction<void()>&& fn);

  /// Gate predicate of every shard (sim::Scheduler::GatePredicate): admits
  /// a delivery when its destination is up in the epoch it was sent in,
  /// and counts a refused one as dropped in the current shard's slot. Runs
  /// in the destination shard's context; node_up_/node_epoch_ change only
  /// in global tasks, with every worker parked, so it takes no lock.
  static bool admit(void* self, sim::DeliveryGate gate);

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
  void finish_send(NodeId from, NodeId to, UniqueFunction<void()>&& fn);

  void count_corrupted();

  /// Record a delivery time on the directed link and count an inversion if
  /// it overtakes an earlier send.
  void note_arrival(NodeId from, NodeId to, Timestamp arrival);

  void count_drop();

  /// Everything one shard's sends and deliveries write, on cache lines no
  /// other shard's slot shares. Per-shard RNG forks keep every draw
  /// sequence a pure function of the shard's own trajectory, never of
  /// cross-shard interleaving.
  struct alignas(64) ShardSlot {
    explicit ShardSlot(Rng jitter) : rng(jitter) {}
    Rng rng;           ///< jitter stream
    Rng fault_rng{0};  ///< fault stream (forked in set_fault_plan)
    NetworkStats stats;  ///< this shard's sends and refused deliveries
    obs::Timer latency;  ///< one-way latency of this shard's sends
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
  FaultPlan plan_;
  std::vector<char> node_up_;
  std::vector<std::uint64_t> node_epoch_;
  std::vector<ArrivalLine> last_arrival_;
  std::size_t row_lines_ = 0;  ///< cache lines per sender row
  std::vector<ShardSlot> slots_;  ///< index = shard
  TcpTransport* transport_ = nullptr;
  FrameHandler frame_handler_;
};

}  // namespace str::net
