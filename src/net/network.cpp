#include "net/network.hpp"

#include <memory>
#include <stdexcept>
#include <string>

#include "common/assert.hpp"
#include "net/transport/tcp_transport.hpp"

namespace str::net {

Network::Network(sim::ShardedScheduler& sharded, Topology topology, Rng rng,
                 double jitter_frac)
    : sharded_(sharded),
      topology_(std::move(topology)),
      jitter_frac_(jitter_frac) {
  STR_ASSERT(jitter_frac_ >= 0.0);
  STR_ASSERT_MSG(sharded_.num_shards() == topology_.num_regions(),
                 "the network needs one shard per region");
  // One jitter stream per shard (fault streams fork in set_fault_plan).
  slots_.reserve(sharded_.num_shards());
  for (std::uint32_t s = 0; s < sharded_.num_shards(); ++s) {
    slots_.emplace_back(rng.fork(s));
  }
  sharded_.set_gate_predicate(&Network::admit, this);
}

void Network::register_node(NodeId node, RegionId region) {
  STR_ASSERT_MSG(node == node_region_.size(), "register nodes in id order");
  STR_ASSERT(region < topology_.num_regions());
  node_region_.push_back(region);
  node_up_.push_back(1);
  node_epoch_.push_back(0);
  // Registration precedes all traffic, so rebuilding the link table is free.
  row_lines_ = (node_region_.size() + 7) / 8;
  last_arrival_.assign(node_region_.size() * row_lines_, ArrivalLine{});
}

Timestamp Network::sample_latency(NodeId from, NodeId to) {
  const RegionId ra = region_of(from);
  const RegionId rb = region_of(to);
  const Timestamp base = topology_.one_way(ra, rb);
  if (jitter_frac_ <= 0.0) return base;
  // Jitter is strictly additive: the sampled latency never undercuts the
  // topology's base one-way time, which is what makes
  // Topology::min_cross_region_one_way() a safe lookahead horizon.
  const auto jitter = static_cast<Timestamp>(
      static_cast<double>(base) * jitter_frac_ * cur_slot().rng.uniform01());
  return base + jitter;
}

void Network::set_fault_plan(const FaultPlan& plan, Rng fault_rng) {
  plan_ = plan;
  for (std::uint32_t s = 0; s < sharded_.num_shards(); ++s) {
    slots_[s].fault_rng = fault_rng.fork(s);
  }
}

void Network::set_node_down(NodeId node, bool down) {
  STR_ASSERT(node < node_up_.size());
  if (down && node_up_[node] != 0) {
    // Bumping the epoch orphans every in-flight message addressed here: the
    // delivery gate compares epochs and drops mismatches.
    ++node_epoch_[node];
  }
  node_up_[node] = down ? 0 : 1;
}

NetworkStats Network::stats() const {
  NetworkStats t;
  for (const ShardSlot& slot : slots_) {
    const NetworkStats& l = slot.stats;
    t.messages_sent += l.messages_sent;
    t.bytes_sent += l.bytes_sent;
    t.wan_messages += l.wan_messages;
    t.dropped += l.dropped;
    t.duplicated += l.duplicated;
    t.corrupted += l.corrupted;
    t.inversions += l.inversions;
  }
  return t;
}

void Network::merge_into(obs::Registry& reg) const {
  const NetworkStats t = stats();
  reg.counter("net.messages").inc(t.messages_sent);
  reg.counter("net.wan_messages").inc(t.wan_messages);
  reg.counter("net.bytes").inc(t.bytes_sent);
  reg.counter("net.dropped").inc(t.dropped);
  reg.counter("net.duplicated").inc(t.duplicated);
  reg.counter("net.corrupted").inc(t.corrupted);
  reg.counter("net.inversions").inc(t.inversions);
  obs::Timer& latency = reg.timer("net.latency");
  for (const ShardSlot& slot : slots_) latency.merge(slot.latency);
}

void Network::reset_stats() {
  for (ShardSlot& slot : slots_) {
    slot.stats = NetworkStats{};
    slot.latency.reset();
  }
}

void Network::count_drop() { ++cur_slot().stats.dropped; }

void Network::note_arrival(NodeId from, NodeId to, Timestamp arrival) {
  // The directed link slot is only ever touched from `from`'s shard, so the
  // read-modify-write below is single-threaded for every worker count.
  Timestamp& last = last_arrival(from, to);
  if (arrival < last) {
    ++cur_slot().stats.inversions;
  } else {
    last = arrival;
  }
}

void Network::schedule_delivery(NodeId to, Timestamp latency,
                                UniqueFunction<void()>&& fn) {
  const sim::DeliveryGate gate{to, node_epoch_[to]};
  const Timestamp at = cur_sched().now() + latency;
  const auto dst = static_cast<std::uint32_t>(region_of(to));
  if (dst != sim::ShardedScheduler::current_shard()) {
    // The handler rides the mailbox entry and lands in dst's queue when
    // dst's next window starts, installed by dst's own worker.
    sharded_.post_cross(dst, at, std::move(fn), gate);
    return;
  }
  cur_sched().schedule_gated(at, gate, std::move(fn));
}

bool Network::admit(void* self, sim::DeliveryGate gate) {
  auto* net = static_cast<Network*>(self);
  if (net->node_up_[gate.to] != 0 && net->node_epoch_[gate.to] == gate.epoch) {
    return true;
  }
  // The destination crashed while this message was in flight.
  net->count_drop();
  return false;
}

bool Network::begin_send(NodeId from, NodeId to, std::size_t bytes) {
  if (from >= node_region_.size() || to >= node_region_.size()) {
    throw std::invalid_argument(
        "Network::send: " +
        std::string(from >= node_region_.size() ? "source" : "destination") +
        " node " + std::to_string(from >= node_region_.size() ? from : to) +
        " is not registered (" + std::to_string(node_region_.size()) +
        " nodes registered)");
  }
  const RegionId ra = region_of(from);
  const RegionId rb = region_of(to);
  NetworkStats& counts = cur_slot().stats;
  ++counts.messages_sent;
  counts.bytes_sent += bytes;
  if (ra != rb) ++counts.wan_messages;

  // Fault gauntlet, cheapest test first. A message from or to a crashed
  // node never makes it onto the wire; a cut link swallows it silently.
  if (node_up_[from] == 0 || node_up_[to] == 0) {
    count_drop();
    return false;
  }
  const Timestamp now = cur_sched().now();
  if (!plan_.partitions.empty() && plan_.partitioned(ra, rb, now)) {
    count_drop();
    return false;
  }
  if (plan_.link.active(now) && plan_.link.drop_prob > 0.0 &&
      cur_slot().fault_rng.chance(plan_.link.drop_prob)) {
    count_drop();
    return false;
  }
  return true;
}

bool Network::corrupt_draw(std::size_t bytes, std::uint64_t& bit_index) {
  if (!plan_.link.active(cur_sched().now()) ||
      plan_.link.corrupt_prob <= 0.0 ||
      !cur_slot().fault_rng.chance(plan_.link.corrupt_prob)) {
    return false;
  }
  // The bit index is drawn even when the closure transport cannot flip a
  // physical bit: both modes must consume identical fault-stream draws.
  bit_index =
      cur_slot().fault_rng.uniform(static_cast<std::uint64_t>(bytes) * 8);
  return true;
}

void Network::count_corrupted() { ++cur_slot().stats.corrupted; }

void Network::finish_send(NodeId from, NodeId to,
                          UniqueFunction<void()>&& fn) {
  const Timestamp latency = sample_latency(from, to);
  cur_slot().latency.record(latency);
  note_arrival(from, to, latency + cur_sched().now());

  if (plan_.link.active(cur_sched().now()) && plan_.link.dup_prob > 0.0 &&
      cur_slot().fault_rng.chance(plan_.link.dup_prob)) {
    // Deliver the same closure twice. Handlers must tolerate this — the
    // protocol layer dedups by request/transaction id; see docs/FAULTS.md.
    // Only the primary copy was fed to note_arrival above: net.inversions
    // measures jitter reordering between distinct messages, and a duplicate
    // racing its own primary is not that.
    ++cur_slot().stats.duplicated;
    auto shared = std::make_shared<UniqueFunction<void()>>(std::move(fn));
    const Timestamp dup_latency = sample_latency(from, to);
    schedule_delivery(to, latency, [shared]() { (*shared)(); });
    schedule_delivery(to, dup_latency, [shared]() { (*shared)(); });
    return;
  }
  schedule_delivery(to, latency, std::move(fn));
}

void Network::send(NodeId from, NodeId to, UniqueFunction<void()> fn,
                   std::size_t size_hint) {
  if (!begin_send(from, to, size_hint)) return;
  std::uint64_t bit_index = 0;
  if (corrupt_draw(size_hint, bit_index)) {
    // No physical bytes to damage on this transport, so model the outcome:
    // the delivery is replaced by an integrity rejection. Counted at
    // delivery (per copy, and not at all if the destination crashes first),
    // exactly like a checksum-rejected frame in wire mode.
    fn = [this]() { count_corrupted(); };
  }
  finish_send(from, to, std::move(fn));
}

void Network::send_frame(NodeId from, NodeId to, wire::Frame frame) {
  STR_ASSERT_MSG(frame_handler_, "send_frame without a frame handler");
  if (!begin_send(from, to, frame.size())) return;
  if (transport_ != nullptr) {
    // Real transport: the pre-flight accounting still runs (and with the
    // empty fault plan real transports require, it makes no RNG draws), but
    // latency, loss and delivery now belong to actual sockets, which take
    // the bytes. Inbound frames re-enter through deliver_frame.
    transport_->send(from, to,
                     std::vector<std::uint8_t>(frame.data(),
                                               frame.data() + frame.size()));
    return;
  }
  std::uint64_t bit_index = 0;
  if (corrupt_draw(frame.size(), bit_index)) {
    frame = frame.with_bit_flipped(bit_index);
  }
  finish_send(from, to, [this, to, frame = std::move(frame)]() {
    if (!frame_handler_(to, frame.data(), frame.size())) count_corrupted();
  });
}

void Network::deliver_frame(NodeId to, const std::uint8_t* data,
                            std::size_t size) {
  STR_ASSERT_MSG(frame_handler_, "deliver_frame without a frame handler");
  if (!frame_handler_(to, data, size)) count_corrupted();
}

}  // namespace str::net
