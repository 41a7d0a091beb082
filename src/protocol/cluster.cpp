#include "protocol/cluster.hpp"

#include <algorithm>
#include <memory>
#include <string>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "sim/realtime.hpp"
#include "wire/dispatch.hpp"

namespace str::protocol {

std::uint64_t Cluster::sharded_now_cb(const void* sharded) {
  return static_cast<const sim::ShardedScheduler*>(sharded)->current().now();
}

namespace {

/// Every node's decision group (Cluster::decision_group).
std::vector<std::vector<NodeId>> nearest_groups(const Cluster& cluster) {
  const std::uint32_t n = cluster.config().num_nodes;
  const std::uint32_t size =
      std::min(cluster.protocol().durability.group_size(), n);
  std::vector<std::vector<NodeId>> groups(n);
  std::vector<NodeId> others;
  for (NodeId c = 0; c < n; ++c) {
    groups[c].push_back(c);
    if (size == 1) continue;
    others.clear();
    for (std::uint32_t i = 1; i < n; ++i) {
      others.push_back(static_cast<NodeId>((c + i) % n));
    }
    cluster.sort_nearest_first(cluster.region_of(c), others);
    groups[c].insert(groups[c].end(), others.begin(),
                     others.begin() + (size - 1));
  }
  return groups;
}

}  // namespace

Cluster::Cluster(Config config)
    : config_(std::move(config)),
      // One shard per region, with the topology's minimum cross-region
      // one-way latency as the conservative lookahead horizon; the worker
      // count only decides how many threads run them. Each worker thread
      // installs the sharded log clock at startup so its log lines carry
      // its shard's virtual time.
      sharded_(config_.topology.num_regions(), config_.threads,
               config_.topology.min_cross_region_one_way(),
               [this] { Log::set_sim_clock(&Cluster::sharded_now_cb,
                                           &sharded_); }),
      master_rng_(config_.seed),
      storage_rng_(master_rng_.fork(0x57a6)),
      payloads_(sharded_.num_workers() > 1),
      net_(sharded_, config_.topology, master_rng_.fork(0xfee7),
           config_.jitter_frac),
      pmap_(config_.num_nodes, config_.partitions_per_node,
            config_.replication_factor) {
  STR_ASSERT(config_.num_nodes >= 1);
  STR_ASSERT_MSG(config_.num_nodes <= kMaxNodes,
                 "node ids must fit a packed tombstone id");
  const bool real_tp = config_.transport != net::TransportKind::kDes;
  if (real_tp) {
    // str_sim rejects these up front with usage errors; the asserts catch
    // programmatic misconfiguration in tests and embeddings.
    STR_ASSERT_MSG(config_.threads == 1,
                   "real transports require threads == 1");
    STR_ASSERT_MSG(config_.faults.empty(),
                   "real transports are incompatible with fault plans");
    // Frames must be encoded bytes to cross a socket, and a socket can
    // genuinely lose frames across a connection break — the protocol
    // timeout/retry machinery is what recovers those.
    config_.wire_codec = true;
    config_.protocol.recovery.enabled = true;
  }
  // Longest time a snapshot can ride the network unseen by any coordinator
  // or actor: one-way flight plus the worst clock skew (+1 so a boundary
  // arrival is still strictly inside the window).
  flight_slack_ =
      config_.topology.max_one_way() + config_.max_clock_skew + 1;
  // The real transport's counters, registered (and zero) in DES runs too,
  // so every run exports the same instruments.
  c_transport_.frames_sent = &cluster_obs_.counter("transport.frames_sent");
  c_transport_.bytes_sent = &cluster_obs_.counter("transport.bytes_sent");
  c_transport_.frames_received =
      &cluster_obs_.counter("transport.frames_received");
  c_transport_.bytes_received =
      &cluster_obs_.counter("transport.bytes_received");
  c_transport_.frames_resent =
      &cluster_obs_.counter("transport.frames_resent");
  c_transport_.frames_dropped =
      &cluster_obs_.counter("transport.frames_dropped");
  c_transport_.connects = &cluster_obs_.counter("transport.connects");
  c_transport_.reconnects = &cluster_obs_.counter("transport.reconnects");
  c_transport_.disconnects = &cluster_obs_.counter("transport.disconnects");
  c_transport_.partials_discarded =
      &cluster_obs_.counter("transport.partials_discarded");
  for (std::uint8_t t = wire::kMinMessageType; t <= wire::kMaxMessageType;
       ++t) {
    c_wire_resent_[t] = &cluster_obs_.counter(
        std::string("wire.resent.") +
        wire::to_string(static_cast<wire::MessageType>(t)));
  }
  if (config_.wire_codec) {
    net_.set_frame_handler(
        [this](NodeId to, const std::uint8_t* data, std::size_t size) {
          return wire::dispatch_frame(*this, to, data, size) ==
                 wire::DecodeStatus::kOk;
        });
  }
  // Log lines carry virtual time while this cluster's DES is live on this
  // thread (the satellite of the observability layer; see common/log.hpp).
  // Worker threads install the same clock via on_worker_start above.
  Log::set_sim_clock(&Cluster::sharded_now_cb, &sharded_);
  node_spec_enabled_.assign(config_.num_nodes, 1);
  last_restart_at_.assign(config_.num_nodes, 0);
  decision_groups_ = nearest_groups(*this);
  Rng skew_rng = master_rng_.fork(0x5c3b);
  nodes_.reserve(config_.num_nodes);
  for (NodeId id = 0; id < config_.num_nodes; ++id) {
    const RegionId region = region_of(id);
    net_.register_node(id, region);
    const Timestamp skew =
        config_.max_clock_skew == 0
            ? 0
            : skew_rng.uniform(config_.max_clock_skew + 1);
    nodes_.push_back(std::make_unique<Node>(*this, id, region, skew));
  }
  if (!config_.faults.empty()) {
    // The fault RNG is a dedicated fork: plans with zero probabilities
    // consume nothing from it, so adding an empty plan (or only scheduled
    // partitions/crashes) leaves the rest of the run bit-identical.
    net_.set_fault_plan(config_.faults, master_rng_.fork(0xfa117));
    for (const net::CrashEvent& ev : config_.faults.crashes) {
      STR_ASSERT_MSG(ev.node < config_.num_nodes,
                     "fault plan crashes an unknown node");
      // Crashes and restarts touch the network, all of the node's replicas
      // and the remote coordinators' timeout machinery at once — they run as
      // global tasks, with every shard quiesced at exactly the event time.
      sharded_.schedule_global(ev.at,
                               [this, id = ev.node]() { crash_node(id); });
      if (ev.restart_at != kTsInfinity) {
        STR_ASSERT_MSG(ev.restart_at > ev.at,
                       "restart must come after the crash");
        last_restart_at_[ev.node] =
            std::max(last_restart_at_[ev.node], ev.restart_at);
        sharded_.schedule_global(
            ev.restart_at, [this, id = ev.node]() { restart_node(id); });
      }
    }
  }
  schedule_maintenance();
  if (real_tp) {
    rt_driver_ = std::make_unique<sim::RealtimeDriver>(sharded_);
    rt_driver_->set_deliver(
        [this](NodeId to, std::vector<std::uint8_t> frame) {
          // The handler schedules follow-up work on the receiver's shard.
          sim::ShardedScheduler::ShardGuard guard(shard_of(to));
          net_.deliver_frame(to, frame.data(), frame.size());
        });
    // Start last: loop threads may deliver into the driver's inbox the
    // moment they exist, and everything they touch is set up by now.
    transport_ = std::make_unique<net::TcpTransport>(config_.transport_opts);
    net_.set_transport(transport_.get());
    transport_->start(config_.num_nodes,
                      [d = rt_driver_.get()](NodeId to,
                                             std::vector<std::uint8_t> f) {
                        d->enqueue(to, std::move(f));
                      });
  }
}

Cluster::~Cluster() {
  // Quiesce the loop threads before anything they touch is torn down.
  if (transport_ != nullptr) transport_->stop();
  Log::clear_sim_clock(&sharded_);
}

void Cluster::run_for(Timestamp duration) {
  if (rt_driver_ != nullptr) {
    rt_driver_->run_until(sharded_.now() + duration);
    publish_transport_counters();
    return;
  }
  sharded_.run_until(sharded_.now() + duration);
}

void Cluster::publish_transport_counters() {
  if (transport_ == nullptr) return;
  const net::TransportStats s = transport_->stats();
  c_transport_.frames_sent->inc(s.frames_sent - published_.frames_sent);
  c_transport_.bytes_sent->inc(s.bytes_sent - published_.bytes_sent);
  c_transport_.frames_received->inc(s.frames_received -
                                    published_.frames_received);
  c_transport_.bytes_received->inc(s.bytes_received -
                                   published_.bytes_received);
  c_transport_.frames_resent->inc(s.frames_resent - published_.frames_resent);
  c_transport_.frames_dropped->inc(s.frames_dropped -
                                   published_.frames_dropped);
  c_transport_.connects->inc(s.connects - published_.connects);
  c_transport_.reconnects->inc(s.reconnects - published_.reconnects);
  c_transport_.disconnects->inc(s.disconnects - published_.disconnects);
  c_transport_.partials_discarded->inc(s.partial_frames_discarded -
                                       published_.partial_frames_discarded);
  for (std::uint8_t t = wire::kMinMessageType; t <= wire::kMaxMessageType;
       ++t) {
    c_wire_resent_[t]->inc(s.resent_by_tag[t] - published_.resent_by_tag[t]);
  }
  published_ = s;
}

obs::Registry Cluster::merged_obs() const {
  obs::Registry merged;
  merged.merge(cluster_obs_);
  for (const auto& n : nodes_) merged.merge(n->obs());
  net_.merge_into(merged);
  return merged;
}

void Cluster::reset_obs() {
  obs_cutover_ = now();
  cluster_obs_.reset();
  for (auto& n : nodes_) n->obs().reset();
  net_.reset_stats();
  // Re-baseline the delta snapshot: traffic before the cutover never
  // reaches the zeroed counters.
  if (transport_ != nullptr) published_ = transport_->stats();
}

std::uint64_t Cluster::lifetime_commits() const {
  std::uint64_t n = 0;
  for (const auto& node : nodes_) n += node->coordinator().lifetime_commits();
  return n;
}

void Cluster::load(Key key, Value value) {
  const PartitionId pid = PartitionMap::partition_of(key);
  // Each load is a distinct commit by the sentinel "environment" writer
  // (node = kInvalidNode), so WAL replay re-installs seeds without a
  // decision lookup and the duplicate-install guard keeps them apart.
  const TxId seed_tx{kInvalidNode, ++seed_seq_};
  const SharedValue payload = std::make_shared<const Value>(std::move(value));
  for (NodeId n : pmap_.replicas(pid)) {
    PartitionActor* actor = node(n).replica(pid);
    STR_ASSERT(actor != nullptr);
    actor->load(key, payload, seed_tx);
  }
}

void Cluster::crash_node(NodeId id) {
  Node& n = node(id);
  if (!n.up()) return;
  // Enter the node's shard context: the crash fan-out (abort notices from
  // the node's coordinator, timeout re-arms) schedules events that must
  // land on the right queues at the node's clock.
  sim::ShardedScheduler::ShardGuard guard(shard_of(id));
  STR_INFO("node %u crashes", static_cast<unsigned>(id));
  // Network first: in-flight deliveries and the crash-time abort fan-out
  // from the node's own coordinator must both hit a dead endpoint.
  net_.set_node_down(id, true);
  n.crash();
}

void Cluster::restart_node(NodeId id) {
  Node& n = node(id);
  if (n.up()) return;
  sim::ShardedScheduler::ShardGuard guard(shard_of(id));
  STR_INFO("node %u restarts", static_cast<unsigned>(id));
  net_.set_node_down(id, false);
  n.restart();
}

std::unique_ptr<storage::Wal> Cluster::make_wal(
    const std::string& name, NodeId owner,
    const storage::Wal::Counters& counters) {
  if (!wal_enabled()) return nullptr;
  const DurabilityConfig& d = config_.protocol.durability;
  const storage::TornWriteFault torn{config_.faults.storage.torn_write_prob,
                                     &storage_rng_};
  // The medium lives on the owning node's shard: its fsync completions are
  // intra-node events.
  sim::Scheduler& sched = sharded_.shard(shard_of(owner));
  std::unique_ptr<storage::Medium> medium;
  if (d.wal_dir.empty()) {
    medium = std::make_unique<storage::SimMedium>(&sched, d.fsync_latency,
                                                  torn);
  } else {
    medium = std::make_unique<storage::FileMedium>(d.wal_dir + "/" + name,
                                                   &sched, d.fsync_latency,
                                                   torn);
  }
  return std::make_unique<storage::Wal>(std::move(medium), counters);
}

Cluster::QuiesceReport Cluster::quiesce_report() const {
  QuiesceReport r;
  const Timestamp now = sharded_.current().now();
  for (const auto& n : nodes_) {
    if (!n->up()) {
      ++r.down_nodes;
      if (last_restart_at_[n->id()] <= now) ++r.permanently_down;
      continue;
    }
    r.live_txns += n->coordinator().live_transactions();
    for (const auto& [pid, actor] : n->replicas()) {
      r.parked_reads += actor->parked_readers();
      r.uncommitted_txns += actor->store().uncommitted_txn_count();
      r.orphans += actor->awaiting_decisions();
    }
  }
  r.in_doubt = in_doubt_count();
  return r;
}

void Cluster::sort_nearest_first(RegionId from,
                                 std::span<NodeId> nodes) const {
  const net::Topology& topo = config_.topology;
  std::stable_sort(nodes.begin(), nodes.end(), [&](NodeId a, NodeId b) {
    return topo.one_way(from, region_of(a)) < topo.one_way(from, region_of(b));
  });
}

void Cluster::register_in_doubt(const TxId& tx, InDoubtInfo info) {
  std::lock_guard<std::mutex> lk(in_doubt_mu_);
  in_doubt_.emplace(tx, std::move(info));
}

bool Cluster::resolve_in_doubt(NodeId by, const TxId& tx, bool committed) {
  InDoubtInfo info;
  {
    std::lock_guard<std::mutex> lk(in_doubt_mu_);
    auto it = in_doubt_.find(tx);
    if (it == in_doubt_.end()) return false;
    info = std::move(it->second);
    in_doubt_.erase(it);
  }
  // One history event and one outcome count per transaction, timed at the
  // registration (crash) instant: whichever recovery path wins the race to
  // resolve, the recorded output is identical — including across worker
  // counts, where the winning path can differ by interleaving. The
  // resolver's registry takes the count: the deciding node is dead.
  Coordinator& reporter = node(by).coordinator();
  if (committed) {
    reporter.report_commit(tx, info.commit_ts, info.writes, info.reg_at,
                           info.first_activation, info.externalized_at);
  } else {
    reporter.report_abort(tx, AbortReason::NodeCrash, info.reg_at,
                          info.externalized);
  }
  return true;
}

std::size_t Cluster::in_doubt_count() const {
  std::lock_guard<std::mutex> lk(in_doubt_mu_);
  return in_doubt_.size();
}

void Cluster::note_commit_acked(const TxId& tx) {
  std::lock_guard<std::mutex> lk(in_doubt_mu_);
  acked_commits_.insert(tx);
}

bool Cluster::commit_acked(const TxId& tx) const {
  std::lock_guard<std::mutex> lk(in_doubt_mu_);
  return acked_commits_.count(tx) != 0;
}

void Cluster::schedule_maintenance() {
  // Watermark maintenance reads every coordinator and actor across the
  // cluster — a global task, with all shards parked at the tick time.
  sharded_.schedule_global(now() + config_.protocol.gc_interval, [this]() {
    advance_watermark();
    if (wire_mode()) payloads_.sweep();
    for (auto& n : nodes_) {
      // maintain() prunes stores and may log; give it the node's context.
      sim::ShardedScheduler::ShardGuard guard(shard_of(n->id()));
      n->maintain(watermark_);
    }
    schedule_maintenance();
  });
}

void Cluster::advance_watermark() {
  // Candidate for this tick: the lowest snapshot any read could currently
  // be using — live transactions' rs on every coordinator, plus parked and
  // in-flight re-served readers on every actor (their owning transactions
  // may already be gone, but the reads still hit the store).
  const Timestamp now = sharded_.current().now();
  Timestamp candidate = kTsInfinity;
  for (auto& n : nodes_) {
    candidate = std::min(candidate, n->coordinator().min_active_rs());
    for (auto& [pid, actor] : n->replicas()) {
      candidate = std::min(candidate, actor->min_reader_rs());
    }
  }
  wm_candidates_.emplace_back(now, candidate);
  // Keep every candidate younger than flight_slack_ plus the most recent
  // older one (u0). The published watermark is min(u0's tick time, all
  // retained candidates): a request served after this tick was sent at most
  // max_one_way() ago by a transaction that was either already live at u0
  // (so its rs is folded into u0's candidate) or began after u0 (so its
  // rs — begin time plus non-negative skew — is at least u0's tick time).
  while (wm_candidates_.size() >= 2 &&
         wm_candidates_[1].first + flight_slack_ <= now) {
    wm_candidates_.pop_front();
  }
  Timestamp w = wm_candidates_.front().first + flight_slack_ <= now
                    ? wm_candidates_.front().first
                    : 0;
  for (const auto& [at, c] : wm_candidates_) w = std::min(w, c);
  // Monotonic publish: an older, larger watermark stays safe forever (its
  // in-flight window has only receded further into the past).
  watermark_ = std::max(watermark_, w);
}

}  // namespace str::protocol
