// The simulated geo-replicated data store: scheduler + network + nodes.
//
// This is the top-level object experiments and examples interact with:
// build a Cluster from a Config, load initial data, start client fibers,
// and advance virtual time with run_for().
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "harness/metrics.hpp"
#include "net/fault.hpp"
#include "net/network.hpp"
#include "net/transport/tcp_transport.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "net/topology.hpp"
#include "protocol/config.hpp"
#include "protocol/node.hpp"
#include "protocol/partition_map.hpp"
#include "protocol/tombstone_table.hpp"
#include "sim/scheduler.hpp"
#include "sim/sharded.hpp"
#include "storage/wal.hpp"
#include "verify/history.hpp"
#include "wire/messages.hpp"
#include "wire/payload_table.hpp"

namespace str::sim {
class RealtimeDriver;
}

namespace str::protocol {

class Cluster {
 public:
  /// Largest cluster: node ids must fit the 16 bits a tombstone packs them
  /// into (protocol/tombstone_table.hpp).
  static constexpr std::uint32_t kMaxNodes = 65535;
  static_assert(kMaxNodes - 1 <= TombstoneTable::kMaxNode);

  struct Config {
    std::uint32_t num_nodes = 9;
    std::uint32_t partitions_per_node = 1;
    std::uint32_t replication_factor = 6;
    net::Topology topology = net::Topology::ec2_nine_regions();
    ProtocolConfig protocol;
    std::uint64_t seed = 1;
    double jitter_frac = 0.05;
    /// Node i's clock skew is drawn uniformly from [0, max_clock_skew].
    Timestamp max_clock_skew = msec(1);
    /// Deterministic fault plan: link drops/dups/corruption, partition
    /// windows, node crashes. Empty (the default) injects nothing and leaves
    /// every run bit-identical to a fault-free build.
    net::FaultPlan faults;
    /// Wire codec mode (str_sim --wire): every message is encoded into a
    /// checksummed binary frame at send and decoded + dispatched at
    /// delivery, instead of travelling as a closure. Both modes make the
    /// same RNG draws and charge the same exact frame sizes to the byte
    /// counters, so a run is bit-identical across modes (docs/WIRE.md).
    bool wire_codec = false;
    /// Real transport mode (str_sim --transport): frames travel over actual
    /// sockets on per-node loop threads and virtual time is paced to the
    /// wall clock (sim/realtime.hpp). Implies wire_codec and forces
    /// recovery on (sockets can genuinely lose frames across a connection
    /// break). Requires threads == 1 and an empty fault plan — the DES owns
    /// determinism and fault injection; real transports own realism.
    net::TransportKind transport = net::TransportKind::kDes;
    net::TransportOptions transport_opts;
    /// Worker threads running the region-sharded lattice (one shard per
    /// region; docs/PERFORMANCE.md, "Region-sharded lattice"). Only a speed
    /// setting: output depends on (seed, topology, fault plan), never on
    /// the worker count.
    std::uint32_t threads = 1;
  };

  explicit Cluster(Config config);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// The scheduler of the shard the calling context executes on: a node's
  /// protocol code always sees its own region's queue.
  sim::Scheduler& scheduler() { return sharded_.current(); }
  sim::ShardedScheduler& sharded() { return sharded_; }

  /// Region of node `id` (nodes are dealt round-robin over the regions).
  RegionId region_of(NodeId id) const {
    return id % config_.topology.num_regions();
  }

  /// Shard hosting `id`: its region.
  std::uint32_t shard_of(NodeId id) const { return region_of(id); }

  /// Run `fn` in node `id`'s shard context (events it schedules land on the
  /// node's queue). Callable only while the simulation is NOT running —
  /// from the main thread between run_for calls — or from the node's own
  /// shard.
  void run_on_node(NodeId id, const std::function<void()>& fn) {
    sim::ShardedScheduler::ShardGuard guard(shard_of(id));
    fn();
  }

  net::Network& network() { return net_; }
  const PartitionMap& pmap() const { return pmap_; }
  const ProtocolConfig& protocol() const { return config_.protocol; }
  const Config& config() const { return config_; }

  Node& node(NodeId id) { return *nodes_.at(id); }
  std::uint32_t num_nodes() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }

  /// Commit, abort, read and latency totals: a view summing the node
  /// registries.
  harness::Metrics metrics() { return harness::Metrics(*this); }
  RuntimeFlags& flags() { return flags_; }

  /// True when messages travel as encoded frames (Config::wire_codec).
  bool wire_mode() const { return config_.wire_codec; }

  /// Update lists by identity, so a decoded prepare or replicate is the
  /// sender's list and its values alias the payloads its writes already
  /// have (wire mode only; wire/payload_table.hpp).
  wire::PayloadTable& payloads() { return payloads_; }

  /// Transaction-lifecycle tracer (disabled by default; O(1) when off).
  obs::Tracer& tracer() { return tracer_; }

  /// Cluster-wide metrics view: the cluster registry merged with every
  /// node's registry (counters/gauges sum, timer histograms merge), plus
  /// the network's "net.*" counters and "net.latency" timer. Call it only
  /// between run_for calls.
  obs::Registry merged_obs() const;

  /// The warmup cutover: zero all registries (counters/timers; gauges keep
  /// their instantaneous values) and the network's traffic counts, and
  /// remember now() as obs_cutover(). The harness calls this between
  /// run_for calls; harness::Metrics::set_measurement_start is the same
  /// call.
  void reset_obs();

  /// Time of the last reset_obs (0 before the first).
  Timestamp obs_cutover() const { return obs_cutover_; }

  /// Commits since construction across all coordinators, never reset (the
  /// self-tuner's measurement source).
  std::uint64_t lifetime_commits() const;

  /// True when speculative reads are both configured and currently enabled
  /// cluster-wide.
  bool spec_active() const {
    return config_.protocol.speculative_reads && flags_.speculation_enabled;
  }
  /// Per-node view: the cluster-wide switches AND the node's own toggle
  /// (heterogeneous speculation degrees, the paper's §7 extension).
  bool spec_active(NodeId node) const {
    return spec_active() && node_spec_enabled_[node] != 0;
  }
  void set_speculation_enabled(bool on) { flags_.speculation_enabled = on; }
  void set_node_speculation_enabled(NodeId node, bool on) {
    node_spec_enabled_.at(node) = on ? 1 : 0;
  }

  /// Optional history recording (tests/verification). Not owned.
  void set_history(verify::HistorySink* sink) { history_ = sink; }
  verify::HistorySink* history() { return history_; }

  /// Load one key into every replica of its partition (committed, ts 0).
  /// The replicas share one payload.
  void load(Key key, Value value);

  /// Advance virtual time by `duration`, executing all due events. The
  /// calling thread doubles as worker 0 of the epoch loop.
  /// With a real transport, virtual time is paced to the wall clock and
  /// inbound frames are dispatched between events (sim/realtime.hpp).
  void run_for(Timestamp duration);

  /// True when frames travel over a real transport (Config::transport).
  bool real_transport() const { return transport_ != nullptr; }
  net::TcpTransport* transport() { return transport_.get(); }

  /// Virtual time as seen by the calling context: the current shard's clock
  /// inside protocol code, the (globally agreed) clock between run_for
  /// calls. Identical to scheduler().now().
  Timestamp now() const { return sharded_.current().now(); }

  /// Deterministic per-consumer RNG streams derived from the config seed.
  Rng fork_rng(std::uint64_t stream) const { return master_rng_.fork(stream); }

  // -- fault injection -------------------------------------------------------

  bool node_up(NodeId id) const { return nodes_.at(id)->up(); }

  /// Fail-stop crash: the network drops the node's in-flight and future
  /// messages first, then the node aborts its live transactions and clears
  /// volatile replica state. Idempotent (crashing a down node is a no-op).
  void crash_node(NodeId id);

  /// Rejoin after a crash; prepared-but-undecided transactions re-enter
  /// orphan recovery. Idempotent.
  void restart_node(NodeId id);

  /// End-of-run residue check: anything here but zeros means a leak — a
  /// transaction stuck live, a reader parked forever, a pre-commit lock
  /// never released, or an orphan still waiting for a decision.
  struct QuiesceReport {
    std::size_t live_txns = 0;         ///< coordinator records still open
    std::size_t parked_reads = 0;      ///< readers parked behind locks
    std::size_t uncommitted_txns = 0;  ///< pre-commit locks still held
    std::size_t orphans = 0;           ///< prepared txns awaiting decisions
    /// Crash-time in-doubt decisions recovery never resolved (quorum mode).
    std::size_t in_doubt = 0;
    /// Nodes that are down at report time. Not part of clean() — but a
    /// chaos verdict should distinguish "quiesced" from "quiesced because
    /// half the cluster is dead and unreachable for inspection".
    std::size_t down_nodes = 0;
    /// Subset of down_nodes with no restart scheduled in the fault plan at
    /// or after report time: dead for good, not merely between crash and
    /// scheduled rejoin. Quorum-mode verdicts key off this — a commit must
    /// survive any permanent coordinator loss the quorum tolerates.
    std::size_t permanently_down = 0;

    bool clean() const {
      return live_txns == 0 && parked_reads == 0 && uncommitted_txns == 0 &&
             orphans == 0 && in_doubt == 0;
    }
  };

  /// Inspect every UP node (a crashed-for-good node's durable prepared
  /// state is unreachable and excluded — see docs/FAULTS.md).
  QuiesceReport quiesce_report() const;

  // -- durability (docs/DURABILITY.md) --------------------------------------

  /// True when nodes keep write-ahead logs and replay them on restart.
  bool wal_enabled() const {
    return config_.protocol.durability.wal_enabled;
  }

  /// True when the quorum commit point is active (docs/DURABILITY.md §8).
  bool decision_quorum_enabled() const {
    return config_.protocol.durability.quorum_enabled();
  }

  /// Replica group of coordinator `c`: c, then the group_size()-1 other
  /// nodes nearest its region (sort_nearest_first over c+1, c+2, ... mod N,
  /// so ties keep that order), capped at the cluster size; {c} while the
  /// quorum is off. Computed from the configuration before the nodes are
  /// built and never changed, which is what lets recovery census the group
  /// without a view protocol.
  const std::vector<NodeId>& decision_group(NodeId c) const {
    return decision_groups_.at(c);
  }

  /// Stable-sort `nodes` by one-way latency from region `from`, nearest
  /// first; ties keep their order. The one distance order behind the
  /// coordinators' remote-read failover rows and the decision groups.
  void sort_nearest_first(RegionId from, std::span<NodeId> nodes) const;

  // -- in-doubt registry (quorum mode; docs/DURABILITY.md §8) ---------------
  //
  // A coordinator that crashes with a decision locally durable but the
  // quorum barrier still open can neither commit nor abort the transaction
  // at crash time: the fate depends on which copies survive and who asks.
  // The registry parks such transactions cluster-side; exactly one
  // resolution (coordinator replay, participant census, or a decision
  // reply) reports the outcome through the resolving node's coordinator
  // (Coordinator::report_commit/report_abort), pinned at registration time
  // so every worker count reports identical output.

  struct InDoubtInfo {
    Timestamp commit_ts = 0;
    Timestamp reg_at = 0;  ///< crash time; resolution reports at this time
    Timestamp first_activation = 0;
    Timestamp externalized_at = 0;
    bool externalized = false;
    UpdateList writes;
  };

  void register_in_doubt(const TxId& tx, InDoubtInfo info);

  /// Resolve tx's parked fate exactly once, on behalf of node `by` (whose
  /// shard the caller runs on; its coordinator reports the outcome).
  /// Returns true when an entry existed (first caller); later callers are
  /// no-ops.
  bool resolve_in_doubt(NodeId by, const TxId& tx, bool committed);

  std::size_t in_doubt_count() const;

  /// A client was acked Commit for tx (the quorum barrier completed).
  void note_commit_acked(const TxId& tx);

  /// True when tx's client was acked Commit. Recovery asks before it
  /// aborts tx: a yes is a lost commit, the exact event the quorum commit
  /// point exists to prevent ("recovery.lost_commits", always 0 when the
  /// quorum holds).
  bool commit_acked(const TxId& tx) const;

  /// Build one log for a node's partition replica or decision stream.
  /// `name` ("n3_p7.wal", "n3_decisions.wal") doubles as the file name under
  /// DurabilityConfig::wal_dir when file mirroring is on. The log runs on
  /// `owner`'s shard scheduler and counts into `counters` (the owning
  /// node's "wal.*" counters — per-node so shards never contend). All logs
  /// share the cluster's storage RNG stream, drawn from only inside crash
  /// handling (quiesced, deterministically ordered). Returns nullptr when
  /// WAL is off.
  std::unique_ptr<storage::Wal> make_wal(
      const std::string& name, NodeId owner,
      const storage::Wal::Counters& counters);

  /// Cluster-wide stable-snapshot watermark: no read — live, parked, or
  /// still in flight — can observe a snapshot below this timestamp, so
  /// committed versions dominated by a newer committed version at or below
  /// it are unreachable. It is the one horizon maintenance prunes at.
  /// Monotonic; recomputed on every maintenance tick. Exposed for tests.
  Timestamp stable_watermark() const { return watermark_; }

 private:
  /// Log::set_sim_clock callback: the current shard's virtual time, so log
  /// lines carry the right clock on every worker thread.
  static std::uint64_t sharded_now_cb(const void* sharded);

  Config config_;
  sim::ShardedScheduler sharded_;
  Rng master_rng_;
  /// Dedicated stream for storage faults (torn-write crash resolution).
  /// Forking is pure and the stream is drawn from only when a crash catches
  /// an fsync in flight, so WAL-off runs stay bit-identical.
  Rng storage_rng_;
  wire::PayloadTable payloads_;  ///< swept by the maintenance tick
  /// The real transport's counters ("transport.*", "wire.resent.*"),
  /// written only between run_for calls; merged_obs() reads them.
  obs::Registry cluster_obs_;
  Timestamp obs_cutover_ = 0;
  obs::Tracer tracer_;
  net::Network net_;
  PartitionMap pmap_;
  std::uint64_t seed_seq_ = 0;  ///< sentinel-writer seq for load() records
  RuntimeFlags flags_;
  verify::HistorySink* history_ = nullptr;
  /// decision_group() of every node, filled before the nodes are built.
  std::vector<std::vector<NodeId>> decision_groups_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<char> node_spec_enabled_;

  // -- real transport (Config::transport != kDes; all null/zero otherwise) --
  std::unique_ptr<net::TcpTransport> transport_;
  std::unique_ptr<sim::RealtimeDriver> rt_driver_;
  /// Stats snapshot at the last publish (or reset_obs): the registry
  /// counters advance by the delta, so the warmup cutover discards warmup
  /// traffic from transport.* exactly as it does from every other counter.
  net::TransportStats published_;
  struct TransportCounters {
    obs::Counter* frames_sent = nullptr;
    obs::Counter* bytes_sent = nullptr;
    obs::Counter* frames_received = nullptr;
    obs::Counter* bytes_received = nullptr;
    obs::Counter* frames_resent = nullptr;
    obs::Counter* frames_dropped = nullptr;
    obs::Counter* connects = nullptr;
    obs::Counter* reconnects = nullptr;
    obs::Counter* disconnects = nullptr;
    obs::Counter* partials_discarded = nullptr;
  };
  TransportCounters c_transport_;
  /// Per-type transport-retransmit siblings of wire.msgs.* ("wire.resent.
  /// <type>"), so transport-level resends are distinguishable from
  /// protocol-level retries in --verify output. Zero in DES runs.
  std::array<obs::Counter*, wire::kNumMessageTypes> c_wire_resent_{};
  /// Fold the transport's stats delta since the last publish into the
  /// cluster registry. Called after every run_for in real-transport mode.
  void publish_transport_counters();

  /// In-doubt registry + client-ack ledger (quorum mode only; both stay
  /// empty otherwise). Mutex-guarded: registration happens inside crash
  /// global tasks (all shards quiesced) but resolution runs from whichever
  /// shard hosts the resolving participant.
  mutable std::mutex in_doubt_mu_;
  std::unordered_map<TxId, InDoubtInfo, TxIdHash> in_doubt_;
  std::unordered_set<TxId, TxIdHash> acked_commits_;
  /// Latest fault-plan restart per node (0 = none scheduled), for
  /// QuiesceReport::permanently_down.
  std::vector<Timestamp> last_restart_at_;

  /// Watermark bookkeeping: per-tick candidates (tick time, min observable
  /// snapshot at that tick). A candidate only becomes the published
  /// watermark once it is at least flight_slack_ old — a request in flight
  /// now was sent by a transaction that was either live at that older tick
  /// (its rs is in the candidate) or born after it (its rs exceeds the tick
  /// time). See advance_watermark() for the full argument.
  std::deque<std::pair<Timestamp, Timestamp>> wm_candidates_;
  Timestamp flight_slack_ = 0;
  Timestamp watermark_ = 0;

  void schedule_maintenance();
  void advance_watermark();
};

}  // namespace str::protocol
