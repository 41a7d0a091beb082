// Protocol variant selection.
//
// One engine implements every protocol in the paper's evaluation; the flags
// pick the variant:
//
//   ClockSI-Rep  : speculative_reads=false, precise_clocks=false
//   Ext-Spec     : ClockSI-Rep + externalize_local_commit=true
//   STR          : speculative_reads=true,  precise_clocks=true
//   Table-1 rows : the four {speculative_reads} x {precise_clocks} combinations
#pragma once

#include "common/types.hpp"

namespace str::protocol {

/// Timeout/retry/recovery knobs. Defaults are sized for the built-in WAN
/// topologies (max one-way ~150ms): a request timeout of 500ms exceeds any
/// healthy RTT, so retries fire only under injected loss.
struct RecoveryConfig {
  /// Master switch. Off (the default) preserves the seed's fail-free
  /// behaviour exactly: no timers are armed and no RNG stream is consumed.
  bool enabled = false;

  /// Initial per-attempt timeout for ReadRequest / PrepareRequest RPCs;
  /// doubles per retry up to `timeout_cap` (bounded exponential backoff).
  Timestamp request_timeout = msec(500);
  Timestamp timeout_cap = sec(2);

  /// Retry budgets. Exhaustion aborts the transaction with
  /// AbortReason::Timeout.
  std::uint32_t max_read_retries = 4;
  std::uint32_t max_prepare_retries = 4;

  /// A participant holding a prepared-but-undecided transaction probes the
  /// coordinator after `orphan_timeout`, backing off up to
  /// `orphan_interval_cap`. If the coordinator node is down for
  /// `orphan_down_probes` consecutive probes, the participant unilaterally
  /// aborts the orphan (perfect failure detector assumption; docs/FAULTS.md).
  Timestamp orphan_timeout = sec(1);
  Timestamp orphan_interval_cap = sec(2);
  std::uint32_t orphan_down_probes = 3;

  /// How long a coordinator's durable decision log answers DecisionRequests
  /// after the transaction finished. Must exceed the longest plausible
  /// partition window + orphan probe interval.
  Timestamp decision_log_retention = sec(30);
};

/// Write-ahead-log knobs (docs/DURABILITY.md). Off by default: the seed's
/// "magic durability" model (committed state survives crashes in memory)
/// stays byte-identical — no WAL events, counters, or RNG draws exist.
struct DurabilityConfig {
  /// Master switch. On: every node keeps one WAL per partition replica plus
  /// a decision log; a crash wipes volatile state and restart replays.
  bool wal_enabled = false;

  /// Modeled fsync latency charged per Medium::sync (virtual time). This is
  /// what makes group commit measurable: N records per flush amortize one
  /// fsync across N acks.
  Timestamp fsync_latency = msec(2);

  /// Group commit: flush when a batch reaches this many records...
  std::uint32_t group_commit_batch = 8;
  /// ...or this long after the first unflushed record, whichever is first.
  Timestamp group_commit_interval = msec(2);

  /// Checkpoint a partition WAL (snapshot + truncate) once this many bytes
  /// were appended to it since its last checkpoint and the log is idle. The
  /// checkpoint image itself does not count.
  std::uint64_t checkpoint_min_bytes = 64 * 1024;

  /// Compact the per-node decision log once it exceeds this many durable
  /// bytes (entries older than the retention horizon are dropped).
  std::uint64_t decision_log_max_bytes = 256 * 1024;

  /// Empty: deterministic in-memory media (SimMedium). Non-empty: a
  /// directory where each log is mirrored to a real file (FileMedium),
  /// named <node>_p<partition>.wal / <node>_decisions.wal.
  std::string wal_dir;

  /// Decision-log replication (docs/DURABILITY.md §8). 0 (the default)
  /// keeps the single-copy commit point byte-identical to the plain WAL;
  /// >= 1 moves the commit point to "decision durable on `decision_quorum`
  /// copies" — the local log plus quorum-1 replica-group members, with the
  /// fan-out ordered strictly after local durability. Requires wal_enabled.
  std::uint32_t decision_quorum = 0;

  /// Size of each coordinator's decision replica group, counting the
  /// coordinator (nodes (c+1)%N .. wrap). 0 sizes the group to 2*quorum-1
  /// — the quorum is then a strict majority, so the barrier survives up to
  /// quorum-1 member losses without stalling. Never sized below the quorum.
  std::uint32_t replica_group = 0;

  /// True when the quorum commit point is active.
  bool quorum_enabled() const { return wal_enabled && decision_quorum >= 1; }

  /// Effective group size, counting the coordinator itself. The floor is
  /// 2*quorum-1 when unconfigured: with group == quorum, one dead member
  /// wedges every commit barrier routed through it.
  std::uint32_t group_size() const {
    const std::uint32_t majority = 2 * decision_quorum - 1;
    const std::uint32_t floor = replica_group == 0 ? majority : decision_quorum;
    return replica_group > floor ? replica_group : floor;
  }
};

struct ProtocolConfig {
  /// Allow transactions to observe local-committed versions created by
  /// transactions of the same node (STR's internal speculation).
  bool speculative_reads = true;

  /// Use the Precise Clocks prepare-timestamp rule (max LastReader+1)
  /// instead of the physical-clock rule of Clock-SI / Spanner.
  bool precise_clocks = true;

  /// Ext-Spec baseline: surface results to the client after local
  /// certification (external speculation). Misspeculations are counted as
  /// external misspeculations; no compensation logic runs (as in the paper).
  bool externalize_local_commit = false;

  /// Period between committed-version GC sweeps on each partition replica.
  Timestamp gc_interval = sec(2);
  /// Committed versions older than now-horizon are collectable. Must exceed
  /// the largest possible read-snapshot staleness (max one-way latency plus
  /// clock skew); the default is safe for every built-in topology. Tombstones
  /// (abort markers) always expire on this horizon, pruning or not.
  Timestamp gc_horizon = sec(4);

  /// Prune committed versions up to the cluster-wide stable-snapshot
  /// watermark (min over virtual now and every live transaction's read
  /// snapshot) instead of only the fixed time horizon. Strictly more
  /// aggressive and — because no current or future snapshot can fall below
  /// the watermark — observably behaviour-neutral; the golden-determinism
  /// test asserts the toggle does not move the execution hash. Speculative
  /// (PreCommitted/LocalCommitted) versions are never pruned.
  bool watermark_pruning = true;

  /// Timeout / retry / orphan-recovery machinery (off by default).
  RecoveryConfig recovery;

  /// Write-ahead logging + crash replay (off by default).
  DurabilityConfig durability;

  static ProtocolConfig clocksi_rep() {
    ProtocolConfig c;
    c.speculative_reads = false;
    c.precise_clocks = false;
    return c;
  }

  static ProtocolConfig ext_spec() {
    ProtocolConfig c = clocksi_rep();
    c.externalize_local_commit = true;
    return c;
  }

  static ProtocolConfig str() { return ProtocolConfig{}; }
};

/// Cluster-wide switches the self-tuning controller flips at runtime.
/// ProtocolConfig::speculative_reads is the static capability; speculation is
/// actually used only when both the capability and this flag are on.
struct RuntimeFlags {
  bool speculation_enabled = true;
};

}  // namespace str::protocol
