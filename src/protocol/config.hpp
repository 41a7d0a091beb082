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

/// Timeout/retry/recovery machinery. Its schedule is fixed: the retry
/// constants sit in coordinator.hpp, the orphan-probe ones in
/// partition_actor.cpp and the decision-log retention in coordinator.cpp.
struct RecoveryConfig {
  /// Master switch. Off (the default) preserves the seed's fail-free
  /// behaviour exactly: no timers are armed and no RNG stream is consumed.
  bool enabled = false;
};

/// Write-ahead-log knobs (docs/DURABILITY.md). Off by default: the seed's
/// "magic durability" model (committed state survives crashes in memory)
/// stays byte-identical — no WAL events, counters, or RNG draws exist.
struct DurabilityConfig {
  /// Master switch. On: every node keeps one WAL per partition replica plus
  /// a decision log; a crash wipes volatile state and restart replays.
  bool wal_enabled = false;

  /// Modeled fsync latency charged per Medium::sync (virtual time). This is
  /// what makes group commit measurable: the records appended while one
  /// sync is in flight share the next one.
  Timestamp fsync_latency = msec(2);

  /// No effect: a log begins a sync as soon as it has records and none is
  /// in flight (storage::Wal), whatever this holds. Kept for callers that
  /// still assign it.
  std::uint32_t group_commit_batch = 8;

  /// Checkpoint a partition WAL (snapshot + truncate) once this many bytes
  /// were appended to it since its last checkpoint and the log is idle. The
  /// checkpoint image itself does not count.
  std::uint64_t checkpoint_min_bytes = 64 * 1024;

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

  /// True when the quorum commit point is active.
  bool quorum_enabled() const { return wal_enabled && decision_quorum >= 1; }

  /// Size of each coordinator's decision replica group, counting the
  /// coordinator (c and the nodes nearest its region; Cluster::decision_group
  /// caps it at N): 2*quorum-1, a strict majority, so the barrier survives
  /// quorum-1 member losses without stalling (with group == quorum, one
  /// dead member wedges every barrier routed through it). 1, the
  /// coordinator alone, while the quorum is off.
  std::uint32_t group_size() const {
    return quorum_enabled() ? 2 * decision_quorum - 1 : 1;
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

  /// Period between maintenance ticks. Each tick advances the cluster-wide
  /// stable-snapshot watermark (Cluster::stable_watermark), prunes every
  /// replica's committed versions that no snapshot at or above it can read,
  /// and expires tombstones. Speculative (PreCommitted/LocalCommitted)
  /// versions are never pruned. A period longer than the run prunes
  /// nothing, which changes no reader's result.
  Timestamp gc_interval = sec(2);

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
