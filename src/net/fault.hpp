// Deterministic fault injection for the simulated network.
//
// A FaultPlan describes everything that may go wrong on the wire: per-link
// message drops and duplications, scheduled region-pair partitions, and
// node crash/restart events. The plan is pure data — the Network applies
// the stochastic parts from its own seeded RNG stream and the Cluster
// schedules the time-triggered parts as ordinary DES events, so a run under
// faults is exactly as reproducible as a healthy one: same seed + same plan
// => byte-identical trace and metrics exports.
//
// Plans can be built programmatically or parsed from a small line-oriented
// spec (see FaultPlan::parse and docs/FAULTS.md):
//
//   # comment
//   drop 0.05                 # drop probability, every link
//   dup 0.02                  # duplication probability, every link
//   corrupt 0.01              # single-bit-flip probability, every link
//   heal 9.0                  # drops/dups stop at t=9s (recovery window)
//   partition 0 1 2.0 12.0    # cut regions 0 <-> 1 from t=2s to t=12s
//   partition-oneway 0 1 2 12 # cut only messages flowing region 0 -> 1
//   crash 3 5.0 8.0           # node 3 crashes at t=5s, restarts at t=8s
//   crash 4 6.0               # node 4 crashes at t=6s and never returns
//   crash 3:5.0:8.0           # colon spelling, same as --crash-node N:T[:R]
//   partition 0:1:2.0:12.0    # colon spelling, same as --partition A:B:S:E
//   torn-write 0.5            # crash mid-fsync leaves a torn WAL tail
//
// Probabilities lie in [0, 1] and times in [0, kMaxSeconds] seconds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace str::net {

/// Stochastic per-message faults, applied uniformly to every link while
/// virtual time is below `heal_at`. A finite heal time gives every run a
/// fault-free recovery window, so "the system quiesces by the end of the
/// drain" is a provable property instead of a probabilistic one — with
/// drops active forever, any fixed drain can lose the last retry on some
/// seed. The experiment harness defaults heal_at to the end of the
/// measurement window when the plan leaves it unset.
struct LinkFaults {
  double drop_prob = 0.0;  ///< probability a message vanishes on the wire
  double dup_prob = 0.0;   ///< probability a message is delivered twice
  /// Probability a message arrives with one bit flipped. In wire mode
  /// (--wire) the flip lands in the encoded frame and the decoder rejects
  /// it via checksum; in closure mode the delivery is rejected symmetrically
  /// (same RNG draws, same net.corrupted count). A rejected frame is NOT a
  /// drop: it reaches the destination, fails integrity, and is discarded.
  double corrupt_prob = 0.0;
  Timestamp heal_at = kTsInfinity;  ///< drop/dup/corrupt are inert from here on

  bool any() const {
    return drop_prob > 0.0 || dup_prob > 0.0 || corrupt_prob > 0.0;
  }
  bool active(Timestamp now) const { return any() && now < heal_at; }
  bool operator==(const LinkFaults&) const = default;
};

/// A directed region-pair cut active during [start, end) of virtual time.
struct PartitionWindow {
  RegionId from = 0;
  RegionId to = 0;
  Timestamp start = 0;
  Timestamp end = 0;

  bool cuts(RegionId a, RegionId b, Timestamp at) const {
    return a == from && b == to && at >= start && at < end;
  }
  bool operator==(const PartitionWindow&) const = default;
};

/// Storage faults, applied by the WAL media at crash time (docs/FAULTS.md,
/// docs/DURABILITY.md). Inert unless the run both enables the WAL and
/// crashes a node while a flush is in flight.
struct StorageFaults {
  /// Probability that a crash catching an fsync in flight leaves a torn
  /// tail: a random nonempty prefix of the in-flight chunk persists
  /// (possibly with one bit flipped) instead of the chunk vanishing whole.
  /// Replay checksum-scans and truncates the tail either way.
  double torn_write_prob = 0.0;

  bool any() const { return torn_write_prob > 0.0; }
  bool operator==(const StorageFaults&) const = default;
};

/// A whole-node crash at `at`; `restart_at` == kTsInfinity means the node
/// never rejoins. Crash semantics: every in-flight and subsequent inbound
/// message is dropped and the node's volatile protocol state is cleared;
/// the durable MV store (committed data) and the coordinator's decision log
/// survive into the restart.
struct CrashEvent {
  NodeId node = kInvalidNode;
  Timestamp at = 0;
  Timestamp restart_at = kTsInfinity;
  bool operator==(const CrashEvent&) const = default;
};

struct FaultPlan {
  LinkFaults link;
  StorageFaults storage;
  std::vector<PartitionWindow> partitions;
  std::vector<CrashEvent> crashes;

  bool empty() const {
    return !link.any() && !storage.any() && partitions.empty() &&
           crashes.empty();
  }
  bool operator==(const FaultPlan&) const = default;

  /// Both directions of a region pair cut during [start, end).
  void add_partition(RegionId a, RegionId b, Timestamp start, Timestamp end) {
    partitions.push_back({a, b, start, end});
    partitions.push_back({b, a, start, end});
  }

  void add_crash(NodeId node, Timestamp at,
                 Timestamp restart_at = kTsInfinity) {
    crashes.push_back({node, at, restart_at});
  }

  /// True when some partition window cuts the directed link a -> b at `at`.
  bool partitioned(RegionId a, RegionId b, Timestamp at) const {
    for (const PartitionWindow& w : partitions) {
      if (w.cuts(a, b, at)) return true;
    }
    return false;
  }

  /// Apply one directive of the spec above (one line, comment stripped) to
  /// this plan. Plan files and str_sim's fault flags both go through here,
  /// so every spelling meets the same checks. A blank directive is a no-op.
  /// Returns false and fills `error` on a malformed directive, leaving the
  /// plan unchanged.
  bool apply(const std::string& directive, std::string& error);

  /// Parse the line-oriented spec described above. Returns false and fills
  /// `error` (with a line number) on malformed input; `out` is then
  /// unspecified.
  static bool parse(const std::string& text, FaultPlan& out,
                    std::string& error);

  /// Read a spec file; distinguishes I/O errors from parse errors in
  /// `error`.
  static bool load(const std::string& path, FaultPlan& out,
                   std::string& error);

  /// True when every node and region the plan names exists in a cluster of
  /// `num_nodes` nodes over `num_regions` regions; otherwise false, with
  /// `error` naming the first that does not.
  bool fits(std::uint32_t num_nodes, std::uint32_t num_regions,
            std::string& error) const;

  /// One-line human-readable summary ("drop=5% dup=2% partitions=1
  /// crashes=1"), for run banners.
  std::string describe() const;
};

}  // namespace str::net
