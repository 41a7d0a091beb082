// Core value types shared by every STR module.
//
// Timestamps are virtual microseconds produced by the discrete-event
// scheduler (sim/scheduler.hpp) plus per-node clock skew. Transaction,
// node, partition and region identifiers are small integer handles; they
// are kept as distinct types where confusing them would be a bug.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace str {

/// Virtual time in microseconds. 0 is the simulation epoch.
using Timestamp = std::uint64_t;

inline constexpr Timestamp kTsInfinity = std::numeric_limits<Timestamp>::max();

/// Convenience literals for building virtual durations.
inline constexpr Timestamp usec(std::uint64_t v) { return v; }
inline constexpr Timestamp msec(std::uint64_t v) { return v * 1000; }
inline constexpr Timestamp sec(std::uint64_t v) { return v * 1'000'000; }

/// Longest time, in seconds, a user-supplied setting may name (a run
/// length, a fault-plan time): far past any run, and well inside the 64-bit
/// microsecond clock.
inline constexpr double kMaxSeconds = 1e9;

/// Most worker threads a user may ask the simulator for. The lattice runs
/// at most one per region shard, so a larger count buys nothing.
inline constexpr std::uint32_t kMaxThreads = 1024;

/// Parse a plain decimal count in [lo, hi] for a command-line flag: digits
/// only (no sign, space or trailing text) and no wrap-around. Returns false
/// and leaves `out` alone on anything else.
bool parse_count(const char* text, std::uint64_t lo, std::uint64_t hi,
                 std::uint64_t& out);

using NodeId = std::uint32_t;
using RegionId = std::uint32_t;
using PartitionId = std::uint32_t;

inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();
inline constexpr PartitionId kInvalidPartition =
    std::numeric_limits<PartitionId>::max();

/// Globally unique transaction identifier: originating node + per-node
/// sequence number. The pair is totally ordered, which gives deterministic
/// tie-breaking wherever transaction order matters.
struct TxId {
  NodeId node = kInvalidNode;
  std::uint64_t seq = 0;

  friend bool operator==(const TxId&, const TxId&) = default;
  friend auto operator<=>(const TxId&, const TxId&) = default;

  bool valid() const { return node != kInvalidNode; }
};

inline constexpr TxId kNoTx{};

/// Keys are opaque 64-bit values. Workloads encode (table, shard, row,
/// column) tuples into them via key_codec.hpp.
using Key = std::uint64_t;

/// Values are opaque byte strings; workloads serialize records into them.
using Value = std::string;

/// Shared immutable payload handle. A write's value is heap-allocated once,
/// by the workload (TxnHandle::write), and then aliased by the write buffer
/// and every message, version-chain entry and read result that carries it —
/// in a real system these would all point at the same serialized buffer.
/// Decoded wire frames find it again through the sender's update list
/// (wire/payload_table.hpp). Empty handle = "no payload".
using SharedValue = std::shared_ptr<const Value>;

/// A transaction's updates for one partition: (key, payload) pairs in write
/// order. The payloads are the workload's own handles, never copied.
using UpdateList = std::vector<std::pair<Key, SharedValue>>;

/// Write-set payload carried by prepare/replicate messages. Built once per
/// transaction and partition, then shared by every message of the fan-out
/// (and by duplicated deliveries of the same message), so it is immutable
/// by construction — in a real system this would be the serialized wire
/// bytes, which are equally share-and-forget.
using SharedUpdates = std::shared_ptr<const UpdateList>;

/// Lifecycle of a data item version (and of the transaction that wrote it).
///
///   PreCommitted   : prepare accepted, pre-commit lock held, timestamp is
///                    the proposed prepare timestamp.
///   LocalCommitted : passed local certification at the originating node;
///                    timestamp is the local-commit timestamp LC. Versions in
///                    this state are what speculative reads may observe.
///   Committed      : passed global certification; timestamp is the final
///                    commit timestamp FC. Visible to everyone per SI rules.
enum class VersionState : std::uint8_t {
  PreCommitted,
  LocalCommitted,
  Committed,
};

const char* to_string(VersionState s);

/// Outcome of a transaction attempt as observed by the client driver.
enum class TxOutcome : std::uint8_t {
  Committed,
  Aborted,
};

/// Why a transaction attempt aborted. Used for the abort-breakdown metrics
/// that extend the paper's aggregate abort-rate plots.
enum class AbortReason : std::uint8_t {
  None,               ///< not aborted
  LocalCertification, ///< write-write conflict during local certification
  GlobalCertification,///< write-write conflict during global certification
  RemoteReplication,  ///< lost to a remote pre-commit replicated to our slave
  Misspeculation,     ///< read a local-committed version whose writer aborted
                      ///< or committed past our snapshot (SPSI-1 violation)
  CascadingAbort,     ///< a transaction we data-depend on aborted
  UserAbort,          ///< workload logic requested rollback
  Timeout,            ///< RPC retries exhausted (message loss / partition)
  NodeCrash,          ///< coordinator node crashed or was down: txn in
                      ///< flight at the crash, or begun while down
};

const char* to_string(AbortReason r);

struct TxIdHash {
  std::size_t operator()(const TxId& id) const noexcept {
    // splitmix-style mix of the two fields.
    std::uint64_t x = (std::uint64_t(id.node) << 40) ^ id.seq;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<std::size_t>(x);
  }
};

}  // namespace str

template <>
struct std::hash<str::TxId> : str::TxIdHash {};
