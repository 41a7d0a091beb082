// Transaction-lifecycle tracer.
//
// Records structured events (begin, read issued/ready, gate parked/released,
// local certification, per-DC prepare traffic, dependency waits, final
// commit/abort) stamped with virtual time and node id. The cluster owns one
// tracer; events land in a bounded ring buffer so long runs cannot exhaust
// memory — when full, the oldest events are overwritten and counted as
// dropped.
//
// Cost model: the tracer is disabled by default. Call sites guard argument
// evaluation with `if (tracer.enabled())` (record_span, whose arguments are
// plain fields, checks it itself), so the disabled path is a single
// predictable branch on a bool — benchmarks pay nothing measurable.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace str::obs {

enum class TraceEventType : std::uint8_t {
  TxBegin,        ///< startTx; a = read snapshot RS
  ReadIssued,     ///< read requested; a = key, b = 1 when remote
  ReadReady,      ///< value delivered to the transaction; a = key,
                  ///< b = 1 when the observed version was speculative
  GateParked,     ///< value held at the speculation gate (Alg. 1 l. 15); a = key
  GateReleased,   ///< gate opened, parked value delivered; a = key,
                  ///< b = park duration (virtual us)
  LocalCertStart, ///< local certification began; a = write-set size
  LocalCertEnd,   ///< local certification passed; a = local-commit ts LC
  PrepareSent,    ///< prepare/replicate sent; a = destination node, b = partition
  PrepareAck,     ///< prepare/replicate ack received; a = replying node,
                  ///< b = 1 when the ack refused (certification conflict)
  DepWait,        ///< commit blocked on unresolved data dependencies (SPSI-4);
                  ///< a = number of unresolved dependencies
  DepResolved,    ///< one dependency resolved; a = remaining count
  TxCommit,       ///< final commit; a = commit ts FC, b = FC - RS distance
  TxAbort,        ///< final abort; a = AbortReason,
                  ///< other = cascade parent when reason is CascadingAbort
  CommitRequested,///< client called commit; a = write-set size
};

const char* to_string(TraceEventType t);
bool trace_event_type_from_string(const std::string& s, TraceEventType& out);

struct TraceEvent {
  Timestamp at = 0;  ///< virtual time
  TxId tx;
  NodeId node = kInvalidNode;  ///< node whose handler emitted the event
  TraceEventType type = TraceEventType::TxBegin;
  std::uint64_t a = 0;  ///< type-specific (see enum comments)
  std::uint64_t b = 0;
  TxId other = kNoTx;  ///< causally related transaction: the speculative
                       ///< writer on ReadReady, the cascade parent on TxAbort

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Causal span kinds, one per leg of the transaction lifecycle. A span is a
/// closed virtual-time interval on one node; `parent` links it into a DAG
/// per transaction. Cross-node edges (Handle spans whose parent lives on the
/// sending node) are stitched via the trace context carried on protocol
/// messages — see docs/OBSERVABILITY.md.
enum class SpanKind : std::uint8_t {
  Txn,        ///< whole attempt, begin -> final outcome; a = committed (0/1),
              ///< b = AbortReason (commit: commit ts FC)
  Read,       ///< read issued -> value delivered; a = key, b = speculative
  GateStall,  ///< value parked at the speculation gate; a = key
  LocalCert,  ///< commit requested -> local certification done; a = write set
  PrepareLeg, ///< prepare/replicate sent -> ack received, one per
              ///< (partition, node); a = partition, b = replying node
  DepWait,    ///< all acks in -> last data dependency resolved; a = deps
  Handle,     ///< server-side handling of one message; a = wire message tag,
              ///< b = partition (or key for reads)
  Probe,      ///< orphan-recovery DecisionRequest probe; a = wire message
              ///< tag, b = partition
};

const char* to_string(SpanKind k);
bool span_kind_from_string(const std::string& s, SpanKind& out);

struct SpanRecord {
  std::uint64_t id = 0;      ///< nonzero, unique within a run
  std::uint64_t parent = 0;  ///< 0 = root
  TxId tx;
  NodeId node = kInvalidNode;
  SpanKind kind = SpanKind::Txn;
  Timestamp start = 0;
  Timestamp end = 0;
  std::uint64_t a = 0;  ///< kind-specific (see enum comments)
  std::uint64_t b = 0;

  friend bool operator==(const SpanRecord&, const SpanRecord&) = default;
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 20;

  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Resize both rings. Existing entries are kept (newest first) up to the
  /// new capacity.
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const { return capacity_; }

  void emit(TraceEvent ev);

  std::uint64_t emitted() const { return emitted_; }
  /// Events overwritten because the ring was full.
  std::uint64_t dropped() const {
    return emitted_ <= ring_.size() ? 0 : emitted_ - ring_.size();
  }
  std::size_t size() const { return ring_.size(); }

  /// Retained events in emission (= chronological) order.
  std::vector<TraceEvent> snapshot() const;

  /// Allocate a span id. Deterministic (monotonic counter, no RNG), so
  /// traced runs replay byte-identically across transports. Call only when
  /// tracing a span; ids are never reused within a run. (Region-sharded
  /// runs allocate from worker threads; ids stay unique but their
  /// assignment order — like ring order — follows wall-clock interleaving.)
  std::uint64_t next_span_id() {
    std::lock_guard<std::mutex> lk(mu_);
    return next_span_++;
  }

  /// Record a completed span. Spans land in their own ring (same capacity
  /// as the event ring) ordered by emission = completion time.
  void emit_span(SpanRecord span);

  /// Record a span whose id nothing needs before it completes (a message
  /// handled, a probe sent, a stall or wait ended): allocate its id, record
  /// it and return the id for children to name as parent. Returns 0 and
  /// records nothing when tracing is off.
  std::uint64_t record_span(std::uint64_t parent, const TxId& tx, NodeId node,
                            SpanKind kind, Timestamp start, Timestamp end,
                            std::uint64_t a, std::uint64_t b) {
    if (!enabled_) return 0;
    const std::uint64_t id = next_span_id();
    emit_span({id, parent, tx, node, kind, start, end, a, b});
    return id;
  }

  std::uint64_t spans_emitted() const { return spans_emitted_; }
  std::uint64_t spans_dropped() const {
    return spans_emitted_ <= span_ring_.size()
               ? 0
               : spans_emitted_ - span_ring_.size();
  }
  std::size_t span_count() const { return span_ring_.size(); }

  /// Retained spans in emission (= completion) order.
  std::vector<SpanRecord> span_snapshot() const;

  void clear();

 private:
  /// Guards the rings and counters: region-sharded runs emit from worker
  /// threads. The rings then hold an interleaving-dependent order — tools
  /// that need determinism sort snapshots by (at, tx) themselves.
  mutable std::mutex mu_;
  bool enabled_ = false;
  std::size_t capacity_;
  std::vector<TraceEvent> ring_;  ///< grows to capacity_, then wraps
  std::size_t head_ = 0;          ///< next write slot once ring_ is full
  std::uint64_t emitted_ = 0;
  std::vector<SpanRecord> span_ring_;
  std::size_t span_head_ = 0;
  std::uint64_t spans_emitted_ = 0;
  std::uint64_t next_span_ = 1;
};

}  // namespace str::obs
