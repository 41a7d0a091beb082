// Execution-history recording for consistency checking.
//
// When a HistorySink is attached to a cluster, the protocol engine reports
// every observable event: transaction begin (with read snapshot), every read
// (with the writer and state of the observed version), local commits, final
// commits (with write sets) and aborts. The SPSI/SI checkers
// (spsi_checker.hpp) then validate the recorded history offline.
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace str::verify {

struct BeginEvent {
  TxId tx;
  NodeId node = kInvalidNode;
  Timestamp rs = 0;
};

struct ReadEvent {
  TxId reader;
  Key key = 0;
  TxId writer;                 ///< kNoTx for initially-loaded data
  Timestamp version_ts = 0;    ///< timestamp the version carried when read
  VersionState writer_state =  ///< state of the observed version at read time
      VersionState::Committed;
  Timestamp at = 0;
};

struct WriteSetEvent {
  TxId tx;
  Timestamp ts = 0;  ///< LC or FC
  Timestamp at = 0;  ///< virtual time the event occurred
  std::vector<Key> keys;
};

struct AbortEvent {
  TxId tx;
  AbortReason reason = AbortReason::None;
  Timestamp at = 0;
};

class HistorySink {
 public:
  virtual ~HistorySink() = default;
  virtual void on_begin(const BeginEvent&) = 0;
  virtual void on_read(const ReadEvent&) = 0;
  virtual void on_local_commit(const WriteSetEvent&) = 0;
  virtual void on_final_commit(const WriteSetEvent&) = 0;
  virtual void on_abort(const AbortEvent&) = 0;
};

/// Accumulates the full history in memory for offline checking. Recording
/// is thread-safe (region-sharded runs report from worker threads); the
/// append order then depends on the worker count (and, with several
/// workers, on wall-clock interleaving), so runs canonicalize() before
/// comparing or checking histories.
class HistoryRecorder final : public HistorySink {
 public:
  void on_begin(const BeginEvent& e) override {
    std::lock_guard<std::mutex> lk(mu_);
    begins_.push_back(e);
  }
  void on_read(const ReadEvent& e) override {
    std::lock_guard<std::mutex> lk(mu_);
    reads_.push_back(e);
  }
  void on_local_commit(const WriteSetEvent& e) override {
    std::lock_guard<std::mutex> lk(mu_);
    local_commits_.push_back(e);
  }
  void on_final_commit(const WriteSetEvent& e) override {
    std::lock_guard<std::mutex> lk(mu_);
    final_commits_.push_back(e);
  }
  void on_abort(const AbortEvent& e) override {
    std::lock_guard<std::mutex> lk(mu_);
    aborts_.push_back(e);
  }

  const std::vector<BeginEvent>& begins() const { return begins_; }
  const std::vector<ReadEvent>& reads() const { return reads_; }
  const std::vector<WriteSetEvent>& local_commits() const {
    return local_commits_;
  }
  const std::vector<WriteSetEvent>& final_commits() const {
    return final_commits_;
  }
  const std::vector<AbortEvent>& aborts() const { return aborts_; }

  const BeginEvent* begin_of(const TxId& tx) const;
  const WriteSetEvent* final_commit_of(const TxId& tx) const;
  bool aborted(const TxId& tx) const;

  /// Build lookup indexes; call once after recording finishes.
  void index();

  /// Re-sort every event stream into a canonical content order (event
  /// fields only, no append positions). Two runs of the same simulation
  /// at different worker counts record the same event *sets* but in
  /// different append orders (shard-major per window with one worker,
  /// wall-clock-dependent with several); after canonicalize() the
  /// histories are byte-comparable and checker verdicts are reproducible.
  /// Call before index().
  void canonicalize();

 private:
  std::mutex mu_;  ///< guards the append paths only
  std::vector<BeginEvent> begins_;
  std::vector<ReadEvent> reads_;
  std::vector<WriteSetEvent> local_commits_;
  std::vector<WriteSetEvent> final_commits_;
  std::vector<AbortEvent> aborts_;
  std::unordered_map<TxId, std::size_t, TxIdHash> begin_index_;
  std::unordered_map<TxId, std::size_t, TxIdHash> commit_index_;
  std::unordered_map<TxId, std::size_t, TxIdHash> abort_index_;
  bool indexed_ = false;
};

}  // namespace str::verify
