#include "storage/decision_log.hpp"

#include <utility>

#include "common/assert.hpp"

namespace str::storage {

ReplicatedDecisionLog::ReplicatedDecisionLog(sim::Scheduler& sched, Wal& wal,
                                             Options options, SendFn send)
    : sched_(sched), wal_(wal), options_(std::move(options)),
      send_(std::move(send)) {
  STR_ASSERT_MSG(options_.quorum >= 1, "quorum counts the local copy");
  STR_ASSERT_MSG(options_.members.size() + 1 >= options_.quorum,
                 "replica group smaller than the quorum");
}

std::uint64_t ReplicatedDecisionLog::append(const TxId& tx,
                                            Timestamp commit_ts,
                                            Timestamp decided_at,
                                            UniqueFunction<void()> on_quorum) {
  Pending p;
  p.commit_ts = commit_ts;
  p.decided_at = decided_at;
  p.unacked = options_.members;
  p.on_quorum = std::move(on_quorum);
  pending_[tx] = std::move(p);

  LogBuffer frame;
  encode_decision(frame, tx, commit_ts, decided_at);
  // Fan-out strictly AFTER local durability (see the header): a member copy
  // must imply the local copy survives a restart replay.
  return wal_.append(std::move(frame),
                     [this, tx]() { on_local_durable(tx); });
}

void ReplicatedDecisionLog::on_local_durable(const TxId& tx) {
  auto it = pending_.find(tx);
  if (it == pending_.end()) return;  // crash cleared the barrier
  Pending& p = it->second;
  p.local_durable = true;
  if (!p.unacked.empty()) {
    send_(tx, p.commit_ts, p.decided_at, p.unacked);
    arm_retransmit(tx, 0);
  }
  maybe_complete(tx);
}

void ReplicatedDecisionLog::on_ack(const TxId& tx, NodeId from) {
  auto it = pending_.find(tx);
  if (it == pending_.end()) return;  // late or duplicate ack
  Pending& p = it->second;
  for (auto m = p.unacked.begin(); m != p.unacked.end(); ++m) {
    if (*m == from) {
      p.unacked.erase(m);
      break;
    }
  }
  maybe_complete(tx);
}

void ReplicatedDecisionLog::maybe_complete(const TxId& tx) {
  auto it = pending_.find(tx);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  if (!p.local_durable) return;
  const std::size_t acked = options_.members.size() - p.unacked.size();
  if (acked < needed_acks()) return;
  UniqueFunction<void()> done = std::move(p.on_quorum);
  pending_.erase(it);
  if (done) done();
}

void ReplicatedDecisionLog::arm_retransmit(const TxId& tx,
                                           std::uint32_t attempt) {
  Timestamp wait = options_.retransmit_initial;
  for (std::uint32_t i = 0; i < attempt && wait < options_.retransmit_cap;
       ++i) {
    wait *= 2;
  }
  if (wait > options_.retransmit_cap) wait = options_.retransmit_cap;
  sched_.schedule_after(wait, [this, tx, attempt, gen = gen_]() {
    if (gen != gen_) return;  // timer from before a crash
    auto it = pending_.find(tx);
    if (it == pending_.end()) return;
    // A decided transaction can never abort: keep re-sending to the
    // stragglers forever (capped backoff). A permanently lost quorum shows
    // up as a stuck barrier — an explicit quiesce leak, never a wrong
    // answer.
    send_(tx, it->second.commit_ts, it->second.decided_at,
          it->second.unacked);
    ++it->second.resends;
    arm_retransmit(tx, attempt + 1);
  });
}

void ReplicatedDecisionLog::on_crash() {
  pending_.clear();
  ++gen_;
}

}  // namespace str::storage
