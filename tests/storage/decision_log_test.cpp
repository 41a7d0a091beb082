// ReplicatedDecisionLog unit tests: the quorum ack barrier in isolation.
// The protocol-level behaviour (census, in-doubt, crash sweeps) lives in
// tests/protocol/quorum_crash_window_test.cpp; here we pin the tracking
// machinery itself — fan-out strictly after local durability, ack counting
// with duplicates and stragglers, retransmit targeting and backoff, and
// crash invalidation of in-flight timers.
#include "storage/decision_log.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/scheduler.hpp"
#include "storage/medium.hpp"

namespace str::storage {
namespace {

struct SendRecord {
  TxId tx;
  Timestamp commit_ts = 0;
  Timestamp decided_at = 0;
  std::vector<NodeId> to;
};

struct Fixture {
  sim::Scheduler sched;
  std::unique_ptr<Wal> wal;
  std::unique_ptr<ReplicatedDecisionLog> log;
  std::vector<SendRecord> sends;
  int quorums = 0;

  explicit Fixture(std::uint32_t quorum, std::vector<NodeId> members,
                   Timestamp retransmit = msec(10)) {
    wal = std::make_unique<Wal>(
        std::make_unique<SimMedium>(&sched, /*fsync=*/msec(1),
                                    TornWriteFault{}),
        Wal::Counters{});
    ReplicatedDecisionLog::Options o;
    o.quorum = quorum;
    o.members = std::move(members);
    o.retransmit_initial = retransmit;
    o.retransmit_cap = retransmit * 4;
    log = std::make_unique<ReplicatedDecisionLog>(
        sched, *wal, o,
        [this](const TxId& tx, Timestamp ct, Timestamp at,
               const std::vector<NodeId>& to) {
          sends.push_back({tx, ct, at, to});
        });
  }

  void append(const TxId& tx) {
    log->append(tx, /*commit_ts=*/100, /*decided_at=*/110,
                [this]() { ++quorums; });
  }
};

TEST(ReplicatedDecisionLog, QuorumOneCompletesOnLocalDurabilityAlone) {
  Fixture f(/*quorum=*/1, /*members=*/{1, 2});
  f.append(TxId{0, 1});
  EXPECT_EQ(f.quorums, 0);  // not yet durable
  EXPECT_TRUE(f.log->pending(TxId{0, 1}));
  f.sched.run_until(msec(5));
  EXPECT_EQ(f.quorums, 1);
  EXPECT_EQ(f.log->pending_count(), 0u);
  // The degenerate quorum never AWAITS the members, but a configured group
  // still gets one best-effort copy (it feeds the census); completion
  // erases the barrier, so the copy is never retransmitted.
  ASSERT_EQ(f.sends.size(), 1u);
  EXPECT_EQ(f.sends[0].to, (std::vector<NodeId>{1, 2}));
  f.sched.run_until(msec(200));
  EXPECT_EQ(f.sends.size(), 1u);
}

TEST(ReplicatedDecisionLog, FanOutWaitsForLocalDurabilityThenHitsAllMembers) {
  Fixture f(/*quorum=*/2, /*members=*/{1, 2});
  f.append(TxId{0, 7});
  // Nothing may leave before the local copy is on stable storage: a member
  // copy must imply the origin's replay re-derives the decision.
  EXPECT_TRUE(f.sends.empty());
  f.sched.run_until(msec(5));
  ASSERT_EQ(f.sends.size(), 1u);
  EXPECT_EQ(f.sends[0].tx, (TxId{0, 7}));
  EXPECT_EQ(f.sends[0].commit_ts, 100u);
  EXPECT_EQ(f.sends[0].decided_at, 110u);
  EXPECT_EQ(f.sends[0].to, (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(f.quorums, 0);  // local durability alone is not the commit point

  f.log->on_ack(TxId{0, 7}, 2);
  EXPECT_EQ(f.quorums, 1);  // quorum 2 = local + any one member
  EXPECT_EQ(f.log->pending_count(), 0u);
  f.log->on_ack(TxId{0, 7}, 1);  // straggler ack after completion: harmless
  EXPECT_EQ(f.quorums, 1);
}

TEST(ReplicatedDecisionLog, DuplicateAcksFromOneMemberDoNotCount) {
  Fixture f(/*quorum=*/3, /*members=*/{1, 2});
  f.append(TxId{0, 3});
  f.sched.run_until(msec(5));
  f.log->on_ack(TxId{0, 3}, 1);
  f.log->on_ack(TxId{0, 3}, 1);  // a duped network frame, not a second copy
  EXPECT_EQ(f.quorums, 0);
  EXPECT_TRUE(f.log->pending(TxId{0, 3}));
  f.log->on_ack(TxId{0, 3}, 2);
  EXPECT_EQ(f.quorums, 1);
  EXPECT_EQ(f.log->pending_count(), 0u);
}

TEST(ReplicatedDecisionLog, RetransmitTargetsOnlyUnackedMembersAndThenStops) {
  Fixture f(/*quorum=*/3, /*members=*/{1, 2}, /*retransmit=*/msec(10));
  f.append(TxId{0, 9});
  f.sched.run_until(msec(5));
  ASSERT_EQ(f.sends.size(), 1u);
  f.log->on_ack(TxId{0, 9}, 1);

  // First retransmit fires while member 2 is still silent — and goes to
  // member 2 alone; member 1's copy is already durable.
  f.sched.run_until(msec(20));
  ASSERT_EQ(f.sends.size(), 2u);
  EXPECT_EQ(f.sends[1].to, (std::vector<NodeId>{2}));

  f.log->on_ack(TxId{0, 9}, 2);
  EXPECT_EQ(f.quorums, 1);
  // Completion erases the barrier; armed timers find nothing and go silent.
  f.sched.run_until(msec(200));
  EXPECT_EQ(f.sends.size(), 2u);
}

TEST(ReplicatedDecisionLog, RetransmitBackoffIsCappedNotAbandoned) {
  Fixture f(/*quorum=*/2, /*members=*/{1}, /*retransmit=*/msec(10));
  f.append(TxId{0, 4});
  // A decided transaction can never abort, so the straggler is re-sent
  // forever: initial 10ms, doubling to the 40ms cap, then flat.
  f.sched.run_until(msec(300));
  // t=1 initial send, retransmits at +10,+30(,+70... capped at +40 steps):
  // 11, 31, 71, 111, 151, 191, 231, 271 — at least eight by 300ms.
  EXPECT_GE(f.sends.size(), 8u);
  for (const SendRecord& s : f.sends) {
    EXPECT_EQ(s.to, (std::vector<NodeId>{1}));
  }
  EXPECT_TRUE(f.log->pending(TxId{0, 4}));  // an explicit leak, never wrong
}

TEST(ReplicatedDecisionLog, CrashClearsBarriersAndSilencesTimers) {
  Fixture f(/*quorum=*/2, /*members=*/{1}, /*retransmit=*/msec(10));
  f.append(TxId{0, 5});
  f.sched.run_until(msec(5));
  ASSERT_EQ(f.sends.size(), 1u);
  f.log->on_crash();
  EXPECT_EQ(f.log->pending_count(), 0u);
  // Pre-crash retransmit timers are generation-gated: nothing fires, even
  // for a barrier re-created for the same txid after the crash (replay).
  f.sched.run_until(msec(200));
  EXPECT_EQ(f.sends.size(), 1u);
  EXPECT_EQ(f.quorums, 0);  // cleared callbacks never run
  f.log->on_ack(TxId{0, 5}, 1);  // ack addressed to the previous life
  EXPECT_EQ(f.quorums, 0);
}

}  // namespace
}  // namespace str::storage
