// Deterministic fault injection at the network layer: drops, duplication,
// partition windows, crash semantics (in-flight loss), inversion counting,
// and the fault-plan parser.
#include "net/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "tests/net/sim_fixture.hpp"

namespace str::net {
namespace {

TEST(Fault, SendToUnregisteredNodeThrowsInvalidArgument) {
  Sim sched;
  Network& net = sched.net;
  EXPECT_THROW(net.send(0, 7, []() {}), std::invalid_argument);
  EXPECT_THROW(net.send(7, 0, []() {}), std::invalid_argument);
  // Registered endpoints still work after the failed sends.
  int delivered = 0;
  net.send(0, 1, [&]() { ++delivered; });
  sched.run();
  EXPECT_EQ(delivered, 1);
}

TEST(Fault, DropProbabilityLosesMessages) {
  Sim sched;
  Network& net = sched.net;
  FaultPlan plan;
  plan.link.drop_prob = 0.5;
  net.set_fault_plan(plan, Rng(99));
  int delivered = 0;
  constexpr int kSends = 1000;
  for (int i = 0; i < kSends; ++i) {
    net.send(0, 1, [&]() { ++delivered; });
  }
  sched.run();
  EXPECT_EQ(delivered + static_cast<int>(net.stats().dropped), kSends);
  // Binomial(1000, 0.5): anything outside [400, 600] means the RNG is wired
  // wrong, not bad luck.
  EXPECT_GT(delivered, 400);
  EXPECT_LT(delivered, 600);
}

TEST(Fault, DuplicationDeliversTwiceAndCounts) {
  Sim sched;
  Network& net = sched.net;
  FaultPlan plan;
  plan.link.dup_prob = 1.0;
  net.set_fault_plan(plan, Rng(7));
  int delivered = 0;
  net.send(0, 1, [&]() { ++delivered; });
  sched.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(net.stats().duplicated, 1u);
  EXPECT_EQ(net.stats().messages_sent, 1u);  // one logical message
}

TEST(Fault, DuplicatedDeliveriesEachSeeTheClosureCapturesIntact) {
  // Duplication reuses ONE closure object for both deliveries (send's
  // documented contract): every invocation must find the captured payload
  // intact. Call sites therefore copy the payload out instead of moving it;
  // a moved-out capture would hand the second delivery an empty message.
  Sim sched;
  Network& net = sched.net;
  FaultPlan plan;
  plan.link.dup_prob = 1.0;
  net.set_fault_plan(plan, Rng(7));
  std::vector<std::string> seen;
  const std::string payload = "full-payload";
  net.send(0, 1, [payload, &seen]() { seen.push_back(payload); });
  sched.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "full-payload");
  EXPECT_EQ(seen[1], "full-payload");
}

TEST(Fault, DuplicateCopiesDoNotCountAsInversions) {
  // net.inversions is documented as jitter-induced reordering between
  // distinct messages. A lone duplicated message has nothing to invert
  // against: whichever copy the jitter favors, the counter stays zero.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Sim sched(0.5, seed);
    Network& net = sched.net;
    FaultPlan plan;
    plan.link.dup_prob = 1.0;
    net.set_fault_plan(plan, Rng(seed));
    net.send(0, 1, []() {});
    sched.run();
    ASSERT_EQ(net.stats().duplicated, 1u);
    EXPECT_EQ(net.stats().inversions, 0u) << "seed " << seed;
  }
}

TEST(Fault, CorruptionPoisonsClosureDeliveriesAndCounts) {
  // Closure transport has no bytes to flip: a corruption hit replaces the
  // delivery with a counted rejection, mirroring what the checksum does to
  // a flipped frame in wire mode. The message still occupies the link (it
  // is NOT a drop) and arrives — as garbage.
  Sim sched;
  Network& net = sched.net;
  FaultPlan plan;
  plan.link.corrupt_prob = 1.0;
  net.set_fault_plan(plan, Rng(3));
  int delivered = 0;
  constexpr int kSends = 10;
  for (int i = 0; i < kSends; ++i) {
    net.send(0, 1, [&]() { ++delivered; });
  }
  sched.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.stats().corrupted, static_cast<std::uint64_t>(kSends));
  EXPECT_EQ(net.stats().dropped, 0u);
  EXPECT_EQ(net.stats().messages_sent, static_cast<std::uint64_t>(kSends));
}

TEST(Fault, CorruptionOfADuplicatedMessageRejectsBothCopies) {
  // One corruption draw per logical message: the flipped payload is what
  // gets duplicated, so each delivered copy is rejected and counted.
  Sim sched;
  Network& net = sched.net;
  FaultPlan plan;
  plan.link.corrupt_prob = 1.0;
  plan.link.dup_prob = 1.0;
  net.set_fault_plan(plan, Rng(3));
  int delivered = 0;
  net.send(0, 1, [&]() { ++delivered; });
  sched.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.stats().duplicated, 1u);
  EXPECT_EQ(net.stats().corrupted, 2u);
}

TEST(Fault, SendFrameFlipsARealBitUnderCorruption) {
  // Frame transport: corruption flips one physical bit; the handler sees
  // the damaged bytes, rejects them, and the network counts the rejection.
  Sim sched;
  Network& net = sched.net;
  const std::vector<std::uint8_t> original = {0x10, 0x20, 0x30, 0x40};
  int intact = 0, damaged = 0;
  net.set_frame_handler([&](NodeId, const std::uint8_t* data,
                            std::size_t size) {
    const bool same = size == original.size() &&
                      std::equal(data, data + size, original.begin());
    (same ? intact : damaged) += 1;
    return same;
  });

  net.send_frame(0, 1,
                 wire::Frame::copy_of(original.data(), original.size()));
  sched.run();
  EXPECT_EQ(intact, 1);
  EXPECT_EQ(net.stats().corrupted, 0u);

  FaultPlan plan;
  plan.link.corrupt_prob = 1.0;
  net.set_fault_plan(plan, Rng(3));
  net.send_frame(0, 1,
                 wire::Frame::copy_of(original.data(), original.size()));
  sched.run();
  EXPECT_EQ(damaged, 1);  // exactly one bit differs -> handler refused it
  EXPECT_EQ(net.stats().corrupted, 1u);
}

TEST(Fault, FanOutLegsShareOneFrameAndCorruptionHitsOnlyItsLeg) {
  // The legs of a fan-out hold one frame: every intact leg delivers the
  // sender's bytes in place. A corruption draw flips a bit in a copy of its
  // own leg's bytes, so only that leg is rejected and counted.
  Sim sched;
  Network& net = sched.net;
  for (NodeId n = 3; n < 10; ++n) net.register_node(n, n % 2);
  const std::vector<std::uint8_t> original = {0x01, 0x23, 0x45, 0x67, 0x89};
  const wire::Frame frame =
      wire::Frame::copy_of(original.data(), original.size());
  std::vector<const std::uint8_t*> delivered;
  std::size_t damaged = 0;
  net.set_frame_handler([&](NodeId, const std::uint8_t* data,
                            std::size_t size) {
    delivered.push_back(data);
    const bool same = size == original.size() &&
                      std::equal(data, data + size, original.begin());
    if (!same) ++damaged;
    return same;
  });

  for (NodeId n = 1; n < 10; ++n) net.send_frame(0, n, frame);
  EXPECT_EQ(frame.use_count(), 10u);  // nine legs in flight, and ours
  sched.run();
  EXPECT_EQ(frame.use_count(), 1u);
  ASSERT_EQ(delivered.size(), 9u);
  for (const std::uint8_t* p : delivered) EXPECT_EQ(p, frame.data());
  EXPECT_EQ(net.stats().corrupted, 0u);

  FaultPlan plan;
  plan.link.corrupt_prob = 0.5;
  net.set_fault_plan(plan, Rng(11));
  delivered.clear();
  for (NodeId n = 1; n < 10; ++n) net.send_frame(0, n, frame);
  sched.run();
  ASSERT_EQ(delivered.size(), 9u);
  const auto intact = static_cast<std::size_t>(
      std::count(delivered.begin(), delivered.end(), frame.data()));
  EXPECT_GT(intact, 0u);
  EXPECT_GT(damaged, 0u);
  EXPECT_EQ(intact + damaged, 9u);  // every damaged leg had its own copy
  EXPECT_EQ(net.stats().corrupted, damaged);
  EXPECT_TRUE(std::equal(frame.data(), frame.data() + frame.size(),
                         original.begin()));
}

TEST(Fault, PartitionWindowCutsBothDirectionsThenHeals) {
  Sim sched;
  Network& net = sched.net;
  FaultPlan plan;
  plan.add_partition(0, 1, msec(10), msec(500));
  net.set_fault_plan(plan, Rng(1));
  int delivered = 0;

  // Before the window: flows.
  net.send(0, 1, [&]() { ++delivered; });
  sched.run();
  EXPECT_EQ(delivered, 1);

  // Inside the window: both directions cut, intra-region unaffected.
  sched.schedule_at(msec(100), [&]() {
    net.send(0, 1, [&]() { ++delivered; });
    net.send(1, 0, [&]() { ++delivered; });
    net.send(0, 2, [&]() { ++delivered; });  // same region, stays up
  });
  sched.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(net.stats().dropped, 2u);

  // After the window: heals.
  sched.schedule_at(msec(600), [&]() {
    net.send(0, 1, [&]() { ++delivered; });
  });
  sched.run();
  EXPECT_EQ(delivered, 3);
}

TEST(Fault, OneWayPartitionCutsOnlyOneDirection) {
  Sim sched;
  Network& net = sched.net;
  FaultPlan plan;
  plan.partitions.push_back({0, 1, 0, msec(500)});
  net.set_fault_plan(plan, Rng(1));
  int forward = 0, backward = 0;
  net.send(0, 1, [&]() { ++forward; });
  net.send(1, 0, [&]() { ++backward; });
  sched.run();
  EXPECT_EQ(forward, 0);
  EXPECT_EQ(backward, 1);
}

TEST(Fault, CrashDropsInFlightAndInboundUntilRestart) {
  Sim sched;
  Network& net = sched.net;
  int delivered = 0;
  // In flight when the crash lands (one-way latency is 50ms).
  net.send(0, 1, [&]() { ++delivered; });
  sched.schedule_at(msec(10), [&]() { net.set_node_down(1, true); });
  // Sent while down.
  sched.schedule_at(msec(100), [&]() { net.send(0, 1, [&]() { ++delivered; }); });
  sched.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_FALSE(net.node_up(1));
  EXPECT_EQ(net.stats().dropped, 2u);

  // After restart, messages flow again.
  net.set_node_down(1, false);
  net.send(0, 1, [&]() { ++delivered; });
  sched.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_TRUE(net.node_up(1));
}

TEST(Fault, CrashDropsInFlightMessagesOnBothDeliveryPaths) {
  // Node 2 shares region 0 with node 0, so 0 -> 2 is a gated event on the
  // sender's own shard, while 0 -> 1 crosses to shard 1 through the
  // mailbox. Each destination crashes while its message is in flight, once
  // with every message duplicated: each copy dies at its gate, counts as
  // dropped, and still runs as one event on the destination's shard.
  for (const bool duplicate : {false, true}) {
    Sim sched;
    Network& net = sched.net;
    if (duplicate) {
      FaultPlan plan;
      plan.link.dup_prob = 1.0;
      net.set_fault_plan(plan, Rng(7));
    }
    int delivered = 0;
    net.send(0, 2, [&]() { ++delivered; });  // arrives at 0.5 ms
    net.send(0, 1, [&]() { ++delivered; });  // arrives at 50 ms
    sched.schedule_at(usec(100), [&]() { net.set_node_down(2, true); });
    sched.schedule_at(msec(10), [&]() { net.set_node_down(1, true); });
    sched.run();
    const std::uint64_t copies = duplicate ? 2 : 1;
    EXPECT_EQ(delivered, 0) << "duplicate=" << duplicate;
    EXPECT_EQ(net.stats().dropped, 2 * copies);
    EXPECT_EQ(net.stats().duplicated, duplicate ? 2u : 0u);
    EXPECT_EQ(sched.lattice.shard(0).executed(), copies);
    EXPECT_EQ(sched.lattice.shard(1).executed(), copies);
    EXPECT_EQ(sched.lattice.cross_posts(), copies);
  }
}

TEST(Fault, CrashedSourceMessagesNeverReachTheWire) {
  // Fail-stop: a dead node sends nothing. The cluster relies on this — it
  // marks a node down *before* running its crash handler, so the
  // crash-time abort fan-out is swallowed like any other dead-node output.
  Sim sched;
  Network& net = sched.net;
  net.set_node_down(0, true);
  int delivered = 0;
  net.send(0, 2, [&]() { ++delivered; });
  sched.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.stats().dropped, 1u);
  // Unrelated links keep working.
  net.send(1, 2, [&]() { ++delivered; });
  sched.run();
  EXPECT_EQ(delivered, 1);
}

TEST(Fault, HealStopsStochasticFaultsAtTheGivenTime) {
  Sim sched;
  Network& net = sched.net;
  FaultPlan plan;
  plan.link.drop_prob = 1.0;
  plan.link.heal_at = msec(10);
  net.set_fault_plan(plan, Rng(5));
  int delivered = 0;
  net.send(0, 1, [&]() { ++delivered; });  // before heal: certain drop
  sched.schedule_at(msec(20), [&]() {      // after heal: certain delivery
    net.send(0, 1, [&]() { ++delivered; });
  });
  sched.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.stats().dropped, 1u);
}

TEST(Fault, JitterReorderingCountsInversions) {
  // 30% jitter on a 50ms one-way latency: back-to-back sends overtake each
  // other often.
  Sim sched(0.30);
  Network& net = sched.net;
  for (int i = 0; i < 200; ++i) {
    net.send(0, 1, []() {});
  }
  sched.run();
  EXPECT_GT(net.stats().inversions, 0u);
  // Zero jitter cannot invert.
  Sim sched2(0.0);
  Network& net2 = sched2.net;
  for (int i = 0; i < 200; ++i) {
    net2.send(0, 1, []() {});
  }
  sched2.run();
  EXPECT_EQ(net2.stats().inversions, 0u);
}

TEST(Fault, FaultFreePlanIsBitIdenticalToNoPlan) {
  // Attaching a plan with no stochastic faults must not perturb delivery
  // times: the fault RNG is only consumed when a probability is nonzero.
  auto run = [](bool with_plan) {
    Sim sched(0.10);
    Network& net = sched.net;
    if (with_plan) {
      FaultPlan plan;
      plan.add_crash(2, sec(999));  // scheduled-only plan, no link faults
      net.set_fault_plan(plan, Rng(1234));
    }
    std::vector<Timestamp> arrivals;
    for (int i = 0; i < 100; ++i) {
      net.send(0, 1, [&, i]() { arrivals.push_back(sched.now()); });
    }
    sched.run();
    return arrivals;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(Fault, SameSeedSameFaultDecisions) {
  auto run = [](std::uint64_t seed) {
    Sim sched;
    Network& net = sched.net;
    FaultPlan plan;
    plan.link.drop_prob = 0.3;
    plan.link.dup_prob = 0.2;
    net.set_fault_plan(plan, Rng(seed));
    std::vector<int> delivered;
    for (int i = 0; i < 300; ++i) {
      net.send(0, 1, [&, i]() { delivered.push_back(i); });
    }
    sched.run();
    return delivered;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(FaultPlanParse, FullSpecRoundTrip) {
  const std::string spec =
      "# chaos plan\n"
      "drop 0.05\n"
      "dup 0.02\n"
      "corrupt 0.01\n"
      "heal 15.0\n"
      "\n"
      "partition 0 1 2.0 12.0\n"
      "partition-oneway 2 3 1 4\n"
      "crash 3 5.0 8.0\n"
      "crash 4 6.0\n";
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::parse(spec, plan, error)) << error;
  EXPECT_DOUBLE_EQ(plan.link.drop_prob, 0.05);
  EXPECT_DOUBLE_EQ(plan.link.dup_prob, 0.02);
  EXPECT_DOUBLE_EQ(plan.link.corrupt_prob, 0.01);
  EXPECT_EQ(plan.link.heal_at, sec(15));
  ASSERT_EQ(plan.partitions.size(), 3u);  // symmetric pair + one-way
  EXPECT_TRUE(plan.partitioned(0, 1, sec(5)));
  EXPECT_TRUE(plan.partitioned(1, 0, sec(5)));
  EXPECT_FALSE(plan.partitioned(0, 1, sec(13)));
  EXPECT_TRUE(plan.partitioned(2, 3, sec(2)));
  EXPECT_FALSE(plan.partitioned(3, 2, sec(2)));
  ASSERT_EQ(plan.crashes.size(), 2u);
  EXPECT_EQ(plan.crashes[0].node, 3u);
  EXPECT_EQ(plan.crashes[0].at, sec(5));
  EXPECT_EQ(plan.crashes[0].restart_at, sec(8));
  EXPECT_EQ(plan.crashes[1].restart_at, kTsInfinity);
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlanParse, CrashColonSpellingMatchesTheSpaceSpelling) {
  // 'crash N:T[:R]' is the --crash-node spelling; both forms must parse to
  // identical events so a CLI schedule can be pasted into a plan file.
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::parse("crash 3:5.0:8.0\ncrash 4:6.0\n", plan, error))
      << error;
  ASSERT_EQ(plan.crashes.size(), 2u);
  EXPECT_EQ(plan.crashes[0].node, 3u);
  EXPECT_EQ(plan.crashes[0].at, sec(5));
  EXPECT_EQ(plan.crashes[0].restart_at, sec(8));
  EXPECT_EQ(plan.crashes[1].node, 4u);
  EXPECT_EQ(plan.crashes[1].at, sec(6));
  EXPECT_EQ(plan.crashes[1].restart_at, kTsInfinity);

  FaultPlan spaced;
  ASSERT_TRUE(
      FaultPlan::parse("crash 3 5.0 8.0\ncrash 4 6.0\n", spaced, error));
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(plan.crashes[i].node, spaced.crashes[i].node) << i;
    EXPECT_EQ(plan.crashes[i].at, spaced.crashes[i].at) << i;
    EXPECT_EQ(plan.crashes[i].restart_at, spaced.crashes[i].restart_at) << i;
  }
}

TEST(FaultPlanParse, CrashColonSpellingRejectsMalformedFields) {
  FaultPlan plan;
  std::string error;
  // Same validation as the space spelling, colon syntax included.
  EXPECT_FALSE(FaultPlan::parse("crash 1:8:5\n", plan, error));  // restart<at
  EXPECT_FALSE(FaultPlan::parse("crash 1:\n", plan, error));     // empty field
  EXPECT_FALSE(FaultPlan::parse("crash :5.0\n", plan, error));
  EXPECT_FALSE(FaultPlan::parse("crash 1:2:3:4\n", plan, error));  // 4 fields
  EXPECT_FALSE(FaultPlan::parse("crash one:5.0\n", plan, error));
  EXPECT_FALSE(FaultPlan::parse("crash 1:soon\n", plan, error));
  EXPECT_FALSE(FaultPlan::parse("crash 3:5.0 junk\n", plan, error));
  EXPECT_NE(error.find("junk"), std::string::npos) << error;
  // Mixing the spellings on one line is malformed, not half-parsed.
  EXPECT_FALSE(FaultPlan::parse("crash 3:5.0 8.0\n", plan, error));
}

TEST(FaultPlanParse, ErrorsCarryLineNumbers) {
  FaultPlan plan;
  std::string error;
  EXPECT_FALSE(FaultPlan::parse("drop 0.05\nbogus 1 2\n", plan, error));
  EXPECT_NE(error.find('2'), std::string::npos) << error;
  EXPECT_FALSE(FaultPlan::parse("drop notanumber\n", plan, error));
  EXPECT_FALSE(FaultPlan::parse("drop 1.5\n", plan, error));       // prob > 1
  EXPECT_FALSE(FaultPlan::parse("corrupt 1.5\n", plan, error));    // prob > 1
  EXPECT_FALSE(FaultPlan::parse("partition 0 1 9 2\n", plan, error));  // end<start
  EXPECT_FALSE(FaultPlan::parse("crash 1 8 5\n", plan, error));    // restart<at
  EXPECT_FALSE(FaultPlan::parse("heal -1\n", plan, error));        // negative
}

TEST(FaultPlanParse, TrailingGarbageIsAParseError) {
  // 'crash 3 5.0 oops' must not silently become a permanent crash, and no
  // directive may swallow stray tokens.
  FaultPlan plan;
  std::string error;
  EXPECT_FALSE(FaultPlan::parse("crash 3 5.0 oops\n", plan, error));
  EXPECT_NE(error.find("oops"), std::string::npos) << error;
  EXPECT_FALSE(FaultPlan::parse("crash 3 5.0 8.0 junk\n", plan, error));
  EXPECT_FALSE(FaultPlan::parse("drop 0.05 0.02\n", plan, error));
  EXPECT_FALSE(FaultPlan::parse("heal 15 soon\n", plan, error));
  EXPECT_FALSE(FaultPlan::parse("partition 0 1 2.0 12.0 x\n", plan, error));
  // Comments after a directive are still fine; so is trailing whitespace.
  ASSERT_TRUE(FaultPlan::parse("drop 0.05 # half\ncrash 3 5.0   \n", plan,
                               error))
      << error;
  EXPECT_DOUBLE_EQ(plan.link.drop_prob, 0.05);
  ASSERT_EQ(plan.crashes.size(), 1u);
  EXPECT_EQ(plan.crashes[0].restart_at, kTsInfinity);
}

TEST(FaultPlanParse, EmptyAndCommentOnlySpecsAreEmptyPlans) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::parse("", plan, error));
  EXPECT_TRUE(plan.empty());
  ASSERT_TRUE(FaultPlan::parse("# nothing\n\n  # more\n", plan, error));
  EXPECT_TRUE(plan.empty());
}

TEST(FaultPlanParse, DescribeMentionsEveryFaultClass) {
  FaultPlan plan;
  plan.link.drop_prob = 0.05;
  plan.link.dup_prob = 0.02;
  plan.link.corrupt_prob = 0.01;
  plan.add_partition(0, 1, sec(2), sec(12));
  plan.add_crash(3, sec(5), sec(8));
  plan.storage.torn_write_prob = 0.5;
  const std::string d = plan.describe();
  EXPECT_NE(d.find("drop"), std::string::npos) << d;
  EXPECT_NE(d.find("dup"), std::string::npos) << d;
  EXPECT_NE(d.find("corrupt"), std::string::npos) << d;
  EXPECT_NE(d.find("partition"), std::string::npos) << d;
  EXPECT_NE(d.find("crash"), std::string::npos) << d;
  EXPECT_NE(d.find("torn-write"), std::string::npos) << d;
}

TEST(FaultPlanParse, TornWriteDirectiveParsesAndValidates) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::parse("torn-write 0.5\n", plan, error)) << error;
  EXPECT_DOUBLE_EQ(plan.storage.torn_write_prob, 0.5);
  EXPECT_TRUE(plan.storage.any());
  // A plan with only a storage fault is still a non-empty plan: the cluster
  // must set it up (and fork the fault RNG) for the crash path to see it.
  EXPECT_FALSE(plan.empty());

  EXPECT_FALSE(FaultPlan::parse("torn-write 1.5\n", plan, error));
  EXPECT_FALSE(FaultPlan::parse("torn-write -0.1\n", plan, error));
  EXPECT_FALSE(FaultPlan::parse("torn-write\n", plan, error));
  EXPECT_FALSE(FaultPlan::parse("torn-write 0.5 extra\n", plan, error));

  FaultPlan zero;
  ASSERT_TRUE(FaultPlan::parse("torn-write 0\n", zero, error)) << error;
  EXPECT_FALSE(zero.storage.any());
  EXPECT_TRUE(zero.empty());
}

// Every way a directive can be malformed, in both spellings: a bad or
// missing field, a field too many, an out-of-range probability or time, a
// window or restart out of order.
const char* const kMalformedDirectives[] = {
    "bogus 1 2",
    "drop", "drop notanumber", "drop 1.5", "drop -0.1", "drop nan",
    "drop 0.05 0.02", "drop 0.1:0.2", "dup 2", "corrupt 1.5",
    "torn-write", "torn-write 1.5", "torn-write -0.1",
    "torn-write 0.5 extra",
    "heal -1", "heal nan", "heal inf", "heal 1e30", "heal 15 soon",
    "heal 1:",
    "partition 0 1 9 2", "partition 0:1:3:2", "partition 0 1 2",
    "partition 0:1:2", "partition 0::1:2:3", "partition -1 1 2 3",
    "partition 0 1 -2 3", "partition 0 1 2 inf", "partition 0 1 2.0 12.0 x",
    "partition-oneway 0 1 9 2",
    "crash", "crash 1", "crash 1 8 5", "crash 1:8:5", "crash 1:",
    "crash :5.0", "crash 1:2:3:4", "crash one:5.0", "crash 1:soon",
    "crash 3:5.0 junk", "crash 3:5.0 8.0", "crash 3 5.0 oops",
    "crash 3 5.0 8.0 junk", "crash -1 5", "crash 1.5 5",
    "crash 4294967296 5", "crash 1 -1", "crash 1 1e30", "crash 1 nan",
};

TEST(FaultPlanParse, ApplyRejectsEveryDirectiveTheGrammarRejects) {
  // str_sim's fault flags build one directive each and go through apply();
  // a plan file goes through parse(). Both must refuse the same inputs, and
  // a refused directive leaves the plan it was applied to untouched.
  FaultPlan base;
  std::string error;
  ASSERT_TRUE(FaultPlan::parse("drop 0.05\ncrash 2 1.0 3.0\n", base, error))
      << error;
  for (const char* directive : kMalformedDirectives) {
    FaultPlan parsed;
    EXPECT_FALSE(FaultPlan::parse(std::string(directive) + "\n", parsed,
                                  error))
        << directive;
    FaultPlan applied = base;
    error.clear();
    EXPECT_FALSE(applied.apply(directive, error)) << directive;
    EXPECT_FALSE(error.empty()) << directive;
    EXPECT_EQ(applied, base) << directive;
  }
}

TEST(FaultPlanParse, ValidDirectivesBuildTheSamePlanBothWays) {
  const std::vector<std::string> directives = {
      "drop 0.05", "dup 0.02", "corrupt 0.01", "torn-write 0.5", "drop 1",
      "heal 15.0", "heal 0",
      "partition 0 1 2.0 12.0", "partition 0:1:2.0:12.0",
      "partition 2 3 4 4", "partition-oneway 2 3 1 4",
      "crash 3 5.0 8.0", "crash 3:5.0:8.0", "crash 4 6.0", "crash 4:6.0",
      "   crash 5   7.5  ",
  };
  std::string error;
  std::string spec;
  FaultPlan applied_all;
  for (const std::string& d : directives) {
    FaultPlan parsed;
    ASSERT_TRUE(FaultPlan::parse(d + "\n", parsed, error))
        << d << ": " << error;
    FaultPlan applied;
    ASSERT_TRUE(applied.apply(d, error)) << d << ": " << error;
    EXPECT_EQ(applied, parsed) << d;
    EXPECT_NE(applied, FaultPlan{}) << d;  // the directive took effect
    ASSERT_TRUE(applied_all.apply(d, error)) << d << ": " << error;
    spec += d + "\n";
  }
  // Applied one after another, the directives build the plan the whole
  // file parses to.
  FaultPlan parsed_all;
  ASSERT_TRUE(FaultPlan::parse(spec, parsed_all, error)) << error;
  EXPECT_EQ(applied_all, parsed_all);
  EXPECT_EQ(applied_all.crashes.size(), 5u);
  // A blank directive changes nothing.
  ASSERT_TRUE(applied_all.apply("   ", error));
  EXPECT_EQ(applied_all, parsed_all);
  // The colon spelling of --partition builds the same pair of windows.
  FaultPlan colon, spaced;
  ASSERT_TRUE(colon.apply("partition 0:1:2.0:12.0", error)) << error;
  ASSERT_TRUE(spaced.apply("partition 0 1 2.0 12.0", error)) << error;
  EXPECT_EQ(colon, spaced);
  EXPECT_EQ(colon.partitions.size(), 2u);
}

TEST(FaultPlanParse, FitsRejectsNodesAndRegionsTheClusterLacks) {
  std::string error;
  FaultPlan plan;
  ASSERT_TRUE(plan.apply("crash 2 1.0", error));
  ASSERT_TRUE(plan.apply("partition 0 2 1 2", error));
  EXPECT_TRUE(plan.fits(3, 3, error)) << error;

  EXPECT_FALSE(plan.fits(2, 3, error));  // node 2 of a 2-node cluster
  EXPECT_NE(error.find("node 2"), std::string::npos) << error;
  EXPECT_FALSE(plan.fits(3, 2, error));  // region 2 of 2 regions
  EXPECT_NE(error.find("region 2"), std::string::npos) << error;

  // A one-way window names each end once.
  for (const char* oneway :
       {"partition-oneway 30 0 1 2", "partition-oneway 0 30 1 2"}) {
    FaultPlan cut;
    ASSERT_TRUE(cut.apply(oneway, error)) << error;
    EXPECT_FALSE(cut.fits(3, 3, error)) << oneway;
  }
  EXPECT_TRUE(FaultPlan{}.fits(1, 1, error));
}

}  // namespace
}  // namespace str::net
