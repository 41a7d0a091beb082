#include "net/network.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "tests/net/sim_fixture.hpp"

namespace str::net {
namespace {

TEST(Network, DeliversAfterOneWayLatency) {
  Sim sched;
  Network& net = sched.net;
  Timestamp delivered = 0;
  net.send(0, 1, [&]() { delivered = sched.now(); });
  sched.run();
  EXPECT_EQ(delivered, msec(50));
}

TEST(Network, IntraRegionIsFast) {
  Sim sched;
  Network& net = sched.net;
  Timestamp delivered = 0;
  net.send(0, 2, [&]() { delivered = sched.now(); });
  sched.run();
  EXPECT_EQ(delivered, usec(500));
}

TEST(Network, JitterBoundedFraction) {
  Sim sched(0.10);
  Network& net = sched.net;
  for (int i = 0; i < 100; ++i) {
    const Timestamp lat = net.sample_latency(0, 1);
    EXPECT_GE(lat, msec(50));
    EXPECT_LE(lat, msec(55));
  }
}

TEST(Network, CountsMessagesAndBytes) {
  Sim sched;
  Network& net = sched.net;
  net.send(0, 1, []() {}, 100);
  net.send(0, 2, []() {}, 50);
  sched.run();
  EXPECT_EQ(net.stats().messages_sent, 2u);
  EXPECT_EQ(net.stats().bytes_sent, 150u);
  EXPECT_EQ(net.stats().wan_messages, 1u);
}

TEST(Network, RegionLookup) {
  Sim sched;
  Network& net = sched.net;
  EXPECT_EQ(net.region_of(0), 0u);
  EXPECT_EQ(net.region_of(1), 1u);
  EXPECT_EQ(net.num_nodes(), 3u);
}

TEST(Network, ManyMessagesAllDelivered) {
  Sim sched(0.05);
  Network& net = sched.net;
  int delivered = 0;
  for (int i = 0; i < 500; ++i) {
    net.send(i % 3, (i + 1) % 3, [&]() { ++delivered; });
  }
  sched.run();
  EXPECT_EQ(delivered, 500);
}

// A capture that counts how often the closure holding it is moved.
struct MoveCounter {
  explicit MoveCounter(int* count) : moves(count) {}
  MoveCounter(const MoveCounter& other) = default;
  MoveCounter(MoveCounter&& other) noexcept : moves(other.moves) { ++*moves; }
  MoveCounter& operator=(const MoveCounter&) = delete;
  int* moves;
};

TEST(Network, AMessageClosureIsBuiltOnceAndMovedAtMostThreeTimes) {
  // From send to handler the closure is built once (one move of the lambda
  // into the UniqueFunction) and relocated into the mailbox entry (across
  // regions only), into its event slot and out of it: 4 moves from 0 to 1,
  // 3 from 0 to 2. Every move here runs the capture's move constructor; a
  // trivially copyable closure makes the same trip by memcpy.
  for (const NodeId to : {NodeId{1}, NodeId{2}}) {
    Sim sched;
    int moves = 0;
    int moves_at_delivery = -1;
    MoveCounter probe(&moves);
    sched.net.send(0, to, [probe, &moves_at_delivery] {
      moves_at_delivery = *probe.moves;
    });
    sched.run();
    EXPECT_EQ(moves_at_delivery, to == 1 ? 4 : 3) << "to node " << to;
  }
}

}  // namespace
}  // namespace str::net
