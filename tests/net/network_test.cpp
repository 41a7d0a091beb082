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

}  // namespace
}  // namespace str::net
