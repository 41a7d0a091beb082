// Transport conformance: the loopback TCP transport must honor its delivery
// contract over real sockets — intact, ordered, byte-exact frames per
// connection lifetime, accurate counters, and reconnect-with-resend across a
// connection break — plus lifecycle cases (busy port, ephemeral port
// assignment) and a short wall-clock cluster run that must reach a clean
// SPSI verdict.
#include "net/transport/tcp_transport.hpp"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "harness/experiment.hpp"
#include "tests/protocol/test_util.hpp"
#include "wire/assembler.hpp"
#include "wire/messages.hpp"
#include "workload/synthetic.hpp"

namespace str::net {
namespace {

using namespace std::chrono_literals;

/// A syntactically valid frame (length prefix + tag + body + checksum
/// bytes); the transport only needs the framing, not decodable content.
wire::Buffer raw_frame(std::uint8_t tag, std::size_t body_size) {
  wire::Buffer f;
  const auto rest = static_cast<std::uint32_t>(
      wire::kFrameTypeBytes + body_size + wire::kFrameChecksumBytes);
  f.push_back(static_cast<std::uint8_t>(rest & 0xff));
  f.push_back(static_cast<std::uint8_t>((rest >> 8) & 0xff));
  f.push_back(static_cast<std::uint8_t>((rest >> 16) & 0xff));
  f.push_back(static_cast<std::uint8_t>((rest >> 24) & 0xff));
  f.push_back(tag);
  for (std::size_t i = 0; i < body_size + wire::kFrameChecksumBytes; ++i) {
    f.push_back(static_cast<std::uint8_t>((tag * 31 + i) & 0xff));
  }
  return f;
}

/// Every wire message type, real-encoded — the same corpus the decoder fuzz
/// smoke uses, here pushed through actual sockets.
std::vector<wire::Buffer> sample_frames() {
  const TxId tx{3, 0x1234};
  auto updates = std::make_shared<protocol::UpdateList>();
  updates->emplace_back(0x1000, std::make_shared<Value>("payload"));
  updates->emplace_back(0x2000, nullptr);
  protocol::ReadReply rr;
  rr.reader = tx;
  rr.req_id = 7;
  rr.key = 9;
  rr.found = true;
  rr.value = std::make_shared<Value>("value-bytes");
  rr.writer = TxId{1, 2};
  rr.version_ts = 55;
  protocol::DecisionReplicate drep;
  drep.tx = tx;
  drep.origin = 3;
  drep.commit_ts = 400;
  drep.decided_at = 410;
  return {
      wire::encode_frame(protocol::ReadRequest{tx, 3, 42, 0xabcdef, 100}),
      wire::encode_frame(rr),
      wire::encode_frame(protocol::PrepareRequest{tx, 3, 2, 100, updates}),
      wire::encode_frame(protocol::PrepareReply{tx, 2, 6, true, 200}),
      wire::encode_frame(protocol::ReplicateRequest{tx, 3, 2, 100, updates}),
      wire::encode_frame(protocol::CommitMessage{tx, 2, 300}),
      wire::encode_frame(protocol::AbortMessage{tx, 2}),
      wire::encode_frame(protocol::DecisionRequest{tx, 2, 6}),
      wire::encode_frame(protocol::DecisionReply{
          tx, 2, protocol::TxDecision::Committed, 300, 5}),
      wire::encode_frame(drep),
      wire::encode_frame(protocol::DecisionReplicateAck{tx, 5}),
  };
}

/// Thread-safe receive log the RxHandler appends to.
class RxLog {
 public:
  void push(NodeId to, std::vector<std::uint8_t> frame) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      frames_.emplace_back(to, std::move(frame));
    }
    cv_.notify_all();
  }

  [[nodiscard]] bool wait_total(std::size_t n,
                                std::chrono::milliseconds timeout = 10s) {
    std::unique_lock<std::mutex> lk(mu_);
    return cv_.wait_for(lk, timeout, [&] { return frames_.size() >= n; });
  }

  std::vector<wire::Buffer> at(NodeId node) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<wire::Buffer> out;
    for (const auto& [to, f] : frames_) {
      if (to == node) out.push_back(f);
    }
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::pair<NodeId, wire::Buffer>> frames_;
};

/// Poll a cross-thread condition with a generous deadline (the transport
/// loops run on their own wall-clock schedule).
bool eventually(const std::function<bool()>& pred,
                std::chrono::milliseconds timeout = 10s) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

/// Wait until the transport's counters satisfy `pred`: delivery proves the
/// bytes crossed, but the sending loop folds its tallies just before it
/// blocks again, a few microseconds later. Exact-equality assertions follow
/// the wait so mismatches still fail loudly.
bool stats_settle(const TcpTransport& tp,
                  const std::function<bool(const TransportStats&)>& pred) {
  return eventually([&] { return pred(tp.stats()); });
}

TEST(TransportConformance, EchoRoundTripAllFrameTypes) {
  RxLog log;  // outlives tp, whose loop threads push into it
  TcpTransport tp;
  tp.start(2, [&](NodeId to, std::vector<std::uint8_t> frame) {
    if (to == 1) {
      // Echo server: send() from inside the RxHandler is part of the
      // contract (protocol replies do exactly this).
      tp.send(1, 0, std::move(frame));
      return;
    }
    log.push(to, std::move(frame));
  });
  const std::vector<wire::Buffer> frames = sample_frames();
  for (const wire::Buffer& f : frames) tp.send(0, 1, f);
  ASSERT_TRUE(log.wait_total(frames.size()));
  // Byte-exact and in send order after a full round trip per type.
  EXPECT_EQ(log.at(0), frames);
  EXPECT_TRUE(stats_settle(tp, [&](const TransportStats& s) {
    return s.frames_sent >= 2 * frames.size() &&
           s.frames_received >= 2 * frames.size();
  }));
  const TransportStats s = tp.stats();
  EXPECT_EQ(s.frames_sent, 2 * frames.size());
  EXPECT_EQ(s.frames_received, 2 * frames.size());
  EXPECT_EQ(s.bytes_sent, s.bytes_received);
  EXPECT_EQ(s.frames_resent, 0u);
  EXPECT_EQ(s.frames_dropped, 0u);
  tp.stop();
}

TEST(TransportConformance, BurstReassemblyIsOrderedAndByteExact) {
  // Frame sizes straddling every read-path regime: empty bodies that
  // coalesce many-per-read, and frames larger than the 64 KiB read chunk
  // that arrive split across several reads.
  RxLog log;
  TcpTransport tp;
  tp.start(2, [&](NodeId to, std::vector<std::uint8_t> frame) {
    log.push(to, std::move(frame));
  });
  const std::size_t sizes[] = {0, 3, 64, 1024, 60000, 130000};
  std::vector<wire::Buffer> sent;
  for (int i = 0; i < 120; ++i) {
    sent.push_back(raw_frame(static_cast<std::uint8_t>(1 + i % 11),
                             sizes[i % 6]));
  }
  std::uint64_t bytes = 0;
  for (const wire::Buffer& f : sent) {
    bytes += f.size();
    tp.send(0, 1, f);
  }
  ASSERT_TRUE(log.wait_total(sent.size(), 30s));
  EXPECT_EQ(log.at(1), sent);
  EXPECT_TRUE(stats_settle(tp, [&](const TransportStats& s) {
    return s.bytes_sent >= bytes && s.bytes_received >= bytes;
  }));
  const TransportStats s = tp.stats();
  EXPECT_EQ(s.frames_received, sent.size());
  EXPECT_EQ(s.bytes_received, bytes);
  EXPECT_EQ(s.bytes_sent, bytes);
  tp.stop();
}

TEST(TransportConformance, SelfSendLoopsBackWithoutASocket) {
  RxLog log;
  TcpTransport tp;
  tp.start(2, [&](NodeId to, std::vector<std::uint8_t> frame) {
    log.push(to, std::move(frame));
  });
  const wire::Buffer f = raw_frame(7, 21);
  tp.send(0, 0, f);
  ASSERT_TRUE(log.wait_total(1));
  EXPECT_EQ(log.at(0), std::vector<wire::Buffer>{f});
  EXPECT_TRUE(stats_settle(tp, [](const TransportStats& s) {
    return s.frames_sent >= 1 && s.frames_received >= 1;
  }));
  const TransportStats s = tp.stats();
  EXPECT_EQ(s.frames_sent, 1u);
  EXPECT_EQ(s.frames_received, 1u);
  tp.stop();
}

TEST(TransportConformance, PerTypeCounterSumInvariant) {
  // Send a distinct count of each message type; the per-tag tallies at the
  // receiver must sum exactly to the transport's frame counters — the
  // socket-level ground truth behind the cluster's wire.msgs.* accounting.
  std::mutex mu;
  std::map<std::uint8_t, std::size_t> by_tag;
  std::size_t total_rx = 0;
  std::condition_variable cv;
  TcpTransport tp;
  tp.start(2, [&](NodeId, std::vector<std::uint8_t> frame) {
    ASSERT_GT(frame.size(), wire::kFrameLenBytes);
    {
      std::lock_guard<std::mutex> lk(mu);
      ++by_tag[frame[wire::kFrameLenBytes]];
      ++total_rx;
    }
    cv.notify_all();
  });
  const std::vector<wire::Buffer> frames = sample_frames();
  std::size_t total = 0;
  for (std::size_t t = 0; t < frames.size(); ++t) {
    for (std::size_t k = 0; k <= t; ++k) {
      tp.send(0, 1, frames[t]);
      ++total;
    }
  }
  {
    std::unique_lock<std::mutex> lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, 10s, [&] { return total_rx >= total; }));
    for (std::size_t t = 0; t < frames.size(); ++t) {
      EXPECT_EQ(by_tag[frames[t][wire::kFrameLenBytes]], t + 1)
          << "type index " << t;
    }
  }
  EXPECT_TRUE(stats_settle(tp, [&](const TransportStats& s) {
    return s.frames_sent >= total && s.frames_received >= total;
  }));
  const TransportStats s = tp.stats();
  EXPECT_EQ(s.frames_sent, total);
  EXPECT_EQ(s.frames_received, total);
  EXPECT_EQ(s.frames_resent, 0u);
  tp.stop();
}

TEST(TransportConformance, DropConnectionsResendsQueuedFrames) {
  RxLog log;
  TcpTransport tp;
  tp.start(2, [&](NodeId to, std::vector<std::uint8_t> frame) {
    log.push(to, std::move(frame));
  });
  // Prove the 0→1 connection is established before staging the break.
  tp.send(0, 1, raw_frame(1, 8));
  ASSERT_TRUE(log.wait_total(1));

  // Pin frames in node 0's outbound queue, then cut every connection it
  // owns. debug_drop_connections is synchronous, so the resend accounting
  // is fully visible when it returns.
  tp.debug_pause_writes(0, true);
  constexpr std::size_t kQueued = 5;
  for (std::size_t i = 0; i < kQueued; ++i) tp.send(0, 1, raw_frame(2, 32));
  tp.debug_drop_connections(0);
  const TransportStats s = tp.stats();
  EXPECT_GE(s.disconnects, 1u);
  // Everything still queued is re-offered on a replacement connection.
  EXPECT_EQ(s.frames_resent, kQueued);
  EXPECT_EQ(s.resent_by_tag[2], kQueued);
  EXPECT_EQ(s.frames_dropped, 0u);
  tp.debug_pause_writes(0, false);
  ASSERT_TRUE(log.wait_total(1 + kQueued));
  EXPECT_EQ(log.at(1).size(), 1 + kQueued);
  EXPECT_TRUE(eventually([&] { return tp.stats().reconnects >= 1; }));
  tp.stop();
}

TEST(TransportConformance, StopDiscardsQueuedFramesAsDropped) {
  RxLog log;
  TcpTransport tp;
  tp.start(2, [&](NodeId to, std::vector<std::uint8_t> frame) {
    log.push(to, std::move(frame));
  });
  tp.send(0, 1, raw_frame(1, 8));
  ASSERT_TRUE(log.wait_total(1));
  tp.debug_pause_writes(0, true);
  for (int i = 0; i < 3; ++i) tp.send(0, 1, raw_frame(2, 16));
  tp.stop();
  // Unsent frames must be accounted, not silently lost.
  EXPECT_GE(tp.stats().frames_dropped, 3u);
}

TEST(TransportConformance, OversizedFrameBreaksOnlyThatConnection) {
  // A stream whose length prefix claims a frame above
  // wire::kDefaultMaxFrameSize gets its connection cut (the assembler's
  // error latch) as soon as the prefix arrives — no body byte is awaited,
  // so a short frame carrying a forged prefix is enough. The sender then
  // reconnects and traffic resumes.
  RxLog log;
  TcpTransport tp;
  tp.start(2, [&](NodeId to, std::vector<std::uint8_t> frame) {
    log.push(to, std::move(frame));
  });
  tp.send(0, 1, raw_frame(1, 8));
  ASSERT_TRUE(log.wait_total(1));
  wire::Buffer forged = raw_frame(2, 8);
  const auto claimed = static_cast<std::uint32_t>(
      wire::kDefaultMaxFrameSize - wire::kFrameLenBytes + 1);
  for (std::size_t i = 0; i < wire::kFrameLenBytes; ++i) {
    forged[i] = static_cast<std::uint8_t>((claimed >> (8 * i)) & 0xff);
  }
  tp.send(0, 1, forged);
  // Both ends count the cut: the receiver rejects the prefix and closes,
  // and the sender reads that close. Only after the sender has seen it is
  // the next frame sure to ride the replacement connection.
  EXPECT_TRUE(eventually([&] { return tp.stats().disconnects >= 2; }));
  tp.send(0, 1, raw_frame(3, 8));
  ASSERT_TRUE(log.wait_total(2));
  ASSERT_EQ(log.at(1).size(), 2u);
  EXPECT_EQ(log.at(1)[1][wire::kFrameLenBytes], 3);
  EXPECT_TRUE(eventually([&] { return tp.stats().reconnects >= 1; }));
  EXPECT_EQ(tp.stats().disconnects, 2u);
  tp.stop();
}

TEST(TcpTransportLifecycle, StartThrowsOnBusyPort) {
  // Occupy a port, then ask the transport to bind it: start() must surface
  // the failure as an exception before any loop thread exists.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
            0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ASSERT_EQ(::listen(fd, 1), 0);

  TransportOptions opts;
  opts.base_port = ntohs(addr.sin_port);
  TcpTransport tp(opts);
  EXPECT_THROW(
      tp.start(1, [](NodeId, std::vector<std::uint8_t>) {}),
      std::runtime_error);
  ::close(fd);
}

TEST(TcpTransportLifecycle, EphemeralPortsAreBoundAndDistinct) {
  TcpTransport tp;
  tp.start(3, [](NodeId, std::vector<std::uint8_t>) {});
  const std::uint16_t p0 = tp.port_of(0);
  const std::uint16_t p1 = tp.port_of(1);
  const std::uint16_t p2 = tp.port_of(2);
  EXPECT_NE(p0, 0);
  EXPECT_NE(p1, 0);
  EXPECT_NE(p2, 0);
  EXPECT_NE(p0, p1);
  EXPECT_NE(p1, p2);
  EXPECT_NE(p0, p2);
  tp.stop();
}

TEST(TransportConformance, ClusterReachesCleanSpsiOverRealSockets) {
  // The full stack in wall-clock time: a small cluster running the synthetic
  // workload over loopback TCP must commit work, quiesce clean, and pass
  // the SPSI checker — with zero socket-level retransmits on a healthy
  // loopback.
  harness::ExperimentConfig cfg;
  cfg.cluster = test::small_config(3, 2, protocol::ProtocolConfig::str(),
                                   msec(50), /*seed=*/7);
  cfg.cluster.transport = TransportKind::kTcp;
  cfg.clients_per_node = 3;
  cfg.warmup = msec(300);
  cfg.duration = msec(600);
  cfg.drain = msec(400);
  cfg.verify = true;
  workload::SyntheticConfig wcfg = workload::SyntheticConfig::synth_a();
  wcfg.keys_per_txn = 4;
  const auto r = harness::run_experiment(cfg, [wcfg](protocol::Cluster& c) {
    return std::make_unique<workload::SyntheticWorkload>(c, wcfg);
  });
  EXPECT_GT(r.commits, 0u);
  EXPECT_TRUE(r.violations.empty()) << r.violations.size() << " violation(s)";
  EXPECT_TRUE(r.quiesce.clean());
  EXPECT_EQ(r.transport_resent, 0u);
  EXPECT_EQ(r.transport_reconnects, 0u);
}

}  // namespace
}  // namespace str::net
