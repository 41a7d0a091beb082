#include "net/transport/tcp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "common/assert.hpp"
#include "net/transport/conn.hpp"

namespace str::net {

namespace {
using Clock = std::chrono::steady_clock;

/// Reconnect backoff (wall-clock milliseconds): the first retry after a
/// failed connect waits kBackoffInitMs, doubling per failure up to
/// kBackoffMaxMs.
constexpr std::uint32_t kBackoffInitMs = 1;
constexpr std::uint32_t kBackoffMaxMs = 200;
}  // namespace

// Threading/ownership rules (docs/TRANSPORT.md): connection state is
// loop-thread-private; senders only touch `pending`, the control flags and
// `stats`, under `mu`; the loop folds its per-iteration tallies into
// `stats` under the same mutex; the RxHandler runs with no lock held, so a
// handler may call send() freely.
struct TcpTransport::Loop {
  NodeId self = 0;
  int listen_fd = -1;
  int wake_r = -1;
  int wake_w = -1;

  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::deque<std::vector<std::uint8_t>>> pending;  // per peer
  bool stop = false;
  bool pause_writes = false;
  std::uint64_t drop_req = 0;
  std::uint64_t drop_ack = 0;
  TransportStats stats;

  /// Outbound connection lifecycle: frames for peer j only ever ride the
  /// connection this node initiated to j, so send order survives as long as
  /// the connection does.
  enum class OutState : std::uint8_t {
    kBackoff,     ///< no socket; retry connect at `retry_at`
    kConnecting,  ///< nonblocking connect in flight (await POLLOUT)
    kHandshake,   ///< connected; writing the 4-byte node-id preamble
    kUp,          ///< handshake done; frames flow
  };
  struct Out {
    Conn c;
    OutState st = OutState::kBackoff;
    Clock::time_point retry_at{};  // epoch: first attempt fires immediately
    std::uint32_t backoff_ms = kBackoffInitMs;
    std::size_t hs_off = 0;
    bool ever_up = false;
  };
  std::vector<Out> outs;  // indexed by peer; self slot never used

  /// Accepted connection; `peer` is unknown until the 4 handshake bytes
  /// arrive. Read-only after that: the initiator never reads replies here.
  struct In {
    Conn c;
    std::uint8_t hs[4] = {0, 0, 0, 0};
    std::size_t hs_got = 0;
  };
  std::vector<In> ins;
  std::thread thread;

  /// An ESTABLISHED outbound connection died. Everything still queued —
  /// including a partially written head frame, rewound to offset 0 — is
  /// counted as resent (per tag byte) and kept for the replacement
  /// connection: at-least-once hand-off, deduped by the protocol layer.
  static void out_broken(Out& o, TransportStats& d) {
    ++d.disconnects;
    close_fd(o.c.fd);
    o.c.assembler.reset();
    o.c.head_off = 0;
    o.hs_off = 0;
    for (const auto& f : o.c.outq) {
      ++d.frames_resent;
      d.bytes_resent += f.size();
      ++d.resent_by_tag[f.size() > 4 ? f[4] : 0];
    }
    o.st = OutState::kBackoff;
    o.backoff_ms = kBackoffInitMs;
    o.retry_at = Clock::now();  // an established peer just spoke; retry now
  }

  /// A connect attempt failed before anything was established: plain
  /// backoff, no disconnect or resend accounting (nothing was ever offered).
  static void connect_fail(Out& o) {
    close_fd(o.c.fd);
    o.hs_off = 0;
    o.st = OutState::kBackoff;
    o.retry_at = Clock::now() + std::chrono::milliseconds(o.backoff_ms);
    o.backoff_ms = std::min(o.backoff_ms * 2, kBackoffMaxMs);
  }

  static void in_broken(In& in, TransportStats& d) {
    if (in.hs_got == sizeof in.hs) ++d.disconnects;
    if (in.c.assembler.mid_frame()) ++d.partial_frames_discarded;
    in.c.assembler.reset();
    close_fd(in.c.fd);
  }
};

TcpTransport::TcpTransport(TransportOptions options) : options_(options) {}

TcpTransport::~TcpTransport() { stop(); }

void TcpTransport::start(std::uint32_t num_nodes, RxHandler rx) {
  STR_ASSERT_MSG(!started_, "TcpTransport::start called twice");
  STR_ASSERT(num_nodes >= 1);
  rx_ = std::move(rx);
  ports_.assign(num_nodes, 0);
  // Every listener exists before the first loop thread spawns, so no
  // connect attempt can ever race its destination's bind.
  std::vector<int> listen_fds(num_nodes, -1);
  auto fail = [&](const std::string& what) {
    const int err = errno;
    for (int& fd : listen_fds) {
      if (fd >= 0) ::close(fd);
    }
    for (auto& loop : loops_) {
      close_fd(loop->wake_r);
      close_fd(loop->wake_w);
    }
    loops_.clear();
    throw std::runtime_error("tcp transport: " + what + ": " +
                             std::strerror(err));
  };
  for (NodeId i = 0; i < num_nodes; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) fail("socket");
    listen_fds[i] = fd;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    struct sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const std::uint16_t want =
        options_.base_port == 0
            ? 0
            : static_cast<std::uint16_t>(options_.base_port + i);
    addr.sin_port = htons(want);
    if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof addr) !=
        0) {
      fail("bind 127.0.0.1:" + std::to_string(want));
    }
    if (::listen(fd, 128) != 0) fail("listen");
    struct sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound), &len) !=
        0) {
      fail("getsockname");
    }
    ports_[i] = ntohs(bound.sin_port);
    set_nonblocking(fd);
  }
  loops_.reserve(num_nodes);
  for (NodeId i = 0; i < num_nodes; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->self = i;
    loop->listen_fd = listen_fds[i];
    loop->pending.resize(num_nodes);
    loop->outs.resize(num_nodes);
    for (NodeId j = 0; j < num_nodes; ++j) loop->outs[j].c.peer = j;
    loops_.push_back(std::move(loop));
    if (!make_wakeup_pipe(loops_.back()->wake_r, loops_.back()->wake_w)) {
      fail("pipe");
    }
    listen_fds[i] = -1;  // ownership moved into the loop
  }
  started_ = true;
  for (auto& loop : loops_) {
    loop->thread = std::thread([this, l = loop.get()] { loop_main(*l); });
  }
}

void TcpTransport::send(NodeId from, NodeId to,
                        std::vector<std::uint8_t> frame) {
  STR_ASSERT_MSG(started_, "send before start");
  STR_ASSERT(from < loops_.size() && to < loops_.size());
  Loop& l = *loops_[from];
  if (from == to) {
    {
      std::lock_guard<std::mutex> lk(l.mu);
      ++l.stats.frames_sent;
      l.stats.bytes_sent += frame.size();
      ++l.stats.frames_received;
      l.stats.bytes_received += frame.size();
    }
    rx_(to, std::move(frame));
    return;
  }
  {
    std::lock_guard<std::mutex> lk(l.mu);
    l.pending[to].push_back(std::move(frame));
  }
  signal_wakeup(l.wake_w);
}

void TcpTransport::loop_main(Loop& l) {
  std::vector<std::uint8_t> rbuf(kReadChunk);
  std::vector<struct pollfd> pfds;
  // What each pollfd beyond wake/listen refers to: +peer for an outbound
  // slot, -(index+1) for an inbound slot.
  std::vector<std::int64_t> pfd_ref;
  const auto deliver = [&](TransportStats& d) {
    return [&l, &d, this](const std::uint8_t* f, std::size_t sz) {
      ++d.frames_received;
      d.bytes_received += sz;
      rx_(l.self, std::vector<std::uint8_t>(f, f + sz));
    };
  };
  // Write the id preamble; on completion the connection is up.
  const auto try_handshake = [&](Loop::Out& o, TransportStats& d) {
    const std::uint8_t hs[4] = {
        static_cast<std::uint8_t>(l.self & 0xff),
        static_cast<std::uint8_t>((l.self >> 8) & 0xff),
        static_cast<std::uint8_t>((l.self >> 16) & 0xff),
        static_cast<std::uint8_t>((l.self >> 24) & 0xff)};
    while (o.hs_off < sizeof hs) {
      const ssize_t w = ::send(o.c.fd, hs + o.hs_off, sizeof hs - o.hs_off,
                               MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // POLLOUT later
        Loop::connect_fail(o);
        return;
      }
      o.hs_off += static_cast<std::size_t>(w);
    }
    o.st = Loop::OutState::kUp;
    ++d.connects;
    if (o.ever_up) ++d.reconnects;
    o.ever_up = true;
    o.backoff_ms = kBackoffInitMs;
  };
  const auto attempt_connect = [&](Loop::Out& o) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      Loop::connect_fail(o);
      return;
    }
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    struct sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(ports_[o.c.peer]);
    const int r =
        ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof addr);
    o.c.fd = fd;
    if (r == 0) {
      o.st = Loop::OutState::kHandshake;
      o.hs_off = 0;
    } else if (errno == EINPROGRESS) {
      o.st = Loop::OutState::kConnecting;
    } else {
      Loop::connect_fail(o);
    }
  };

  for (;;) {
    TransportStats d;
    bool paused = false;
    bool do_drop = false;
    {
      std::unique_lock<std::mutex> lk(l.mu);
      if (l.stop) break;
      for (NodeId j = 0; j < l.pending.size(); ++j) {
        auto& pq = l.pending[j];
        while (!pq.empty()) {
          // Frames queue regardless of connection state; they wait out
          // backoff and handshake and flush once the connection is up.
          l.outs[j].c.outq.push_back(std::move(pq.front()));
          pq.pop_front();
        }
      }
      do_drop = l.drop_req != l.drop_ack;
      paused = l.pause_writes;
    }
    if (do_drop) {
      for (Loop::Out& o : l.outs) {
        if (o.c.peer == l.self || o.c.fd < 0) continue;
        if (o.st == Loop::OutState::kUp) {
          Loop::out_broken(o, d);
        } else {
          Loop::connect_fail(o);
        }
      }
      for (Loop::In& in : l.ins) Loop::in_broken(in, d);
      l.ins.clear();
      std::lock_guard<std::mutex> lk(l.mu);
      l.drop_ack = l.drop_req;
      l.stats.add(d);
      d = TransportStats();
      l.cv.notify_all();
    }

    const Clock::time_point now = Clock::now();
    for (Loop::Out& o : l.outs) {
      if (o.c.peer == l.self) continue;
      if (o.st == Loop::OutState::kBackoff && o.retry_at <= now) {
        attempt_connect(o);
      }
      if (o.st == Loop::OutState::kHandshake) try_handshake(o, d);
      if (o.st == Loop::OutState::kUp && !paused && o.c.want_write()) {
        if (flush_conn(o.c, d.frames_sent, d.bytes_sent) == IoResult::kError) {
          Loop::out_broken(o, d);
        }
      }
    }

    pfds.clear();
    pfd_ref.clear();
    pfds.push_back({l.wake_r, POLLIN, 0});
    pfd_ref.push_back(0);
    pfds.push_back({l.listen_fd, POLLIN, 0});
    pfd_ref.push_back(0);
    int timeout_ms = -1;
    for (const Loop::Out& o : l.outs) {
      if (o.c.peer == l.self) continue;
      switch (o.st) {
        case Loop::OutState::kBackoff: {
          const auto dt = std::chrono::duration_cast<std::chrono::milliseconds>(
                              o.retry_at - Clock::now())
                              .count();
          const int ms = dt <= 0 ? 0 : static_cast<int>(dt) + 1;
          if (timeout_ms < 0 || ms < timeout_ms) timeout_ms = ms;
          break;
        }
        case Loop::OutState::kConnecting:
        case Loop::OutState::kHandshake:
          pfds.push_back({o.c.fd, POLLOUT, 0});
          pfd_ref.push_back(static_cast<std::int64_t>(o.c.peer));
          break;
        case Loop::OutState::kUp: {
          short events = POLLIN;  // EOF/RST detection; the peer never talks
          if (!paused && o.c.want_write()) events |= POLLOUT;
          pfds.push_back({o.c.fd, events, 0});
          pfd_ref.push_back(static_cast<std::int64_t>(o.c.peer));
          break;
        }
      }
    }
    for (std::size_t k = 0; k < l.ins.size(); ++k) {
      pfds.push_back({l.ins[k].c.fd, POLLIN, 0});
      pfd_ref.push_back(-static_cast<std::int64_t>(k) - 1);
    }

    // Fold the tallies BEFORE blocking: poll may sleep indefinitely, and
    // stats() must already see everything this iteration did (resend
    // accounting at a connection break, a final flush) while the loop idles.
    {
      std::lock_guard<std::mutex> lk(l.mu);
      l.stats.add(d);
      d = TransportStats();
    }
    const int rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (rc < 0 && errno != EINTR) break;  // unrecoverable; stop() cleans up

    if (rc > 0) {
      if ((pfds[0].revents & POLLIN) != 0) drain_wakeup(l.wake_r);
      if ((pfds[1].revents & POLLIN) != 0) {
        for (;;) {
          const int fd = ::accept(l.listen_fd, nullptr, nullptr);
          if (fd < 0) {
            if (errno == EINTR) continue;
            break;  // EAGAIN: backlog drained
          }
          set_nonblocking(fd);
          const int one = 1;
          ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
          l.ins.emplace_back();
          l.ins.back().c.fd = fd;
        }
      }
      for (std::size_t p = 2; p < pfds.size(); ++p) {
        if (pfds[p].revents == 0) continue;
        if (pfd_ref[p] >= 0) {
          Loop::Out& o = l.outs[static_cast<std::size_t>(pfd_ref[p])];
          if (o.c.fd != pfds[p].fd) continue;  // replaced this round
          if (o.st == Loop::OutState::kConnecting) {
            int err = 0;
            socklen_t len = sizeof err;
            if (::getsockopt(o.c.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
                err != 0) {
              Loop::connect_fail(o);
            } else {
              o.st = Loop::OutState::kHandshake;
              o.hs_off = 0;
              try_handshake(o, d);
            }
          } else if (o.st == Loop::OutState::kUp &&
                     (pfds[p].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
            if (read_conn(o.c, rbuf.data(), rbuf.size(), deliver(d)) !=
                IoResult::kOk) {
              Loop::out_broken(o, d);
            }
          }
          // kHandshake POLLOUT: the pre-poll pass above resumes the write.
        } else {
          Loop::In& in = l.ins[static_cast<std::size_t>(-pfd_ref[p] - 1)];
          if (in.c.fd != pfds[p].fd) continue;
          bool broken = false;
          while (in.hs_got < sizeof in.hs) {
            const ssize_t n =
                ::recv(in.c.fd, in.hs + in.hs_got, sizeof in.hs - in.hs_got, 0);
            if (n > 0) {
              in.hs_got += static_cast<std::size_t>(n);
              continue;
            }
            if (n < 0 && errno == EINTR) continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
            Loop::in_broken(in, d);  // EOF or error before the preamble finished
            broken = true;
            break;
          }
          if (broken || in.c.fd < 0) continue;
          if (in.hs_got < sizeof in.hs) continue;
          if (in.c.peer == kInvalidNode) {
            const std::uint32_t peer =
                static_cast<std::uint32_t>(in.hs[0]) |
                (static_cast<std::uint32_t>(in.hs[1]) << 8) |
                (static_cast<std::uint32_t>(in.hs[2]) << 16) |
                (static_cast<std::uint32_t>(in.hs[3]) << 24);
            if (peer >= l.pending.size()) {  // not one of ours: reject
              Loop::in_broken(in, d);
              continue;
            }
            in.c.peer = peer;
          }
          if (read_conn(in.c, rbuf.data(), rbuf.size(), deliver(d)) !=
              IoResult::kOk) {
            Loop::in_broken(in, d);
          }
        }
      }
      l.ins.erase(std::remove_if(l.ins.begin(), l.ins.end(),
                                 [](const Loop::In& in) { return in.c.fd < 0; }),
                  l.ins.end());
    }

    std::lock_guard<std::mutex> lk(l.mu);
    l.stats.add(d);
  }
  // stop(): account every frame that never made it out.
  TransportStats d;
  for (Loop::Out& o : l.outs) {
    d.frames_dropped += o.c.outq.size();
    close_fd(o.c.fd);
  }
  for (Loop::In& in : l.ins) {
    if (in.c.assembler.mid_frame()) ++d.partial_frames_discarded;
    close_fd(in.c.fd);
  }
  l.ins.clear();
  close_fd(l.listen_fd);
  std::lock_guard<std::mutex> lk(l.mu);
  for (const auto& pq : l.pending) d.frames_dropped += pq.size();
  l.stats.add(d);
}

void TcpTransport::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  for (auto& loop : loops_) {
    {
      std::lock_guard<std::mutex> lk(loop->mu);
      loop->stop = true;
    }
    signal_wakeup(loop->wake_w);
  }
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
    close_fd(loop->wake_r);
    close_fd(loop->wake_w);
  }
}

TransportStats TcpTransport::stats() const {
  TransportStats total;
  for (const auto& loop : loops_) {
    std::lock_guard<std::mutex> lk(loop->mu);
    total.add(loop->stats);
  }
  return total;
}

void TcpTransport::debug_drop_connections(NodeId node) {
  STR_ASSERT(node < loops_.size());
  Loop& l = *loops_[node];
  std::unique_lock<std::mutex> lk(l.mu);
  const std::uint64_t req = ++l.drop_req;
  signal_wakeup(l.wake_w);
  l.cv.wait(lk, [&] { return l.drop_ack >= req || l.stop; });
}

void TcpTransport::debug_pause_writes(NodeId node, bool paused) {
  STR_ASSERT(node < loops_.size());
  Loop& l = *loops_[node];
  {
    std::lock_guard<std::mutex> lk(l.mu);
    l.pause_writes = paused;
  }
  signal_wakeup(l.wake_w);
}

}  // namespace str::net
