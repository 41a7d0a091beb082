// Per-connection plumbing for the TCP transport's loop threads
// (docs/TRANSPORT.md): nonblocking-fd utilities, the wakeup pipe that
// interrupts each loop's poll(2), and the Conn struct with its flush / read
// helpers. Everything here is called from exactly one loop thread per
// Conn — connections are loop-private; only the per-loop stats and pending
// queues are shared, and those live in TcpTransport.
//
// This header depends on wire/assembler.hpp, a deliberate, documented
// relaxation of the "net/ knows nothing about wire/" rule: the assembler is
// pure codec-level framing (length prefixes, no message types), and stream
// transports cannot exist without incremental reassembly.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/types.hpp"
#include "wire/assembler.hpp"

namespace str::net {

/// One recv() per readable connection per poll round reads up to this much,
/// fed through the connection's FrameAssembler in a single feed.
inline constexpr std::size_t kReadChunk = 64 * 1024;

/// Upper bound on frames batched into one sendmsg (writev-style batching:
/// one syscall flushes up to this many queued frames).
inline constexpr std::size_t kMaxIov = 64;

/// fcntl O_NONBLOCK; returns < 0 on failure.
int set_nonblocking(int fd);

/// close(2) and reset to -1; safe on fd < 0.
void close_fd(int& fd);

/// Nonblocking self-pipe for waking a poll loop. False on failure.
bool make_wakeup_pipe(int& read_fd, int& write_fd);

/// Write one byte into the pipe; a full pipe means the loop is already due
/// to wake, so EAGAIN is success.
void signal_wakeup(int write_fd);

/// Swallow every pending wakeup byte.
void drain_wakeup(int read_fd);

/// One stream connection as a loop thread sees it: the socket, the
/// incremental reassembler for the receive side (it rejects any length
/// prefix over wire::kDefaultMaxFrameSize), and the outbound frame queue.
/// `head_off` tracks how much of the queue's head frame the kernel has
/// already taken — a partially written frame stays queued until done.
struct Conn {
  int fd = -1;
  NodeId peer = kInvalidNode;
  wire::FrameAssembler assembler;
  std::deque<std::vector<std::uint8_t>> outq;
  std::size_t head_off = 0;

  bool want_write() const { return !outq.empty(); }
};

enum class IoResult : std::uint8_t {
  kOk,      ///< progressed or would block; connection healthy
  kClosed,  ///< orderly EOF from the peer
  kError,   ///< hard socket error, or a malformed frame length on receive
};

/// Hand as much of the outbound queue to the kernel as it will take,
/// batching up to kMaxIov frames per sendmsg(MSG_NOSIGNAL). Fully written
/// frames are popped and counted into `frames`; every byte the kernel
/// accepted (including partial frames) lands in `bytes`.
IoResult flush_conn(Conn& c, std::uint64_t& frames, std::uint64_t& bytes);

/// Drain the socket's readable bytes through the assembler; `sink(frame,
/// size)` fires once per completed frame, prefix included. kError covers
/// both socket errors and assembler rejection of a malformed length.
using FrameSink = std::function<void(const std::uint8_t*, std::size_t)>;
IoResult read_conn(Conn& c, std::uint8_t* buf, std::size_t buf_size,
                   const FrameSink& sink);

}  // namespace str::net
