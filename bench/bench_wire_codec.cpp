// Wire-codec microbenchmark: encode/decode cost per message type.
//
// Builds one representative message of every type (payload sizes chosen to
// match the synthetic workload's value sizes), then times tight
// encode-frame and decode-frame loops. This is the per-message overhead a
// --wire run pays on top of the closure transport; bench_core_speed --wire
// reports the same cost end-to-end. Numbers are wall-clock and
// machine-dependent — this bench has no committed baseline and is not
// gated, it exists so codec changes can be measured (docs/PERFORMANCE.md).
//
// Decode runs through a PayloadTable, as in a cluster. "decode" is the
// first receiver of a write: its payloads are freed between iterations, so
// every value is allocated and recorded. "shared" is every later receiver:
// a kept decode holds the payloads live, so values resolve to them.
//
// A second table gives the frame checksum's throughput on its own, from a
// small frame through a replicate-sized one and a page to a
// checkpoint-sized image: checksum32 (the kernel the process selected)
// beside crc32c_portable (the table kernel).
//
// Usage: bench_wire_codec [--quick] [--iters N]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "protocol/messages.hpp"
#include "wire/messages.hpp"

using namespace str;  // NOLINT

namespace {

/// Most encode/decode loop iterations --iters takes.
constexpr std::uint64_t kMaxIters = 1'000'000'000;

protocol::SharedUpdates make_updates(std::size_t count,
                                     std::size_t value_size) {
  auto list = std::make_shared<protocol::UpdateList>();
  for (std::size_t i = 0; i < count; ++i) {
    list->emplace_back(0x1000 + i * 7,
                       std::make_shared<Value>(std::string(value_size, 'v')));
  }
  return list;
}

struct Timed {
  double encode_ns = 0;
  double decode_ns = 0;
  double shared_ns = 0;
  std::size_t frame_bytes = 0;
};

template <class M>
Timed time_codec(const M& msg, std::uint64_t iters) {
  using Clock = std::chrono::steady_clock;
  Timed t;
  const wire::Buffer frame = wire::encode_frame(msg);
  t.frame_bytes = frame.size();

  std::uint64_t sink = 0;  // defeat dead-code elimination
  auto start = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    wire::Buffer b = wire::encode_frame(msg);
    sink += b.size();
  }
  auto mid = Clock::now();
  wire::PayloadTable payloads;
  for (std::uint64_t i = 0; i < iters; ++i) {
    wire::AnyMessage out;
    sink += static_cast<std::uint64_t>(
        wire::decode_frame(frame.data(), frame.size(), out, payloads));
  }
  wire::AnyMessage kept;
  (void)wire::decode_frame(frame.data(), frame.size(), kept, payloads);
  auto shared_start = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    wire::AnyMessage out;
    sink += static_cast<std::uint64_t>(
        wire::decode_frame(frame.data(), frame.size(), out, payloads));
  }
  auto end = Clock::now();
  if (sink == 0xdead) std::puts("");  // keep `sink` observable

  const auto per_iter = [iters](auto from, auto to) {
    return std::chrono::duration<double, std::nano>(to - from).count() /
           static_cast<double>(iters);
  };
  t.encode_ns = per_iter(start, mid);
  t.decode_ns = per_iter(mid, shared_start);
  t.shared_ns = per_iter(shared_start, end);
  return t;
}

template <class M>
void report(const char* name, const M& msg, std::uint64_t iters) {
  const Timed t = time_codec(msg, iters);
  const double rt_ns = t.encode_ns + t.decode_ns;
  const double mbps =
      rt_ns > 0 ? static_cast<double>(t.frame_bytes) * 2 * 1e3 / rt_ns : 0;
  std::printf("  %-18s %5zu B   encode %8.1f ns   decode %8.1f ns   "
              "shared %8.1f ns   %8.0f MB/s\n",
              name, t.frame_bytes, t.encode_ns, t.decode_ns, t.shared_ns,
              mbps);
}

using ChecksumFn = std::uint32_t (*)(const std::uint8_t*, std::size_t,
                                     std::uint32_t);

/// MB/s of `fn` over one `size`-byte buffer, checksummed repeatedly until
/// `total_bytes` have passed through it.
double checksum_mbps(ChecksumFn fn, std::size_t size,
                     std::uint64_t total_bytes) {
  using Clock = std::chrono::steady_clock;
  wire::Buffer buf(size);
  for (std::size_t i = 0; i < size; ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  const std::uint64_t reps = std::max<std::uint64_t>(1, total_bytes / size);
  std::uint32_t sink = 0;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < reps; ++i) sink ^= fn(buf.data(), size, 0);
  const double s = std::chrono::duration<double>(Clock::now() - start).count();
  if (sink == 0xdeadbeef) std::puts("");  // keep `sink` observable
  return s > 0 ? static_cast<double>(reps * size) / s / 1e6 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t iters = 2'000'000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      iters = 200'000;
    } else if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      if (!parse_count(argv[++i], 1, kMaxIters, iters)) {
        std::fprintf(stderr, "--iters wants a count in [1,%llu]\n",
                     static_cast<unsigned long long>(kMaxIters));
        return 1;
      }
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--iters N]\n", argv[0]);
      return 1;
    }
  }

  const TxId tx{3, 0x1234};
  const SharedValue value =
      std::make_shared<Value>(std::string(64, 'x'));

  protocol::ReadRequest read_req{tx, 3, 42, 0xabcdef, usec(7'100'000)};
  protocol::ReadReply read_reply;
  read_reply.reader = tx;
  read_reply.req_id = 42;
  read_reply.key = 0xabcdef;
  read_reply.found = true;
  read_reply.value = value;
  read_reply.writer = TxId{5, 0x99};
  read_reply.version_ts = usec(7'000'000);
  protocol::PrepareRequest prep{tx, 3, 2, usec(7'100'000),
                                make_updates(4, 64)};
  protocol::PrepareReply prep_reply{tx, 2, 6, true, usec(7'200'000)};
  protocol::ReplicateRequest repl{tx, 3, 2, usec(7'100'000),
                                  make_updates(4, 64)};
  protocol::CommitMessage commit{tx, 2, usec(7'300'000)};
  protocol::AbortMessage abort_msg{tx, 2};
  protocol::DecisionRequest dec_req{tx, 2, 6};
  protocol::DecisionReply dec_reply{tx, 2, protocol::TxDecision::Committed,
                                    usec(7'300'000), 6};

  std::printf("=== wire codec encode/decode (%llu iters/type) ===\n",
              static_cast<unsigned long long>(iters));
  report("read_request", read_req, iters);
  report("read_reply", read_reply, iters);
  report("prepare_request", prep, iters);
  report("prepare_reply", prep_reply, iters);
  report("replicate_request", repl, iters);
  report("commit", commit, iters);
  report("abort", abort_msg, iters);
  report("decision_request", dec_req, iters);
  report("decision_reply", dec_reply, iters);

  // iters * 256 bytes per kernel and size: 512 MB at the default count.
  const std::uint64_t checksum_bytes = iters * 256;
  std::printf("=== frame checksum, CRC-32C (%llu MB per cell) ===\n",
              static_cast<unsigned long long>(checksum_bytes / 1'000'000));
  std::printf("  %-8s %15s %20s\n", "size", "checksum32", "crc32c_portable");
  const std::pair<const char*, std::size_t> sizes[] = {
      {"64 B", 64},       {"256 B", 256},     {"1 KiB", 1024},
      {"4 KiB", 4096},    {"32 KiB", 32 * 1024}, {"256 KiB", 256 * 1024}};
  for (const auto& [label, size] : sizes) {
    std::printf("  %-8s %10.0f MB/s %15.0f MB/s\n", label,
                checksum_mbps(wire::checksum32, size, checksum_bytes),
                checksum_mbps(wire::crc32c_portable, size, checksum_bytes));
  }
  return 0;
}
