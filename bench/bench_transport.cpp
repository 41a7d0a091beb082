// Real-transport microbenchmark: echo round-trip latency and streaming
// throughput of the loopback TCP transport (docs/TRANSPORT.md).
//
// Two shapes:
//   - echo: one frame ping-pongs 0 -> 1 -> 0 with a single frame in flight;
//     each round trip is one latency sample (p50/p99 of the full path:
//     queue, writev, kernel, reassemble, dispatch — twice).
//   - stream: a burst of frames 0 -> 1 with no application-level flow
//     control; frames/sec and MB/s once the last frame lands.
//
// Numbers are wall-clock and machine-dependent — like bench_wire_codec this
// has no committed baseline and is not gated; it exists so transport changes
// can be measured. JSON goes to BENCH_TRANSPORT.json (schema in the spirit
// of BENCH_CORE.json, docs/PERFORMANCE.md) with one "tcp" entry under
// "backends".
//
// Usage: bench_transport [--quick] [--iters N] [--frame-bytes N] [--out FILE]

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "net/transport/tcp_transport.hpp"
#include "wire/messages.hpp"

using namespace str;  // NOLINT

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  bool quick = false;
  std::uint64_t echo_iters = 20'000;
  std::uint64_t stream_frames = 200'000;
  std::size_t frame_body = 256;
  const char* out = "BENCH_TRANSPORT.json";
};

struct BackendResult {
  const char* backend = "";
  double rtt_mean_us = 0;
  double rtt_p50_us = 0;
  double rtt_p99_us = 0;
  double stream_frames_per_sec = 0;
  double stream_mb_per_sec = 0;
};

/// A syntactically valid frame of `body` payload bytes (the transport only
/// needs the length-prefix framing, not decodable content).
wire::Buffer make_frame(std::size_t body) {
  wire::Buffer f;
  const auto rest = static_cast<std::uint32_t>(
      wire::kFrameTypeBytes + body + wire::kFrameChecksumBytes);
  f.push_back(static_cast<std::uint8_t>(rest & 0xff));
  f.push_back(static_cast<std::uint8_t>((rest >> 8) & 0xff));
  f.push_back(static_cast<std::uint8_t>((rest >> 16) & 0xff));
  f.push_back(static_cast<std::uint8_t>((rest >> 24) & 0xff));
  f.push_back(1);
  f.resize(f.size() + body + wire::kFrameChecksumBytes, 0x5a);
  return f;
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

BackendResult run_tcp(const Options& opt) {
  BackendResult r;
  r.backend = net::to_string(net::TransportKind::kTcp);
  const wire::Buffer frame = make_frame(opt.frame_body);

  // -- echo round trips, one frame in flight --------------------------------
  {
    std::mutex mu;
    std::condition_variable cv;
    std::uint64_t pongs = 0;
    net::TcpTransport tp;
    tp.start(2, [&](NodeId to, std::vector<std::uint8_t> f) {
      if (to == 1) {
        tp.send(1, 0, std::move(f));
        return;
      }
      {
        std::lock_guard<std::mutex> lk(mu);
        ++pongs;
      }
      cv.notify_one();
    });
    auto round_trip = [&](std::uint64_t upto) {
      tp.send(0, 1, frame);
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return pongs >= upto; });
    };
    for (std::uint64_t i = 1; i <= 200; ++i) round_trip(i);  // warm the path
    std::vector<double> rtt_us(opt.echo_iters);
    double sum = 0;
    for (std::uint64_t i = 0; i < opt.echo_iters; ++i) {
      const auto t0 = Clock::now();
      round_trip(201 + i);
      rtt_us[i] =
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
      sum += rtt_us[i];
    }
    tp.stop();
    std::sort(rtt_us.begin(), rtt_us.end());
    r.rtt_mean_us = sum / static_cast<double>(opt.echo_iters);
    r.rtt_p50_us = percentile(rtt_us, 0.50);
    r.rtt_p99_us = percentile(rtt_us, 0.99);
  }

  // -- streaming throughput -------------------------------------------------
  {
    std::mutex mu;
    std::condition_variable cv;
    std::uint64_t received = 0;
    net::TcpTransport tp;
    tp.start(2, [&](NodeId, std::vector<std::uint8_t>) {
      {
        std::lock_guard<std::mutex> lk(mu);
        ++received;
      }
      cv.notify_one();
    });
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < opt.stream_frames; ++i) {
      tp.send(0, 1, frame);
    }
    {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return received >= opt.stream_frames; });
    }
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    tp.stop();
    r.stream_frames_per_sec =
        wall_s > 0 ? static_cast<double>(opt.stream_frames) / wall_s : 0;
    r.stream_mb_per_sec = r.stream_frames_per_sec *
                          static_cast<double>(frame.size()) / 1e6;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      opt.quick = true;
      opt.echo_iters = 2'000;
      opt.stream_frames = 20'000;
    } else if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      opt.echo_iters = std::strtoull(argv[++i], nullptr, 10);
      opt.stream_frames = opt.echo_iters * 10;
    } else if (std::strcmp(argv[i], "--frame-bytes") == 0 && i + 1 < argc) {
      opt.frame_body = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      opt.out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--iters N] [--frame-bytes N] "
                   "[--out FILE]\n",
                   argv[0]);
      return 1;
    }
  }

  const std::size_t frame_bytes = make_frame(opt.frame_body).size();
  std::printf("=== transport echo/stream (%llu rtts, %llu frames, %zu B/frame) "
              "===\n",
              static_cast<unsigned long long>(opt.echo_iters),
              static_cast<unsigned long long>(opt.stream_frames), frame_bytes);
  const BackendResult r = run_tcp(opt);
  std::printf("  %-10s rtt mean %7.1f us  p50 %7.1f us  p99 %7.1f us   "
              "stream %9.0f frames/s  %7.1f MB/s\n",
              r.backend, r.rtt_mean_us, r.rtt_p50_us, r.rtt_p99_us,
              r.stream_frames_per_sec, r.stream_mb_per_sec);

  std::FILE* f = std::fopen(opt.out, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", opt.out);
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"transport\",\n"
               "  \"schema_version\": 1,\n"
               "  \"quick\": %s,\n"
               "  \"echo_iters\": %llu,\n"
               "  \"stream_frames\": %llu,\n"
               "  \"frame_bytes\": %zu,\n"
               "  \"backends\": [\n",
               opt.quick ? "true" : "false",
               static_cast<unsigned long long>(opt.echo_iters),
               static_cast<unsigned long long>(opt.stream_frames), frame_bytes);
  std::fprintf(f,
               "    {\n"
               "      \"backend\": \"%s\",\n"
               "      \"echo_rtt_mean_us\": %.2f,\n"
               "      \"echo_rtt_p50_us\": %.2f,\n"
               "      \"echo_rtt_p99_us\": %.2f,\n"
               "      \"stream_frames_per_sec\": %.0f,\n"
               "      \"stream_mb_per_sec\": %.2f\n"
               "    }\n"
               "  ]\n}\n",
               r.backend, r.rtt_mean_us, r.rtt_p50_us, r.rtt_p99_us,
               r.stream_frames_per_sec, r.stream_mb_per_sec);
  std::fclose(f);
  return 0;
}
