// str_sim — command-line driver for the STR simulator.
//
// Runs any workload/protocol combination on a configurable cluster and
// prints (and optionally CSV-exports) the paper's metrics. Examples:
//
//   str_sim --workload synth-a --protocol str --clients 80
//   str_sim --workload tpcc-a --protocol clocksi --clients 3600 --duration 30
//   str_sim --workload rubis --protocol str --tuner --reps 3 --csv out.csv
//
// Run with --help for the full option list.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "harness/csv.hpp"
#include "harness/replicated.hpp"
#include "harness/report.hpp"
#include "net/fault.hpp"
#include "workload/rubis.hpp"
#include "workload/synthetic.hpp"
#include "workload/tpcc.hpp"

using namespace str;  // NOLINT

namespace {

struct Options {
  std::string workload = "synth-a";
  std::string protocol = "str";
  std::uint32_t nodes = 9;
  std::uint32_t rf = 0;  ///< 0 = the default, min(6, nodes)
  std::uint32_t clients = 90;
  std::uint64_t seed = 42;
  std::uint32_t threads = 1;
  double duration_s = 20;
  double warmup_s = 4;
  bool tuner = false;
  unsigned reps = 1;
  std::string csv;
  std::string trace_out;
  std::string metrics_out;
  bool summary_percentiles = false;
  std::size_t trace_capacity = 0;  ///< 0 = default ring size
  bool uniform_topology = false;
  double wan_rtt_ms = 100;
  bool wire = false;
  // Real transport mode (docs/TRANSPORT.md).
  std::string transport = "des";
  int transport_port = 0;
  // Chaos mode (see docs/FAULTS.md).
  std::string fault_plan_path;
  net::FaultPlan faults;
  bool verify = false;
  double drain_s = 3;
  // Durability (see docs/DURABILITY.md).
  bool wal = false;
  std::string wal_dir;
  double fsync_ms = 2;
  std::uint32_t wal_batch = 8;
  std::uint32_t decision_quorum = 0;
  std::uint32_t replica_group = 0;
};

void usage() {
  std::puts(
      "str_sim: STR / SPSI geo-replication simulator\n"
      "  --workload W   synth-a | synth-b | tpcc-a | tpcc-b | tpcc-c | rubis\n"
      "  --protocol P   str | clocksi | ext-spec | str-no-sr | physical-sr\n"
      "  --clients N    total clients (round-robin over nodes)     [90]\n"
      "  --nodes N      cluster size, at most 65535                [9]\n"
      "  --rf N         replication factor, at most --nodes  [6 or --nodes]\n"
      "  --duration S   measured seconds of virtual time           [20]\n"
      "  --warmup S     warmup seconds                             [4]\n"
      "  --seed N       deterministic seed                         [42]\n"
      "  --threads N    worker threads running the region-sharded event\n"
      "                 queue (docs/PERFORMANCE.md). Only a speed setting:\n"
      "                 output depends on (seed, topology, fault plan),\n"
      "                 the same for 1 thread or 8                 [1]\n"
      "  --tuner        enable the self-tuning controller (any --threads)\n"
      "  --reps N       repetitions (mean/std across seeds)        [1]\n"
      "  --uniform MS   symmetric topology with the given WAN RTT (>= 1)\n"
      "  --wire         encode every message into a checksummed binary\n"
      "                 frame and decode it at delivery (wire codec mode,\n"
      "                 docs/WIRE.md); bit-identical to the default\n"
      "                 closure transport\n"
      "  --transport T  des | tcp (docs/TRANSPORT.md). des (the default) is\n"
      "                 the deterministic simulator; tcp runs the same\n"
      "                 cluster logic over loopback TCP on per-node loop\n"
      "                 threads, pacing virtual time to the wall clock\n"
      "                 (implies --wire; requires --threads 1 and no fault\n"
      "                 directives)                                 [des]\n"
      "  --transport-port N  tcp only: node i listens on 127.0.0.1:(N+i)\n"
      "                 instead of ephemeral ports; N+nodes-1 <= 65535\n"
      "  --csv PATH     append per-run metrics to a CSV file\n"
      "  --trace-out PATH    write a Chrome trace-event JSON (Perfetto /\n"
      "                      chrome://tracing loadable; first rep only;\n"
      "                      \"-\" = stdout, report moves to stderr)\n"
      "  --metrics-out PATH  write the merged metrics registry as JSON\n"
      "                      (or CSV when PATH ends in .csv; first rep only;\n"
      "                      \"-\" = stdout, report moves to stderr)\n"
      "  --summary-percentiles  add p95 to the per-phase table and print\n"
      "                      final-latency p50/p95/p99\n"
      "  --trace-capacity N  trace ring size (events and spans each; older\n"
      "                      records drop when full)\n"
      "chaos mode (docs/FAULTS.md; any fault flag enables recovery; each\n"
      "fault flag is one plan directive and meets the plan's checks):\n"
      "  --fault-plan PATH   load a fault-plan spec file\n"
      "  --drop-prob P       per-message drop probability, every link\n"
      "  --dup-prob P        per-message duplication probability\n"
      "  --corrupt-prob P    per-message single-bit-flip probability; the\n"
      "                      receiver rejects the frame via checksum\n"
      "                      (counted as net.corrupted)\n"
      "  --partition A:B:S:E cut regions A <-> B from S to E seconds\n"
      "  --crash-node N:T[:R] crash node N at T s (restart at R s)\n"
      "  --heal S            stop drops/dups at S seconds; defaults to the\n"
      "                      end of the measurement window so the drain is\n"
      "                      a fault-free recovery period\n"
      "  --verify            record the history and run the SPSI checker\n"
      "                      (exit 2 on violations, 3 on leaked state,\n"
      "                       4 on lost client-acked commits)\n"
      "  --drain S           drain seconds after the window              [3]\n"
      "durability (docs/DURABILITY.md):\n"
      "  --wal               write-ahead log every commit decision; crashed\n"
      "                      nodes replay their logs on restart instead of\n"
      "                      keeping state by assumption\n"
      "  --wal-dir PATH      mirror each log to a file under PATH (implies\n"
      "                      --wal; PATH must exist and be writable)\n"
      "  --fsync-ms MS       modeled fsync latency                      [2]\n"
      "  --wal-batch N       group-commit batch size                    [8]\n"
      "  --torn-write P      probability a crash mid-fsync leaves a torn\n"
      "                      record at the log tail (replay truncates it)\n"
      "  --decision-quorum N replicate every commit decision across the\n"
      "                      coordinator's replica group and delay the commit\n"
      "                      point until N copies (incl. the local one) are\n"
      "                      durable; the decision then survives permanent\n"
      "                      coordinator loss (implies --wal)        [off]\n"
      "  --replica-group N   decision replica-group size; defaults to the\n"
      "                      quorum size when smaller\n");
}

/// The fault-plan directive a fault flag spells (docs/FAULTS.md §2), or
/// nullptr: "--crash-node 2:3" is the directive "crash 2:3".
const char* fault_directive(const std::string& flag) {
  static constexpr std::pair<const char*, const char*> kFlags[] = {
      {"--drop-prob", "drop"},        {"--dup-prob", "dup"},
      {"--corrupt-prob", "corrupt"},  {"--heal", "heal"},
      {"--partition", "partition"},   {"--crash-node", "crash"},
      {"--torn-write", "torn-write"}};
  for (const auto& [name, directive] : kFlags) {
    if (flag == name) return directive;
  }
  return nullptr;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Value of a value-taking flag. Reports a usage error (and returns
    // nullptr) when the flag is the last argument — every use below must
    // check before dereferencing.
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "option %s requires a value\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    const char* v = nullptr;
    if (arg == "--help" || arg == "-h") return false;
    if (arg == "--workload") {
      if ((v = next()) == nullptr) return false;
      opt.workload = v;
    } else if (arg == "--protocol") {
      if ((v = next()) == nullptr) return false;
      opt.protocol = v;
    } else if (arg == "--clients") {
      if ((v = next()) == nullptr) return false;
      const long long n = std::atoll(v);
      if (n < 0 || n > UINT32_MAX) {
        std::fprintf(stderr, "--clients wants a non-negative count\n");
        return false;
      }
      opt.clients = static_cast<std::uint32_t>(n);
    } else if (arg == "--nodes") {
      if ((v = next()) == nullptr) return false;
      const long long n = std::atoll(v);
      if (n < 1 || n > protocol::Cluster::kMaxNodes) {
        std::fprintf(stderr, "--nodes wants a count in [1,%u]\n",
                     protocol::Cluster::kMaxNodes);
        return false;
      }
      opt.nodes = static_cast<std::uint32_t>(n);
    } else if (arg == "--rf") {
      if ((v = next()) == nullptr) return false;
      const long long n = std::atoll(v);
      // The upper bound (--nodes) is checked once every flag is parsed.
      if (n < 1 || n > UINT32_MAX) {
        std::fprintf(stderr, "--rf wants a positive count\n");
        return false;
      }
      opt.rf = static_cast<std::uint32_t>(n);
    } else if (arg == "--duration" || arg == "--warmup" || arg == "--drain") {
      if ((v = next()) == nullptr) return false;
      // Seconds of virtual time: NaN, infinities and negatives would wrap
      // when converted to the microsecond clock.
      const double s = std::atof(v);
      if (!(s >= 0.0 && s <= kMaxSeconds)) {
        std::fprintf(stderr,
                     "%s wants a finite, non-negative number of seconds\n",
                     arg.c_str());
        return false;
      }
      (arg == "--duration" ? opt.duration_s
       : arg == "--warmup" ? opt.warmup_s
                           : opt.drain_s) = s;
    } else if (arg == "--seed") {
      if ((v = next()) == nullptr) return false;
      opt.seed = std::atoll(v);
    } else if (arg == "--threads") {
      if ((v = next()) == nullptr) return false;
      std::uint64_t n = 0;
      if (!parse_count(v, 1, kMaxThreads, n)) {
        std::fprintf(stderr, "--threads wants a count in [1,%u]\n",
                     kMaxThreads);
        return false;
      }
      opt.threads = static_cast<std::uint32_t>(n);
    } else if (arg == "--tuner") {
      opt.tuner = true;
    } else if (arg == "--reps") {
      if ((v = next()) == nullptr) return false;
      const long long n = std::atoll(v);
      if (n < 1 || n > UINT32_MAX) {
        std::fprintf(stderr, "--reps wants a positive count\n");
        return false;
      }
      opt.reps = static_cast<unsigned>(n);
    } else if (arg == "--csv") {
      if ((v = next()) == nullptr) return false;
      opt.csv = v;
    } else if (arg == "--trace-out") {
      if ((v = next()) == nullptr) return false;
      opt.trace_out = v;
    } else if (arg == "--metrics-out") {
      if ((v = next()) == nullptr) return false;
      opt.metrics_out = v;
    } else if (arg == "--summary-percentiles") {
      opt.summary_percentiles = true;
    } else if (arg == "--trace-capacity") {
      if ((v = next()) == nullptr) return false;
      opt.trace_capacity = static_cast<std::size_t>(std::atoll(v));
    } else if (arg == "--uniform") {
      if ((v = next()) == nullptr) return false;
      opt.uniform_topology = true;
      opt.wan_rtt_ms = std::atof(v);
      // Half the RTT is the lookahead horizon of the sharded event queue;
      // it must be at least one whole microsecond of virtual time, and a
      // sub-millisecond WAN would undercut the 1 ms intra-region RTT.
      if (!(opt.wan_rtt_ms >= 1.0 && opt.wan_rtt_ms <= kMaxSeconds * 1e3)) {
        std::fprintf(stderr, "--uniform wants a finite RTT of at least 1 ms\n");
        return false;
      }
    } else if (arg == "--fault-plan") {
      if ((v = next()) == nullptr) return false;
      opt.fault_plan_path = v;
      std::string error;
      if (!net::FaultPlan::load(opt.fault_plan_path, opt.faults, error)) {
        std::fprintf(stderr, "--fault-plan %s: %s\n", v, error.c_str());
        return false;
      }
    } else if (const char* directive = fault_directive(arg)) {
      if ((v = next()) == nullptr) return false;
      std::string error;
      if (!opt.faults.apply(std::string(directive) + " " + v, error)) {
        std::fprintf(stderr, "%s %s: %s\n", arg.c_str(), v, error.c_str());
        return false;
      }
    } else if (arg == "--wire") {
      opt.wire = true;
    } else if (arg == "--transport") {
      if ((v = next()) == nullptr) return false;
      opt.transport = v;
    } else if (arg == "--transport-port") {
      if ((v = next()) == nullptr) return false;
      const int n = std::atoi(v);
      if (n < 1 || n > 65535) {
        std::fprintf(stderr, "--transport-port wants a port in [1,65535]\n");
        return false;
      }
      opt.transport_port = n;
    } else if (arg == "--verify") {
      opt.verify = true;
    } else if (arg == "--wal") {
      opt.wal = true;
    } else if (arg == "--wal-dir") {
      if ((v = next()) == nullptr) return false;
      opt.wal_dir = v;
      opt.wal = true;
    } else if (arg == "--fsync-ms") {
      if ((v = next()) == nullptr) return false;
      opt.fsync_ms = std::atof(v);
      if (!(opt.fsync_ms >= 0.0 && opt.fsync_ms <= kMaxSeconds * 1e3)) {
        std::fprintf(stderr,
                     "--fsync-ms wants a finite, non-negative latency\n");
        return false;
      }
    } else if (arg == "--wal-batch") {
      if ((v = next()) == nullptr) return false;
      const int n = std::atoi(v);
      if (n < 1) {
        std::fprintf(stderr, "--wal-batch wants a positive count\n");
        return false;
      }
      opt.wal_batch = static_cast<std::uint32_t>(n);
    } else if (arg == "--decision-quorum") {
      if ((v = next()) == nullptr) return false;
      const int n = std::atoi(v);
      if (n < 1) {
        std::fprintf(stderr, "--decision-quorum wants a positive count\n");
        return false;
      }
      opt.decision_quorum = static_cast<std::uint32_t>(n);
      opt.wal = true;
    } else if (arg == "--replica-group") {
      if ((v = next()) == nullptr) return false;
      const int n = std::atoi(v);
      if (n < 1) {
        std::fprintf(stderr, "--replica-group wants a positive count\n");
        return false;
      }
      opt.replica_group = static_cast<std::uint32_t>(n);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
  }
  if (opt.rf == 0) {
    opt.rf = std::min<std::uint32_t>(6, opt.nodes);
  } else if (opt.rf > opt.nodes) {
    std::fprintf(stderr, "--rf %u exceeds --nodes %u\n", opt.rf, opt.nodes);
    return false;
  }
  // base_port + i is a 16-bit port: past 65535 it would wrap to an
  // ephemeral port (0) or a low one.
  if (opt.transport_port != 0 && opt.transport_port + opt.nodes - 1 > 65535) {
    std::fprintf(stderr, "--transport-port %d leaves no port for node %u\n",
                 opt.transport_port, opt.nodes - 1);
    return false;
  }
  return true;
}

protocol::ProtocolConfig protocol_config(const std::string& name, bool& ok) {
  ok = true;
  if (name == "str") return protocol::ProtocolConfig::str();
  if (name == "clocksi") return protocol::ProtocolConfig::clocksi_rep();
  if (name == "ext-spec") return protocol::ProtocolConfig::ext_spec();
  if (name == "str-no-sr") {
    auto c = protocol::ProtocolConfig::str();
    c.speculative_reads = false;
    return c;
  }
  if (name == "physical-sr") {
    protocol::ProtocolConfig c;
    c.speculative_reads = true;
    c.precise_clocks = false;
    return c;
  }
  ok = false;
  return {};
}

harness::WorkloadFactory workload_factory(const std::string& name, bool& ok) {
  ok = true;
  if (name == "synth-a" || name == "synth-b") {
    auto wcfg = name == "synth-a" ? workload::SyntheticConfig::synth_a()
                                  : workload::SyntheticConfig::synth_b();
    return [wcfg](protocol::Cluster& c) {
      return std::make_unique<workload::SyntheticWorkload>(c, wcfg);
    };
  }
  if (name == "tpcc-a" || name == "tpcc-b" || name == "tpcc-c") {
    auto wcfg = name == "tpcc-a"   ? workload::TpccConfig::mix_a()
                : name == "tpcc-b" ? workload::TpccConfig::mix_b()
                                   : workload::TpccConfig::mix_c();
    return [wcfg](protocol::Cluster& c) {
      return std::make_unique<workload::TpccWorkload>(c, wcfg);
    };
  }
  if (name == "rubis") {
    workload::RubisConfig wcfg;
    return [wcfg](protocol::Cluster& c) {
      return std::make_unique<workload::RubisWorkload>(c, wcfg);
    };
  }
  ok = false;
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 1;
  }
  // Validate --wal-dir before spending minutes of simulation on a run whose
  // logs cannot be written (the same fail-fast contract as --trace-out).
  if (!opt.wal_dir.empty()) {
    const std::string probe = opt.wal_dir + "/.wal_probe";
    std::FILE* f = std::fopen(probe.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "--wal-dir %s: not a writable directory\n",
                   opt.wal_dir.c_str());
      return 1;
    }
    std::fclose(f);
    std::remove(probe.c_str());
  }
  // Validate --transport combinations up front, like --wal-dir: a real
  // transport spins up threads and sockets, so misconfigurations must die
  // as usage errors before any of that exists.
  net::TransportKind tkind = net::TransportKind::kDes;
  if (!net::parse_transport(opt.transport, tkind)) {
    std::fprintf(stderr, "--transport wants des | tcp, got %s\n",
                 opt.transport.c_str());
    return 1;
  }
  if (tkind != net::TransportKind::kDes) {
    if (opt.threads > 1) {
      std::fprintf(stderr,
                   "--transport %s requires --threads 1 (the realtime driver "
                   "runs the protocol single-threaded; the loop threads are "
                   "the transport's own)\n",
                   opt.transport.c_str());
      return 1;
    }
    if (!opt.faults.empty()) {
      std::fprintf(stderr,
                   "--transport %s is incompatible with fault directives "
                   "(--drop-prob, --partition, --crash-node, ...): the DES "
                   "owns deterministic fault injection; real transports get "
                   "their faults from real sockets\n",
                   opt.transport.c_str());
      return 1;
    }
  }
  if (opt.transport_port != 0 && tkind != net::TransportKind::kTcp) {
    std::fprintf(stderr, "--transport-port requires --transport tcp\n");
    return 1;
  }
  bool ok = false;
  harness::ExperimentConfig cfg;
  cfg.cluster.num_nodes = opt.nodes;
  cfg.cluster.replication_factor = opt.rf;
  cfg.cluster.topology =
      opt.uniform_topology
          ? net::Topology::symmetric(opt.nodes,
                                     msec(static_cast<std::uint64_t>(
                                         opt.wan_rtt_ms)))
          : (opt.nodes == 9 ? net::Topology::ec2_nine_regions()
                            : net::Topology::symmetric(opt.nodes, msec(100)));
  std::string fault_error;
  if (!opt.faults.fits(opt.nodes, cfg.cluster.topology.num_regions(),
                       fault_error)) {
    std::fprintf(stderr, "faults: %s\n", fault_error.c_str());
    return 1;
  }
  cfg.cluster.protocol = protocol_config(opt.protocol, ok);
  if (!ok) {
    std::fprintf(stderr, "unknown protocol: %s\n", opt.protocol.c_str());
    return 1;
  }
  cfg.cluster.seed = opt.seed;
  cfg.cluster.threads = opt.threads;
  cfg.cluster.faults = opt.faults;
  cfg.cluster.wire_codec = opt.wire;
  cfg.cluster.transport = tkind;
  cfg.cluster.transport_opts.base_port =
      static_cast<std::uint16_t>(opt.transport_port);
  if (opt.wal) {
    auto& d = cfg.cluster.protocol.durability;
    d.wal_enabled = true;
    d.wal_dir = opt.wal_dir;
    d.fsync_latency = static_cast<Timestamp>(opt.fsync_ms * 1e3);
    d.group_commit_batch = opt.wal_batch;
    d.decision_quorum = opt.decision_quorum;
    d.replica_group = opt.replica_group;
    if (d.decision_quorum > opt.nodes) {
      std::fprintf(stderr, "--decision-quorum %u exceeds the cluster size\n",
                   d.decision_quorum);
      return 1;
    }
  }
  if (opt.replica_group != 0 && opt.decision_quorum == 0) {
    std::fprintf(stderr, "--replica-group requires --decision-quorum\n");
    return 1;
  }
  cfg.total_clients = opt.clients;
  cfg.warmup = static_cast<Timestamp>(opt.warmup_s * 1e6);
  cfg.duration = static_cast<Timestamp>(opt.duration_s * 1e6);
  cfg.drain = static_cast<Timestamp>(opt.drain_s * 1e6);
  cfg.self_tuning = opt.tuner;
  cfg.trace_out = opt.trace_out;
  cfg.metrics_out = opt.metrics_out;
  if (opt.trace_capacity != 0) cfg.trace_capacity = opt.trace_capacity;
  cfg.verify = opt.verify;

  auto factory = workload_factory(opt.workload, ok);
  if (!ok) {
    std::fprintf(stderr, "unknown workload: %s\n", opt.workload.c_str());
    return 1;
  }

  // "-" sends an export to stdout; the human-readable report then moves to
  // stderr so piping into trace_analyze (or jq) sees pure JSON.
  std::FILE* rpt =
      opt.trace_out == "-" || opt.metrics_out == "-" ? stderr : stdout;
  const std::string threads_note =
      opt.threads > 1 ? " threads=" + std::to_string(opt.threads) : "";
  const std::string transport_note =
      tkind != net::TransportKind::kDes
          ? " transport=" + std::string(net::to_string(tkind))
          : "";
  std::fprintf(
      rpt,
      "workload=%s protocol=%s nodes=%u rf=%u clients=%u reps=%u%s%s%s%s\n",
      opt.workload.c_str(), opt.protocol.c_str(), opt.nodes,
      cfg.cluster.replication_factor, opt.clients, opt.reps,
      opt.tuner ? " tuner=on" : "", opt.wire ? " wire=on" : "",
      threads_note.c_str(), transport_note.c_str());
  if (opt.wal) {
    const std::string quorum_note =
        opt.decision_quorum != 0
            ? " quorum=" + std::to_string(opt.decision_quorum) + " group=" +
                  std::to_string(
                      cfg.cluster.protocol.durability.group_size())
            : "";
    std::fprintf(rpt, "wal: fsync=%.1fms batch=%u%s%s%s\n", opt.fsync_ms,
                 opt.wal_batch,
                 opt.wal_dir.empty() ? "" : (" dir=" + opt.wal_dir).c_str(),
                 quorum_note.c_str(),
                 opt.faults.storage.any() ? " (torn-write faults on)" : "");
  }
  if (!opt.faults.empty()) {
    std::fprintf(rpt, "faults: %s%s\n", opt.faults.describe().c_str(),
                 opt.verify ? " (verify on)" : "");
  }

  harness::ReplicatedResult agg;
  try {
    agg = harness::run_replicated(cfg, factory, opt.reps);
  } catch (const std::exception& e) {
    // Real transports can fail at the OS level (a busy --transport-port,
    // fd exhaustion); report it as a run failure, not a crash.
    std::fprintf(stderr, "fatal: %s\n", e.what());
    return 1;
  }
  std::fprintf(
      rpt,
      "throughput    %10.1f tps   (std %.1f, cv %.1f%%)\n"
      "final latency %10.1f ms\n"
      "spec latency  %10.1f ms\n"
      "abort rate    %10.1f %%\n"
      "misspec rate  %10.1f %%  ext-misspec %0.1f %%\n",
      agg.throughput.mean(), agg.throughput.stddev(),
      agg.throughput_cv() * 100.0, agg.final_latency_mean.mean() / 1000.0,
      agg.speculative_latency_mean.mean() / 1000.0,
      agg.abort_rate.mean() * 100.0, agg.misspeculation_rate.mean() * 100.0,
      agg.external_misspeculation_rate.mean() * 100.0);
  if (opt.summary_percentiles && !agg.runs.empty()) {
    const auto& res = agg.runs.front();
    std::fprintf(rpt, "final latency percentiles %.1f / %.1f / %.1f ms (p50/p95/p99)\n",
                 static_cast<double>(res.final_latency_p50) / 1000.0,
                 static_cast<double>(res.final_latency_p95) / 1000.0,
                 static_cast<double>(res.final_latency_p99) / 1000.0);
  }
  if (opt.tuner && !agg.runs.empty()) {
    std::fprintf(rpt, "tuner: speculation %s\n",
                 agg.runs.front().speculation_enabled_at_end ? "on" : "off");
  }
  if (!agg.runs.empty()) {
    std::fputc('\n', rpt);
    harness::print_phase_table(opt.workload + " / " + opt.protocol,
                               agg.runs.front().phases, rpt,
                               opt.summary_percentiles);
  }
  const bool exports_ok = agg.runs.empty() || agg.runs.front().exports_ok;
  if (!exports_ok) {
    std::fprintf(stderr, "failed to write trace/metrics output\n");
    return 1;
  }
  if (!opt.trace_out.empty() && opt.trace_out != "-") {
    std::fprintf(rpt, "wrote trace to %s\n", opt.trace_out.c_str());
  }
  if (!opt.metrics_out.empty() && opt.metrics_out != "-") {
    std::fprintf(rpt, "wrote metrics to %s\n", opt.metrics_out.c_str());
  }
  if (!agg.runs.empty() && agg.runs.front().trace_dropped != 0) {
    std::fprintf(stderr,
                 "WARNING: trace.dropped=%llu — raise --trace-capacity or "
                 "shorten the run for complete causal analysis\n",
                 static_cast<unsigned long long>(agg.runs.front().trace_dropped));
  }

  if (!opt.csv.empty()) {
    harness::CsvWriter csv(opt.csv,
                           {"workload", "protocol", "clients", "seed",
                            "throughput_tps", "abort_rate", "misspec_rate",
                            "final_latency_ms", "spec_latency_ms"});
    for (std::size_t r = 0; r < agg.runs.size(); ++r) {
      const auto& res = agg.runs[r];
      csv.write_row({opt.workload, opt.protocol, std::to_string(opt.clients),
                     std::to_string(opt.seed + 7919 * r),
                     std::to_string(res.throughput),
                     std::to_string(res.abort_rate),
                     std::to_string(res.misspeculation_rate),
                     std::to_string(res.final_latency_mean / 1000.0),
                     std::to_string(res.speculative_latency_mean / 1000.0)});
    }
    std::fprintf(rpt, "wrote %zu rows to %s\n", agg.runs.size(),
                 opt.csv.c_str());
  }

  // Chaos-mode verdicts: safety (the SPSI checker) and cleanup (no state
  // leaked past the drain) must both hold under every fault plan.
  int rc = 0;
  if ((!opt.faults.empty() || opt.verify) && !agg.runs.empty()) {
    std::uint64_t violations = 0, leaks = 0;
    for (const auto& res : agg.runs) {
      violations += res.violations.size();
      if (!res.quiesce.clean()) ++leaks;
    }
    const auto& first = agg.runs.front();
    // Transport-level retransmits are a different animal from protocol-level
    // rpc_retries: surface both side by side so a chaos verdict can tell
    // socket recovery from timeout machinery.
    const std::string transport_verdict =
        tkind != net::TransportKind::kDes
            ? " transport_resent=" + std::to_string(first.transport_resent) +
                  " reconnects=" + std::to_string(first.transport_reconnects)
            : "";
    std::fprintf(
        rpt,
        "\nfaults: dropped=%llu duplicated=%llu corrupted=%llu "
        "inversions=%llu\n"
        "recovery: rpc_timeouts=%llu rpc_retries=%llu orphan_aborts=%llu"
        "%s%s\n"
        "quiesce: live=%zu parked=%zu locks=%zu orphans=%zu in_doubt=%zu "
        "down=%zu (perm=%zu)\n",
        static_cast<unsigned long long>(first.net_dropped),
        static_cast<unsigned long long>(first.net_duplicated),
        static_cast<unsigned long long>(first.net_corrupted),
        static_cast<unsigned long long>(first.net_inversions),
        static_cast<unsigned long long>(first.rpc_timeouts),
        static_cast<unsigned long long>(first.rpc_retries),
        static_cast<unsigned long long>(first.orphan_aborts),
        opt.decision_quorum != 0
            ? (" lost_commits=" + std::to_string(first.lost_commits)).c_str()
            : "",
        transport_verdict.c_str(),
        first.quiesce.live_txns, first.quiesce.parked_reads,
        first.quiesce.uncommitted_txns, first.quiesce.orphans,
        first.quiesce.in_doubt, first.quiesce.down_nodes,
        first.quiesce.permanently_down);
    if (first.lost_commits != 0) {
      std::fprintf(stderr,
                   "LOST COMMITS: %llu client-acked commit(s) were aborted "
                   "by recovery\n",
                   static_cast<unsigned long long>(first.lost_commits));
    }
    if (opt.verify) {
      std::fprintf(rpt, "spsi: %llu violation(s)\n",
                   static_cast<unsigned long long>(violations));
      for (const auto& res : agg.runs) {
        for (const std::string& viol : res.violations) {
          std::fprintf(stderr, "SPSI VIOLATION: %s\n", viol.c_str());
        }
      }
    }
    if (leaks != 0) {
      std::fprintf(stderr, "LEAK: %llu run(s) did not quiesce clean\n",
                   static_cast<unsigned long long>(leaks));
    }
    if (violations != 0) {
      rc = 2;
    } else if (leaks != 0) {
      rc = 3;
    } else if (opt.verify && first.lost_commits != 0) {
      // A lost acked commit is a durability-contract violation even when
      // the surviving history is SPSI-clean.
      rc = 4;
    }
  }
  return rc;
}
