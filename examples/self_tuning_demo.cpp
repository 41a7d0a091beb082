// Self-tuning demo (§5.5): run the speculation-hostile Synth-B workload at
// high load and watch the feedback controller measure throughput with
// speculative reads on and off, then lock in the better configuration.

#include <cstdio>
#include <memory>

#include "protocol/cluster.hpp"
#include "tuning/self_tuner.hpp"
#include "workload/client.hpp"
#include "workload/synthetic.hpp"

using namespace str;  // NOLINT

int main() {
  protocol::Cluster::Config cfg;
  cfg.num_nodes = 9;
  cfg.replication_factor = 6;
  cfg.topology = net::Topology::ec2_nine_regions();
  cfg.protocol = protocol::ProtocolConfig::str();
  protocol::Cluster cluster(cfg);

  workload::SyntheticConfig wcfg = workload::SyntheticConfig::synth_b();
  workload::SyntheticWorkload wl(cluster, wcfg);
  wl.load(cluster);

  auto pool = workload::ClientPool::with_total(cluster, wl, 240);
  pool.start_all();

  tuning::SelfTunerConfig tcfg;
  tcfg.interval = sec(8);
  tcfg.settle = sec(2);
  tcfg.initial_delay = sec(2);
  tuning::SelfTuner tuner(cluster, tcfg);
  tuner.start();

  std::printf("Synth-B, 240 clients, 9 regions. Tuner trial running...\n");
  std::uint64_t prev = 0;
  for (int s = 1; s <= 26; ++s) {
    cluster.run_for(sec(1));
    const auto total = cluster.lifetime_commits();
    std::printf("t=%2ds  %4llu commits/s  speculation=%s%s\n", s,
                static_cast<unsigned long long>(total - prev),
                cluster.flags().speculation_enabled ? "on " : "off",
                tuner.decided() && s == 0 ? "" : "");
    prev = total;
  }

  std::printf("\ntuner decision: speculation %s (after %u trial%s)\n",
              tuner.speculation_chosen() ? "ENABLED" : "DISABLED",
              tuner.trials_run(), tuner.trials_run() == 1 ? "" : "s");
  pool.request_stop_all();
  cluster.run_for(sec(3));
  return 0;
}
