// Shared helpers for protocol-level tests: small cluster factories and
// canned transactions, each a parameterized coroutine begun on its
// coordinator's shard.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "protocol/cluster.hpp"
#include "protocol/coordinator.hpp"
#include "sim/coro.hpp"

namespace str::test {

/// `prefix` followed by the decimal `n` ("v", 3 gives "v3"). Appended
/// piecewise: GCC 12 at -O3 reports a false -Wrestrict inside
/// `"literal" + std::to_string(n)`.
inline std::string numbered(const char* prefix, std::uint64_t n) {
  return std::string(prefix).append(std::to_string(n));
}

/// Symmetric-WAN cluster: n nodes in n regions, `rtt` apart, rf replicas.
inline protocol::Cluster::Config small_config(
    std::uint32_t nodes, std::uint32_t rf, protocol::ProtocolConfig proto,
    Timestamp rtt = msec(100), std::uint64_t seed = 1) {
  protocol::Cluster::Config cfg;
  cfg.num_nodes = nodes;
  cfg.partitions_per_node = 1;
  cfg.replication_factor = rf;
  cfg.topology = net::Topology::symmetric(nodes, rtt);
  cfg.protocol = proto;
  cfg.seed = seed;
  cfg.jitter_frac = 0.0;       // exact latencies for assertions
  cfg.max_clock_skew = 0;      // perfectly synchronized unless a test opts in
  return cfg;
}

/// Key `row` in the partition mastered at node `n` (partitions_per_node=1).
inline Key key_at(NodeId n, std::uint64_t row) {
  return protocol::PartitionMap::make_key(n, row);
}

/// Observations collected by the canned transaction bodies.
struct TxProbe {
  TxId tx;
  bool done = false;  ///< final outcome delivered
  txn::TxFinalResult result;
  std::vector<txn::ReadResult> reads;
  Timestamp finished_at = 0;
};

/// Await the outcome separately from driving the body, as a client would.
inline sim::Fiber watch_outcome(protocol::Cluster& cluster,
                                protocol::Coordinator& coord, TxId tx,
                                TxProbe& probe) {
  probe.result = co_await coord.outcome_future(tx);
  probe.done = true;
  probe.finished_at = cluster.now();
}

namespace detail {

inline sim::Fiber rmw_body(protocol::Cluster& cluster,
                           protocol::Coordinator& coord, std::vector<Key> keys,
                           Value val, TxProbe& probe) {
  probe.tx = coord.begin();
  watch_outcome(cluster, coord, probe.tx, probe);
  for (Key k : keys) {
    auto r = co_await coord.read(probe.tx, k);
    probe.reads.push_back(r);
    if (r.aborted) co_return;
    coord.write(probe.tx, k, val);
  }
  coord.commit(probe.tx);
}

inline sim::Fiber reads_body(protocol::Cluster& cluster,
                             protocol::Coordinator& coord,
                             std::vector<Key> keys, TxProbe& probe) {
  probe.tx = coord.begin();
  watch_outcome(cluster, coord, probe.tx, probe);
  for (Key k : keys) {
    auto r = co_await coord.read(probe.tx, k);
    probe.reads.push_back(r);
    if (r.aborted) co_return;
  }
  coord.commit(probe.tx);
}

/// Run `start` on the shard of the node whose coordinator `coord` is, as
/// workload::Client does: called between run_for calls, the transaction
/// then begins at that node's clock, not at shard 0's.
inline void on_coordinator(protocol::Cluster& cluster,
                           const protocol::Coordinator& coord,
                           const std::function<void()>& start) {
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    if (&cluster.node(n).coordinator() == &coord) {
      cluster.run_on_node(n, start);
      return;
    }
  }
  STR_ASSERT_MSG(false, "a coordinator of no node of this cluster");
}

}  // namespace detail

/// Read-modify-write over `keys`: read each, then write `val`.
inline void run_rmw(protocol::Cluster& cluster, protocol::Coordinator& coord,
                    std::vector<Key> keys, Value val, TxProbe& probe) {
  detail::on_coordinator(cluster, coord, [&] {
    detail::rmw_body(cluster, coord, std::move(keys), std::move(val), probe);
  });
}

/// Read-only transaction over `keys`.
inline void run_reads(protocol::Cluster& cluster, protocol::Coordinator& coord,
                      std::vector<Key> keys, TxProbe& probe) {
  detail::on_coordinator(cluster, coord, [&] {
    detail::reads_body(cluster, coord, std::move(keys), probe);
  });
}

/// Blind write (no reads).
inline void run_write(protocol::Cluster& cluster, protocol::Coordinator& coord,
                      std::vector<Key> keys, Value val, TxProbe& probe) {
  detail::on_coordinator(cluster, coord, [&] {
    probe.tx = coord.begin();
    watch_outcome(cluster, coord, probe.tx, probe);
    for (Key k : keys) coord.write(probe.tx, k, val);
    coord.commit(probe.tx);
  });
}

}  // namespace str::test
