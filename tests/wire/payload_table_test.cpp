// Update-list sharing on the wire path (wire/payload_table.hpp): frames
// that carry one list decode to one list, a list the sender recorded is
// handed back whole, read replies resolve to the writer's payload, bytes
// that differ never share, the sweep drops entries once lists are freed,
// and forget drops a finished writer's entry. The cluster tests check the
// end result: every prepare and replicate of a replicated write decodes to
// the coordinator's list, every replica's committed version aliases the
// coordinator's payload in wire mode, as it always has in closure mode,
// and the table keeps no entry for the write.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "protocol/cluster.hpp"
#include "protocol/partition_map.hpp"
#include "tests/protocol/test_util.hpp"
#include "wire/dispatch.hpp"
#include "wire/messages.hpp"

namespace str::wire {
namespace {

using protocol::Cluster;
using protocol::ProtocolConfig;

const TxId kWriter{2, 0x77};
constexpr PartitionId kPartition = 1;
const Key kKey = protocol::PartitionMap::make_key(kPartition, 0x1000);
const Key kOtherKey = protocol::PartitionMap::make_key(kPartition, 0x2000);

/// A fresh allocation each call, as every sender or receiver would make.
SharedValue fresh(const std::string& bytes) {
  return std::make_shared<const Value>(bytes);
}

protocol::SharedUpdates updates_of(SharedValue a, SharedValue b) {
  auto list = std::make_shared<protocol::UpdateList>();
  list->emplace_back(kKey, std::move(a));
  list->emplace_back(kOtherKey, std::move(b));
  return list;
}

protocol::PrepareRequest prepare(const protocol::SharedUpdates& updates,
                                 const TxId& writer = kWriter) {
  return protocol::PrepareRequest{writer, 2, kPartition, 100, updates};
}

protocol::ReplicateRequest replicate(const protocol::SharedUpdates& updates) {
  return protocol::ReplicateRequest{kWriter, 2, kPartition, 100, updates};
}

protocol::ReadReply read_reply(const TxId& writer, SharedValue value) {
  protocol::ReadReply rr;
  rr.reader = TxId{4, 9};
  rr.req_id = 3;
  rr.key = kKey;
  rr.found = true;
  rr.value = std::move(value);
  rr.writer = writer;
  rr.version_ts = 50;
  return rr;
}

/// Decode one frame of type M through `payloads`.
template <class M>
M decode(const Buffer& frame, PayloadTable& payloads) {
  AnyMessage out;
  EXPECT_EQ(decode_frame(frame.data(), frame.size(), out, payloads),
            DecodeStatus::kOk);
  EXPECT_TRUE(std::holds_alternative<M>(out));
  return std::get<M>(out);
}

TEST(PayloadTable, TwoFramesCarryingOneWriteDecodeToOnePayload) {
  PayloadTable payloads;
  // The master's prepare and a slave's replicate carry the same write;
  // each sender serialized its own copy of the bytes.
  const auto prep = decode<protocol::PrepareRequest>(
      encode_frame(prepare(updates_of(fresh("alpha"), fresh("beta")))),
      payloads);
  const auto repl = decode<protocol::ReplicateRequest>(
      encode_frame(replicate(updates_of(fresh("alpha"), fresh("beta")))),
      payloads);
  ASSERT_EQ(prep.updates->size(), 2u);
  ASSERT_EQ(repl.updates->size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ((*prep.updates)[i].second, (*repl.updates)[i].second) << i;
  }
  // The first decode recorded its list, and the second is handed it whole.
  EXPECT_EQ(prep.updates, repl.updates);
  EXPECT_EQ(*(*prep.updates)[0].second, "alpha");
  EXPECT_EQ(*(*prep.updates)[1].second, "beta");
  // A duplicated delivery of the same frame resolves to it too.
  const auto dup = decode<protocol::PrepareRequest>(
      encode_frame(prepare(updates_of(fresh("alpha"), fresh("beta")))),
      payloads);
  EXPECT_EQ((*dup.updates)[0].second, (*prep.updates)[0].second);
  EXPECT_EQ(payloads.size(), 1u);  // one entry per list
}

TEST(PayloadTable, SameWriteWithOtherBytesDecodesToTwoPayloads) {
  PayloadTable payloads;
  const auto first = decode<protocol::PrepareRequest>(
      encode_frame(prepare(updates_of(fresh("alpha"), fresh("beta")))),
      payloads);
  const auto second = decode<protocol::PrepareRequest>(
      encode_frame(prepare(updates_of(fresh("ALPHA"), fresh("beta")))),
      payloads);
  // Same (tx, partition), different bytes: two lists, and two payloads of
  // the changed write, each with its own bytes.
  EXPECT_NE(first.updates, second.updates);
  EXPECT_NE((*first.updates)[0].second, (*second.updates)[0].second);
  EXPECT_EQ(*(*first.updates)[0].second, "alpha");
  EXPECT_EQ(*(*second.updates)[0].second, "ALPHA");
  // The unchanged write still shares.
  EXPECT_EQ((*first.updates)[1].second, (*second.updates)[1].second);
  // Same bytes under another write identity: never looked up, so not shared.
  const auto other_key = decode<protocol::ReadReply>(
      encode_frame(read_reply(TxId{2, 0x78}, fresh("beta"))), payloads);
  EXPECT_NE(other_key.value, (*first.updates)[1].second);
  EXPECT_EQ(*other_key.value, "beta");
}

TEST(PayloadTable, PayloadRecordedByPostIsReused) {
  Cluster::Config cfg =
      test::small_config(3, 2, ProtocolConfig::str(), msec(50), 3);
  cfg.wire_codec = true;
  Cluster cluster(cfg);
  const SharedValue sent = fresh("coordinator-bytes");
  const auto updates = updates_of(sent, nullptr);
  // The coordinator's prepare: post records its list before encoding.
  post(cluster, 2, 1, prepare(updates));
  EXPECT_EQ(cluster.payloads().size(), 1u);  // one entry for the list
  // Any receiver of that write — here a replicate from the master, which
  // serialized a copy — resolves to the sender's allocation.
  const auto copy = updates_of(fresh("coordinator-bytes"), nullptr);
  const auto got = decode<protocol::ReplicateRequest>(
      encode_frame(replicate(copy)), cluster.payloads());
  EXPECT_EQ(got.updates, updates);  // the list itself, absent value and all
  EXPECT_EQ((*got.updates)[0].second, sent);
  EXPECT_EQ((*got.updates)[1].second, nullptr);
}

/// Every prepare and replicate frame `cluster` delivers, decoded to note
/// its update list and then dispatched as the cluster's own handler does.
struct ListSpy {
  explicit ListSpy(Cluster& cluster) {
    cluster.network().set_frame_handler(
        [this, &cluster](NodeId to, const std::uint8_t* data,
                         std::size_t size) {
          AnyMessage m;
          if (decode_frame(data, size, m, cluster.payloads()) ==
              DecodeStatus::kOk) {
            std::visit(
                [this](const auto& msg) {
                  if constexpr (requires { msg.updates; }) {
                    lists.push_back(msg.updates);
                  }
                },
                m);
          }
          return dispatch_frame(cluster, to, data, size) == DecodeStatus::kOk;
        });
  }
  std::vector<protocol::SharedUpdates> lists;
};

TEST(PayloadTable, FanOutLegsDecodeToTheSendersList) {
  Cluster::Config cfg =
      test::small_config(3, 2, ProtocolConfig::str(), msec(50), 3);
  cfg.wire_codec = true;
  Cluster cluster(cfg);
  std::vector<const protocol::UpdateList*> lists;
  cluster.network().set_frame_handler(
      [&](NodeId, const std::uint8_t* data, std::size_t size) {
        const auto m = decode<protocol::ReplicateRequest>(
            Buffer(data, data + size), cluster.payloads());
        lists.push_back(m.updates.get());
        return true;
      });
  const auto sent = updates_of(fresh("a"), fresh("b"));
  const NodeId legs[] = {0, 1};
  post_fanout(cluster, 2, legs, replicate(sent));
  cluster.run_for(sec(1));
  // Both legs hold the coordinator's list object, as closure mode does.
  ASSERT_EQ(lists.size(), 2u);
  EXPECT_EQ(lists[0], sent.get());
  EXPECT_EQ(lists[1], sent.get());
  // A frame with other bytes for the same (writer, partition) decodes to
  // its own bytes; the unchanged write still shares the sender's payload.
  const auto other = decode<protocol::ReplicateRequest>(
      encode_frame(replicate(updates_of(fresh("A"), fresh("b")))),
      cluster.payloads());
  EXPECT_NE(other.updates, sent);
  EXPECT_EQ(*(*other.updates)[0].second, "A");
  EXPECT_EQ(*(*sent)[0].second, "a");
  EXPECT_EQ((*other.updates)[1].second, (*sent)[1].second);
  // The sender's list stays recorded: the next leg still gets it.
  EXPECT_EQ(cluster.payloads().find(kWriter, kPartition), sent);
}

TEST(PayloadTable, ReadReplyResolvesToTheStoredVersionsPayload) {
  PayloadTable payloads;
  // A replica stores the payload its replicate decoded to (the list is
  // recorded under the key's partition)...
  const auto repl = decode<protocol::ReplicateRequest>(
      encode_frame(replicate(updates_of(fresh("stored"), fresh("x")))),
      payloads);
  const SharedValue stored = (*repl.updates)[0].second;
  // ...and serves a read of it: the reply names the version's writer, whose
  // identity follows the value on the wire.
  const auto rr = decode<protocol::ReadReply>(
      encode_frame(read_reply(kWriter, fresh("stored"))), payloads);
  EXPECT_EQ(rr.value, stored);
  EXPECT_EQ(rr.writer, kWriter);
  EXPECT_EQ(rr.version_ts, 50u);
  // A reply for a version by another writer gets a payload of its own.
  const auto other = decode<protocol::ReadReply>(
      encode_frame(read_reply(TxId{5, 1}, fresh("stored"))), payloads);
  EXPECT_NE(other.value, stored);
  EXPECT_EQ(*other.value, "stored");
  // An absent value stays absent.
  const auto absent = decode<protocol::ReadReply>(
      encode_frame(read_reply(kWriter, nullptr)), payloads);
  EXPECT_EQ(absent.value, nullptr);
}

TEST(PayloadTable, SweepEmptiesTheTableOnceThePayloadsAreFreed) {
  PayloadTable payloads;
  protocol::SharedUpdates kept;
  {
    const auto prep = decode<protocol::PrepareRequest>(
        encode_frame(prepare(updates_of(fresh("a"), fresh("b")))), payloads);
    const auto other = decode<protocol::PrepareRequest>(
        encode_frame(prepare(updates_of(fresh("c"), nullptr), TxId{7, 7})),
        payloads);
    const auto rr = decode<protocol::ReadReply>(
        encode_frame(read_reply(TxId{9, 9}, fresh("d"))), payloads);
    EXPECT_EQ(payloads.size(), 2u);  // two lists; the reply records nothing
    payloads.sweep();  // every list is still held
    EXPECT_EQ(payloads.size(), 2u);
    kept = prep.updates;
  }
  payloads.sweep();  // only the first list is still held
  EXPECT_EQ(payloads.size(), 1u);
  {
    // The surviving entry still resolves.
    const auto again = decode<protocol::PrepareRequest>(
        encode_frame(prepare(updates_of(fresh("a"), fresh("b")))), payloads);
    EXPECT_EQ((*again.updates)[1].second, (*kept)[1].second);
  }
  kept.reset();
  payloads.sweep();
  EXPECT_EQ(payloads.size(), 0u);
}

TEST(PayloadTable, ForgetDropsOnlyThatWritersEntries) {
  PayloadTable payloads;
  const auto mine = decode<protocol::PrepareRequest>(
      encode_frame(prepare(updates_of(fresh("a"), fresh("b")))), payloads);
  const auto other = decode<protocol::PrepareRequest>(
      encode_frame(prepare(updates_of(fresh("c"), nullptr), TxId{7, 7})),
      payloads);
  ASSERT_EQ(payloads.size(), 2u);
  payloads.forget(kWriter, kPartition);
  EXPECT_EQ(payloads.size(), 1u);  // only the other writer's entry is left
  // A late frame of the forgotten write decodes to a copy of its own,
  // with the same bytes, even though the first list is still alive.
  const auto late = decode<protocol::PrepareRequest>(
      encode_frame(prepare(updates_of(fresh("a"), fresh("b")))), payloads);
  EXPECT_NE((*late.updates)[0].second, (*mine.updates)[0].second);
  EXPECT_EQ(*(*late.updates)[0].second, "a");
  EXPECT_NE(other.updates, nullptr);
}

// -- cluster ------------------------------------------------------------------

/// Commit one write to key_at(1, 4) from a coordinator on a slave replica
/// of that partition (so the write takes both the prepare to the master and
/// the master's replicate fan-out), and return each replica's payload of
/// the committed version together with the coordinator's own.
struct CommittedPayloads {
  std::vector<const Value*> replicas;
  const Value* coordinator = nullptr;
  std::size_t table_entries = 0;  ///< after a sweep, the payload still alive
};

CommittedPayloads commit_one_write(bool wire) {
  Cluster::Config cfg =
      test::small_config(5, 4, ProtocolConfig::str(), msec(50), 21);
  cfg.wire_codec = wire;
  Cluster cluster(cfg);
  std::unique_ptr<ListSpy> spy;
  if (wire) spy = std::make_unique<ListSpy>(cluster);
  const Key key = test::key_at(1, 4);
  const PartitionId pid = protocol::PartitionMap::partition_of(key);
  cluster.load(key, "seed");
  const std::vector<NodeId>& replicas = cluster.pmap().replicas(pid);
  const NodeId master = cluster.pmap().master(pid);
  NodeId coord = master;
  for (NodeId n : replicas) {
    if (n != master) coord = n;
  }
  EXPECT_NE(coord, master);
  cluster.run_for(msec(10));
  test::TxProbe w;
  test::run_write(cluster, cluster.node(coord).coordinator(), {key},
                  std::string(64, 'w'), w);
  cluster.run_for(sec(2));
  EXPECT_TRUE(w.done);
  EXPECT_EQ(w.result.outcome, TxOutcome::Committed);
  CommittedPayloads out;
  for (NodeId n : replicas) {
    const store::StoreReadResult r =
        cluster.node(n).replica(pid)->store().peek(key, kTsInfinity);
    EXPECT_EQ(r.kind, store::ReadKind::Committed) << "node " << n;
    EXPECT_EQ(r.writer, w.tx) << "node " << n;
    EXPECT_EQ(r.value_str(), std::string(64, 'w')) << "node " << n;
    out.replicas.push_back(r.value.get());
    if (n == coord) out.coordinator = r.value.get();
  }
  if (wire) {
    // The prepare to the master and the master's replicates to the two
    // other slaves all decoded to one list: the coordinator's.
    EXPECT_EQ(spy->lists.size(), 3u);
    for (const protocol::SharedUpdates& list : spy->lists) {
      EXPECT_EQ(list, spy->lists.front());
      EXPECT_TRUE(list != nullptr &&
                  list->front().second.get() == out.coordinator);
    }
  }
  cluster.payloads().sweep();
  out.table_entries = cluster.payloads().size();
  return out;
}

TEST(PayloadTable, EveryReplicaHoldsTheCoordinatorsPayloadInBothModes) {
  for (const bool wire : {false, true}) {
    const CommittedPayloads p = commit_one_write(wire);
    ASSERT_EQ(p.replicas.size(), 4u);
    ASSERT_NE(p.coordinator, nullptr);
    for (std::size_t i = 0; i < p.replicas.size(); ++i) {
      EXPECT_EQ(p.replicas[i], p.coordinator)
          << (wire ? "wire" : "closure") << " mode, replica " << i;
    }
    // The table holds writes in flight only: the committed write's entry is
    // gone although its payload lives on in four versions.
    EXPECT_EQ(p.table_entries, 0u) << (wire ? "wire" : "closure") << " mode";
  }
}

TEST(PayloadTable, LoadedRowsShareOnePayloadAcrossReplicas) {
  Cluster cluster(test::small_config(4, 3, ProtocolConfig::str()));
  const Key key = test::key_at(2, 1);
  const PartitionId pid = protocol::PartitionMap::partition_of(key);
  cluster.load(key, std::string(40, 'r'));
  const Value* first = nullptr;
  for (NodeId n : cluster.pmap().replicas(pid)) {
    const store::StoreReadResult r =
        cluster.node(n).replica(pid)->store().peek(key, kTsInfinity);
    ASSERT_EQ(r.value_str(), std::string(40, 'r'));
    if (first == nullptr) first = r.value.get();
    EXPECT_EQ(r.value.get(), first) << "node " << n;
  }
}

}  // namespace
}  // namespace str::wire
