// A single timestamped version of a data item.
#pragma once

#include <utility>

#include "common/types.hpp"

namespace str::store {

/// 40 B on LP64: the writer's TxId is stored as its two fields so the
/// state byte packs into the node id's padding (a TxId member would cost
/// 16 B plus 7 B of padding after the state).
struct Version {
  Version() = default;
  Version(Timestamp version_ts, VersionState version_state,
          const TxId& version_writer, SharedValue payload)
      : ts(version_ts),
        writer_seq(version_writer.seq),
        writer_node(version_writer.node),
        state(version_state),
        value(std::move(payload)) {}

  TxId writer() const { return TxId{writer_node, writer_seq}; }

  /// Meaning depends on state: proposed prepare timestamp (PreCommitted),
  /// local-commit timestamp LC (LocalCommitted), or final-commit timestamp
  /// FC (Committed).
  Timestamp ts = 0;
  std::uint64_t writer_seq = kNoTx.seq;
  NodeId writer_node = kNoTx.node;
  VersionState state = VersionState::Committed;
  /// Shared with the update list the version was inserted from (and with
  /// every replica's chain): storing a version never copies the payload.
  SharedValue value;
};

}  // namespace str::store
