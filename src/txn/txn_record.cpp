#include "txn/txn_record.hpp"

#include <algorithm>

namespace str::txn {

void TxnRecord::add_dependent(const TxId& reader) {
  if (std::find(dependents.begin(), dependents.end(), reader) ==
      dependents.end()) {
    dependents.push_back(reader);
  }
}

void TxnRecord::reset() {
  id = TxId{};
  origin = kInvalidNode;
  rs = 0;
  phase = TxnPhase::Active;
  abort_reason = AbortReason::None;
  lc = 0;
  fc = 0;
  first_activation = 0;
  attempt_start = 0;
  first_read_ready_at = 0;
  gate_stall_total = 0;
  commit_requested_at = 0;
  cert_at = 0;
  visible_at = 0;
  prepares_sent_at = 0;
  prepares_done_at = 0;
  dep_wait_start = 0;
  trace_span = 0;
  leg_spans.clear();
  writes.clear();
  local_parts.clear();
  remote_parts.clear();
  cache_writes.clear();
  olc_set.clear();
  ffc = 0;
  unresolved_deps.clear();
  snapshot_lc_writers.clear();
  dependents.clear();
  commit_requested = false;
  unsafe_txn = false;
  awaiting_prepares = 0;
  max_proposed_ts = 0;
  remote_replica_nodes.clear();
  externalized = false;
  externalized_at = 0;
  wal_decision_end = 0;
  prepare_expected.clear();
  prepare_acks.clear();
  prepare_attempts = 0;
  prepare_round = 0;
  gate_waiters.clear();
  outstanding_reads.clear();
  outcome_waiters.clear();
}

}  // namespace str::txn
