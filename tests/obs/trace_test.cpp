#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include "obs/export.hpp"

namespace str::obs {
namespace {

TraceEvent ev(Timestamp at, std::uint64_t seq,
              TraceEventType type = TraceEventType::ReadIssued) {
  TraceEvent e;
  e.at = at;
  e.tx = TxId{0, seq};
  e.node = 0;
  e.type = type;
  e.a = seq;
  return e;
}

TEST(Tracer, DisabledByDefaultAndDropsEverything) {
  Tracer t(8);
  EXPECT_FALSE(t.enabled());
  t.emit(ev(1, 1));
  EXPECT_EQ(t.emitted(), 0u);
  EXPECT_EQ(t.size(), 0u);
}

TEST(Tracer, RingOverflowKeepsNewestAndCountsDropped) {
  Tracer t(4);
  t.set_enabled(true);
  for (std::uint64_t i = 1; i <= 10; ++i) t.emit(ev(i, i));
  EXPECT_EQ(t.emitted(), 10u);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped(), 6u);
  // Snapshot is chronological and holds the newest four events.
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(snap[i].at, static_cast<Timestamp>(7 + i));
  }
}

TEST(Tracer, SnapshotBeforeWrapIsInEmissionOrder) {
  Tracer t(8);
  t.set_enabled(true);
  for (std::uint64_t i = 1; i <= 3; ++i) t.emit(ev(i, i));
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap.front().at, 1u);
  EXPECT_EQ(snap.back().at, 3u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(Tracer, ShrinkingCapacityKeepsNewest) {
  Tracer t(8);
  t.set_enabled(true);
  for (std::uint64_t i = 1; i <= 6; ++i) t.emit(ev(i, i));
  t.set_capacity(2);
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].at, 5u);
  EXPECT_EQ(snap[1].at, 6u);
  // The rebuilt ring keeps wrapping correctly.
  t.emit(ev(7, 7));
  const auto snap2 = t.snapshot();
  ASSERT_EQ(snap2.size(), 2u);
  EXPECT_EQ(snap2[0].at, 6u);
  EXPECT_EQ(snap2[1].at, 7u);
}

TEST(Tracer, RecordSpanAllocatesItsIdAndRecordsOnlyWhenEnabled) {
  Tracer t(8);
  const TxId tx{1, 7};
  EXPECT_EQ(t.record_span(0, tx, 1, SpanKind::Probe, 5, 5, 10, 2), 0u);
  EXPECT_EQ(t.spans_emitted(), 0u);

  t.set_enabled(true);
  const std::uint64_t parent = t.next_span_id();
  const std::uint64_t id =
      t.record_span(parent, tx, 1, SpanKind::Handle, 5, 9, 10, 2);
  EXPECT_EQ(id, parent + 1);
  const auto spans = t.span_snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0],
            (SpanRecord{id, parent, tx, 1, SpanKind::Handle, 5, 9, 10, 2}));
}

TEST(Tracer, ClearResetsEverything) {
  Tracer t(4);
  t.set_enabled(true);
  for (std::uint64_t i = 1; i <= 6; ++i) t.emit(ev(i, i));
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.emitted(), 0u);
  t.emit(ev(9, 9));
  EXPECT_EQ(t.snapshot().front().at, 9u);
}

TEST(ChromeTrace, ContainsSpansInstantsAndTrackMetadata) {
  Tracer t(64);
  t.set_enabled(true);
  TraceEvent begin = ev(100, 1, TraceEventType::TxBegin);
  begin.a = 99;  // rs
  t.emit(begin);
  TraceEvent ready = ev(150, 1, TraceEventType::ReadReady);
  ready.a = 7;  // key
  ready.b = 1;  // speculative
  t.emit(ready);
  TraceEvent commit = ev(200, 1, TraceEventType::TxCommit);
  commit.a = 205;
  commit.b = 105;
  t.emit(commit);

  const std::string json = chrome_trace_json(t, 2);
  // Async span on the transaction id, open at begin and closed at commit.
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"0.1\""), std::string::npos);
  // Lifecycle instant with its semantic payload names.
  EXPECT_NE(json.find("\"name\":\"read_ready\""), std::string::npos);
  EXPECT_NE(json.find("\"speculative\":1"), std::string::npos);
  // One named track per node, even for nodes without events.
  EXPECT_NE(json.find("\"name\":\"node 0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"node 1\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\":0"), std::string::npos);
}

TEST(ChromeTrace, AbortEventsNameTheReason) {
  Tracer t(8);
  t.set_enabled(true);
  TraceEvent abort = ev(10, 2, TraceEventType::TxAbort);
  abort.a = static_cast<std::uint64_t>(AbortReason::Misspeculation);
  t.emit(abort);
  const std::string json = chrome_trace_json(t, 1);
  EXPECT_NE(json.find("misspeculation"), std::string::npos);
}

TEST(MetricsExport, JsonAndCsvCoverAllInstrumentKinds) {
  Registry reg;
  reg.counter("txn.commits").inc(3);
  reg.gauge("txn.live").set(-1);
  reg.timer("phase.lock_hold").record(500);

  const std::string json = metrics_json(
      reg, {{"throughput_tx_per_sec", "123.400"}});
  EXPECT_NE(json.find("\"txn.commits\":3"), std::string::npos);
  EXPECT_NE(json.find("\"txn.live\":-1"), std::string::npos);
  EXPECT_NE(json.find("\"phase.lock_hold\""), std::string::npos);
  EXPECT_NE(json.find("\"throughput_tx_per_sec\":123.400"), std::string::npos);

  const std::string csv = metrics_csv(reg);
  EXPECT_NE(csv.find("counter,txn.commits,,3"), std::string::npos);
  EXPECT_NE(csv.find("gauge,txn.live,,-1"), std::string::npos);
  EXPECT_NE(csv.find("timer,phase.lock_hold,1"), std::string::npos);
}

}  // namespace
}  // namespace str::obs
