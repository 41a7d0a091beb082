#include "storage/medium.hpp"

#include <cstdio>
#include <span>
#include <utility>

#include "common/assert.hpp"

namespace str::storage {

namespace {

/// Crash-time resolution of an in-flight sync chunk: returns the bytes that
/// reach the platter. Without a torn-write fault the whole chunk is lost
/// (the classic all-or-nothing fsync model). With one, a uniformly-random
/// nonempty prefix persists — and half the time one bit of that prefix is
/// flipped, so replay must rely on the frame checksum, not just the length
/// prefix, to find the valid end. The prefix may be the entire chunk:
/// durable-but-unacknowledged is a real outcome the recovery path has to
/// handle. The prefix is flattened before the flip, so the payloads the
/// chunk shares with the store are never written through.
LogBuffer resolve_torn_tail(const LogBuffer& inflight,
                            const TornWriteFault& torn) {
  if (inflight.empty() || torn.prob <= 0.0 || torn.rng == nullptr) return {};
  if (!torn.rng->chance(torn.prob)) return {};
  const auto keep = static_cast<std::size_t>(
      torn.rng->uniform_range(1, inflight.size()));
  wire::Buffer tail = inflight.flatten(keep);
  if (torn.rng->chance(0.5)) {
    const auto pos = static_cast<std::size_t>(torn.rng->uniform(keep));
    tail[pos] ^= static_cast<std::uint8_t>(1u << torn.rng->uniform(8));
  }
  return LogBuffer(std::move(tail));
}

}  // namespace

std::size_t Medium::held_bytes() const {
  const DurableChunks& chunks = durable_chunks();
  std::size_t held = chunks.capacity() * sizeof(LogBuffer);
  for (const LogBuffer& chunk : chunks) held += chunk.held_bytes();
  return held;
}

SimMedium::SimMedium(sim::Scheduler* sched, Timestamp fsync_latency,
                     TornWriteFault torn)
    : sched_(sched), fsync_latency_(fsync_latency), torn_(torn) {}

void SimMedium::append(LogBuffer frame) { pending_.append(std::move(frame)); }

void SimMedium::sync(UniqueFunction<void()> done) {
  STR_ASSERT_MSG(!syncing_, "Medium::sync while a sync is in flight");
  inflight_ = std::exchange(pending_, {});
  done_ = std::move(done);
  syncing_ = true;
  if (sched_ == nullptr) {
    complete_sync();
    return;
  }
  sched_->schedule_after(fsync_latency_, [this, epoch = epoch_]() {
    if (epoch != epoch_) return;  // crashed (and maybe restarted) meanwhile
    complete_sync();
  });
}

void SimMedium::complete_sync() {
  push_durable(std::exchange(inflight_, {}), /*coalesce=*/true);
  syncing_ = false;
  UniqueFunction<void()> done = std::move(done_);
  done_ = {};
  if (done) done();
}

void SimMedium::push_durable(LogBuffer chunk, bool coalesce) {
  durable_size_ += chunk.size();
  on_durable_appended(chunk);
  if (chunk.empty()) return;
  if (coalesce && chunk.slices().empty() && !chunks_.empty() &&
      chunks_.back().slices().empty()) {
    chunks_.back().append(std::move(chunk));
  } else {
    chunks_.push_back(std::move(chunk));
  }
}

void SimMedium::adopt_durable(LogBuffer bytes) {
  chunks_.clear();
  durable_size_ = bytes.size();
  if (!bytes.empty()) chunks_.push_back(std::move(bytes));
}

void SimMedium::reset_durable(LogBuffer bytes) {
  STR_ASSERT_MSG(!syncing_ && pending_.empty(),
                 "reset_durable on a busy medium");
  adopt_durable(std::move(bytes));
  on_durable_reset();
}

void SimMedium::truncate_durable(std::size_t size) {
  STR_ASSERT_MSG(!syncing_ && pending_.empty(),
                 "truncate_durable on a busy medium");
  STR_ASSERT_MSG(size <= durable_size_, "truncate_durable past the end");
  std::size_t kept = 0;
  std::size_t whole = 0;  // chunks that end at or before the cut
  while (whole < chunks_.size() && kept + chunks_[whole].size() <= size) {
    kept += chunks_[whole].size();
    ++whole;
  }
  if (kept < size) chunks_[whole++].truncate(size - kept);
  chunks_.erase(chunks_.begin() + static_cast<std::ptrdiff_t>(whole),
                chunks_.end());
  durable_size_ = size;
  on_durable_reset();
}

void SimMedium::crash() {
  ++epoch_;
  pending_ = {};
  done_ = {};
  if (!syncing_) return;
  syncing_ = false;
  push_durable(resolve_torn_tail(std::exchange(inflight_, {}), torn_),
               /*coalesce=*/false);
}

namespace {

/// Write the logical bytes of `chunks` in order to `path`, opened with
/// fopen `mode`. False on any I/O failure.
bool write_chunks(const std::string& path, const char* mode,
                  std::span<const LogBuffer> chunks) {
  std::FILE* f = std::fopen(path.c_str(), mode);
  if (f == nullptr) return false;
  bool ok = true;
  for (const LogBuffer& chunk : chunks) {
    LogCursor(chunk).walk(chunk.size(), [f, &ok](const std::uint8_t* p,
                                                 std::size_t n) {
      if (ok && std::fwrite(p, 1, n, f) != n) ok = false;
    });
    if (!ok) break;
  }
  return std::fclose(f) == 0 && ok;
}

}  // namespace

FileMedium::FileMedium(std::string path, sim::Scheduler* sched,
                       Timestamp fsync_latency, TornWriteFault torn)
    : SimMedium(sched, fsync_latency, torn), path_(std::move(path)) {
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  if (f == nullptr) return;  // no log yet: start empty
  wire::Buffer bytes;
  std::uint8_t chunk[4096];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  std::fclose(f);
  adopt_durable(LogBuffer(std::move(bytes)));
}

void FileMedium::on_durable_appended(const LogBuffer& chunk) {
  // Opened even for an empty chunk: a crash that lost its in-flight sync
  // still leaves the (possibly empty) log file behind.
  if (io_ok_) io_ok_ = write_chunks(path_, "ab", {&chunk, 1});
}

void FileMedium::on_durable_reset() {
  if (io_ok_) io_ok_ = write_chunks(path_, "wb", durable_chunks());
}

}  // namespace str::storage
