#include "storage/log_buffer.hpp"

namespace str::storage {

void LogBuffer::append(LogBuffer&& other) {
  if (bytes_.empty() && slices_.empty()) {
    *this = std::move(other);
    return;
  }
  const std::size_t base = bytes_.size();
  bytes_.insert(bytes_.end(), other.bytes_.begin(), other.bytes_.end());
  for (PayloadSlice& s : other.slices_) {
    slices_.push_back({base + s.at, std::move(s.value)});
  }
  payload_bytes_ += other.payload_bytes_;
}

void LogBuffer::truncate(std::size_t size) {
  STR_ASSERT_MSG(size <= this->size(), "LogBuffer::truncate past the end");
  // Keep the slices whose payload starts before the cut.
  std::size_t payload = 0;  // payload bytes before the cut
  std::size_t keep = 0;
  for (; keep < slices_.size(); ++keep) {
    const PayloadSlice& s = slices_[keep];
    if (s.at + payload >= size) break;
    payload += s.value->size();
    STR_ASSERT_MSG(s.at + payload <= size, "LogBuffer cut inside a payload");
  }
  slices_.erase(slices_.begin() + static_cast<std::ptrdiff_t>(keep),
                slices_.end());
  payload_bytes_ = payload;
  bytes_.resize(size - payload);
}

wire::Buffer LogBuffer::flatten(std::size_t size) const {
  wire::Buffer out;
  out.reserve(size);
  LogCursor(*this).walk(size, [&out](const std::uint8_t* p, std::size_t n) {
    out.insert(out.end(), p, p + n);
  });
  return out;
}

}  // namespace str::storage
