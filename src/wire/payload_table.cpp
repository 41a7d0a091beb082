#include "wire/payload_table.hpp"

namespace str::wire {

SharedValue PayloadTable::resolve(const TxId& writer, Key key,
                                  std::string_view bytes) {
  auto lk = lock();
  std::weak_ptr<const Value>& entry = entries_[WriteId{writer, key}];
  if (SharedValue live = entry.lock(); live && *live == bytes) return live;
  SharedValue fresh = std::make_shared<const Value>(bytes);
  entry = fresh;
  return fresh;
}

void PayloadTable::record(const TxId& writer, Key key,
                          const SharedValue& value) {
  auto lk = lock();
  std::weak_ptr<const Value>& entry = entries_[WriteId{writer, key}];
  if (SharedValue live = entry.lock();
      live && (live == value || *live == *value)) {
    return;
  }
  entry = value;
}

void PayloadTable::forget(const TxId& writer, const UpdateList& writes) {
  auto lk = lock();
  for (const auto& [key, value] : writes) entries_.erase(WriteId{writer, key});
}

void PayloadTable::sweep() {
  auto lk = lock();
  entries_.erase_if(
      [](const WriteId&, const std::weak_ptr<const Value>& payload) {
        return payload.expired();
      });
}

std::size_t PayloadTable::size() const {
  auto lk = lock();
  return entries_.size();
}

}  // namespace str::wire
