#include "wire/payload_table.hpp"

namespace str::wire {

SharedUpdates PayloadTable::find(const TxId& writer, PartitionId pid) const {
  auto lk = lock();
  const std::weak_ptr<const UpdateList>* entry =
      entries_.find(ListId{writer, pid});
  if (entry == nullptr) return nullptr;
  SharedUpdates list = entry->lock();
  if (list != nullptr) ++found_;
  return list;
}

void PayloadTable::record(const TxId& writer, PartitionId pid,
                          const SharedUpdates& list) {
  auto lk = lock();
  std::weak_ptr<const UpdateList>& entry = entries_[ListId{writer, pid}];
  if (entry.expired()) entry = list;
}

void PayloadTable::forget(const TxId& writer, PartitionId pid) {
  auto lk = lock();
  entries_.erase(ListId{writer, pid});
}

void PayloadTable::sweep() {
  auto lk = lock();
  entries_.erase_if(
      [](const ListId&, const std::weak_ptr<const UpdateList>& list) {
        return list.expired();
      });
}

std::size_t PayloadTable::size() const {
  auto lk = lock();
  return entries_.size();
}

std::uint64_t PayloadTable::found() const {
  auto lk = lock();
  return found_;
}

}  // namespace str::wire
