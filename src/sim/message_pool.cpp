#include "sim/message_pool.hpp"

namespace hybrid::sim {

MessagePool::Handle MessagePool::acquire() {
  if (!free_.empty()) {
    const Handle h = free_.back();
    free_.pop_back();
    // Cleared here rather than at release: the caller is about to write
    // the slot, so this touches no extra cache line.
    Message& m = get(h);
    m.from = -1;
    m.to = -1;
    m.link = Link::AdHoc;
    m.type = 0;
    m.ints.clear();
    m.reals.clear();
    m.ids.clear();
    m.relSeq = -1;
    m.relCtl = false;
    return h;
  }
  if ((static_cast<std::size_t>(next_) >> kSlabBits) == slabs_.size()) {
    slabs_.push_back(std::make_unique<Message[]>(std::size_t{1} << kSlabBits));
  }
  return next_++;
}

void MessagePool::release(Handle h) { free_.push_back(h); }

}  // namespace hybrid::sim
