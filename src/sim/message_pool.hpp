#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/message.hpp"

namespace hybrid::sim {

/// Slab/freelist recycler for in-flight messages. Slots live in fixed-size
/// slabs (stable addresses: a growing pool never invalidates a Message
/// reference another thread is reading), and released slots go onto a LIFO
/// freelist with their payload capacity intact. In steady state a round's
/// sends reuse the slots its deliveries just released, so the simulator's
/// hot loop performs zero heap allocations once capacities have warmed up.
class MessagePool {
 public:
  using Handle = std::uint32_t;
  static constexpr Handle kInvalid = 0xFFFFFFFFu;

  /// Returns a clean slot (payloads empty, capacity kept; header fields at
  /// defaults), reusing the most recently released one when available.
  Handle acquire();

  /// Recycles the slot. acquire() clears it when it hands it out again, so
  /// releasing touches only the freelist.
  void release(Handle h);

  Message& get(Handle h) { return slabs_[h >> kSlabBits][h & kSlabMask]; }
  const Message& get(Handle h) const { return slabs_[h >> kSlabBits][h & kSlabMask]; }

  /// Slots ever created; stable slot count across rounds means the pool
  /// reached steady state.
  std::size_t slotCount() const { return next_; }
  /// Slots currently handed out.
  std::size_t liveCount() const { return next_ - free_.size(); }
  long slabsAllocated() const { return static_cast<long>(slabs_.size()); }

 private:
  static constexpr unsigned kSlabBits = 8;  ///< 256 messages per slab.
  static constexpr std::uint32_t kSlabMask = (1u << kSlabBits) - 1;

  std::vector<std::unique_ptr<Message[]>> slabs_;
  std::vector<Handle> free_;
  std::uint32_t next_ = 0;
};

}  // namespace hybrid::sim
