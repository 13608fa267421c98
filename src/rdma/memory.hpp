// Host memory arenas and registered memory regions.
//
// Every simulated host owns a byte arena; RDMA operations move real bytes
// between arenas so the collective tests can verify results byte-for-byte
// (including after drop recovery through the reliability layer). A backed
// arena is one anonymous mapping of its whole capacity, reserved once and
// faulted in on first touch: it never moves, so growth copies and zero-fills
// nothing and raw pointers from at() stay valid for the arena's lifetime.
// Every access is bounds-checked against the bump pointer. Memory
// registration mirrors verbs: a region gets a local key and a remote key;
// one-sided operations name (raddr, rkey) and are bounds-checked against the
// registration, exactly the failure mode a real HCA enforces.
#pragma once

#include <sys/mman.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/check.hpp"
#include "src/fabric/packet.hpp"

namespace mccl::rdma {

struct MemoryRegion {
  std::uint64_t addr = 0;
  std::uint64_t len = 0;
  std::uint32_t lkey = 0;
  std::uint32_t rkey = 0;
};

class HostMemory {
 public:
  /// `backed == false` creates an address-space-only arena: allocation and
  /// bounds checks work, but no bytes exist behind the addresses. Used by
  /// timing-only (synthetic payload) simulations so a 188-rank Allgather
  /// does not materialize gigabytes of buffers.
  explicit HostMemory(std::uint64_t capacity, bool backed = true)
      : capacity_(capacity), backed_(backed) {}
  ~HostMemory() {
    if (bytes_ != nullptr) ::munmap(bytes_, capacity_);
  }
  // Owns the mapping, and at() pointers into it are held across calls.
  HostMemory(const HostMemory&) = delete;
  HostMemory& operator=(const HostMemory&) = delete;

  std::uint64_t capacity() const { return capacity_; }
  bool backed() const { return backed_; }

  /// Bump allocation; the arena never frees piecemeal (a communicator's
  /// buffer pool recycles the ranges it took from here). Backing
  /// storage is reserved once, faulted in on first touch: pages nobody
  /// writes cost nothing and read as 0. Buffers of at least one huge page
  /// get a transparent-huge-page hint; staging and control allocations stay
  /// on base pages.
  std::uint64_t alloc(std::uint64_t len, std::uint64_t align = 64) {
    std::uint64_t base = (brk_ + align - 1) / align * align;
    MCCL_CHECK_MSG(base + len <= capacity_, "host memory exhausted");
    brk_ = base + len;
    if (backed_) {
      reserve();
      hint_huge_pages(base, len);
    }
    return base;
  }

  /// Current bump pointer — the input to symmetric-team alignment.
  std::uint64_t brk() const { return brk_; }

  /// Advances the bump pointer to `watermark` (no-op if already past it).
  /// Multi-tenant symmetric allocation: when hosts serve several
  /// communicators, their arenas drift apart; aligning every member rank
  /// to the team's max watermark before a symmetric alloc sequence makes
  /// identical per-rank allocations yield identical offsets again. The
  /// skipped range is never written (allocation only moves forward).
  void align_brk(std::uint64_t watermark) {
    MCCL_CHECK_MSG(watermark <= capacity_, "host memory exhausted");
    brk_ = std::max(brk_, watermark);
    if (backed_) reserve();
  }

  /// Mutable access to [addr, addr + len). Hands out a raw pointer the
  /// caller may scribble through, so every cached send snapshot is
  /// conservatively invalidated.
  std::uint8_t* at(std::uint64_t addr, std::uint64_t len) {
    check_range(addr, len);
    for (Snapshot& s : snaps_) s.valid = false;
    return bytes_ + addr;
  }
  const std::uint8_t* at(std::uint64_t addr, std::uint64_t len) const {
    check_range(addr, len);
    return bytes_ + addr;
  }

  void write(std::uint64_t addr, const std::uint8_t* src, std::uint64_t len) {
    check_range(addr, len);
    // Drop cached snapshots overlapping the written range; in-flight
    // packets holding slices keep the pre-write bytes (by design — they
    // were "serialized" when the send was pumped).
    for (Snapshot& s : snaps_) {
      if (s.valid && addr < s.base + s.data->size() && addr + len > s.base)
        s.valid = false;
    }
    std::copy(src, src + len, bytes_ + addr);
  }

  void read(std::uint64_t addr, std::uint8_t* dst, std::uint64_t len) const {
    check_range(addr, len);
    std::copy(bytes_ + addr, bytes_ + addr + len, dst);
  }

  /// Zero-copy send path: an immutable shared slice of this arena's bytes
  /// as of now. Slices are cut from a small LRU cache of window-sized
  /// snapshot copies, so a burst of segment sends from one buffer costs one
  /// memcpy total instead of one per packet. at() and write() invalidate
  /// overlapping windows, so a cache hit always serves current bytes, also
  /// after a range is handed to a new owner (the communicators' buffer
  /// pools reuse ranges). An evicted window whose bytes no packet holds any
  /// more is refilled in place: a steady send stream allocates nothing.
  fabric::Payload snapshot_slice(std::uint64_t addr, std::uint64_t len) {
    check_range(addr, len);
    ++snap_clock_;
    for (Snapshot& s : snaps_) {
      if (s.valid && addr >= s.base && addr + len <= s.base + s.data->size()) {
        s.last_use = snap_clock_;
        return fabric::Payload(s.data, addr - s.base, len);
      }
    }
    const std::uint64_t base = addr & ~(kSnapshotWindow - 1);
    const std::uint64_t end =
        std::min(std::max(addr + len, base + kSnapshotWindow), brk_);
    Snapshot* victim = &snaps_[0];
    for (Snapshot& s : snaps_) {
      if (!s.valid) {
        victim = &s;
        break;
      }
      if (s.last_use < victim->last_use) victim = &s;
    }
    if (victim->data != nullptr && victim->data.use_count() == 1)
      victim->data->assign(bytes_ + base, bytes_ + end);
    else
      victim->data = std::make_shared<std::vector<std::uint8_t>>(
          bytes_ + base, bytes_ + end);
    victim->valid = true;
    victim->base = base;
    victim->last_use = snap_clock_;
    return fabric::Payload(victim->data, addr - base, len);
  }

 private:
  struct Snapshot {
    // Kept after invalidation (`valid` false) so the storage can be reused.
    std::shared_ptr<std::vector<std::uint8_t>> data;
    bool valid = false;
    std::uint64_t base = 0;
    std::uint64_t last_use = 0;
  };
  static constexpr std::uint64_t kSnapshotWindow = std::uint64_t{1} << 18;
  static constexpr std::uint64_t kHugePage = std::uint64_t{2} << 20;

  void check_range(std::uint64_t addr, std::uint64_t len) const {
    MCCL_CHECK_MSG(backed_, "access to an unbacked (timing-only) arena");
    MCCL_CHECK(len <= brk_ && addr <= brk_ - len);
  }

  /// Maps the whole capacity on first use. MAP_NORESERVE: the mapping
  /// commits no memory until pages are touched.
  void reserve() {
    if (bytes_ != nullptr) return;
    void* p = ::mmap(nullptr, capacity_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    MCCL_CHECK_MSG(p != MAP_FAILED, "host memory reservation failed");
    bytes_ = static_cast<std::uint8_t*>(p);
  }

  /// Asks for huge pages on the 2 MiB-aligned interior of [base, base +
  /// len), which is empty unless len >= 2 MiB. A hint only: a kernel that
  /// ignores it leaves base pages.
  void hint_huge_pages(std::uint64_t base, std::uint64_t len) {
    constexpr std::uintptr_t kMask = kHugePage - 1;
    const auto lo =
        (reinterpret_cast<std::uintptr_t>(bytes_ + base) + kMask) & ~kMask;
    const auto hi =
        reinterpret_cast<std::uintptr_t>(bytes_ + base + len) & ~kMask;
    if (hi > lo)
      ::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
  }

  std::uint64_t capacity_;
  bool backed_;
  std::uint8_t* bytes_ = nullptr;
  std::uint64_t brk_ = 0;
  std::array<Snapshot, 4> snaps_;
  std::uint64_t snap_clock_ = 0;
};

/// Per-NIC registration table (the MTT/MPT equivalent).
class MrTable {
 public:
  MemoryRegion register_region(std::uint64_t addr, std::uint64_t len) {
    const std::uint32_t key = next_key_++;
    return register_with_rkey(addr, len, key);
  }

  /// Registration with a caller-chosen rkey: used for multicast one-sided
  /// writes where all group members must agree on the key in the packet.
  MemoryRegion register_with_rkey(std::uint64_t addr, std::uint64_t len,
                                  std::uint32_t rkey) {
    MCCL_CHECK_MSG(!by_rkey_.contains(rkey), "duplicate rkey registration");
    MemoryRegion mr{addr, len, rkey, rkey};
    by_rkey_.emplace(rkey, mr);
    next_key_ = std::max(next_key_, rkey + 1);
    return mr;
  }

  /// Validates an remote access; aborts the simulation on a bounds violation
  /// (a real HCA would raise a fatal QP error — in a simulator we want the
  /// loudest possible failure).
  const MemoryRegion& check_remote(std::uint32_t rkey, std::uint64_t raddr,
                                   std::uint64_t len) const {
    auto it = by_rkey_.find(rkey);
    MCCL_CHECK_MSG(it != by_rkey_.end(), "unknown rkey");
    const MemoryRegion& mr = it->second;
    MCCL_CHECK_MSG(raddr >= mr.addr && raddr + len <= mr.addr + mr.len,
                   "remote access out of registered bounds");
    return mr;
  }

  bool has_rkey(std::uint32_t rkey) const { return by_rkey_.contains(rkey); }

  /// Invalidates a registration: later remote accesses naming `rkey` find
  /// no region (how the collectives fence late traffic to released
  /// buffers).
  void deregister(std::uint32_t rkey) {
    MCCL_CHECK_MSG(by_rkey_.erase(rkey) == 1, "deregistering unknown rkey");
  }

 private:
  std::uint32_t next_key_ = 1;
  std::unordered_map<std::uint32_t, MemoryRegion> by_rkey_;
};

}  // namespace mccl::rdma
