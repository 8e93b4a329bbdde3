// On-the-fly filter layout transform (line 5 of Algorithm 2).
//
// A Tk x Tc x R x S tile of the KCRS filter is rewritten as
// [Tk/Vk][Tc][R][S][Vk] so the micro-kernel loads Vk output channels
// with one contiguous vector load. The transform runs inside loop L4,
// so the tile lands (and stays) in the L2 cache right before the
// micro-kernels start consuming it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace ndirect {

/// Transform the tile filter[kt : kt+tkn, ct : ct+tcn, :, :] into `tile`
/// (size ceil(tkn/vk)*tcn*R*S*vk floats). K positions beyond `K` (the
/// ragged last block) are zero-filled so the micro-kernel can always run
/// full Vk vectors.
void transform_filter_tile(const float* filter, int K, int C, int R, int S,
                           int kt, int tkn, int ct, int tcn, int vk,
                           float* tile);

/// Process-wide count of transform_filter_tile invocations (relaxed
/// atomic; monotonic). Lets tests and benches prove the packed-filter
/// cache eliminates per-call transforms: the count must not move across
/// steady-state inference calls.
std::uint64_t transform_filter_tile_calls();

/// Content fingerprint validating PackedFilterCache hits: the byte count
/// mixed with up to 64 eight-byte words sampled evenly across the
/// buffer (a few cache lines per call — noise next to the convolution).
/// A stale hit slips through only if the replacement buffer matches
/// size and every sampled word; explicit invalidation remains the
/// authoritative API, the fingerprint is the safety net against a freed
/// filter whose address the allocator reuses, or in-place mutation.
std::uint64_t filter_fingerprint(const void* data, std::size_t bytes);

/// The packed-filter cache of both conv engines (fp32 NdirectConv holds
/// its KPacked Tensor, int8 Int8Conv its s8 taps plus row sums). One
/// immutable entry per source filter pointer: an entry is packed once
/// under the cache mutex, published, and never written again, so warm
/// readers need no lock and two concurrent const runs with *different*
/// filters can never overwrite a buffer the other is reading. Every
/// lookup validates the pointer key with filter_fingerprint, which
/// catches what a raw pointer cannot: a freed filter whose address the
/// allocator reuses, or in-place mutation without clear(). Superseded
/// entries are retired (key cleared), not destroyed, so a racing
/// reader's reference stays valid until clear().
template <typename Packed>
class PackedFilterCache {
 public:
  /// The packed copy of the `bytes`-long filter at `src`; on a miss
  /// `pack()` builds it (returning a Packed). `*hit`, when given, tells
  /// whether the lookup was served without packing.
  template <typename PackFn>
  const Packed& get(const void* src, std::size_t bytes, PackFn&& pack,
                    bool* hit = nullptr) {
    const std::uint64_t fp = filter_fingerprint(src, bytes);
    if (hit != nullptr) *hit = true;
    // Warm path: one acquire load, no lock. The release publish below
    // orders the entry's contents before it becomes visible.
    Entry* h = hot_.load(std::memory_order_acquire);
    if (h != nullptr && h->src.load(std::memory_order_relaxed) == src &&
        h->fp == fp)
      return h->packed;

    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& e : entries_) {
      if (e->src.load(std::memory_order_relaxed) != src) continue;
      if (e->fp == fp) {
        hot_.store(e.get(), std::memory_order_release);
        return e->packed;
      }
      // Same address, different contents: retire the entry (a racing
      // run may still read it) and pack afresh.
      e->src.store(nullptr, std::memory_order_relaxed);
    }
    if (hit != nullptr) *hit = false;
    auto entry = std::make_unique<Entry>(pack());
    entry->fp = fp;
    entry->src.store(src, std::memory_order_relaxed);
    Entry* raw = entry.get();
    entries_.push_back(std::move(entry));
    hot_.store(raw, std::memory_order_release);
    return raw->packed;
  }

  /// True when a live entry is keyed by `src` (its contents are
  /// re-validated on use).
  bool warm(const void* src) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& e : entries_)
      if (e->src.load(std::memory_order_relaxed) == src) return true;
    return false;
  }

  /// Free every entry. Must not race with get(): it destroys the
  /// buffers a concurrent run could be reading.
  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    hot_.store(nullptr, std::memory_order_relaxed);
    entries_.clear();
  }

 private:
  struct Entry {
    explicit Entry(Packed p) : packed(std::move(p)) {}
    std::atomic<const void*> src{nullptr};  ///< key; nullptr = retired
    std::uint64_t fp = 0;  ///< filter_fingerprint at pack time
    Packed packed;
  };
  mutable std::mutex mutex_;
  std::atomic<Entry*> hot_{nullptr};  ///< most recent hit or pack
  /// Owning list (stable heap addresses), mutated only under mutex_.
  std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace ndirect
