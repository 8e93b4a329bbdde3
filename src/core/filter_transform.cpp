#include "core/filter_transform.h"

#include <algorithm>
#include <atomic>
#include <cstring>

namespace ndirect {
namespace {

std::atomic<std::uint64_t> g_transform_calls{0};

}  // namespace

std::uint64_t transform_filter_tile_calls() {
  return g_transform_calls.load(std::memory_order_relaxed);
}

std::uint64_t filter_fingerprint(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  constexpr std::size_t kWord = sizeof(std::uint64_t);
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^ bytes;
  if (bytes < kWord) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, p, bytes);
    return (h ^ bits) * 0x100000001b3ull;
  }
  // Each step is a bijection of h, so any change to one sampled word
  // changes the result.
  const std::size_t last = bytes - kWord;
  const std::size_t samples = std::min<std::size_t>(64, bytes / kWord);
  for (std::size_t i = 0; i < samples; ++i) {
    const std::size_t off = samples > 1 ? i * last / (samples - 1) : 0;
    std::uint64_t bits;
    std::memcpy(&bits, p + off, kWord);
    h = (h ^ bits) * 0x100000001b3ull;
  }
  return h;
}

void transform_filter_tile(const float* filter, int K, int C, int R, int S,
                           int kt, int tkn, int ct, int tcn, int vk,
                           float* tile) {
  g_transform_calls.fetch_add(1, std::memory_order_relaxed);
  const int kb_count = (tkn + vk - 1) / vk;
  const std::int64_t crs = static_cast<std::int64_t>(C) * R * S;
  const std::int64_t rs = static_cast<std::int64_t>(R) * S;
  // Destination-order loops: the tile is written with streaming stores;
  // the source reads stride across K (one KCRS filter row per ki).
  float* dst = tile;
  for (int kb = 0; kb < kb_count; ++kb) {
    for (int c = 0; c < tcn; ++c) {
      const std::int64_t src_c = static_cast<std::int64_t>(ct + c) * rs;
      for (std::int64_t e = 0; e < rs; ++e) {  // fused (r, s) loop
        for (int ki = 0; ki < vk; ++ki) {
          const int k = kt + kb * vk + ki;
          *dst++ = (k < kt + tkn && k < K)
                       ? filter[static_cast<std::int64_t>(k) * crs + src_c + e]
                       : 0.0f;
        }
      }
    }
  }
}

}  // namespace ndirect
