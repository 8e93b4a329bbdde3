// On-the-fly filter layout transform (line 5 of Algorithm 2).
//
// A Tk x Tc x R x S tile of the KCRS filter is rewritten as
// [Tk/Vk][Tc][R][S][Vk] so the micro-kernel loads Vk output channels
// with one contiguous vector load. The transform runs inside loop L4,
// so the tile lands (and stays) in the L2 cache right before the
// micro-kernels start consuming it.
#pragma once

#include <cstddef>
#include <cstdint>

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

/// Content fingerprint validating warm packed-filter cache hits (the
/// fp32 NdirectConv cache and the int8 Int8Conv cache): the byte count
/// mixed with up to 64 eight-byte words sampled evenly across the
/// buffer (a few cache lines per call — noise next to the convolution).
/// A stale hit slips through only if the replacement buffer matches
/// size and every sampled word; explicit invalidation remains the
/// authoritative API, the fingerprint is the safety net against a freed
/// filter whose address the allocator reuses, or in-place mutation.
std::uint64_t filter_fingerprint(const void* data, std::size_t bytes);

}  // namespace ndirect
