// Policy-driven micro-kernel generator (internal header).
//
// A *policy* is the compile-time tuple (Vw, Vkv, S, stride, tail-mode).
// policy_compute_kernel / policy_fused_kernel expand the fully-unrolled
// Algorithm 3 body for one policy — the input window preloaded into
// ceil(packw/4) vector registers, every (w, s) tap a lane-indexed FMA —
// and finish with either the branch-free interior store or the masked
// partial-lane edge store. build_policy_table<S>() folds over the whole
// (Vw, Vk) grid at compile time, keeping exactly the blocks that satisfy
// the Eq. 3 register budget, and emits a constexpr KernelEntry table.
// The table for each S lives in its own translation unit
// (microkernel_policies_s{1,3,5,7}.cpp) so the instantiations compile in
// parallel; microkernel.cpp aggregates the four spans into the public
// kernel_registry().
//
// To add a new kernel width S' to the registry: add a
// microkernel_policies_sS'.cpp defining policy_entries_sS'() from
// build_policy_table<S'>(), list it in src/core/CMakeLists.txt, and
// append the span in kernel_registry() — no per-block code is written.
#pragma once

#include <array>
#include <cstring>
#include <utility>

#include "core/microkernel.h"
#include "simd/vec128.h"

// A policy TU instantiates ~56 fully-unrolled kernels, which overflows
// GCC's per-TU inline-growth budget: without forcing the issue, the
// compiler leaves cr_compute_unrolled and the store helpers out of
// line, and the accumulator tile lives in memory instead of registers
// (measured ~30% throughput loss on the 12x8 S=3 block). The kernels
// ARE the product here — size-vs-speed heuristics do not apply — so
// the hot helpers are always_inline and the kernel roots flatten their
// whole call tree (GCC ignores inline limits when flattening).
#if defined(__GNUC__) || defined(__clang__)
#define NDIRECT_ALWAYS_INLINE inline __attribute__((always_inline))
#define NDIRECT_FLATTEN __attribute__((flatten))
#else
#define NDIRECT_ALWAYS_INLINE inline
#define NDIRECT_FLATTEN
#endif

namespace ndirect {
namespace detail {

// Gather one (c, ih) input row segment of `packw` elements into `dst`,
// zero-filling where the window hangs over the (padded) border. The
// segment is contiguous in the input row for any stride, because the
// micro-kernel indexes the buffer as brow[w*str + s].
NDIRECT_ALWAYS_INLINE void pack_row(float* dst, const PackGeometry& g,
                                    int c, int ih, int packw) {
  if (ih < 0 || ih >= g.H) {
    std::memset(dst, 0, sizeof(float) * static_cast<std::size_t>(packw));
    return;
  }
  const float* row = g.src + c * g.chan_stride +
                     static_cast<std::int64_t>(ih) * g.row_stride;
  int t = 0;
  while (t < packw && g.iw0 + t * g.iw_step < 0) dst[t++] = 0.0f;
  int t_hi = packw;
  while (t_hi > t && g.iw0 + (t_hi - 1) * g.iw_step >= g.W) --t_hi;
  if (g.col_stride == 1 && g.iw_step == 1) {
    if (t_hi > t) {
      std::memcpy(dst + t, row + g.iw0 + t,
                  sizeof(float) * static_cast<std::size_t>(t_hi - t));
    }
  } else {
    for (int u = t; u < t_hi; ++u) {
      dst[u] = row[(g.iw0 + u * g.iw_step) * g.col_stride];
    }
  }
  for (int u = t_hi; u < packw; ++u) dst[u] = 0.0f;
}

// ---------------------------------------------------------------------------
// Tile stores
// ---------------------------------------------------------------------------

// Branch-free full-tile store: requires wn == VW and kn == VK. NCHW uses
// 4x4 in-register transposes to turn the K-vectorized accumulators into
// W-contiguous stores; NHWC stores the accumulators directly.
template <int VW, int VKV>
NDIRECT_ALWAYS_INLINE void store_tile_interior(const MicroArgs& a,
                                               vec128f (&acc)[VW][VKV]) {
  const vec128f zero = vzero();
  if (a.out_w_stride == 1) {  // NCHW
    for (int j = 0; j < VKV; ++j) {
      for (int w0 = 0; w0 < VW; w0 += 4) {
        vec128f r0 = acc[w0 + 0][j], r1 = acc[w0 + 1][j],
                r2 = acc[w0 + 2][j], r3 = acc[w0 + 3][j];
        vtranspose4x4(r0, r1, r2, r3);
        float* o0 = a.out + (4 * j + 0) * a.out_k_stride + w0;
        float* o1 = a.out + (4 * j + 1) * a.out_k_stride + w0;
        float* o2 = a.out + (4 * j + 2) * a.out_k_stride + w0;
        float* o3 = a.out + (4 * j + 3) * a.out_k_stride + w0;
        if (a.accumulate) {
          r0 = vadd(r0, vload(o0));
          r1 = vadd(r1, vload(o1));
          r2 = vadd(r2, vload(o2));
          r3 = vadd(r3, vload(o3));
        }
        if (a.bias != nullptr) {
          // After the transpose each row holds one output channel.
          r0 = vadd(r0, vdup(a.bias[4 * j + 0]));
          r1 = vadd(r1, vdup(a.bias[4 * j + 1]));
          r2 = vadd(r2, vdup(a.bias[4 * j + 2]));
          r3 = vadd(r3, vdup(a.bias[4 * j + 3]));
        }
        if (a.residual != nullptr) {
          const float* q = a.residual + 4 * j * a.out_k_stride + w0;
          r0 = vadd(r0, vload(q));
          r1 = vadd(r1, vload(q + a.out_k_stride));
          r2 = vadd(r2, vload(q + 2 * a.out_k_stride));
          r3 = vadd(r3, vload(q + 3 * a.out_k_stride));
        }
        if (a.relu) {
          r0 = vmax(r0, zero);
          r1 = vmax(r1, zero);
          r2 = vmax(r2, zero);
          r3 = vmax(r3, zero);
        }
        vstore(o0, r0);
        vstore(o1, r1);
        vstore(o2, r2);
        vstore(o3, r3);
      }
    }
  } else {  // NHWC: K is contiguous (out_k_stride == 1)
    for (int w = 0; w < VW; ++w) {
      float* o = a.out + w * a.out_w_stride;
      for (int j = 0; j < VKV; ++j) {
        vec128f v = acc[w][j];
        if (a.accumulate) v = vadd(v, vload(o + 4 * j));
        if (a.bias != nullptr) v = vadd(v, vload(a.bias + 4 * j));
        if (a.residual != nullptr) {
          v = vadd(v, vload(a.residual + w * a.out_w_stride + 4 * j));
        }
        if (a.relu) v = vmax(v, zero);
        vstore(o + 4 * j, v);
      }
    }
  }
}

// Masked edge store: any wn <= VW, kn <= VK (including kn % 4 != 0).
// Same transpose/direct structure as the interior store, but every
// boundary group goes through partial-lane loads/stores, so ragged tile
// borders stay vectorized — no scalar spill-and-copy.
template <int VW, int VKV>
NDIRECT_ALWAYS_INLINE void store_tile_edge(const MicroArgs& a,
                                           vec128f (&acc)[VW][VKV]) {
  const vec128f zero = vzero();
  if (a.out_w_stride == 1) {  // NCHW
    for (int k0 = 0; k0 < a.kn; k0 += 4) {
      const int j = k0 / 4;
      const int kg = a.kn - k0 < 4 ? a.kn - k0 : 4;
      for (int w0 = 0; w0 < a.wn; w0 += 4) {
        const int wg = a.wn - w0 < 4 ? a.wn - w0 : 4;
        // Accumulator lanes past wn/kn hold finite garbage; the
        // transpose carries them along and the masked stores drop them.
        vec128f r[4] = {acc[w0 + 0][j], acc[w0 + 1][j], acc[w0 + 2][j],
                        acc[w0 + 3][j]};
        vtranspose4x4(r[0], r[1], r[2], r[3]);
        for (int kk = 0; kk < kg; ++kk) {
          const std::int64_t off = (k0 + kk) * a.out_k_stride + w0;
          float* o = a.out + off;
          vec128f v = r[kk];
          if (a.accumulate) v = vadd(v, vload_lanes(o, wg));
          if (a.bias != nullptr) v = vadd(v, vdup(a.bias[k0 + kk]));
          if (a.residual != nullptr) {
            v = vadd(v, vload_lanes(a.residual + off, wg));
          }
          if (a.relu) v = vmax(v, zero);
          vstore_lanes(o, v, wg);
        }
      }
    }
  } else {  // NHWC
    for (int w = 0; w < a.wn; ++w) {
      float* o = a.out + w * a.out_w_stride;
      for (int k0 = 0; k0 < a.kn; k0 += 4) {
        const int kg = a.kn - k0 < 4 ? a.kn - k0 : 4;
        vec128f v = acc[w][k0 / 4];
        if (a.accumulate) v = vadd(v, vload_lanes(o + k0, kg));
        if (a.bias != nullptr) v = vadd(v, vload_lanes(a.bias + k0, kg));
        if (a.residual != nullptr) {
          v = vadd(v, vload_lanes(a.residual + w * a.out_w_stride + k0, kg));
        }
        if (a.relu) v = vmax(v, zero);
        vstore_lanes(o + k0, v, kg);
      }
    }
  }
}

template <int VW, int VKV, TailMode TM>
NDIRECT_ALWAYS_INLINE void store_policy(const MicroArgs& a,
                                        vec128f (&acc)[VW][VKV]) {
  if constexpr (TM == TailMode::kInterior) {
    store_tile_interior<VW, VKV>(a, acc);
  } else {
    store_tile_edge<VW, VKV>(a, acc);
  }
}

// ---------------------------------------------------------------------------
// Unrolled Algorithm 3 body
// ---------------------------------------------------------------------------

// One lane-indexed FMA tap: acc[j] += x[I/4][lane I%4] * f[j]. I is the
// compile-time index of the input element (w*STR + s) within the
// preloaded window registers.
template <int I, int XV, int VKV>
NDIRECT_ALWAYS_INLINE void lane_fma_tap(vec128f (&acc)[VKV],
                                        const vec128f (&x)[XV],
                                        const vec128f (&f)[VKV]) {
  static_assert(I / 4 < XV);
  for (int j = 0; j < VKV; ++j) {
    acc[j] = vfma_lane<I % 4>(acc[j], x[I / 4], f[j]);
  }
}

// Process one (c, r) row pair: preload the packed input row into XV
// vector registers, then for each kernel tap s (unrolled) load the Vk
// filter vector and update all VW accumulators via lane FMAs.
template <int VW, int VKV, int S, int STR>
NDIRECT_ALWAYS_INLINE void cr_compute_unrolled(vec128f (&acc)[VW][VKV],
                                               const float* brow,
                                               const float* frow) {
  constexpr int VK = VKV * 4;
  constexpr int PACKW = (VW - 1) * STR + S;
  constexpr int XV = (PACKW + 3) / 4;
  vec128f x[XV];
  for (int t = 0; t < XV; ++t) x[t] = vload(brow + 4 * t);

  [&]<int... Ss>(std::integer_sequence<int, Ss...>) {
    (([&] {
       constexpr int s = Ss;
       vec128f f[VKV];
       for (int j = 0; j < VKV; ++j) f[j] = vload(frow + s * VK + 4 * j);
       [&]<int... Ws>(std::integer_sequence<int, Ws...>) {
         (lane_fma_tap<Ws * STR + s, XV, VKV>(acc[Ws], x, f), ...);
       }(std::make_integer_sequence<int, VW>{});
     }()),
     ...);
  }(std::make_integer_sequence<int, S>{});
}

// ---------------------------------------------------------------------------
// The generator: one template, every policy
// ---------------------------------------------------------------------------

template <int VW, int VKV, int S, int STR, TailMode TM>
NDIRECT_FLATTEN void policy_compute_kernel(const MicroArgs& a) {
  vec128f acc[VW][VKV];
  for (int w = 0; w < VW; ++w) {
    for (int j = 0; j < VKV; ++j) acc[w][j] = vzero();
  }
  for (int c = 0; c < a.tc; ++c) {
    const float* brows = a.pack + c * a.pack_c_stride;
    const float* fc = a.ftile + c * a.f_c_stride;
    for (int r = 0; r < a.R; ++r) {
      cr_compute_unrolled<VW, VKV, S, STR>(
          acc, brows + r * a.pack_r_stride,
          fc + static_cast<std::int64_t>(r) * S * VKV * 4);
    }
  }
  store_policy<VW, VKV, TM>(a, acc);
}

// Fused packing + compute (Section 5.3): every gathered row is stored to
// the pack buffer and consumed by FMAs in the same pass, so packing
// stores retire behind the FMAs and later kv iterations find the whole
// window L1-resident.
template <int VW, int VKV, int S, int STR, TailMode TM>
NDIRECT_FLATTEN void policy_fused_kernel(const MicroArgs& a,
                                         const PackGeometry& g) {
  vec128f acc[VW][VKV];
  for (int w = 0; w < VW; ++w) {
    for (int j = 0; j < VKV; ++j) acc[w][j] = vzero();
  }
  for (int c = 0; c < a.tc; ++c) {
    float* brows = a.pack + c * a.pack_c_stride;
    const float* fc = a.ftile + c * a.f_c_stride;
    for (int r = 0; r < a.R; ++r) {
      float* brow = brows + r * a.pack_r_stride;
      pack_row(brow, g, c, g.ih0 + r, a.packw);
      cr_compute_unrolled<VW, VKV, S, STR>(
          acc, brow, fc + static_cast<std::int64_t>(r) * S * VKV * 4);
    }
  }
  store_policy<VW, VKV, TM>(a, acc);
}

// ---------------------------------------------------------------------------
// Constexpr registry builder
// ---------------------------------------------------------------------------

/// Eq. 3-feasible (vw, vk) blocks for kernel width S.
constexpr int policy_block_count(int S) {
  int n = 0;
  for (int vw = 4; vw <= kMaxVw; vw += 4) {
    for (int vk = 4; vk <= kMaxVk; vk += 4) {
      if (kernel_block_feasible(vw, vk, S)) ++n;
    }
  }
  return n;
}

// One nested generic lambda per pack level trips a GCC pack-expansion
// limitation, so each level of the (vw, vk, str) fold is a named helper.
template <int S, int VW, int VK, TailMode TM, int STR, typename Table>
constexpr void emit_policy(Table& table, std::size_t& i) {
  table[i++] =
      KernelEntry{VW, VK, S, STR, TM,
                  &policy_compute_kernel<VW, VK / 4, S, STR, TM>,
                  &policy_fused_kernel<VW, VK / 4, S, STR, TM>};
}

template <int S, int VW, int VK, typename Table>
constexpr void emit_block(Table& table, std::size_t& i) {
  if constexpr (kernel_block_feasible(VW, VK, S)) {
    emit_policy<S, VW, VK, TailMode::kInterior, 1>(table, i);
    emit_policy<S, VW, VK, TailMode::kEdge, 1>(table, i);
    emit_policy<S, VW, VK, TailMode::kInterior, 2>(table, i);
    emit_policy<S, VW, VK, TailMode::kEdge, 2>(table, i);
  }
}

template <int S, int VW, typename Table>
constexpr void emit_block_row(Table& table, std::size_t& i) {
  [&]<int... Ks>(std::integer_sequence<int, Ks...>) {
    (emit_block<S, VW, (Ks + 1) * 4>(table, i), ...);
  }(std::make_integer_sequence<int, kMaxVk / 4>{});
}

/// Entries for one S: feasible blocks x strides {1, 2} x {interior, edge}.
template <int S>
constexpr auto build_policy_table() {
  std::array<KernelEntry, static_cast<std::size_t>(policy_block_count(S)) * 4>
      table{};
  std::size_t i = 0;
  [&]<int... Ws>(std::integer_sequence<int, Ws...>) {
    (emit_block_row<S, (Ws + 1) * 4>(table, i), ...);
  }(std::make_integer_sequence<int, kMaxVw / 4>{});
  return table;
}

/// Non-owning view of one translation unit's constexpr entry table.
struct PolicySpan {
  const KernelEntry* data = nullptr;
  std::size_t size = 0;
};

// Defined in microkernel_policies_s{1,3,5,7}.cpp.
PolicySpan policy_entries_s1();
PolicySpan policy_entries_s3();
PolicySpan policy_entries_s5();
PolicySpan policy_entries_s7();

}  // namespace detail
}  // namespace ndirect
