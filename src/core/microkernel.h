// nDirect micro-kernels (Section 5, Algorithm 3).
//
// The *main micro-kernel* computes a Vw x Vk output tile: Vw consecutive
// output columns by Vk consecutive output channels, reduced over a
// Tc-channel slice of the kernel window. Input scalars come from a
// linear pack buffer (L1-resident), filter vectors from the transformed
// Vk-contiguous filter tile (L2-resident), and each input scalar is
// broadcast-FMAed against the filter vector — the outer-product update
// of Figure 2 that maximizes FAI.
//
// The *packing micro-kernel* gathers the Tc x R x packw input window
// (packw = (Vw-1)*str + S) into the linear buffer, inserting zeros where
// the window hangs over the padded border.
//
// The *fused* variant performs the packing stores interleaved with the
// first kv iteration's FMAs (Section 5.3): each gathered row is stored
// to the buffer and immediately consumed, so the packing latency hides
// behind the compute and later kv iterations hit the L1-resident buffer.
//
// Kernel instantiations come from a compile-time *policy registry*
// rather than hand-enumerated macro lists: a policy is the tuple
// (Vw, Vk, S, stride, tail-mode), a single generator template
// (core/microkernel_generator.h) expands the fully-unrolled Algorithm 3
// body per policy, and a constexpr table instantiates every block that
// satisfies the Eq. 3 register budget for S in {1, 3, 5, 7} and stride
// in {1, 2} — in both an interior (branch-free full-tile store) and an
// edge (masked partial-lane store) variant, so ragged tile borders stay
// vectorized instead of falling back to scalar stores.
#pragma once

#include <cstdint>
#include <vector>

#include "core/fai.h"

namespace ndirect {

/// Where the input window lives and how to address it. Strides are in
/// floats; (c, ih, iw) is at src + c*chan_stride + ih*row_stride +
/// iw*col_stride. NCHW images have col_stride 1, NHWC have chan_stride 1.
struct PackGeometry {
  const float* src = nullptr;
  std::int64_t chan_stride = 0;
  std::int64_t row_stride = 0;
  std::int64_t col_stride = 1;
  int H = 0;    ///< input height bound (rows outside [0,H) pack as zero)
  int W = 0;    ///< input width bound
  int ih0 = 0;  ///< top input row of the window: oh*str - pad
  int iw0 = 0;  ///< left input col of the window: wv*str - pad
  /// Input-column step between consecutive packed elements. 1 packs the
  /// contiguous window; for 1x1 stride-s convolutions the engine packs
  /// every s-th column (stride compaction), letting the micro-kernel
  /// run its stride-1 form on a fully dense buffer.
  int iw_step = 1;
};

/// One micro-kernel invocation: geometry of the tile and its operands.
///
/// `pack` usually points at the linear buffer laid out [tc][R][packw]
/// (pack_c_stride = R*packw, pack_r_stride = packw). When a window is
/// fully interior and needs no compaction (1x1 stride-1), the engine
/// instead points `pack` directly into the input tensor and sets the
/// strides to the tensor's channel/row strides — the compute kernels
/// only ever read rows through these two strides.
struct MicroArgs {
  float* pack = nullptr;        ///< packed buffer or in-place input rows
  std::int64_t pack_c_stride = 0;  ///< float stride between channels
  std::int64_t pack_r_stride = 0;  ///< float stride between window rows
  const float* ftile = nullptr; ///< filter tile for this kb: [c][R][S][vk]
  std::int64_t f_c_stride = 0;  ///< stride between channels in ftile
  int tc = 0;                   ///< channels in this C tile
  int R = 0, S = 0, str = 1;
  int packw = 0;
  float* out = nullptr;         ///< output element (w=0, k=0) of the tile
  std::int64_t out_k_stride = 0;  ///< NCHW: P*Q,  NHWC: 1
  std::int64_t out_w_stride = 0;  ///< NCHW: 1,    NHWC: K
  int wn = 0;                   ///< valid output columns (<= vw)
  int kn = 0;                   ///< valid output channels (<= vk)
  bool accumulate = false;      ///< add into out (later C tiles)

  // Store-time epilogue (operator fusion, Section 10 direction): all
  // three are applied by the engine only on the final C tile's stores,
  // in the order (sum + bias) + residual, then ReLU, so a convolution
  // with bias / residual add / ReLU costs no extra pass over the output.
  const float* bias = nullptr;  ///< kn per-channel values, or nullptr
  /// Residual element (w=0, k=0) of the tile, addressed with the out
  /// strides, or nullptr.
  const float* residual = nullptr;
  bool relu = false;            ///< clamp stores at zero
};

/// Upper bounds accepted by the generic kernels (cover every block that
/// can satisfy Eq. 3).
inline constexpr int kMaxVw = 24;
inline constexpr int kMaxVk = 24;

using ComputeKernelFn = void (*)(const MicroArgs&);
using FusedKernelFn = void (*)(const MicroArgs&, const PackGeometry&);

/// Compile-time mirror of register_block_feasible() for the paper's
/// FP32 / 128-bit / 32-register instantiation (Eq. 3 with lanes = 4):
/// the predicate the policy registry is generated from. A test
/// cross-checks it against the runtime fai.h solver.
constexpr bool kernel_block_feasible(int vw, int vk, int S) {
  if (vw < 4 || vw > kMaxVw || vk < 4 || vk > kMaxVk) return false;
  if (vw % 4 != 0 || vk % 4 != 0) return false;
  // ceil((vw+S-1)/4) input regs + vk/4 filter regs + vw*vk/4 accumulators
  // must fit the 32 NEON registers.
  return (vw + S - 1 + 3) / 4 + vk / 4 + vw * vk / 4 <= 32;
}

/// How a policy kernel stores its tile.
enum class TailMode : std::uint8_t {
  kInterior,  ///< requires wn == Vw and kn == Vk; branch-free full store
  kEdge,      ///< any wn <= Vw, kn <= Vk; masked partial-lane stores
};

/// One instantiated policy: the (Vw, Vk, S, stride, tail-mode) tuple and
/// the generated compute / fused-pack-compute entry points.
struct KernelEntry {
  int vw = 0;
  int vk = 0;
  int S = 0;
  int str = 0;
  TailMode tail = TailMode::kInterior;
  ComputeKernelFn compute = nullptr;
  FusedKernelFn fused = nullptr;
};

/// Every instantiated policy: each Eq. 3-feasible block x S in
/// {1, 3, 5, 7} x stride in {1, 2} x {interior, edge}. Deterministic
/// order (S, then vw, then vk, then stride, then tail mode).
const std::vector<KernelEntry>& kernel_registry();

/// The distinct (vw, vk) blocks present in the registry — the real
/// instantiation space the auto-tuner should search.
const std::vector<RegisterBlock>& microkernel_blocks();

/// How a convolution's (block, S, stride) resolved against the registry.
enum class KernelClass : std::uint8_t {
  kUnrolled,     ///< fully unrolled policy kernels (interior + edge)
  kSpecialized,  ///< compile-time block, runtime S/stride loops
  kGeneric,      ///< runtime-loop fallback — counted in telemetry
};

const char* kernel_class_name(KernelClass cls);

/// Per-conv kernel resolution: the engine calls this once per (block,
/// S, stride) — not per tile — and dispatches tiles to `interior` when
/// the tile is full (wn == vw, kn == vk) and to `edge` otherwise. For
/// kSpecialized both slots hold the same runtime-S kernel (it branches
/// internally); for kGeneric all slots are nullptr and the caller must
/// use compute_kernel_generic (and count the fallback). `reason` says
/// why the resolution fell short of kUnrolled ("" when it didn't).
struct KernelResolution {
  ComputeKernelFn interior = nullptr;
  ComputeKernelFn edge = nullptr;
  FusedKernelFn interior_fused = nullptr;
  FusedKernelFn edge_fused = nullptr;
  KernelClass cls = KernelClass::kGeneric;
  const char* reason = "";
};

KernelResolution resolve_kernel(int vw, int vk, int S, int str);

/// Fully unrolled Algorithm 3 kernel: compile-time Vw, Vk, S and stride.
/// The input window is preloaded into ceil(packw/4) vector registers and
/// every (w, s) tap becomes one lane-indexed FMA, exactly as lines 3-14
/// of Algorithm 3 arrange it. Returns the registry's interior-store
/// policy for the tuple, or nullptr when it is not instantiated (block
/// infeasible under Eq. 3, S outside {1, 3, 5, 7}, or stride > 2).
/// NOTE: reads the pack buffer in whole vectors, so rows must be
/// readable up to the next multiple of 4 floats (the engine allocates
/// the buffer with that slack).
ComputeKernelFn find_unrolled_kernel(int vw, int vk, int S, int str);

/// Specialized (compile-time Vw/Vk, runtime S/stride) main micro-kernel
/// for the given block, or nullptr when no specialization is
/// instantiated.
ComputeKernelFn find_compute_kernel(int vw, int vk);

/// Specialized fused pack+compute kernel, or nullptr.
FusedKernelFn find_fused_kernel(int vw, int vk);

/// Runtime-parameterized kernels (any vw <= kMaxVw, vk <= kMaxVk,
/// vk % 4 == 0). Last-resort fallback for blocks outside the registry
/// (scalar ragged stores); every invocation the engine makes of these
/// is counted in Counter::kGenericFallback.
void compute_kernel_generic(const MicroArgs& args, int vw, int vk);
void fused_kernel_generic(const MicroArgs& args, const PackGeometry& geom,
                          int vw, int vk);

/// The standalone packing micro-kernel (sequential-packing mode and the
/// non-first C tiles of fused mode).
void pack_window(float* pack, const PackGeometry& geom, int tc, int R,
                 int packw);

}  // namespace ndirect
