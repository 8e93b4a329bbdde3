// nDirect public API.
//
// nDirect (Wang et al., SC'23) is a direct convolution for ARM-model
// multi-cores that keeps the framework NCHW/NHWC activation layouts,
// repacks only the (small) filter tensor on the fly, and reaches high
// utilization through an FAI-maximal register-blocked micro-kernel,
// cache-derived loop tiling, latency-hiding fused input packing, and an
// analytically derived PTn x PTk thread mapping. Each run's tiles go
// through the tile driver (core/tile_driver.h) that the int8 engine
// shares: stealing scheduler, scratch arenas and telemetry.
//
// Typical use:
//
//   ConvParams p{.N=..., .C=..., ...};
//   NdirectConv conv(p);                       // plan once
//   Tensor out = conv.run(input, filter);      // run many times
//
// or the one-shot helper `ndirect_conv(input, filter, p)`.
#pragma once

#include <memory>

#include "core/fai.h"
#include "core/threading.h"
#include "core/tiling.h"
#include "runtime/cpu_info.h"
#include "runtime/telemetry.h"
#include "runtime/thread_pool.h"
#include "runtime/work_queue.h"
#include "tensor/conv_params.h"
#include "tensor/tensor.h"

namespace ndirect {

template <typename Packed>
class PackedFilterCache;  // core/filter_transform.h

/// Everything the planner derived for a shape; exposed for inspection,
/// tests and the model-ablation bench.
struct NdirectPlan {
  RegisterBlock rb{};       ///< Eq. 3/4 register block (Vw, Vk)
  TilingPlan tiling{};      ///< Eq. 1/2 cache tiles (Tc, Tk, Th)
  ThreadMapping mapping{};  ///< Eq. 5/6 thread grid (PTn, PTk)
  int stealers = 0;         ///< workers beyond the grid, seeded with no
                            ///< tiles (non-divisor thread counts under
                            ///< the stealing schedule); 0 when static
  int packw = 0;            ///< pack-buffer row length (Vw-1)*str + S
  double alpha = 2.0;       ///< streaming/non-streaming coefficient
};

/// How the PTn x PTk grid's tiles are handed to workers.
enum class SchedulePolicy {
  /// The paper's Eq. 5/6 mapping: every worker drains exactly its seed
  /// slice. Deterministic assignment, but ragged layers and noisy cores
  /// pin wall time to the slowest thread.
  kStatic,
  /// Same seed assignment at macro-tile granularity (a Th-row chunk x
  /// one Tk k-block — the unit that reuses one transformed filter tile
  /// and one packed input window), but exhausted workers steal
  /// unfinished tiles: nearest neighbour in the grid first (same-PTn
  /// victims share the thief's input rows), then globally. Identical
  /// numerical output — tiles own disjoint output blocks and the whole
  /// C reduction stays inside a tile.
  kStealing,
};

struct NdirectOptions {
  /// Hide packing behind the first kv iteration (Section 5.3). Turning
  /// this off gives the sequential-packing baseline of Fig. 5.
  bool fuse_packing = true;

  /// Transform the whole filter ahead of time instead of per tile inside
  /// loop L4 (ablation; the paper's nDirect transforms on the fly).
  bool aot_filter = false;

  /// Cache the ahead-of-time packed filter inside the engine, keyed by
  /// the filter data pointer: the first run packs the KCRS filter to the
  /// ceil(K/Vk) x C x R x S x Vk layout once, and every later run with
  /// the same pointer skips the transform entirely. This is the
  /// inference-serving mode (weights are immutable across calls); the
  /// graph executor's ConvOp turns it on. Each distinct pointer gets its
  /// own immutable packed copy (concurrent const runs with different
  /// filters stay thread-safe), and hits are validated with a sampled
  /// content fingerprint so allocator address reuse or in-place
  /// mutation is detected and re-packed instead of silently serving
  /// stale weights. After mutating or freeing filter data, still call
  /// NdirectConv::invalidate_filter_cache() — it also releases the
  /// packed copies; the fingerprint is a best-effort safety net. Off by
  /// default: the paper's nDirect transforms on the fly, and the
  /// figure benches measure that path.
  bool cache_packed_filter = false;

  /// Force the register block instead of solving Eq. 3/4 (ablation and
  /// auto-tuner use). Zero fields mean "solve".
  RegisterBlock force_rb{0, 0};

  /// Force cache tiling (ablation). Zero fields mean "solve".
  TilingPlan force_tiling{0, 0, 0};

  /// Force the PTn x PTk split (ablation / auto-tuner). Zero = solve.
  ThreadMapping force_mapping{0, 0};

  /// Execute with the runtime-parameterized kernel even when an
  /// Algorithm 3 specialization exists. The auto-tuner uses this to
  /// model search-based code generation (a compiler-emitted loop nest
  /// rather than the hand-unrolled lane-FMA kernel).
  bool generic_kernel_only = false;

  /// Tile scheduling policy (see SchedulePolicy). Stealing by default;
  /// kStatic reproduces the seed's static slicing for A/B benches and
  /// bitwise comparison (outputs are identical either way).
  SchedulePolicy schedule = SchedulePolicy::kStealing;

  /// Override the macro-tile row chunk (output rows per tile) for
  /// scheduler ablation. 0 = the plan's Th (one L2 row tile per claim).
  /// Smaller chunks balance better but steal more often.
  int sched_row_chunk = 0;

  /// When non-null, filled after each run with that run's scheduler
  /// observability: tile count, steals (0 under kStatic), and the
  /// max/min tiles any worker executed (imbalance). Not thread-safe
  /// across concurrent runs of the same engine — point each run's
  /// options at its own stats or leave null.
  SchedulerStats* sched_stats = nullptr;

  /// Thread count for the PTn x PTk grid; 0 = the pool's size.
  int threads = 0;

  ThreadPool* pool = nullptr;          ///< nullptr = global pool
  const CacheInfo* cache = nullptr;    ///< nullptr = probed host cache
  double alpha = 0;                    ///< 0 = measured host alpha

  /// When non-null, filled after each run with that run's per-worker
  /// telemetry: tiles claimed, steals by locality class, phase
  /// nanoseconds (the transform / packing / micro-kernel breakdown of
  /// Fig. 5, valid at any worker count), cache hits, and the run's
  /// wall time (the input to build_conv_report). Overwritten every
  /// run; cleared to an empty snapshot when telemetry is disabled.
  /// Int8ConvOptions::telemetry is filled the same way. Like
  /// sched_stats, point concurrent runs of one engine at distinct sinks
  /// or leave null.
  TelemetrySnapshot* telemetry = nullptr;
};

/// Store-time fusion of the ops that commonly follow a convolution
/// (Section 10's operator-fusion direction): a per-channel bias
/// (K floats), a residual tensor added element-wise (the ResNet
/// shortcut) and/or ReLU, applied inside the micro-kernel's stores on
/// the final C tile — no extra pass over the output. Each element is
/// stored as relu((sum + bias) + residual): the order in which an
/// unfused conv -> add -> relu rounds, so fusing changes no bit.
struct ConvEpilogue {
  const float* bias = nullptr;  ///< K per-channel values, or nullptr
  bool relu = false;
  /// Tensor with the output's shape and layout (NCHW for run/run_into,
  /// NHWC for run_nhwc), or nullptr. Must not alias the output.
  const float* residual = nullptr;
};

/// Planned convolution for one shape (framework-operator style).
class NdirectConv {
 public:
  explicit NdirectConv(const ConvParams& params,
                       const NdirectOptions& options = {});

  const NdirectPlan& plan() const { return plan_; }
  const ConvParams& params() const { return params_; }
  const NdirectOptions& options() const { return options_; }

  /// The internally executed problem. For 1x1 stride-1 unpadded
  /// convolutions the spatial rows are contiguous in memory, so the
  /// planner flattens groups of g rows into one logical row of width
  /// W*g (the CONV -> GEMM dimension mapping of Section 4.1,
  /// N x H x W -> N'). This removes the per-row Vw tail waste that
  /// otherwise dominates small feature maps; g divides H and is 1
  /// whenever W alone already amortizes the tail.
  const ConvParams& exec_params() const { return exec_; }

  using Epilogue = ConvEpilogue;

  /// input NCHW [N,C,H,W], filter KCRS -> output NCHW [N,K,P,Q].
  Tensor run(const Tensor& input, const Tensor& filter,
             const Epilogue& epilogue = {}) const;

  /// input NHWC [N,H,W,C], filter KCRS -> output NHWC [N,P,Q,K].
  /// (The filter stays in the framework KCRS layout in both paths; only
  /// its on-the-fly transform target differs in stride bookkeeping.)
  Tensor run_nhwc(const Tensor& input, const Tensor& filter,
                  const Epilogue& epilogue = {}) const;

  /// Expert entry point on raw NCHW/KCRS buffers (what a framework
  /// integration calls). Shapes are taken from params(); `output` is
  /// overwritten and must hold N*K*P*Q floats. No validation beyond the
  /// planning-time parameter check.
  void run_into(const float* input, const float* filter, float* output,
                const Epilogue& epilogue = {}) const;

  /// Pack `filter` into the engine's cached KPacked buffer now (instead
  /// of lazily on the first run). Only meaningful with
  /// options().cache_packed_filter; a no-op otherwise. Returns the
  /// cached packed data (nullptr when caching is off).
  const float* prepare_filter(const float* filter) const;

  /// Drop all cached packed filters (weights were mutated in place or
  /// freed). The next run re-packs. Must not be called concurrently
  /// with run()/run_into() on this engine or a copy sharing its cache:
  /// it frees the packed buffers a racing run could be reading.
  void invalidate_filter_cache();

  /// True when a packed copy keyed by `filter` is resident (its
  /// contents are re-validated against the live weights on use).
  bool filter_cache_warm(const float* filter) const;

 private:
  /// The whole-filter KPacked copy a run reads: the cached one, a
  /// one-run copy held in `aot` (aot_filter), or nullptr (transform per
  /// tile). `*cache_hit` tells whether the cache served it unpacked.
  const float* packed_filter(const float* filter, Tensor& aot,
                             bool* cache_hit) const;

  ConvParams params_;
  ConvParams exec_;
  NdirectOptions options_;
  NdirectPlan plan_;
  /// Shared so copies of the engine share one cache.
  std::shared_ptr<PackedFilterCache<Tensor>> fcache_;
};

/// One-shot convenience wrapper around NdirectConv.
Tensor ndirect_conv(const Tensor& input, const Tensor& filter,
                    const ConvParams& params,
                    const NdirectOptions& options = {});

}  // namespace ndirect
