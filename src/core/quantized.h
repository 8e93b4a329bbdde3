// Quantized convolution: the int16 per-tensor proof-of-concept
// (Section 3.3's last datatype) and the production int8 path
// (DESIGN.md §14).
//
// INT16: symmetric per-tensor quantization, real = scale * q. The
// kernel multiply-accumulates int16 x int16 into int32 (the NEON SMLAL
// pattern) and returns raw int32 accumulators.
//
// INT8: asymmetric u8 activations (real = in_scale * (u - zero_point)),
// symmetric per-channel s8 filters (real = w_scale[k] * w). Int8Conv
// packs inputs XORed with 0x80 and runs the dot (SDOT / VPDPBUSD),
// emulated or scalar policy kernels of core/quantized_microkernel.h,
// finishing each tile with a fused requantize epilogue (raw int32,
// saturating s8 with round-to-nearest-even, or dequantized fp32 with
// optional bias+ReLU).
//
// Overflow contracts: choose_qmax() bounds int16 magnitudes so a
// C*R*S-long reduction provably fits int32; choose_qmax_int8() is the
// int8 analogue (products reach 127^2, so the bound only bites for
// reductions past ~133k elements).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/quantized_microkernel.h"
#include "runtime/telemetry.h"
#include "runtime/thread_pool.h"
#include "tensor/conv_params.h"

namespace ndirect {

template <typename Packed>
class PackedFilterCache;  // core/filter_transform.h

struct QuantizedTensor {
  std::vector<std::int16_t> values;
  float scale = 1.0f;  ///< real = scale * q
};

/// Largest symmetric quantized magnitude Q such that
/// reduction_len * Q * Q < 2^31 (and Q <= 32767).
std::int32_t choose_qmax(std::int64_t reduction_len);

/// Quantize `n` floats symmetrically into [-qmax, qmax].
QuantizedTensor quantize_tensor(const float* data, std::size_t n,
                                std::int32_t qmax);

/// Dequantize helper (tests/examples).
void dequantize(const QuantizedTensor& q, float* out);

/// input NCHW int16, filter KCRS int16 -> raw int32 accumulators
/// [N,K,P,Q] (value = in_scale * flt_scale * acc in real units).
void ndirect_conv_int16(const std::int16_t* input,
                        const std::int16_t* filter, std::int32_t* output,
                        const ConvParams& p, ThreadPool* pool = nullptr);

/// Full quantized pipeline: quantize fp32 tensors (ranges derived from
/// the data and the overflow contract), convolve in int16/int32, and
/// return the dequantized fp32 result. The quantization error bound is
/// what tests assert against the fp32 reference.
std::vector<float> quantized_conv_fp32(const float* input,
                                       const float* filter,
                                       const ConvParams& p,
                                       ThreadPool* pool = nullptr);

/// Naive int64-accumulation reference (exact) for tests.
void naive_conv_int16(const std::int16_t* input,
                      const std::int16_t* filter, std::int64_t* output,
                      const ConvParams& p);

// ---------------------------------------------------------------------------
// INT8 path
// ---------------------------------------------------------------------------

/// Largest symmetric s8 magnitude Q (<= 127) such that a reduction of
/// `reduction_len` worst-case products provably fits an int32
/// accumulator: reduction_len * Q^2 <= 2^31 - 1. Returns 127 for every
/// reduction up to 133144 elements and only then starts shrinking —
/// the int8 analogue of choose_qmax().
std::int32_t choose_qmax_int8(std::int64_t reduction_len);

/// Asymmetric u8 activation quantization: real = scale * (u - zero_point).
struct QuantizedActivation {
  std::vector<std::uint8_t> values;
  float scale = 1.0f;
  int zero_point = 0;  ///< in [0, 255]
};

/// Min/max calibration over `n` floats (the range always includes 0 so
/// zero is exactly representable, as padding demands). Both the range
/// pass and the quantize pass run chunked and vectorized on `pool`
/// (nullptr = ThreadPool::global()); the result is bitwise identical to
/// the scalar definition u = clamp(lrintf(x / scale) + zero_point, 0,
/// 255) over the std::min / std::max range, whatever the pool size.
QuantizedActivation quantize_activation_u8(const float* data,
                                           std::size_t n,
                                           ThreadPool* pool = nullptr);

/// Symmetric per-output-channel s8 filter quantization:
/// real = scales[k] * w for filter k's C*R*S taps.
struct QuantizedFilterI8 {
  std::vector<std::int8_t> values;  ///< KCRS
  std::vector<float> scales;        ///< K
};

QuantizedFilterI8 quantize_filter_i8(const float* filter,
                                     const ConvParams& p);

/// What the epilogue does with a tile's int32 accumulators (after the
/// zero-point compensation is added). Exactly one output pointer in
/// Int8Output selects the mode.
struct Int8Epilogue {
  // s8 requantize mode: q = clamp(rne(acc * requant_scale[k]) +
  // out_zero_point, -127, 127), with the int32 bias added to acc first.
  const float* requant_scale = nullptr;   ///< K; in_s*w_s[k]/out_s
  const std::int32_t* bias_i32 = nullptr; ///< K, pre-quantized; optional
  int out_zero_point = 0;
  // f32 dequantize mode: y = (acc * dequant_scale[k] + bias[k]) +
  // residual, then the ReLU.
  const float* dequant_scale = nullptr;   ///< K; in_s*w_s[k]
  const float* bias = nullptr;            ///< K fp32; optional
  /// fp32 [N,K,P,Q] added element-wise before the ReLU (the fp32
  /// engine's ConvEpilogue::residual); optional, f32 mode only —
  /// run() throws std::invalid_argument in the s8 and i32 modes.
  const float* residual = nullptr;
  bool relu = false;  ///< fused max(., relu point) in s8/f32 modes
};

/// Destination [N,K,P,Q]; set exactly one. i32 receives the raw
/// compensated accumulators (the exact integer convolution of
/// (u - zp) * w, bias excluded).
struct Int8Output {
  std::int32_t* i32 = nullptr;
  std::int8_t* s8 = nullptr;
  float* f32 = nullptr;
};

struct Int8RunStats {
  std::uint64_t tiles = 0;
  std::uint64_t generic_fallback = 0;  ///< tiles run by the scalar generic
  Int8Backend backend = Int8Backend::kScalar;  ///< backend actually used
  int vw = 0, vk = 0;
  const char* reason = "";  ///< why fn resolution degraded, if it did
};

struct Int8ConvOptions {
  /// Force a register block (0 = solve Eq. 3 for S, like fp32).
  RegisterBlock force_block{0, 0};
  /// Backend request; defaults to the best this host supports
  /// (kDot when int8_dot_available() unless NDIRECT_FORCE_NO_DOTPROD
  /// is set).
  Int8Backend backend = int8_preferred_backend();
  ThreadPool* pool = nullptr;  ///< nullptr = ThreadPool::global()
  /// Reuse the packed filter across run() calls: one entry per filter
  /// pointer, validated by filter_fingerprint (the fp32 engine's
  /// PackedFilterCache).
  bool cache_packed_filter = true;
  /// When non-null, filled after each run with that run's per-worker
  /// telemetry, exactly like NdirectOptions::telemetry: units claimed,
  /// steals, pack / micro-kernel nanoseconds (the micro-kernel phase
  /// includes the requantize epilogue), cache hits, PMU deltas and the
  /// run's wall time. Point concurrent runs at distinct sinks.
  TelemetrySnapshot* telemetry = nullptr;
};

/// The int8 direct-convolution engine. Holds the conv geometry, the
/// resolved micro-kernel, and the packed-filter cache; run() is
/// re-entrant and const. Its tiles run on the fp32 engine's driver
/// (core/tile_driver.h): the same stealing scheduler, scratch arenas
/// and telemetry.
class Int8Conv {
 public:
  struct PackedFilter;  ///< opaque packed-filter cache payload

  explicit Int8Conv(const ConvParams& p, const Int8ConvOptions& opt = {});
  ~Int8Conv();
  Int8Conv(const Int8Conv&) = delete;
  Int8Conv& operator=(const Int8Conv&) = delete;

  const ConvParams& params() const { return p_; }
  RegisterBlock block() const { return rb_; }
  /// Backend the resolved kernel will use (kScalar = generic fallback).
  Int8Backend backend() const;

  /// Pack `filter` (KCRS s8) into the tiled layout and record per-k
  /// row sums (the zero-point compensation base). Implicit on first
  /// run(); call ahead of time to move the cost out of the hot path.
  void prepare_filter(const std::int8_t* filter) const;

  /// u8 NCHW input -> epilogue-selected output. `in_zero_point` is the
  /// activation zero point in [0, 255].
  void run(const std::uint8_t* input, int in_zero_point,
           const std::int8_t* filter, const Int8Epilogue& ep,
           const Int8Output& out, Int8RunStats* stats = nullptr) const;

 private:
  const PackedFilter& cached_filter(const std::int8_t* filter,
                                    bool* cache_hit) const;

  ConvParams p_;
  Int8ConvOptions opt_;
  RegisterBlock rb_;
  I8KernelResolution kres_;
  std::unique_ptr<PackedFilterCache<PackedFilter>> cache_;
};

/// Convenience wrapper mirroring quantized_conv_fp32: quantize fp32
/// input (u8 asymmetric) and filter (s8 per-channel), convolve through
/// Int8Conv, and dequantize to fp32 with optional fused bias + ReLU.
std::vector<float> int8_conv_fp32(const float* input, const float* filter,
                                  const ConvParams& p,
                                  const float* bias = nullptr,
                                  bool relu = false,
                                  const Int8ConvOptions& opt = {},
                                  Int8RunStats* stats = nullptr);

/// Naive exact reference: raw = sum (u - zp) * w with int32
/// accumulation (tests compare Int8Conv's i32 mode bitwise).
void naive_conv_int8(const std::uint8_t* input, int in_zero_point,
                     const std::int8_t* filter, std::int32_t* output,
                     const ConvParams& p);

}  // namespace ndirect
