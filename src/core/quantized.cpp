#include "core/quantized.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "core/fai.h"
#include "core/filter_transform.h"
#include "core/tile_driver.h"
#include "runtime/aligned_buffer.h"
#include "simd/vec128.h"
#include "simd/vec128_int8.h"

namespace ndirect {

std::int32_t choose_qmax(std::int64_t reduction_len) {
  if (reduction_len < 1) reduction_len = 1;
  const double limit =
      std::sqrt(static_cast<double>((1u << 31) - 1) /
                static_cast<double>(reduction_len));
  return static_cast<std::int32_t>(
      std::min(32767.0, std::floor(limit)));
}

QuantizedTensor quantize_tensor(const float* data, std::size_t n,
                                std::int32_t qmax) {
  QuantizedTensor q;
  float max_abs = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    max_abs = std::max(max_abs, std::fabs(data[i]));
  }
  q.scale = max_abs > 0 ? max_abs / static_cast<float>(qmax) : 1.0f;
  q.values.resize(n);
  const float inv = 1.0f / q.scale;
  for (std::size_t i = 0; i < n; ++i) {
    const float v = data[i] * inv;
    const auto r = static_cast<std::int32_t>(std::lrintf(v));
    q.values[i] = static_cast<std::int16_t>(
        std::clamp<std::int32_t>(r, -qmax, qmax));
  }
  return q;
}

void dequantize(const QuantizedTensor& q, float* out) {
  for (std::size_t i = 0; i < q.values.size(); ++i) {
    out[i] = q.scale * static_cast<float>(q.values[i]);
  }
}

namespace {

// Pack one (c, ih) int16 row segment with zero padding.
void pack_row_i16(std::int16_t* dst, const std::int16_t* image, int c,
                  int ih, int iw0, const ConvParams& p, int packw) {
  if (ih < 0 || ih >= p.H) {
    std::memset(dst, 0,
                sizeof(std::int16_t) * static_cast<std::size_t>(packw));
    return;
  }
  const std::int16_t* row =
      image + (static_cast<std::int64_t>(c) * p.H + ih) * p.W;
  for (int t = 0; t < packw; ++t) {
    const int iw = iw0 + t;
    dst[t] = (iw < 0 || iw >= p.W) ? std::int16_t{0} : row[iw];
  }
}

}  // namespace

void ndirect_conv_int16(const std::int16_t* input,
                        const std::int16_t* filter, std::int32_t* output,
                        const ConvParams& p, ThreadPool* pool) {
  assert(p.valid());
  ThreadPool& tp = pool != nullptr ? *pool : ThreadPool::global();
  // Register block: int16 packs 8 lanes per 128-bit vector but
  // accumulates in 4-lane int32, so the accumulator budget matches the
  // FP32 geometry; reuse the FP32 solution (widening halves vk's
  // effective lanes, hence vk stays a multiple of 4).
  const RegisterBlock rb = solve_register_block(p.S);
  const int vw = rb.vw, vk = rb.vk;
  const int packw = (vw - 1) * p.str + p.S;
  const int P = p.P(), Q = p.Q();
  const std::int64_t kb_count = (p.K + vk - 1) / vk;
  const std::int64_t crs = std::int64_t{p.C} * p.R * p.S;
  const std::int64_t rs = std::int64_t{p.R} * p.S;

  // Widen-free packed filter: [KB][C][R][S][vk] int16, K zero-padded.
  AlignedBuffer<std::int16_t> packed_filter(
      static_cast<std::size_t>(kb_count) * p.C * rs * vk);
  packed_filter.fill_zero();
  for (int k = 0; k < p.K; ++k) {
    const std::int64_t kb = k / vk, ki = k % vk;
    for (int c = 0; c < p.C; ++c) {
      for (std::int64_t e = 0; e < rs; ++e) {
        packed_filter[static_cast<std::size_t>(
            ((kb * p.C + c) * rs + e) * vk + ki)] =
            filter[k * crs + c * rs + e];
      }
    }
  }

  const std::int64_t total_rows = std::int64_t{p.N} * P;
  tp.parallel_for(
      static_cast<std::size_t>(total_rows),
      [&](std::size_t row_begin, std::size_t row_end) {
        AlignedBuffer<std::int16_t> pack(
            static_cast<std::size_t>(p.C) * p.R * packw);
        std::vector<std::int32_t> acc(
            static_cast<std::size_t>(vw) * vk);
        for (std::size_t row = row_begin; row < row_end; ++row) {
          const std::int64_t n = static_cast<std::int64_t>(row) / P;
          const int oh = static_cast<int>(row % P);
          const std::int16_t* image =
              input + n * std::int64_t{p.C} * p.H * p.W;
          std::int32_t* out_image =
              output + n * std::int64_t{p.K} * P * Q;

          for (int wv = 0; wv < Q; wv += vw) {
            const int wn = std::min(vw, Q - wv);
            for (int c = 0; c < p.C; ++c) {
              for (int r = 0; r < p.R; ++r) {
                pack_row_i16(
                    pack.data() +
                        (static_cast<std::int64_t>(c) * p.R + r) * packw,
                    image, c, oh * p.str + r - p.pad, wv * p.str - p.pad,
                    p, packw);
              }
            }
            for (std::int64_t kb = 0; kb < kb_count; ++kb) {
              const std::int64_t kv = kb * vk;
              const int kn =
                  static_cast<int>(std::min<std::int64_t>(vk, p.K - kv));
              std::fill(acc.begin(), acc.end(), 0);
              const std::int16_t* ftile =
                  packed_filter.data() + kb * p.C * rs * vk;
              // The widening MAC loop (SMLAL shape): int16 * int16
              // products accumulate into int32 lanes.
              for (int c = 0; c < p.C; ++c) {
                const std::int16_t* brows =
                    pack.data() +
                    (static_cast<std::int64_t>(c) * p.R) * packw;
                const std::int16_t* fc = ftile + c * rs * vk;
                for (int r = 0; r < p.R; ++r) {
                  const std::int16_t* brow = brows + r * packw;
                  const std::int16_t* frow = fc + r * p.S * vk;
                  for (int s = 0; s < p.S; ++s) {
                    const std::int16_t* fv = frow + s * vk;
                    for (int w = 0; w < wn; ++w) {
                      const std::int32_t x = brow[w * p.str + s];
                      std::int32_t* arow = acc.data() + w * vk;
                      for (int j = 0; j < kn; ++j) {
                        arow[j] += x * fv[j];
                      }
                    }
                  }
                }
              }
              for (int k = 0; k < kn; ++k) {
                std::int32_t* orow =
                    out_image + ((kv + k) * P + oh) * Q + wv;
                for (int w = 0; w < wn; ++w) {
                  orow[w] = acc[static_cast<std::size_t>(w) * vk +
                                static_cast<std::size_t>(k)];
                }
              }
            }
          }
        }
      });
}

std::vector<float> quantized_conv_fp32(const float* input,
                                       const float* filter,
                                       const ConvParams& p,
                                       ThreadPool* pool) {
  const std::int64_t reduction = std::int64_t{p.C} * p.R * p.S;
  const std::int32_t qmax = choose_qmax(reduction);
  const QuantizedTensor qin = quantize_tensor(
      input, static_cast<std::size_t>(p.input_elems()), qmax);
  const QuantizedTensor qflt = quantize_tensor(
      filter, static_cast<std::size_t>(p.filter_elems()), qmax);

  std::vector<std::int32_t> acc(
      static_cast<std::size_t>(p.output_elems()));
  ndirect_conv_int16(qin.values.data(), qflt.values.data(), acc.data(), p,
                     pool);

  std::vector<float> out(acc.size());
  const float scale = qin.scale * qflt.scale;
  for (std::size_t i = 0; i < acc.size(); ++i) {
    out[i] = scale * static_cast<float>(acc[i]);
  }
  return out;
}

void naive_conv_int16(const std::int16_t* input,
                      const std::int16_t* filter, std::int64_t* output,
                      const ConvParams& p) {
  const int P = p.P(), Q = p.Q();
  for (int n = 0; n < p.N; ++n)
    for (int k = 0; k < p.K; ++k)
      for (int oj = 0; oj < P; ++oj)
        for (int oi = 0; oi < Q; ++oi) {
          std::int64_t sum = 0;
          for (int c = 0; c < p.C; ++c)
            for (int r = 0; r < p.R; ++r) {
              const int ij = p.str * oj + r - p.pad;
              if (ij < 0 || ij >= p.H) continue;
              for (int s = 0; s < p.S; ++s) {
                const int ii = p.str * oi + s - p.pad;
                if (ii < 0 || ii >= p.W) continue;
                sum += static_cast<std::int64_t>(
                           input[((std::int64_t{n} * p.C + c) * p.H +
                                  ij) *
                                     p.W +
                                 ii]) *
                       filter[((std::int64_t{k} * p.C + c) * p.R + r) *
                                  p.S +
                              s];
              }
            }
          output[((std::int64_t{n} * p.K + k) * P + oj) * Q + oi] = sum;
        }
}

// ---------------------------------------------------------------------------
// INT8 path
// ---------------------------------------------------------------------------

std::int32_t choose_qmax_int8(std::int64_t reduction_len) {
  // Exact integer search (the sqrt/floor shortcut of choose_qmax is off
  // by one exactly at the boundary: 133144 * 127^2 = 2147479576 still
  // fits, but floor(sqrt(INT32_MAX / 133144)) = 126).
  constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
  if (reduction_len < 1) reduction_len = 1;
  if (reduction_len >= kMax) return 1;
  std::int32_t q = 127;
  while (q > 1 && reduction_len * q * q > kMax) --q;
  return q;
}

namespace {

// Activation quantization runs before every quantized conv, so it is
// chunked across the conv's pool and vectorized. Both passes must
// reproduce the scalar definition bit for bit:
//   lo = std::min(lo, x), hi = std::max(hi, x)        (range pass)
//   u  = clamp(int32(lrintf(x * inv)) + zp, 0, 255)    (quantize pass)

/// Floats per chunk: big enough that a pool dispatch is noise next to
/// the chunk's memory traffic, small enough that a 56x56x256 activation
/// still spreads over every worker.
constexpr std::size_t kQuantChunk = std::size_t{1} << 15;

void minmax_chunk(const float* x, std::size_t n, float& lo, float& hi) {
  std::size_t i = 0;
#if defined(NDIRECT_SIMD_SSE)
  // _mm_min_ps(a, b) is (a < b) ? a : b, so with the element first it
  // is exactly std::min(lo, x) = (x < lo) ? x : lo: a NaN element and a
  // -0.0f against +0.0f both leave the accumulator alone. Likewise
  // _mm_max_ps(x, hi) = (x > hi) ? x : hi = std::max(hi, x). Neither
  // NaN nor -0.0f can therefore enter a lane, which makes the lane and
  // chunk combination order irrelevant.
  __m128 vlo0 = _mm_set1_ps(lo), vlo1 = vlo0;
  __m128 vhi0 = _mm_set1_ps(hi), vhi1 = vhi0;
  for (; i + 8 <= n; i += 8) {
    const __m128 a = _mm_loadu_ps(x + i);
    const __m128 b = _mm_loadu_ps(x + i + 4);
    vlo0 = _mm_min_ps(a, vlo0);
    vlo1 = _mm_min_ps(b, vlo1);
    vhi0 = _mm_max_ps(a, vhi0);
    vhi1 = _mm_max_ps(b, vhi1);
  }
  float l[4], h[4];
  _mm_storeu_ps(l, _mm_min_ps(vlo0, vlo1));
  _mm_storeu_ps(h, _mm_max_ps(vhi0, vhi1));
  for (int j = 0; j < 4; ++j) {
    lo = std::min(lo, l[j]);
    hi = std::max(hi, h[j]);
  }
#endif
  for (; i < n; ++i) {
    lo = std::min(lo, x[i]);
    hi = std::max(hi, x[i]);
  }
}

void quantize_chunk(const float* x, std::size_t n, float inv, int zp,
                    std::uint8_t* out) {
  std::size_t i = 0;
#if defined(NDIRECT_SIMD_SSE)
  // CVTPS2DQ rounds like lrintf (current mode, round-to-nearest-even by
  // default) wherever |t| < 2^31. NaN and +-inf — the only other values
  // x * inv can take, since |x| <= range and inv = 255 / range — make
  // x86-64 lrintf return LONG_MIN, whose int32 narrowing is 0: the mask
  // reproduces that. PACKSSDW + PACKUSWB saturate monotonically, which
  // is exactly clamp(v, 0, 255).
  const __m128 vinv = _mm_set1_ps(inv);
  const __m128 limit = _mm_set1_ps(2147483648.0f);
  const __m128 abs_mask = _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff));
  const __m128i vzp = _mm_set1_epi32(zp);
  auto lanes = [&](const float* p) {
    const __m128 t = _mm_mul_ps(_mm_loadu_ps(p), vinv);
    const __m128 ok = _mm_cmplt_ps(_mm_and_ps(t, abs_mask), limit);
    return _mm_add_epi32(
        _mm_and_si128(_mm_cvtps_epi32(t), _mm_castps_si128(ok)), vzp);
  };
  for (; i + 16 <= n; i += 16) {
    const __m128i w01 = _mm_packs_epi32(lanes(x + i), lanes(x + i + 4));
    const __m128i w23 =
        _mm_packs_epi32(lanes(x + i + 8), lanes(x + i + 12));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_packus_epi16(w01, w23));
  }
#endif
  for (; i < n; ++i) {
    const std::int32_t v =
        static_cast<std::int32_t>(std::lrintf(x[i] * inv)) + zp;
    out[i] = static_cast<std::uint8_t>(std::clamp<std::int32_t>(v, 0, 255));
  }
}

/// Run fn(begin, end) over [0, n) in kQuantChunk pieces on `pool`
/// (inline when one chunk covers it).
template <typename Fn>
void for_each_chunk(ThreadPool* pool, std::size_t n, Fn&& fn) {
  const std::size_t chunks = (n + kQuantChunk - 1) / kQuantChunk;
  if (chunks <= 1) {
    fn(std::size_t{0}, n);
    return;
  }
  ThreadPool& tp = pool != nullptr ? *pool : ThreadPool::global();
  tp.run(chunks, [&](std::size_t c) {
    fn(c * kQuantChunk, std::min(n, (c + 1) * kQuantChunk));
  });
}

}  // namespace

QuantizedActivation quantize_activation_u8(const float* data,
                                           std::size_t n,
                                           ThreadPool* pool) {
  const std::size_t chunks = (n + kQuantChunk - 1) / kQuantChunk;
  std::vector<float> chunk_lo(chunks, 0.0f), chunk_hi(chunks, 0.0f);
  for_each_chunk(pool, n, [&](std::size_t b, std::size_t e) {
    const std::size_t c = b / kQuantChunk;
    minmax_chunk(data + b, e - b, chunk_lo[c], chunk_hi[c]);
  });
  float lo = 0.0f, hi = 0.0f;  // range includes 0 (exact padding)
  for (std::size_t c = 0; c < chunks; ++c) {
    lo = std::min(lo, chunk_lo[c]);
    hi = std::max(hi, chunk_hi[c]);
  }
  QuantizedActivation q;
  const float range = hi - lo;
  q.scale = range > 0 ? range / 255.0f : 1.0f;
  const float inv = 1.0f / q.scale;
  q.zero_point = std::clamp<std::int32_t>(
      static_cast<std::int32_t>(std::lrintf(-lo * inv)), 0, 255);
  q.values.resize(n);
  for_each_chunk(pool, n, [&](std::size_t b, std::size_t e) {
    quantize_chunk(data + b, e - b, inv, q.zero_point, q.values.data() + b);
  });
  return q;
}

QuantizedFilterI8 quantize_filter_i8(const float* filter,
                                     const ConvParams& p) {
  const std::int64_t crs = std::int64_t{p.C} * p.R * p.S;
  const std::int32_t qmax = choose_qmax_int8(crs);
  QuantizedFilterI8 q;
  q.values.resize(static_cast<std::size_t>(p.K) * crs);
  q.scales.resize(static_cast<std::size_t>(p.K));
  for (int k = 0; k < p.K; ++k) {
    const float* src = filter + k * crs;
    float max_abs = 0.0f;
    for (std::int64_t e = 0; e < crs; ++e) {
      max_abs = std::max(max_abs, std::fabs(src[e]));
    }
    const float scale =
        max_abs > 0 ? max_abs / static_cast<float>(qmax) : 1.0f;
    q.scales[static_cast<std::size_t>(k)] = scale;
    const float inv = 1.0f / scale;
    std::int8_t* dst = q.values.data() + k * crs;
    for (std::int64_t e = 0; e < crs; ++e) {
      const auto r = static_cast<std::int32_t>(std::lrintf(src[e] * inv));
      dst[e] = static_cast<std::int8_t>(
          std::clamp<std::int32_t>(r, -qmax, qmax));
    }
  }
  return q;
}

/// Packed filter: [kb][c4][R][S][vk][4] s8 (K zero-padded to vk, C to
/// 4) plus per-k filter-tap sums (the zero-point compensation base).
struct Int8Conv::PackedFilter {
  AlignedBuffer<std::int8_t> data;
  std::vector<std::int32_t> rowsum;  ///< K: sum of filter k's s8 taps
};

namespace {

/// The execution shape: 1x1/stride-1/no-pad convolutions flatten the
/// P x Q output plane into one long row (the fp32 engine's row
/// flattening), so late small-spatial layers don't pay a ragged tile
/// per 7-wide row.
struct I8ExecShape {
  int H, W, P, Q;
};

I8ExecShape i8_exec_shape(const ConvParams& p) {
  if (p.R == 1 && p.S == 1 && p.str == 1 && p.pad == 0) {
    return {1, p.H * p.W, 1, p.P() * p.Q()};
  }
  return {p.H, p.W, p.P(), p.Q()};
}

/// Pack one input window: [c4][R][rowbytes] with every byte XORed with
/// 0x80 (u - 128 as s8). Spatial padding and the c >= C channel lanes
/// fill with `border` = zp ^ 0x80, so border taps cancel exactly under
/// the zero-point compensation and padded channel lanes meet zero
/// filter taps.
void i8_pack_window(std::int8_t* dst, const std::uint8_t* image, int C,
                    int H, int W, int c4, int R, int ih0, int iw0,
                    int packw, int rowbytes, std::int8_t border) {
  for (int g = 0; g < c4; ++g) {
    for (int r = 0; r < R; ++r) {
      std::int8_t* drow =
          dst + (static_cast<std::int64_t>(g) * R + r) * rowbytes;
      std::memset(drow, border, static_cast<std::size_t>(rowbytes));
      const int ih = ih0 + r;
      if (ih < 0 || ih >= H) continue;
      const int t0 = std::max(0, -iw0);
      const int t1 = std::min(packw, W - iw0);
      for (int j = 0; j < 4; ++j) {
        const int c = 4 * g + j;
        if (c >= C) break;
        const std::uint8_t* row =
            image + (static_cast<std::int64_t>(c) * H + ih) * W + iw0;
        std::int8_t* d = drow + j;
        for (int t = t0; t < t1; ++t) {
          d[4 * t] = static_cast<std::int8_t>(row[t] ^ 0x80u);
        }
      }
    }
  }
}

/// Finish one vw x kn accumulator tile: add the zero-point compensation
/// and store through the epilogue mode. Shared by every backend, so
/// outputs are bitwise identical whenever the accumulators are.
void i8_store_tile(const Int8Epilogue& ep, const Int8Output& out,
                   const std::int32_t* acc, const std::int32_t* comp,
                   int vw, int wn, int kn, std::int64_t kv,
                   std::int64_t k_stride, std::int64_t base) {
  for (int k = 0; k < kn; ++k) {
    const std::int64_t kk = kv + k;
    const std::int32_t* arow = acc + static_cast<std::int64_t>(k) * vw;
    const std::int64_t off = base + kk * k_stride;
    const std::int32_t cadd = comp[kk];
    if (out.f32 != nullptr) {
      float* orow = out.f32 + off;
      const float* rrow = ep.residual != nullptr ? ep.residual + off : nullptr;
      const vec128f dq = vdup(ep.dequant_scale[kk]);
      const vec128f bb =
          vdup(ep.bias != nullptr ? ep.bias[kk] : 0.0f);
      const vec128i cc = vdup_i32(cadd);
      for (int w0 = 0; w0 < wn; w0 += 4) {
        const int m = std::min(4, wn - w0);
        vec128f v = vfma(
            bb, vcvt_f32_i32(vadd_i32(vload_i32(arow + w0), cc)), dq);
        if (rrow != nullptr) v = vadd(v, vload_lanes(rrow + w0, m));
        if (ep.relu) v = vmax(v, vzero());
        if (m == 4) {
          vstore(orow + w0, v);
        } else {
          vstore_lanes(orow + w0, v, m);
        }
      }
    } else if (out.s8 != nullptr) {
      std::int8_t* orow = out.s8 + off;
      const float mult = ep.requant_scale[kk];
      const std::int32_t badd =
          ep.bias_i32 != nullptr ? ep.bias_i32[kk] : 0;
      for (int w = 0; w < wn; ++w) {
        const std::int32_t a = arow[w] + cadd + badd;
        // Round-to-nearest-even (nearbyintf under the default
        // FE_TONEAREST mode), then saturate to the symmetric [-127,
        // 127] range around the output zero point.
        std::int32_t q = static_cast<std::int32_t>(std::nearbyintf(
                             static_cast<float>(a) * mult)) +
                         ep.out_zero_point;
        if (ep.relu) q = std::max(q, ep.out_zero_point);
        orow[w] = static_cast<std::int8_t>(
            std::clamp<std::int32_t>(q, -127, 127));
      }
    } else {
      std::int32_t* orow = out.i32 + off;
      const vec128i cc = vdup_i32(cadd);
      int w = 0;
      for (; w + 4 <= wn; w += 4) {
        vstore_i32(orow + w, vadd_i32(vload_i32(arow + w), cc));
      }
      for (; w < wn; ++w) orow[w] = arow[w] + cadd;
    }
  }
}

Int8Conv::PackedFilter i8_pack_filter(const std::int8_t* filter,
                                      const ConvParams& p, int vk) {
  const std::int64_t c4 = (p.C + 3) / 4;
  const std::int64_t kb_count = (p.K + vk - 1) / vk;
  const std::int64_t rs = std::int64_t{p.R} * p.S;
  const std::int64_t crs = std::int64_t{p.C} * rs;
  const std::int64_t tile = c4 * rs * vk * 4;  // bytes per kb
  Int8Conv::PackedFilter pf;
  pf.data.reset(static_cast<std::size_t>(kb_count * tile));
  pf.data.fill_zero();
  pf.rowsum.assign(static_cast<std::size_t>(p.K), 0);
  for (int k = 0; k < p.K; ++k) {
    const std::int64_t kb = k / vk, ki = k % vk;
    std::int32_t sum = 0;
    for (int c = 0; c < p.C; ++c) {
      const std::int64_t g = c / 4, j = c % 4;
      const std::int8_t* src = filter + k * crs + c * rs;
      // dst tap (kb, g, r, s): vector byte ki*4 + j of the vk*4 block.
      std::int8_t* dst =
          pf.data.data() + kb * tile + g * rs * vk * 4 + ki * 4 + j;
      for (std::int64_t e = 0; e < rs; ++e) {
        dst[e * vk * 4] = src[e];
        sum += src[e];
      }
    }
    pf.rowsum[static_cast<std::size_t>(k)] = sum;
  }
  return pf;
}

}  // namespace

Int8Conv::Int8Conv(const ConvParams& p, const Int8ConvOptions& opt)
    : p_(p),
      opt_(opt),
      cache_(std::make_unique<PackedFilterCache<PackedFilter>>()) {
  rb_ = (opt_.force_block.vw > 0 && opt_.force_block.vk > 0)
            ? opt_.force_block
            : solve_register_block(p_.S);
  kres_ = resolve_int8_kernel(rb_.vw, rb_.vk, p_.S, p_.str, opt_.backend);
}

Int8Conv::~Int8Conv() = default;

Int8Backend Int8Conv::backend() const {
  return kres_.fn != nullptr ? kres_.backend : Int8Backend::kScalar;
}

const Int8Conv::PackedFilter& Int8Conv::cached_filter(
    const std::int8_t* filter, bool* cache_hit) const {
  return cache_->get(
      filter, static_cast<std::size_t>(p_.filter_elems()),
      [&] { return i8_pack_filter(filter, p_, rb_.vk); }, cache_hit);
}

void Int8Conv::prepare_filter(const std::int8_t* filter) const {
  if (opt_.cache_packed_filter) (void)cached_filter(filter, nullptr);
}

void Int8Conv::run(const std::uint8_t* input, int in_zero_point,
                   const std::int8_t* filter, const Int8Epilogue& ep,
                   const Int8Output& out, Int8RunStats* stats) const {
  assert(p_.valid());
  assert((out.i32 != nullptr) + (out.s8 != nullptr) +
             (out.f32 != nullptr) ==
         1);
  if (ep.residual != nullptr && out.f32 == nullptr) {
    throw std::invalid_argument(
        "Int8Conv::run: a residual needs the f32 output mode");
  }
  PackedFilter uncached;
  bool cache_hit = false;
  const PackedFilter* pf = &uncached;
  if (opt_.cache_packed_filter) {
    pf = &cached_filter(filter, &cache_hit);
  } else {
    uncached = i8_pack_filter(filter, p_, rb_.vk);
  }

  const int vw = rb_.vw, vk = rb_.vk;
  const I8ExecShape ex = i8_exec_shape(p_);
  const int packw = (vw - 1) * p_.str + p_.S;
  const int rowbytes = ((packw + 3) / 4) * 16;
  const int c4 = (p_.C + 3) / 4;
  const std::int64_t kb_count = (p_.K + vk - 1) / vk;
  const std::int64_t ftile_stride =
      static_cast<std::int64_t>(c4) * p_.R * p_.S * vk * 4;
  const std::int64_t k_stride = std::int64_t{ex.P} * ex.Q;
  const auto border =
      static_cast<std::int8_t>(static_cast<unsigned>(in_zero_point) ^
                               0x80u);

  // comp[k] = (128 - zp) * sum(w_k): rowsum is cached at pack time, the
  // zero point arrives per run.
  std::vector<std::int32_t> comp(static_cast<std::size_t>(p_.K));
  for (int k = 0; k < p_.K; ++k) {
    comp[static_cast<std::size_t>(k)] =
        (128 - in_zero_point) * pf->rowsum[static_cast<std::size_t>(k)];
  }

  // A work unit is one (exec row, Vw column tile) with every K block
  // inside it, so the grid is one column wide (ptk = 1). Units are
  // seeded as contiguous per-worker ranges and idle workers steal.
  const I8KernelFn fn = kres_.fn;
  const int tq = (ex.Q + vw - 1) / vw;
  const std::int64_t tiles_per_image = std::int64_t{ex.P} * tq;
  const std::int64_t units = p_.N * tiles_per_image;
  const ThreadPool& pool =
      opt_.pool != nullptr ? *opt_.pool : ThreadPool::global();
  const int workers = static_cast<int>(
      std::min<std::int64_t>(units, static_cast<std::int64_t>(pool.size())));
  TileRun run;
  run.rows = static_cast<int>(units);
  run.cols = 1;
  run.row_parts = workers;
  run.workers = workers;
  run.scratch_floats[0] = static_cast<std::size_t>(c4) * p_.R * rowbytes / 4;
  run.scratch_floats[1] = static_cast<std::size_t>(vw) * vk;
  run.cache_hits = cache_hit ? 1 : 0;
  run.span = "int8.run";
  run.pool = opt_.pool;
  run.telemetry = opt_.telemetry;

  drive_tiles(run, [&]<bool kCollect>(TileWorker<kCollect>& w, int unit,
                                       int) {
    auto* pack = reinterpret_cast<std::int8_t*>(w.scratch[0]);
    auto* acc = reinterpret_cast<std::int32_t*>(w.scratch[1]);
    const std::int64_t n = unit / tiles_per_image;
    const std::int64_t rem = unit % tiles_per_image;
    const int oh = static_cast<int>(rem / tq);
    const int wv = static_cast<int>(rem % tq) * vw;
    const int wn = std::min(vw, ex.Q - wv);
    const std::uint8_t* image = input + n * std::int64_t{p_.C} * ex.H * ex.W;
    const std::int64_t out_base =
        n * std::int64_t{p_.K} * k_stride + std::int64_t{oh} * ex.Q + wv;

    w.pack([&] {
      i8_pack_window(pack, image, p_.C, ex.H, ex.W, c4, p_.R,
                     oh * p_.str - p_.pad, wv * p_.str - p_.pad, packw,
                     rowbytes, border);
    });
    w.micro([&] {
      for (std::int64_t kb = 0; kb < kb_count; ++kb) {
        const std::int64_t kv = kb * vk;
        const int kn =
            static_cast<int>(std::min<std::int64_t>(vk, p_.K - kv));
        I8MicroArgs a;
        a.pack = pack;
        a.pack_c4_stride = std::int64_t{p_.R} * rowbytes;
        a.pack_r_stride = rowbytes;
        a.ftile = pf->data.data() + kb * ftile_stride;
        a.f_c4_stride = std::int64_t{p_.R} * p_.S * vk * 4;
        a.c4 = c4;
        a.R = p_.R;
        a.S = p_.S;
        a.str = p_.str;
        a.packw = packw;
        a.acc = acc;
        if (fn != nullptr) {
          fn(a);
        } else {
          ++w.generic_calls;
          int8_kernel_generic(a, vw, vk);
        }
        i8_store_tile(ep, out, acc, comp.data(), vw, wn, kn, kv, k_stride,
                      out_base);
      }
    });
  });

  if (stats != nullptr) {
    // Both counts are fixed by the geometry: every unit runs every K
    // block, all through the generic kernel when none resolved.
    stats->tiles = static_cast<std::uint64_t>(units * kb_count);
    stats->generic_fallback = fn == nullptr ? stats->tiles : 0;
    stats->backend = backend();
    stats->vw = vw;
    stats->vk = vk;
    stats->reason = kres_.reason;
  }
}

std::vector<float> int8_conv_fp32(const float* input, const float* filter,
                                  const ConvParams& p, const float* bias,
                                  bool relu, const Int8ConvOptions& opt,
                                  Int8RunStats* stats) {
  const QuantizedActivation qin = quantize_activation_u8(
      input, static_cast<std::size_t>(p.input_elems()), opt.pool);
  const QuantizedFilterI8 qf = quantize_filter_i8(filter, p);
  std::vector<float> dq(static_cast<std::size_t>(p.K));
  for (int k = 0; k < p.K; ++k) {
    dq[static_cast<std::size_t>(k)] =
        qin.scale * qf.scales[static_cast<std::size_t>(k)];
  }
  Int8Epilogue ep;
  ep.dequant_scale = dq.data();
  ep.bias = bias;
  ep.relu = relu;
  std::vector<float> result(static_cast<std::size_t>(p.output_elems()));
  Int8Output o;
  o.f32 = result.data();
  const Int8Conv conv(p, opt);
  conv.run(qin.values.data(), qin.zero_point, qf.values.data(), ep, o,
           stats);
  return result;
}

void naive_conv_int8(const std::uint8_t* input, int in_zero_point,
                     const std::int8_t* filter, std::int32_t* output,
                     const ConvParams& p) {
  const int P = p.P(), Q = p.Q();
  for (int n = 0; n < p.N; ++n)
    for (int k = 0; k < p.K; ++k)
      for (int oj = 0; oj < P; ++oj)
        for (int oi = 0; oi < Q; ++oi) {
          std::int32_t sum = 0;
          for (int c = 0; c < p.C; ++c)
            for (int r = 0; r < p.R; ++r) {
              const int ij = p.str * oj + r - p.pad;
              if (ij < 0 || ij >= p.H) continue;
              for (int s = 0; s < p.S; ++s) {
                const int ii = p.str * oi + s - p.pad;
                if (ii < 0 || ii >= p.W) continue;
                sum +=
                    (static_cast<std::int32_t>(
                         input[((std::int64_t{n} * p.C + c) * p.H + ij) *
                                   p.W +
                               ii]) -
                     in_zero_point) *
                    static_cast<std::int32_t>(
                        filter[((std::int64_t{k} * p.C + c) * p.R + r) *
                                   p.S +
                               s]);
              }
            }
          output[((std::int64_t{n} * p.K + k) * P + oj) * Q + oi] = sum;
        }
}

}  // namespace ndirect
