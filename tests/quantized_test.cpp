// Int8 path tests (DESIGN.md §14): overflow contract, exact-integer
// parity across dot (SDOT / VPDPBUSD) / emulated / scalar backends,
// requantize epilogue edge cases, zero-point compensation, the
// activation quantizer against its scalar definition, the packed-filter
// cache, nn-graph integration, and the quantized ResNet-50 drift bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "autotune/tuner.h"
#include "conv_shapes.h"
#include "core/quantized.h"
#include "core/quantized_microkernel.h"
#include "nn/models.h"
#include "nn/optimize.h"
#include "platform/workloads.h"
#include "runtime/cpu_info.h"
#include "runtime/env.h"
#include "runtime/thread_pool.h"
#include "tensor/rng.h"

namespace ndirect {
namespace {

std::vector<std::uint8_t> random_u8(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> dist(0, 255);
  std::vector<std::uint8_t> v(n);
  for (auto& x : v) x = static_cast<std::uint8_t>(dist(rng));
  return v;
}

std::vector<std::int8_t> random_s8(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> dist(-127, 127);
  std::vector<std::int8_t> v(n);
  for (auto& x : v) x = static_cast<std::int8_t>(dist(rng));
  return v;
}

std::vector<float> random_f32(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

// fp32 reference convolution (double accumulation).
std::vector<float> naive_conv_f32(const std::vector<float>& input,
                                  const std::vector<float>& filter,
                                  const ConvParams& p) {
  const int P = p.P(), Q = p.Q();
  std::vector<float> out(static_cast<std::size_t>(p.output_elems()));
  for (int n = 0; n < p.N; ++n)
    for (int k = 0; k < p.K; ++k)
      for (int oj = 0; oj < P; ++oj)
        for (int oi = 0; oi < Q; ++oi) {
          double sum = 0;
          for (int c = 0; c < p.C; ++c)
            for (int r = 0; r < p.R; ++r) {
              const int ij = p.str * oj + r - p.pad;
              if (ij < 0 || ij >= p.H) continue;
              for (int s = 0; s < p.S; ++s) {
                const int ii = p.str * oi + s - p.pad;
                if (ii < 0 || ii >= p.W) continue;
                sum += static_cast<double>(
                           input[static_cast<std::size_t>(
                               ((std::int64_t{n} * p.C + c) * p.H + ij) *
                                   p.W +
                               ii)]) *
                       filter[static_cast<std::size_t>(
                           ((std::int64_t{k} * p.C + c) * p.R + r) * p.S +
                           s)];
              }
            }
          out[static_cast<std::size_t>(
              ((std::int64_t{n} * p.K + k) * P + oj) * Q + oi)] =
              static_cast<float>(sum);
        }
  return out;
}

std::vector<std::int32_t> run_raw(const ConvParams& p,
                                  const std::vector<std::uint8_t>& in,
                                  int zp,
                                  const std::vector<std::int8_t>& flt,
                                  const Int8ConvOptions& opt,
                                  Int8RunStats* stats = nullptr) {
  std::vector<std::int32_t> out(
      static_cast<std::size_t>(p.output_elems()));
  Int8Output dst;
  dst.i32 = out.data();
  const Int8Conv conv(p, opt);
  conv.run(in.data(), zp, flt.data(), Int8Epilogue{}, dst, stats);
  return out;
}

// ----------------------------------------------------------------------
// choose_qmax_int8: the 2^31 overflow contract
// ----------------------------------------------------------------------

TEST(ChooseQmaxInt8, SmallReductionsGetFullRange) {
  EXPECT_EQ(choose_qmax_int8(1), 127);
  EXPECT_EQ(choose_qmax_int8(512 * 3 * 3), 127);  // largest ResNet CRS
  EXPECT_EQ(choose_qmax_int8(0), 127);            // degenerate input
}

TEST(ChooseQmaxInt8, ExactOverflowBoundary) {
  // 133144 * 127^2 = 2147479576 <= 2^31 - 1, but 133145 * 127^2
  // overflows — the sqrt/floor shortcut gets this boundary wrong.
  EXPECT_EQ(choose_qmax_int8(133144), 127);
  EXPECT_EQ(choose_qmax_int8(133145), 126);
  const std::int64_t len = 133145;
  const std::int64_t q = choose_qmax_int8(len);
  EXPECT_LE(len * q * q, std::numeric_limits<std::int32_t>::max());
  EXPECT_GT(len * (q + 1) * (q + 1),
            std::numeric_limits<std::int32_t>::max());
}

TEST(ChooseQmaxInt8, NeverOverflowsForAnyLength) {
  for (const std::int64_t len :
       {std::int64_t{1}, std::int64_t{1000}, std::int64_t{133144},
        std::int64_t{133145}, std::int64_t{1} << 20,
        std::int64_t{1} << 31, std::int64_t{1} << 40}) {
    const std::int64_t q = choose_qmax_int8(len);
    ASSERT_GE(q, 1);
    ASSERT_LE(q, 127);
    if (len < (std::int64_t{1} << 31)) {
      EXPECT_LE(len * q * q, std::numeric_limits<std::int32_t>::max())
          << "len=" << len;
    }
  }
}

// ----------------------------------------------------------------------
// Exact integer correctness and backend parity
// ----------------------------------------------------------------------

TEST(Int8Conv, RawInt32MatchesNaiveBitwise) {
  const int zps[] = {0, 7, 128, 255};
  int i = 0;
  for (const ConvParams& p : correctness_conv_shapes()) {
    const auto in = random_u8(
        static_cast<std::size_t>(p.input_elems()), 11 + i);
    const auto flt = random_s8(
        static_cast<std::size_t>(p.filter_elems()), 23 + i);
    const int zp = zps[i++ % 4];
    const auto got = run_raw(p, in, zp, flt, {});
    std::vector<std::int32_t> want(got.size());
    naive_conv_int8(in.data(), zp, flt.data(), want.data(), p);
    ASSERT_EQ(got, want) << p << " zp=" << zp;
  }
}

TEST(Int8Conv, BackendsAreBitwiseIdentical) {
  // The exhaustive parity sweep: every correctness shape (ragged W/K
  // tails, strides, pads) through the scalar generic, the emulated
  // vec128 kernels, and — on a dot-product host, whatever
  // NDIRECT_FORCE_NO_DOTPROD says — the SDOT / VPDPBUSD kernels.
  std::vector<Int8Backend> backends = {Int8Backend::kScalar,
                                       Int8Backend::kEmulated};
  if (int8_dot_available()) backends.push_back(Int8Backend::kDot);
  int i = 0;
  for (const ConvParams& p : correctness_conv_shapes()) {
    const auto in = random_u8(
        static_cast<std::size_t>(p.input_elems()), 101 + i);
    const auto flt = random_s8(
        static_cast<std::size_t>(p.filter_elems()), 202 + i);
    const int zp = 37 + (i++ % 100);
    std::vector<std::vector<std::int32_t>> outs;
    for (const Int8Backend b : backends) {
      Int8ConvOptions opt;
      opt.backend = b;
      outs.push_back(run_raw(p, in, zp, flt, opt));
    }
    for (std::size_t j = 1; j < outs.size(); ++j) {
      ASSERT_EQ(outs[0], outs[j])
          << p << " backend " << int8_backend_name(backends[j]);
    }
  }
}

TEST(Int8Conv, PackedFilterCacheSeesInPlaceEdits) {
  // The cache is keyed by the filter pointer; an in-place edit between
  // runs keeps the pointer, so only the content fingerprint can tell
  // the cached packing is stale.
  const ConvParams p{.N = 1, .C = 8, .H = 6, .W = 6, .K = 8, .R = 3,
                     .S = 3, .str = 1, .pad = 1};
  const auto in = random_u8(static_cast<std::size_t>(p.input_elems()), 3);
  auto flt = random_s8(static_cast<std::size_t>(p.filter_elems()), 4);
  const Int8Conv conv(p);  // cache_packed_filter defaults on
  std::vector<std::int32_t> got(static_cast<std::size_t>(p.output_elems()));
  Int8Output dst;
  dst.i32 = got.data();
  conv.run(in.data(), 9, flt.data(), Int8Epilogue{}, dst);
  for (std::int8_t& w : flt) w = static_cast<std::int8_t>(-w);
  conv.run(in.data(), 9, flt.data(), Int8Epilogue{}, dst);
  std::vector<std::int32_t> want(got.size());
  naive_conv_int8(in.data(), 9, flt.data(), want.data(), p);
  EXPECT_EQ(got, want) << "an edited filter must be re-packed";
}

TEST(Int8Conv, AlternatingFiltersHitTheCacheForBoth) {
  // One entry per filter pointer: two weight sets taking turns on one
  // engine are each packed once, then both served from the cache.
  if (!kTelemetryCompiled) GTEST_SKIP() << "telemetry compiled out";
  const ConvParams p{.N = 1, .C = 8, .H = 6, .W = 6, .K = 8, .R = 3,
                     .S = 3, .str = 1, .pad = 1};
  const auto in = random_u8(static_cast<std::size_t>(p.input_elems()), 3);
  const auto fa = random_s8(static_cast<std::size_t>(p.filter_elems()), 4);
  const auto fb = random_s8(static_cast<std::size_t>(p.filter_elems()), 5);
  TelemetrySnapshot sink;
  Int8ConvOptions opt;
  opt.telemetry = &sink;
  const Int8Conv conv(p, opt);
  std::vector<std::int32_t> got(static_cast<std::size_t>(p.output_elems()));
  std::vector<std::int32_t> want(got.size());
  Int8Output dst;
  dst.i32 = got.data();
  for (int round = 0; round < 3; ++round) {
    for (const auto* f : {&fa, &fb}) {
      conv.run(in.data(), 9, f->data(), Int8Epilogue{}, dst);
      EXPECT_EQ(sink.total(Counter::kCacheHits), round > 0 ? 1u : 0u)
          << "round " << round;
      naive_conv_int8(in.data(), 9, f->data(), want.data(), p);
      ASSERT_EQ(got, want) << "round " << round;
    }
  }
}

// ----------------------------------------------------------------------
// The shared tile driver: scheduling and telemetry
// ----------------------------------------------------------------------

/// Every int8 output mode of one conv on `pool`.
struct Int8Outputs {
  std::vector<std::int32_t> i32;
  std::vector<std::int8_t> s8;
  std::vector<float> f32;
  bool operator==(const Int8Outputs& o) const {
    return i32 == o.i32 && s8 == o.s8 &&
           std::memcmp(f32.data(), o.f32.data(),
                       f32.size() * sizeof(float)) == 0;
  }
};

Int8Outputs run_all_modes(const Int8Conv& conv,
                          const std::vector<std::uint8_t>& in,
                          const std::vector<std::int8_t>& flt) {
  const ConvParams& p = conv.params();
  const std::size_t out_n = static_cast<std::size_t>(p.output_elems());
  std::vector<float> scale(static_cast<std::size_t>(p.K));
  std::vector<float> bias(scale.size());
  for (std::size_t k = 0; k < scale.size(); ++k) {
    scale[k] = 1e-3f * static_cast<float>(k + 1);
    bias[k] = 0.25f - 0.125f * static_cast<float>(k % 5);
  }
  Int8Outputs r;
  r.i32.resize(out_n);
  r.s8.resize(out_n);
  r.f32.resize(out_n);
  Int8Output o;
  o.i32 = r.i32.data();
  conv.run(in.data(), 77, flt.data(), Int8Epilogue{}, o);
  Int8Epilogue s8_ep;
  s8_ep.requant_scale = scale.data();
  s8_ep.out_zero_point = 3;
  s8_ep.relu = true;
  o = {};
  o.s8 = r.s8.data();
  conv.run(in.data(), 77, flt.data(), s8_ep, o);
  Int8Epilogue f32_ep;
  f32_ep.dequant_scale = scale.data();
  f32_ep.bias = bias.data();
  f32_ep.relu = true;
  o = {};
  o.f32 = r.f32.data();
  conv.run(in.data(), 77, flt.data(), f32_ep, o);
  return r;
}

TEST(Int8Conv, OutputsIdenticalAcrossPoolSizesAndConcurrentRuns) {
  // Units own disjoint outputs and carry every K block, so neither the
  // worker count nor the claim order can change a byte: i32, s8 and f32
  // outputs match across pools of 1-4 threads and two concurrent runs.
  const ConvParams shapes[] = {
      {.N = 2, .C = 9, .H = 11, .W = 13, .K = 21, .R = 3, .S = 3,
       .str = 1, .pad = 1},
      {.N = 1, .C = 16, .H = 7, .W = 7, .K = 24, .R = 1, .S = 1,
       .str = 1, .pad = 0},  // flattened into one exec row
      {.N = 1, .C = 5, .H = 15, .W = 15, .K = 10, .R = 3, .S = 3,
       .str = 2, .pad = 1}};
  int i = 0;
  for (const ConvParams& p : shapes) {
    const auto in =
        random_u8(static_cast<std::size_t>(p.input_elems()), 300 + i);
    const auto flt =
        random_s8(static_cast<std::size_t>(p.filter_elems()), 400 + i++);
    ThreadPool serial(1);
    Int8ConvOptions opt;
    opt.pool = &serial;
    const Int8Outputs want = run_all_modes(Int8Conv(p, opt), in, flt);
    std::vector<std::int32_t> naive(want.i32.size());
    naive_conv_int8(in.data(), 77, flt.data(), naive.data(), p);
    ASSERT_EQ(want.i32, naive) << p;
    for (std::size_t threads = 2; threads <= 4; ++threads) {
      ThreadPool pool(threads);
      opt.pool = &pool;
      EXPECT_TRUE(run_all_modes(Int8Conv(p, opt), in, flt) == want)
          << p << " threads=" << threads;
    }
    ThreadPool shared(3);
    opt.pool = &shared;
    const Int8Conv conv(p, opt);
    Int8Outputs a, b;
    std::thread other([&] { b = run_all_modes(conv, in, flt); });
    a = run_all_modes(conv, in, flt);
    other.join();
    EXPECT_TRUE(a == want) << p << " concurrent run A";
    EXPECT_TRUE(b == want) << p << " concurrent run B";
  }
}

TEST(Int8Conv, TelemetryCountsEveryUnitAndSplitsPhases) {
  if (!kTelemetryCompiled) GTEST_SKIP() << "telemetry compiled out";
  struct Case {
    ConvParams p;
    bool flattened;
  };
  const Case cases[] = {
      {{.N = 2, .C = 8, .H = 12, .W = 14, .K = 20, .R = 3, .S = 3,
        .str = 1, .pad = 1},
       false},
      {{.N = 1, .C = 16, .H = 7, .W = 7, .K = 16, .R = 1, .S = 1,
        .str = 1, .pad = 0},
       true}};
  ThreadPool pool(3);
  for (const Case& c : cases) {
    const ConvParams& p = c.p;
    const auto in = random_u8(static_cast<std::size_t>(p.input_elems()), 7);
    const auto flt =
        random_s8(static_cast<std::size_t>(p.filter_elems()), 8);
    TelemetrySnapshot sink;
    Int8ConvOptions opt;
    opt.pool = &pool;
    opt.telemetry = &sink;
    const Int8Conv conv(p, opt);
    std::vector<std::int32_t> out(
        static_cast<std::size_t>(p.output_elems()));
    Int8Output dst;
    dst.i32 = out.data();
    Int8RunStats stats;
    conv.run(in.data(), 5, flt.data(), Int8Epilogue{}, dst, &stats);

    // A unit is one (exec row, Vw column tile); a 1x1 stride-1 conv runs
    // its whole P x Q plane as one exec row.
    const std::int64_t vw = conv.block().vw;
    const std::int64_t rows = c.flattened ? 1 : p.P();
    const std::int64_t cols = c.flattened ? std::int64_t{p.P()} * p.Q()
                                          : p.Q();
    const std::uint64_t units =
        static_cast<std::uint64_t>(p.N * rows * ((cols + vw - 1) / vw));
    EXPECT_EQ(sink.total(Counter::kTilesClaimed), units) << p;
    EXPECT_GT(sink.total(Counter::kPackNs), 0u) << p;
    EXPECT_GT(sink.total(Counter::kMicrokernelNs), 0u) << p;
    EXPECT_GT(sink.wall_seconds, 0.0) << p;
    const std::uint64_t k_blocks =
        static_cast<std::uint64_t>((p.K + conv.block().vk - 1) /
                                   conv.block().vk);
    EXPECT_EQ(stats.tiles, units * k_blocks) << p;
    EXPECT_EQ(sink.total(Counter::kGenericFallback), stats.generic_fallback)
        << p;
  }

  // With collection switched off a sink is cleared, not left stale.
  struct Restore {
    ~Restore() { set_telemetry_enabled(kTelemetryCompiled); }
  } restore;
  set_telemetry_enabled(false);
  const ConvParams& p = cases[0].p;
  const auto in = random_u8(static_cast<std::size_t>(p.input_elems()), 7);
  const auto flt = random_s8(static_cast<std::size_t>(p.filter_elems()), 8);
  TelemetrySnapshot sink;
  sink.workers.resize(2);
  sink.wall_seconds = 1;
  Int8ConvOptions opt;
  opt.pool = &pool;
  opt.telemetry = &sink;
  std::vector<std::int32_t> out(static_cast<std::size_t>(p.output_elems()));
  Int8Output dst;
  dst.i32 = out.data();
  Int8Conv(p, opt).run(in.data(), 5, flt.data(), Int8Epilogue{}, dst);
  EXPECT_TRUE(sink.empty());
  EXPECT_EQ(sink.wall_seconds, 0.0);
}

TEST(Int8Conv, ForcedBlocksStayExact) {
  // Non-default register blocks (the auto-tuner's search moves) must
  // not change results.
  const ConvParams p{.N = 1, .C = 7, .H = 9, .W = 11, .K = 13, .R = 3,
                     .S = 3, .str = 1, .pad = 1};
  const auto in =
      random_u8(static_cast<std::size_t>(p.input_elems()), 5);
  const auto flt =
      random_s8(static_cast<std::size_t>(p.filter_elems()), 6);
  std::vector<std::int32_t> want(
      static_cast<std::size_t>(p.output_elems()));
  naive_conv_int8(in.data(), 100, flt.data(), want.data(), p);
  for (const RegisterBlock rb : int8_microkernel_blocks()) {
    if (!kernel_block_feasible(rb.vw, rb.vk, p.S)) continue;
    Int8ConvOptions opt;
    opt.force_block = rb;
    ASSERT_EQ(run_raw(p, in, 100, flt, opt), want)
        << "vw=" << rb.vw << " vk=" << rb.vk;
  }
}

TEST(Int8Conv, ZeroPointCompensationCancelsConstantInput) {
  // Input identically equal to the zero point represents real 0
  // everywhere, so every accumulator must come out exactly 0 — this is
  // what makes border padding exact.
  const ConvParams p{.N = 1, .C = 5, .H = 8, .W = 8, .K = 9, .R = 3,
                     .S = 3, .str = 1, .pad = 1};
  for (const int zp : {0, 1, 100, 128, 255}) {
    const std::vector<std::uint8_t> in(
        static_cast<std::size_t>(p.input_elems()),
        static_cast<std::uint8_t>(zp));
    const auto flt =
        random_s8(static_cast<std::size_t>(p.filter_elems()), 7);
    const auto out = run_raw(p, in, zp, flt, {});
    for (const std::int32_t v : out) ASSERT_EQ(v, 0) << "zp=" << zp;
  }
}

// ----------------------------------------------------------------------
// Requantize epilogue edge cases
// ----------------------------------------------------------------------

// 1x1 conv with C=K=1 and unit filter: raw acc = u - zp, a transparent
// harness for the requantize formula.
ConvParams identity_params(int w) {
  return {.N = 1, .C = 1, .H = 1, .W = w, .K = 1, .R = 1, .S = 1,
          .str = 1, .pad = 0};
}

std::vector<std::int8_t> run_s8(const ConvParams& p,
                                const std::vector<std::uint8_t>& in,
                                int zp,
                                const std::vector<std::int8_t>& flt,
                                const Int8Epilogue& ep) {
  std::vector<std::int8_t> out(
      static_cast<std::size_t>(p.output_elems()));
  Int8Output dst;
  dst.s8 = out.data();
  const Int8Conv conv(p, {});
  conv.run(in.data(), zp, flt.data(), ep, dst);
  return out;
}

TEST(Requantize, SaturatesAtPlusMinus127) {
  const ConvParams p = identity_params(4);
  const std::vector<std::uint8_t> in = {255, 0, 200, 56};  // acc ±127ish
  const std::vector<std::int8_t> flt = {1};
  const float scale = 1000.0f;  // drives everything past the s8 range
  Int8Epilogue ep;
  ep.requant_scale = &scale;
  const auto out = run_s8(p, in, 128, flt, ep);
  EXPECT_EQ(out[0], 127);   // acc=+127, huge scale -> clamp high
  EXPECT_EQ(out[1], -127);  // acc=-128 -> clamp low (symmetric range)
  EXPECT_EQ(out[2], 127);
  EXPECT_EQ(out[3], -127);
}

TEST(Requantize, RoundsHalfToEven) {
  const ConvParams p = identity_params(6);
  // acc = u - 128: 1, 3, 5, -1, -3, 2.
  const std::vector<std::uint8_t> in = {129, 131, 133, 127, 125, 130};
  const std::vector<std::int8_t> flt = {1};
  const float scale = 0.5f;  // products: .5, 1.5, 2.5, -.5, -1.5, 1.
  Int8Epilogue ep;
  ep.requant_scale = &scale;
  const auto out = run_s8(p, in, 128, flt, ep);
  EXPECT_EQ(out[0], 0);   // 0.5 -> 0 (ties to even, not 1)
  EXPECT_EQ(out[1], 2);   // 1.5 -> 2
  EXPECT_EQ(out[2], 2);   // 2.5 -> 2 (not 3)
  EXPECT_EQ(out[3], 0);   // -0.5 -> 0
  EXPECT_EQ(out[4], -2);  // -1.5 -> -2
  EXPECT_EQ(out[5], 1);   // exact 1.0
}

TEST(Requantize, BiasZeroPointAndRelu) {
  const ConvParams p = identity_params(3);
  const std::vector<std::uint8_t> in = {138, 118, 128};  // acc 10,-10,0
  const std::vector<std::int8_t> flt = {1};
  const float scale = 1.0f;
  const std::int32_t bias = 5;
  Int8Epilogue ep;
  ep.requant_scale = &scale;
  ep.bias_i32 = &bias;
  ep.out_zero_point = 3;
  const auto plain = run_s8(p, in, 128, flt, ep);
  EXPECT_EQ(plain[0], 18);  // (10+5)*1 + 3
  EXPECT_EQ(plain[1], -2);  // (-10+5)*1 + 3
  EXPECT_EQ(plain[2], 8);   // (0+5)*1 + 3
  ep.relu = true;  // clamps at the output zero point
  const auto relued = run_s8(p, in, 128, flt, ep);
  EXPECT_EQ(relued[0], 18);
  EXPECT_EQ(relued[1], 3);
  EXPECT_EQ(relued[2], 8);
}

TEST(Requantize, S8MatchesScalarFormulaOnRandomConvs) {
  // The s8 epilogue applied to the engine's raw accumulators must
  // reproduce the documented formula exactly, per channel.
  const ConvParams p{.N = 1, .C = 6, .H = 7, .W = 9, .K = 10, .R = 3,
                     .S = 3, .str = 1, .pad = 1};
  const auto in =
      random_u8(static_cast<std::size_t>(p.input_elems()), 42);
  const auto flt =
      random_s8(static_cast<std::size_t>(p.filter_elems()), 43);
  const int zp = 119;
  std::vector<float> scales(static_cast<std::size_t>(p.K));
  std::vector<std::int32_t> bias(static_cast<std::size_t>(p.K));
  std::mt19937_64 rng(44);
  std::uniform_real_distribution<float> sdist(1e-4f, 5e-3f);
  std::uniform_int_distribution<std::int32_t> bdist(-500, 500);
  for (int k = 0; k < p.K; ++k) {
    scales[static_cast<std::size_t>(k)] = sdist(rng);
    bias[static_cast<std::size_t>(k)] = bdist(rng);
  }
  Int8Epilogue ep;
  ep.requant_scale = scales.data();
  ep.bias_i32 = bias.data();
  ep.out_zero_point = -7;
  const auto got = run_s8(p, in, zp, flt, ep);
  const auto raw = run_raw(p, in, zp, flt, {});
  const std::int64_t plane = std::int64_t{p.P()} * p.Q();
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto k =
        static_cast<std::size_t>((static_cast<std::int64_t>(i) / plane) %
                                 p.K);
    const std::int32_t a = raw[i] + bias[k];
    const std::int32_t want =
        std::clamp<std::int32_t>(
            static_cast<std::int32_t>(std::nearbyintf(
                static_cast<float>(a) * scales[k])) - 7,
            -127, 127);
    ASSERT_EQ(static_cast<std::int32_t>(got[i]), want) << i;
  }
}

// ----------------------------------------------------------------------
// Quantization helpers and fp32 round trip
// ----------------------------------------------------------------------

TEST(QuantizeHelpers, ActivationRangeAlwaysCoversZero) {
  const std::vector<float> positive = {0.5f, 1.0f, 2.0f};
  const QuantizedActivation q =
      quantize_activation_u8(positive.data(), positive.size());
  // All-positive data: zero_point sits at 0 and 0.0 is exact.
  EXPECT_EQ(q.zero_point, 0);
  const std::vector<float> negative = {-1.0f, -0.25f};
  const QuantizedActivation qn =
      quantize_activation_u8(negative.data(), negative.size());
  EXPECT_EQ(qn.zero_point, 255);
}

// The scalar definition quantize_activation_u8 must reproduce bitwise.
QuantizedActivation quantize_activation_u8_reference(const float* data,
                                                     std::size_t n) {
  float lo = 0.0f, hi = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    lo = std::min(lo, data[i]);
    hi = std::max(hi, data[i]);
  }
  QuantizedActivation q;
  const float range = hi - lo;
  q.scale = range > 0 ? range / 255.0f : 1.0f;
  const float inv = 1.0f / q.scale;
  q.zero_point = std::clamp<std::int32_t>(
      static_cast<std::int32_t>(std::lrintf(-lo * inv)), 0, 255);
  q.values.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t v =
        static_cast<std::int32_t>(std::lrintf(data[i] * inv)) +
        q.zero_point;
    q.values[i] =
        static_cast<std::uint8_t>(std::clamp<std::int32_t>(v, 0, 255));
  }
  return q;
}

TEST(QuantizeHelpers, ActivationQuantizerMatchesScalarReferenceBitwise) {
  // Ragged sizes around the 16-float vector step and the 32768-float
  // parallel chunk, up to a 224x224x64 activation; sign-uniform, zero,
  // -0.0f, exact .5 ties (range 255 => scale 1, so x.5 inputs land on
  // ties), NaN and +-inf elements; pools of 1 and 4 threads.
  constexpr std::size_t kChunk = std::size_t{1} << 15;
  const std::size_t sizes[] = {1,          3,          15,
                               16,         17,         kChunk - 5,
                               kChunk + 5, 2 * kChunk + 17,
                               std::size_t{224} * 224 * 64};
  using Fill = std::function<float(std::size_t, std::mt19937_64&)>;
  std::uniform_real_distribution<float> unit(-1.0f, 1.0f);
  const std::vector<std::pair<const char*, Fill>> fills = {
      {"mixed", [&](std::size_t, std::mt19937_64& r) { return unit(r); }},
      {"all-negative",
       [&](std::size_t, std::mt19937_64& r) {
         return -std::fabs(unit(r)) - 1e-3f;
       }},
      {"all-positive",
       [&](std::size_t, std::mt19937_64& r) {
         return std::fabs(unit(r)) + 1e-3f;
       }},
      {"all-zero", [](std::size_t, std::mt19937_64&) { return 0.0f; }},
      {"negative-zero",
       [](std::size_t, std::mt19937_64&) { return -0.0f; }},
      {"zeros-and-negative-zeros",
       [&](std::size_t i, std::mt19937_64& r) {
         return i % 3 == 0 ? -0.0f : (i % 3 == 1 ? 0.0f : unit(r));
       }},
      {"half-ties",
       [](std::size_t i, std::mt19937_64&) {
         // -128 and 127 pin the range to 255; the rest are k + 0.5.
         if (i == 0) return -128.0f;
         if (i == 1) return 127.0f;
         return static_cast<float>(static_cast<int>(i % 255) - 128) + 0.5f;
       }},
      {"nan-sprinkled",
       [&](std::size_t i, std::mt19937_64& r) {
         return i % 7 == 3 ? std::numeric_limits<float>::quiet_NaN()
                           : unit(r);
       }},
      {"with-infinity",
       [&](std::size_t i, std::mt19937_64& r) {
         return i % 11 == 5 ? std::numeric_limits<float>::infinity()
                            : unit(r);
       }},
  };
  ThreadPool pool1(1), pool4(4);
  for (const std::size_t n : sizes) {
    for (const auto& [name, fill] : fills) {
      std::mt19937_64 rng(n * 31 + 7);
      std::vector<float> x(n);
      for (std::size_t i = 0; i < n; ++i) x[i] = fill(i, rng);
      const QuantizedActivation want =
          quantize_activation_u8_reference(x.data(), n);
      for (ThreadPool* pool : {&pool1, &pool4}) {
        const QuantizedActivation got =
            quantize_activation_u8(x.data(), n, pool);
        const auto ctx = ::testing::Message()
                         << name << " n=" << n << " threads="
                         << pool->size();
        ASSERT_EQ(std::memcmp(&got.scale, &want.scale, sizeof(float)), 0)
            << ctx << " scale " << got.scale << " vs " << want.scale;
        ASSERT_EQ(got.zero_point, want.zero_point) << ctx;
        ASSERT_EQ(got.values, want.values) << ctx;
      }
    }
  }
}

TEST(QuantizeHelpers, PerChannelScalesTrackChannelRanges) {
  const ConvParams p{.N = 1, .C = 2, .H = 4, .W = 4, .K = 3, .R = 3,
                     .S = 3, .str = 1, .pad = 1};
  auto flt = random_f32(static_cast<std::size_t>(p.filter_elems()), 9);
  // Blow up channel 1 by 100x: its scale must scale with it while the
  // others stay put.
  const std::int64_t crs = std::int64_t{p.C} * p.R * p.S;
  for (std::int64_t e = 0; e < crs; ++e) {
    flt[static_cast<std::size_t>(crs + e)] *= 100.0f;
  }
  const QuantizedFilterI8 q = quantize_filter_i8(flt.data(), p);
  EXPECT_GT(q.scales[1], 30.0f * q.scales[0]);
  EXPECT_LT(q.scales[2], 3.0f * q.scales[0]);
}

TEST(Int8Conv, PerChannelBeatsPerTensorOnSkewedFilters) {
  const ConvParams p{.N = 1, .C = 4, .H = 8, .W = 8, .K = 4, .R = 3,
                     .S = 3, .str = 1, .pad = 1};
  const auto in_f =
      random_f32(static_cast<std::size_t>(p.input_elems()), 50);
  auto flt_f = random_f32(static_cast<std::size_t>(p.filter_elems()), 51);
  const std::int64_t crs = std::int64_t{p.C} * p.R * p.S;
  // Channel 0 is 50x larger than the rest: a per-tensor scale wastes
  // nearly all of the small channels' resolution.
  for (std::int64_t e = 0; e < crs; ++e) {
    flt_f[static_cast<std::size_t>(e)] *= 50.0f;
  }
  const auto ref = naive_conv_f32(in_f, flt_f, p);

  const auto got = int8_conv_fp32(in_f.data(), flt_f.data(), p);

  // Per-tensor baseline: one global scale, same engine.
  const QuantizedActivation qin = quantize_activation_u8(
      in_f.data(), static_cast<std::size_t>(p.input_elems()));
  float max_abs = 0;
  for (const float v : flt_f) max_abs = std::max(max_abs, std::fabs(v));
  const float gscale = max_abs / 127.0f;
  std::vector<std::int8_t> gflt(flt_f.size());
  for (std::size_t i = 0; i < flt_f.size(); ++i) {
    gflt[i] = static_cast<std::int8_t>(std::clamp<std::int32_t>(
        static_cast<std::int32_t>(std::lrintf(flt_f[i] / gscale)), -127,
        127));
  }
  const auto raw = run_raw(p, qin.values, qin.zero_point, gflt, {});
  std::vector<float> per_tensor(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    per_tensor[i] = qin.scale * gscale * static_cast<float>(raw[i]);
  }

  // Compare only the small channels (k >= 1): channel 0 sets the
  // global scale, so its error is identical under both schemes and
  // would mask the resolution the small channels lose.
  const std::size_t plane =
      static_cast<std::size_t>(p.P()) * static_cast<std::size_t>(p.Q());
  auto max_err = [&](const std::vector<float>& v) {
    double m = 0;
    for (std::size_t i = plane; i < v.size(); ++i) {
      m = std::max(m, std::fabs(static_cast<double>(v[i]) - ref[i]));
    }
    return m;
  };
  const double pc = max_err(got), pt = max_err(per_tensor);
  EXPECT_LT(pc, 0.25 * pt)
      << "per-channel err " << pc << " vs per-tensor " << pt;
}

TEST(Int8Conv, Fp32RoundTripIsAccurate) {
  for (const ConvParams& p : correctness_conv_shapes()) {
    const auto in_f =
        random_f32(static_cast<std::size_t>(p.input_elems()), 60);
    const auto flt_f =
        random_f32(static_cast<std::size_t>(p.filter_elems()), 61);
    const auto ref = naive_conv_f32(in_f, flt_f, p);
    const auto got = int8_conv_fp32(in_f.data(), flt_f.data(), p);
    double ref_mag = 1e-6;
    for (const float v : ref) {
      ref_mag = std::max(ref_mag, std::fabs(static_cast<double>(v)));
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_NEAR(got[i], ref[i], 0.02 * ref_mag) << p << " at " << i;
    }
  }
}

TEST(Int8Conv, FusedBiasAndReluMatchUnfused) {
  const ConvParams p{.N = 2, .C = 5, .H = 7, .W = 9, .K = 6, .R = 3,
                     .S = 3, .str = 1, .pad = 1};
  const auto in_f =
      random_f32(static_cast<std::size_t>(p.input_elems()), 70);
  const auto flt_f =
      random_f32(static_cast<std::size_t>(p.filter_elems()), 71);
  const auto bias = random_f32(static_cast<std::size_t>(p.K), 72);
  const auto plain = int8_conv_fp32(in_f.data(), flt_f.data(), p);
  const auto fused =
      int8_conv_fp32(in_f.data(), flt_f.data(), p, bias.data(), true);
  const std::int64_t plane = std::int64_t{p.P()} * p.Q();
  for (std::size_t i = 0; i < fused.size(); ++i) {
    const auto k =
        static_cast<std::size_t>((static_cast<std::int64_t>(i) / plane) %
                                 p.K);
    const float want = std::max(0.0f, plain[i] + bias[k]);
    ASSERT_NEAR(fused[i], want, 1e-4f) << i;
  }
}

TEST(Int8Conv, FusedResidualMatchesDequantizeThenAddBitwise) {
  // Ragged W (Q = 9) and K (K = 6) tails, a padded 3x3 and a flattened
  // 1x1: the residual must land on exactly the dequantized element.
  for (const ConvParams& p :
       {ConvParams{.N = 2, .C = 5, .H = 7, .W = 9, .K = 6, .R = 3, .S = 3,
                   .str = 1, .pad = 1},
        ConvParams{.N = 1, .C = 8, .H = 5, .W = 5, .K = 13, .R = 1, .S = 1,
                   .str = 1, .pad = 0}}) {
    const auto in = random_u8(static_cast<std::size_t>(p.input_elems()), 73);
    const auto flt =
        random_s8(static_cast<std::size_t>(p.filter_elems()), 74);
    const auto dq = random_f32(static_cast<std::size_t>(p.K), 75);
    const auto bias = random_f32(static_cast<std::size_t>(p.K), 76);
    const auto res =
        random_f32(static_cast<std::size_t>(p.output_elems()), 77);
    const Int8Conv conv(p);
    const auto run = [&](const float* residual, bool relu) {
      std::vector<float> out(static_cast<std::size_t>(p.output_elems()));
      Int8Epilogue ep;
      ep.dequant_scale = dq.data();
      ep.bias = bias.data();
      ep.residual = residual;
      ep.relu = relu;
      Int8Output dst;
      dst.f32 = out.data();
      conv.run(in.data(), 131, flt.data(), ep, dst);
      return out;
    };
    std::vector<float> want = run(nullptr, false);
    for (std::size_t i = 0; i < want.size(); ++i) {
      want[i] = std::max(want[i] + res[i], 0.0f);
    }
    const std::vector<float> got = run(res.data(), true);
    ASSERT_EQ(std::memcmp(got.data(), want.data(),
                          want.size() * sizeof(float)),
              0)
        << p;
  }
}

TEST(Int8Conv, ResidualNeedsTheF32Mode) {
  const ConvParams p{.N = 1, .C = 4, .H = 4, .W = 4, .K = 4, .R = 1,
                     .S = 1, .str = 1, .pad = 0};
  const auto in = random_u8(static_cast<std::size_t>(p.input_elems()), 1);
  const auto flt = random_s8(static_cast<std::size_t>(p.filter_elems()), 2);
  const std::vector<float> scale(static_cast<std::size_t>(p.K), 0.5f);
  const std::vector<float> res(static_cast<std::size_t>(p.output_elems()));
  const Int8Conv conv(p);
  Int8Epilogue ep;
  ep.requant_scale = scale.data();
  ep.residual = res.data();
  std::vector<std::int8_t> s8(res.size());
  std::vector<std::int32_t> i32(res.size());
  Int8Output to_s8;
  to_s8.s8 = s8.data();
  Int8Output to_i32;
  to_i32.i32 = i32.data();
  EXPECT_THROW(conv.run(in.data(), 0, flt.data(), ep, to_s8),
               std::invalid_argument);
  EXPECT_THROW(conv.run(in.data(), 0, flt.data(), ep, to_i32),
               std::invalid_argument);
}

// ----------------------------------------------------------------------
// Kernel registry, fallback accounting, Table 4 coverage
// ----------------------------------------------------------------------

TEST(Int8Registry, InstantiatesTheFullPolicyGrid) {
  std::size_t expected = 0;
  for (const int S : {1, 3, 5, 7}) {
    for (int vw = 4; vw <= kMaxVw; vw += 4) {
      for (int vk = 4; vk <= kMaxVk; vk += 4) {
        if (kernel_block_feasible(vw, vk, S)) ++expected;
      }
    }
  }
  expected *= 2;  // strides 1, 2
  expected *= NDIRECT_INT8_DOT_COMPILED ? 2 : 1;  // backends
  EXPECT_EQ(int8_kernel_registry().size(), expected);
  for (const I8KernelEntry& e : int8_kernel_registry()) {
    EXPECT_NE(e.fn, nullptr);
    EXPECT_TRUE(kernel_block_feasible(e.vw, e.vk, e.S));
  }
}

TEST(Int8Registry, PreferredBackendRespectsForceNoDotprod) {
  setenv("NDIRECT_FORCE_NO_DOTPROD", "1", 1);
  EXPECT_EQ(int8_preferred_backend(), Int8Backend::kEmulated);
  unsetenv("NDIRECT_FORCE_NO_DOTPROD");
  if (!NDIRECT_INT8_DOT_COMPILED) {
    EXPECT_EQ(int8_preferred_backend(), Int8Backend::kEmulated);
  }
  // The hardware claim must be consistent with the compile target: a
  // kDot preference requires both the compiled kernels and the
  // ASIMDDP / VNNI probe bit.
  if (int8_preferred_backend() == Int8Backend::kDot) {
    EXPECT_TRUE(NDIRECT_INT8_DOT_COMPILED);
    const CpuInfo cpu = probe_host_cpu();
    EXPECT_TRUE(cpu.asimddp || cpu.vnni);
  }
}

TEST(Int8Registry, DotRungServesAQuantizedResNet50) {
  // Where the binary compiled the dot rung and the probe finds the
  // instruction, it must be the preferred backend and every conv of a
  // quantized forward must actually run on it — the fast path cannot
  // silently degrade to emulation.
  const CpuInfo cpu = probe_host_cpu();
  if (!NDIRECT_INT8_DOT_COMPILED || !(cpu.asimddp || cpu.vnni)) {
    GTEST_SKIP() << "no dot-product rung on this build or host";
  }
  EXPECT_TRUE(int8_dot_available());
  const Int8Backend want = env_flag("NDIRECT_FORCE_NO_DOTPROD")
                               ? Int8Backend::kEmulated
                               : Int8Backend::kDot;
  EXPECT_EQ(int8_preferred_backend(), want);

  ModelOptions opts;
  opts.channel_divisor = 16;
  opts.image_size = 32;
  auto net = build_resnet50(1, opts);
  fold_batchnorm(*net);
  fuse_conv_relu(*net);
  ASSERT_GT(quantize_convs(*net), 0);
  Tensor input({1, 3, 32, 32}, Layout::NCHW);
  fill_random(input, 5);
  net->run(input);
  for (ConvOp* c : net->conv_ops()) {
    EXPECT_EQ(c->quantized_stats().backend, want)
        << c->params().to_string() << ": "
        << int8_backend_name(c->quantized_stats().backend) << " ("
        << c->quantized_stats().reason << ")";
    EXPECT_EQ(c->quantized_stats().generic_fallback, 0u);
  }
}

TEST(Int8Registry, NativeDotMatchesEmulationOnExtremeBytes) {
  // The x86 rung rewrites s8 x s8 as (a ^ 0x80) u8 x s8 minus 128 * b;
  // the identity must hold on the byte extremes (-128 included, which
  // packed activations reach at u = 0) with accumulators near the int32
  // edges, where every rung wraps identically.
  if (!int8_dot_available()) GTEST_SKIP() << "no dot-product rung";
#if NDIRECT_INT8_DOT_COMPILED
  const std::int8_t values[] = {-128, -127, -1, 0, 1, 2, 126, 127};
  std::mt19937_64 rng(17);
  std::uniform_int_distribution<int> pick(0, 7);
  const std::int32_t accs[] = {0, -5, std::numeric_limits<std::int32_t>::max(),
                               std::numeric_limits<std::int32_t>::min()};
  for (int trial = 0; trial < 2000; ++trial) {
    std::int8_t a[16], b[16];
    for (int i = 0; i < 16; ++i) {
      a[i] = values[pick(rng)];
      b[i] = values[pick(rng)];
    }
    const vec128i acc = vdup_i32(accs[trial % 4]);
    std::int32_t native[4], emul[4];
    vstore_i32(native, vdot_s8<true>(acc, vload_b(a), vload_b(b)));
    vstore_i32(emul, vdot_s8<false>(acc, vload_b(a), vload_b(b)));
    for (int g = 0; g < 4; ++g) {
      std::int64_t dot = accs[trial % 4];
      for (int i = 0; i < 4; ++i) dot += a[4 * g + i] * b[4 * g + i];
      // Reference wraps modulo 2^32 like the int32 lanes.
      const auto want = static_cast<std::int32_t>(
          static_cast<std::uint32_t>(static_cast<std::uint64_t>(dot)));
      ASSERT_EQ(native[g], want) << "trial " << trial << " lane " << g;
      ASSERT_EQ(emul[g], want) << "trial " << trial << " lane " << g;
    }
  }
#endif
}

TEST(Int8Conv, NoGenericFallbackAcrossTable4) {
  // Every Table 4 layer must resolve to a policy kernel (the acceptance
  // gate: generic-fallback count stays 0 on the quantized suite).
  for (const ConvLayer& layer : table4_layers(1)) {
    const Int8Conv conv(layer.params);
    EXPECT_NE(conv.backend(), Int8Backend::kScalar)
        << "layer " << layer.id << ": " << layer.params.to_string();
  }
  // And an actual run of a late ResNet layer confirms the counter.
  const ConvParams p = table4_layer(21, 1).params;
  const auto in =
      random_u8(static_cast<std::size_t>(p.input_elems()), 80);
  const auto flt =
      random_s8(static_cast<std::size_t>(p.filter_elems()), 81);
  Int8RunStats stats;
  run_raw(p, in, 128, flt, {}, &stats);
  EXPECT_GT(stats.tiles, 0u);
  EXPECT_EQ(stats.generic_fallback, 0u);
  EXPECT_NE(stats.backend, Int8Backend::kScalar);
}

TEST(Int8Conv, ScalarBackendCountsEveryTileAsFallback) {
  const ConvParams p{.N = 1, .C = 4, .H = 6, .W = 6, .K = 4, .R = 3,
                     .S = 3, .str = 1, .pad = 1};
  const auto in =
      random_u8(static_cast<std::size_t>(p.input_elems()), 90);
  const auto flt =
      random_s8(static_cast<std::size_t>(p.filter_elems()), 91);
  Int8ConvOptions opt;
  opt.backend = Int8Backend::kScalar;
  Int8RunStats stats;
  run_raw(p, in, 128, flt, opt, &stats);
  EXPECT_GT(stats.tiles, 0u);
  EXPECT_EQ(stats.generic_fallback, stats.tiles);
}

TEST(Int8Autotune, SweepsTheRegistryBlocks) {
  const ConvParams p{.N = 1, .C = 16, .H = 14, .W = 14, .K = 16, .R = 3,
                     .S = 3, .str = 1, .pad = 1};
  const Int8TuneResult r = autotune_int8_block(p, 0.2);
  EXPECT_FALSE(r.trials.empty());
  EXPECT_GT(r.best_gflops, 0.0);
  EXPECT_TRUE(kernel_block_feasible(r.best.vw, r.best.vk, p.S));
}

// ----------------------------------------------------------------------
// nn-graph integration and the ResNet-50 drift bound
// ----------------------------------------------------------------------

TEST(QuantizedNn, ConvOpQuantizedTracksFp32) {
  const ConvParams p{.N = 1, .C = 8, .H = 14, .W = 14, .K = 12, .R = 3,
                     .S = 3, .str = 1, .pad = 1};
  ConvOp op(p, ConvBackend::Ndirect, 777, /*bias=*/true);
  op.set_fused_relu(true);
  Tensor x({p.N, p.C, p.H, p.W}, Layout::NCHW);
  fill_random(x, 31);
  const Tensor ref = op.forward({&x});
  op.set_quantized(true);
  const Tensor got = op.forward({&x});
  EXPECT_EQ(op.quantized_stats().generic_fallback, 0u);
  double ref_mag = 1e-6;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ref_mag = std::max(ref_mag, std::fabs(static_cast<double>(ref[i])));
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i], ref[i], 0.03 * ref_mag) << i;
  }
  // Back to fp32 restores the exact original path.
  op.set_quantized(false);
  const Tensor back = op.forward({&x});
  for (std::size_t i = 0; i < back.size(); ++i) {
    ASSERT_EQ(back[i], ref[i]);
  }
}

TEST(QuantizedNn, SetTelemetryFillsTheSinkOnQuantizedForwards) {
  // ConvOp::set_telemetry hands every conv a sink; a quantized forward
  // must write it too, including when the int8 engine already exists.
  if (!kTelemetryCompiled) GTEST_SKIP() << "telemetry compiled out";
  const ConvParams p{.N = 1, .C = 8, .H = 14, .W = 14, .K = 12, .R = 3,
                     .S = 3, .str = 1, .pad = 1};
  ConvOp op(p, ConvBackend::Ndirect, 777, /*bias=*/true);
  op.set_quantized(true);
  Tensor x({p.N, p.C, p.H, p.W}, Layout::NCHW);
  fill_random(x, 31);
  const Tensor ref = op.forward({&x});  // builds the int8 engine
  TelemetrySnapshot sink;
  op.set_telemetry(&sink);
  const Tensor got = op.forward({&x});
  ASSERT_FALSE(sink.empty());
  EXPECT_GT(sink.total(Counter::kTilesClaimed), 0u);
  EXPECT_GT(sink.total(Counter::kMicrokernelNs), 0u);
  ASSERT_EQ(std::memcmp(got.data(), ref.data(), ref.size() * sizeof(float)),
            0);
  op.set_telemetry(nullptr);
}

TEST(QuantizedNn, QuantizeConvsPassSwitchesNdirectConvsOnly) {
  ModelOptions opts;
  opts.channel_divisor = 16;
  opts.image_size = 32;
  auto net = build_resnet50(1, opts);
  const int convs = static_cast<int>(net->conv_ops().size());
  EXPECT_EQ(quantize_convs(*net), convs);
  for (ConvOp* c : net->conv_ops()) EXPECT_TRUE(c->quantized());
}

TEST(QuantizedNn, ResNet50DriftWithinBound) {
  // End-to-end quantized inference: the whole (reduced) ResNet-50 with
  // every conv in int8. The documented drift bound (EXPERIMENTS.md):
  // the final softmax distribution moves by < 0.05 L-inf relative to
  // fp32 — per-channel filter scales plus per-layer activation
  // recalibration keep ~25 chained quantized convs this tight.
  ModelOptions opts;
  opts.channel_divisor = 16;
  opts.image_size = 32;
  auto fp32_net = build_resnet50(1, opts);
  auto int8_net = build_resnet50(1, opts);  // same seed, same weights
  fold_batchnorm(*fp32_net);
  fuse_conv_relu(*fp32_net);
  fold_batchnorm(*int8_net);
  fuse_conv_relu(*int8_net);
  EXPECT_GT(quantize_convs(*int8_net), 0);

  Tensor input({1, 3, 32, 32}, Layout::NCHW);
  fill_random(input, 99);
  const Tensor ref = fp32_net->run(input);
  const Tensor got = int8_net->run(input);
  ASSERT_EQ(ref.size(), got.size());
  double drift = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    drift = std::max(
        drift, std::fabs(static_cast<double>(ref[i]) - got[i]));
  }
  EXPECT_LT(drift, 0.05) << "softmax L-inf drift";
  // No conv fell back to the scalar generic kernel.
  for (ConvOp* c : int8_net->conv_ops()) {
    EXPECT_EQ(c->quantized_stats().generic_fallback, 0u);
  }
}

}  // namespace
}  // namespace ndirect
