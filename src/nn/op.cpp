#include "nn/op.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>

#include "autotune/tuner.h"
#include "baselines/im2col_conv.h"
#include "baselines/naive_conv.h"
#include "gemm/gemm.h"
#include "simd/vec128.h"
#include "tensor/rng.h"

namespace ndirect {
namespace {

void expect_arity(const char* op, std::size_t got, std::size_t want) {
  if (got != want) {
    throw std::invalid_argument(std::string(op) + ": expected " +
                                std::to_string(want) + " inputs, got " +
                                std::to_string(got));
  }
}

TensorShape shape_of(const Tensor& t) {
  return {static_cast<int>(t.dim(0)), static_cast<int>(t.dim(1)),
          static_cast<int>(t.dim(2)), static_cast<int>(t.dim(3))};
}

// dst[i] = ((src[i] + *bias) + res[i]), then max(., 0) — each step only
// when its operand is given (bias / res non-null, relu set) — in one
// vectorized pass; dst may alias src. The order and the vmax clamp are
// the conv store epilogue's, so a fused conv and the unfused
// conv -> add -> relu chain agree bitwise.
void elementwise(float* dst, const float* src, std::int64_t n,
                 const float* bias, const float* res, bool relu) {
  const vec128f vb = vdup(bias != nullptr ? *bias : 0.0f);
  const vec128f zero = vzero();
  const auto apply = [&](vec128f v, vec128f r) {
    if (bias != nullptr) v = vadd(v, vb);
    if (res != nullptr) v = vadd(v, r);
    return relu ? vmax(v, zero) : v;
  };
  std::int64_t i = 0;
  for (; i + kVecLanes <= n; i += kVecLanes) {
    vstore(dst + i,
           apply(vload(src + i), res != nullptr ? vload(res + i) : zero));
  }
  if (i < n) {
    const int m = static_cast<int>(n - i);
    vstore_lanes(dst + i,
                 apply(vload_lanes(src + i, m),
                       res != nullptr ? vload_lanes(res + i, m) : zero),
                 m);
  }
}

}  // namespace

std::string TensorShape::to_string() const {
  std::string s = "[";
  s += std::to_string(N);
  s += ", ";
  s += std::to_string(C);
  s += ", ";
  s += std::to_string(H);
  s += ", ";
  s += std::to_string(W);
  s += ']';
  return s;
}

const char* conv_backend_name(ConvBackend b) {
  switch (b) {
    case ConvBackend::Ndirect: return "ndirect";
    case ConvBackend::Im2colGemm: return "im2col+gemm";
    case ConvBackend::Tuned: return "tuned";
    case ConvBackend::Naive: return "naive";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// ConvOp
// ---------------------------------------------------------------------------

ConvOp::ConvOp(ConvParams params, ConvBackend backend, std::uint64_t seed,
               bool bias)
    : params_(params),
      backend_(backend),
      filter_(make_filter_kcrs(params.K, params.C, params.R, params.S)) {
  // Kaiming-style scale keeps activation magnitudes stable through deep
  // stacks, so FP32 comparisons between backends stay meaningful.
  fill_random(filter_, seed);
  const float scale = std::sqrt(
      2.0f / (static_cast<float>(params.C) * params.R * params.S * 3));
  for (std::size_t i = 0; i < filter_.size(); ++i) filter_[i] *= scale;
  if (bias) {
    std::mt19937_64 rng(seed + 7);
    std::uniform_real_distribution<float> dist(-0.1f, 0.1f);
    bias_.resize(static_cast<std::size_t>(params.K));
    for (float& b : bias_) b = dist(rng);
  }
}

void ConvOp::set_backend(ConvBackend b) {
  backend_ = b;
  engine_.reset();
}

void ConvOp::set_filter_cache(bool enabled) {
  if (filter_cache_ == enabled) return;
  filter_cache_ = enabled;
  engine_.reset();  // the cache flag is baked into the engine's options
  qengine_.reset();
}

void ConvOp::set_pool(ThreadPool* pool) {
  if (pool_ == pool) return;
  pool_ = pool;
  engine_.reset();  // the pool pointer is baked into the engine's options
  qengine_.reset();
}

void ConvOp::set_telemetry(TelemetrySnapshot* sink) {
  if (telemetry_ == sink) return;
  telemetry_ = sink;
  engine_.reset();  // the sink pointer is baked into the engines' options
  qengine_.reset();
}

TensorShape ConvOp::infer(const std::vector<TensorShape>& in) const {
  if (in.size() != 2) expect_arity("conv", in.size(), 1);
  const TensorShape& s = in[0];
  if (s.C != params_.C || s.H != params_.H || s.W != params_.W ||
      s.N != params_.N) {
    throw std::invalid_argument("conv: input shape " + s.to_string() +
                                " does not match " + params_.to_string());
  }
  const TensorShape out{params_.N, params_.K, params_.P(), params_.Q()};
  if (in.size() == 2 && !(in[1] == out)) {
    throw std::invalid_argument("conv: residual shape " +
                                in[1].to_string() + " does not match " +
                                "the output " + out.to_string());
  }
  return out;
}

void ConvOp::set_quantized(bool on) {
  quantized_ = on;
  if (on) {
    engine_.reset();  // a quantized op never reads the fp32 packed filter
  } else {
    qengine_.reset();
    qfilter_ready_ = false;
  }
}

Tensor ConvOp::quantized_forward(const Tensor& x,
                                 const Tensor* residual) const {
  if (filter_dirty_ || !qfilter_ready_) {
    // Re-quantize the (possibly rescaled) weights and drop the engine
    // with the packed copy of the old ones.
    qfilter_ = quantize_filter_i8(filter_.data(), params_);
    qfilter_ready_ = true;
    filter_dirty_ = false;
    qengine_.reset();
  }
  if (!qengine_) {
    Int8ConvOptions qopts;
    qopts.pool = pool_;
    qopts.cache_packed_filter = filter_cache_;
    qopts.telemetry = telemetry_;
    qengine_ = std::make_unique<Int8Conv>(params_, qopts);
  }
  const QuantizedActivation qx = quantize_activation_u8(
      x.data(), static_cast<std::size_t>(params_.input_elems()), pool_);
  qdequant_.resize(static_cast<std::size_t>(params_.K));
  for (int k = 0; k < params_.K; ++k) {
    qdequant_[static_cast<std::size_t>(k)] =
        qx.scale * qfilter_.scales[static_cast<std::size_t>(k)];
  }
  Int8Epilogue epi;
  epi.dequant_scale = qdequant_.data();
  epi.bias = bias_.empty() ? nullptr : bias_.data();
  epi.residual = residual != nullptr ? residual->data() : nullptr;
  epi.relu = fused_relu_;
  Tensor out({params_.N, params_.K, params_.P(), params_.Q()},
             Layout::NCHW);
  Int8Output dst;
  dst.f32 = out.data();
  qengine_->run(qx.values.data(), qx.zero_point, qfilter_.values.data(),
                epi, dst, &qstats_);
  return out;
}

Tensor ConvOp::forward(const std::vector<const Tensor*>& in) const {
  const Tensor& x = *in.at(0);
  const Tensor* residual = in.size() > 1 ? in[1] : nullptr;
  Tensor out;
  switch (backend_) {
    case ConvBackend::Ndirect: {
      if (quantized_) return quantized_forward(x, residual);
      if (!engine_) {
        // Inference configuration: persistent scratch arenas plus the
        // packed-filter cache, so steady-state forward passes allocate
        // nothing and never re-run the filter transform.
        NdirectOptions nopts;
        nopts.cache_packed_filter = filter_cache_;
        nopts.pool = pool_;
        nopts.telemetry = telemetry_;
        engine_ = std::make_unique<NdirectConv>(params_, nopts);
      }
      if (filter_dirty_) {
        // Weights were handed out mutably since the last forward (e.g.
        // fold_batchnorm); drop the packed copy before this run.
        engine_->invalidate_filter_cache();
        filter_dirty_ = false;
      }
      // Bias, residual and fused ReLU ride the store epilogue: zero
      // extra passes.
      ConvEpilogue epi;
      epi.bias = bias_.empty() ? nullptr : bias_.data();
      epi.residual = residual != nullptr ? residual->data() : nullptr;
      epi.relu = fused_relu_;
      out = engine_->run(x, filter_, epi);
      return out;
    }
    case ConvBackend::Im2colGemm:
      out = im2col_conv_nchw(x, filter_, params_);
      break;
    case ConvBackend::Tuned: {
      // Fall back to a default schedule when the tuner was not run.
      Schedule s = schedule_;
      if (!has_schedule_) {
        s = Schedule{.vw = 8, .vk = 8, .tc = std::min(params_.C, 16),
                     .tk = 32 <= params_.K ? 32 : 8, .th = 4, .ptn = 1};
        if (!schedule_valid(s, params_, 1)) {
          s = Schedule{.vw = 4, .vk = 4, .tc = 1, .tk = 4, .th = 1,
                       .ptn = 1};
        }
      }
      out = tuned_conv(x, filter_, params_, s);
      break;
    }
    case ConvBackend::Naive:
      out = naive_conv_nchw(x, filter_, params_);
      break;
  }
  // Non-Ndirect backends cannot fuse into their stores; apply bias,
  // residual and ReLU in ONE vectorized pass over the output, in the
  // store epilogue's order (the Ndirect path returned above with all
  // three folded into its stores).
  if (!bias_.empty() || residual != nullptr || fused_relu_) {
    const std::int64_t hw = std::int64_t{params_.P()} * params_.Q();
    for (int n = 0; n < params_.N; ++n) {
      for (int k = 0; k < params_.K; ++k) {
        const std::int64_t off = (std::int64_t{n} * params_.K + k) * hw;
        float* plane = out.data() + off;
        elementwise(plane, plane, hw,
                    bias_.empty() ? nullptr
                                  : &bias_[static_cast<std::size_t>(k)],
                    residual != nullptr ? residual->data() + off : nullptr,
                    fused_relu_);
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// DepthwiseConvOp
// ---------------------------------------------------------------------------

DepthwiseConvOp::DepthwiseConvOp(DepthwiseParams params,
                                 std::uint64_t seed)
    : params_(params),
      filter_(make_filter_kcrs(params.C, 1, params.R, params.S)) {
  fill_random(filter_, seed);
  const float scale =
      std::sqrt(2.0f / (static_cast<float>(params.R) * params.S * 3));
  for (std::size_t i = 0; i < filter_.size(); ++i) filter_[i] *= scale;
}

TensorShape DepthwiseConvOp::infer(
    const std::vector<TensorShape>& in) const {
  expect_arity("dwconv", in.size(), 1);
  const TensorShape& s = in[0];
  if (s.C != params_.C || s.H != params_.H || s.W != params_.W ||
      s.N != params_.N) {
    throw std::invalid_argument("dwconv: input shape mismatch");
  }
  return {params_.N, params_.C, params_.P(), params_.Q()};
}

Tensor DepthwiseConvOp::forward(
    const std::vector<const Tensor*>& in) const {
  return depthwise_conv_nchw(*in.at(0), filter_, params_);
}

// ---------------------------------------------------------------------------
// Elementwise / normalization
// ---------------------------------------------------------------------------

TensorShape ReluOp::infer(const std::vector<TensorShape>& in) const {
  expect_arity("relu", in.size(), 1);
  return in[0];
}

Tensor ReluOp::forward(const std::vector<const Tensor*>& in) const {
  const Tensor& x = *in.at(0);
  Tensor out(x.dims(), x.layout());
  elementwise(out.data(), x.data(), x.element_count(), nullptr, nullptr,
              true);
  return out;
}

BatchNormOp::BatchNormOp(int channels, std::uint64_t seed)
    : scale_(static_cast<std::size_t>(channels)),
      shift_(static_cast<std::size_t>(channels)) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> sdist(0.7f, 1.3f);
  std::uniform_real_distribution<float> bdist(-0.1f, 0.1f);
  for (float& s : scale_) s = sdist(rng);
  for (float& b : shift_) b = bdist(rng);
}

TensorShape BatchNormOp::infer(const std::vector<TensorShape>& in) const {
  expect_arity("batchnorm", in.size(), 1);
  if (in[0].C != static_cast<int>(scale_.size())) {
    throw std::invalid_argument("batchnorm: channel mismatch");
  }
  return in[0];
}

Tensor BatchNormOp::forward(const std::vector<const Tensor*>& in) const {
  const Tensor& x = *in.at(0);
  const TensorShape s = shape_of(x);
  Tensor out({s.N, s.C, s.H, s.W}, Layout::NCHW);
  const std::int64_t hw = std::int64_t{s.H} * s.W;
  for (int n = 0; n < s.N; ++n) {
    for (int c = 0; c < s.C; ++c) {
      const float a = scale_[static_cast<std::size_t>(c)];
      const float b = shift_[static_cast<std::size_t>(c)];
      const float* src = x.data() + (std::int64_t{n} * s.C + c) * hw;
      float* dst = out.data() + (std::int64_t{n} * s.C + c) * hw;
      for (std::int64_t i = 0; i < hw; ++i) dst[i] = a * src[i] + b;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Pooling
// ---------------------------------------------------------------------------

TensorShape MaxPoolOp::infer(const std::vector<TensorShape>& in) const {
  expect_arity("maxpool", in.size(), 1);
  const TensorShape& s = in[0];
  const int P = (s.H + 2 * pad_ - kernel_) / stride_ + 1;
  const int Q = (s.W + 2 * pad_ - kernel_) / stride_ + 1;
  if (P <= 0 || Q <= 0) throw std::invalid_argument("maxpool: too small");
  return {s.N, s.C, P, Q};
}

Tensor MaxPoolOp::forward(const std::vector<const Tensor*>& in) const {
  const Tensor& x = *in.at(0);
  const TensorShape s = shape_of(x);
  const int P = (s.H + 2 * pad_ - kernel_) / stride_ + 1;
  const int Q = (s.W + 2 * pad_ - kernel_) / stride_ + 1;
  Tensor out({s.N, s.C, P, Q}, Layout::NCHW);
  for (int n = 0; n < s.N; ++n)
    for (int c = 0; c < s.C; ++c)
      for (int oj = 0; oj < P; ++oj)
        for (int oi = 0; oi < Q; ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          for (int r = 0; r < kernel_; ++r) {
            const int ij = oj * stride_ + r - pad_;
            if (ij < 0 || ij >= s.H) continue;
            for (int q = 0; q < kernel_; ++q) {
              const int ii = oi * stride_ + q - pad_;
              if (ii < 0 || ii >= s.W) continue;
              best = std::max(best, x.at4(n, c, ij, ii));
            }
          }
          out.at4(n, c, oj, oi) = best;
        }
  return out;
}

TensorShape GlobalAvgPoolOp::infer(
    const std::vector<TensorShape>& in) const {
  expect_arity("gavgpool", in.size(), 1);
  return {in[0].N, in[0].C, 1, 1};
}

Tensor GlobalAvgPoolOp::forward(
    const std::vector<const Tensor*>& in) const {
  const Tensor& x = *in.at(0);
  const TensorShape s = shape_of(x);
  Tensor out({s.N, s.C, 1, 1}, Layout::NCHW);
  const std::int64_t hw = std::int64_t{s.H} * s.W;
  for (int n = 0; n < s.N; ++n)
    for (int c = 0; c < s.C; ++c) {
      const float* src = x.data() + (std::int64_t{n} * s.C + c) * hw;
      double sum = 0;
      for (std::int64_t i = 0; i < hw; ++i) sum += src[i];
      out.at4(n, c, 0, 0) = static_cast<float>(sum / static_cast<double>(hw));
    }
  return out;
}

// ---------------------------------------------------------------------------
// Residual add / FC / softmax
// ---------------------------------------------------------------------------

TensorShape ConcatOp::infer(const std::vector<TensorShape>& in) const {
  if (in.empty()) throw std::invalid_argument("concat: needs inputs");
  TensorShape out = in[0];
  for (std::size_t i = 1; i < in.size(); ++i) {
    const TensorShape& s = in[i];
    if (s.N != out.N || s.H != out.H || s.W != out.W) {
      throw std::invalid_argument("concat: N/H/W mismatch " +
                                  out.to_string() + " vs " +
                                  s.to_string());
    }
    out.C += s.C;
  }
  return out;
}

Tensor ConcatOp::forward(const std::vector<const Tensor*>& in) const {
  std::vector<TensorShape> shapes;
  shapes.reserve(in.size());
  for (const Tensor* t : in) shapes.push_back(shape_of(*t));
  const TensorShape os = infer(shapes);
  Tensor out({os.N, os.C, os.H, os.W}, Layout::NCHW);
  const std::int64_t hw = std::int64_t{os.H} * os.W;
  int c_off = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const int ci = shapes[i].C;
    for (int n = 0; n < os.N; ++n) {
      const float* src = in[i]->data() + std::int64_t{n} * ci * hw;
      float* dst =
          out.data() + (std::int64_t{n} * os.C + c_off) * hw;
      std::memcpy(dst, src,
                  static_cast<std::size_t>(ci) * hw * sizeof(float));
    }
    c_off += ci;
  }
  return out;
}

TensorShape AddOp::infer(const std::vector<TensorShape>& in) const {
  expect_arity("add", in.size(), 2);
  if (!(in[0] == in[1])) {
    throw std::invalid_argument("add: shape mismatch " +
                                in[0].to_string() + " vs " +
                                in[1].to_string());
  }
  return in[0];
}

Tensor AddOp::forward(const std::vector<const Tensor*>& in) const {
  const Tensor& a = *in.at(0);
  const Tensor& b = *in.at(1);
  Tensor out(a.dims(), a.layout());
  elementwise(out.data(), a.data(), a.element_count(), nullptr, b.data(),
              false);
  return out;
}

FcOp::FcOp(int in_features, int out_features, std::uint64_t seed)
    : in_features_(in_features),
      out_features_(out_features),
      weights_(make_matrix(out_features, in_features)),
      bias_(static_cast<std::size_t>(out_features)) {
  fill_random(weights_, seed);
  const float scale = std::sqrt(2.0f / static_cast<float>(in_features));
  for (std::size_t i = 0; i < weights_.size(); ++i) weights_[i] *= scale;
  std::mt19937_64 rng(seed + 3);
  std::uniform_real_distribution<float> dist(-0.05f, 0.05f);
  for (float& b : bias_) b = dist(rng);
}

TensorShape FcOp::infer(const std::vector<TensorShape>& in) const {
  expect_arity("fc", in.size(), 1);
  const std::int64_t feats =
      std::int64_t{in[0].C} * in[0].H * in[0].W;
  if (feats != in_features_) {
    throw std::invalid_argument("fc: expected " +
                                std::to_string(in_features_) +
                                " features, got " + std::to_string(feats));
  }
  return {in[0].N, out_features_, 1, 1};
}

Tensor FcOp::forward(const std::vector<const Tensor*>& in) const {
  const Tensor& x = *in.at(0);
  const int N = static_cast<int>(x.dim(0));
  Tensor out({N, out_features_, 1, 1}, Layout::NCHW);
  // out[n][o] = sum_i W[o][i] * x[n][i]  ==  X(N x in) * W^T; compute as
  // per-sample GEMV batches through sgemm with B = x viewed (in x 1).
  // Simpler: C(N x out) = X(N x in) * Wt(in x out); build Wt once per
  // call is wasteful, so run sgemm with swapped operands:
  // C^T(out x N) = W(out x in) * X^T(in x N). For small N we instead
  // loop samples with one sgemm each (out x 1).
  for (int n = 0; n < N; ++n) {
    sgemm(out_features_, 1, in_features_, weights_.data(), in_features_,
          x.data() + std::int64_t{n} * in_features_, 1,
          out.data() + std::int64_t{n} * out_features_, 1);
    float* dst = out.data() + std::int64_t{n} * out_features_;
    for (int o = 0; o < out_features_; ++o) {
      dst[o] += bias_[static_cast<std::size_t>(o)];
    }
  }
  return out;
}

TensorShape SoftmaxOp::infer(const std::vector<TensorShape>& in) const {
  expect_arity("softmax", in.size(), 1);
  return in[0];
}

Tensor SoftmaxOp::forward(const std::vector<const Tensor*>& in) const {
  const Tensor& x = *in.at(0);
  const int N = static_cast<int>(x.dim(0));
  const std::int64_t feats = x.element_count() / N;
  Tensor out = x.clone();
  for (int n = 0; n < N; ++n) {
    float* d = out.data() + n * feats;
    float mx = d[0];
    for (std::int64_t i = 1; i < feats; ++i) mx = std::max(mx, d[i]);
    double sum = 0;
    for (std::int64_t i = 0; i < feats; ++i) {
      d[i] = std::exp(d[i] - mx);
      sum += d[i];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (std::int64_t i = 0; i < feats; ++i) d[i] *= inv;
  }
  return out;
}

}  // namespace ndirect
