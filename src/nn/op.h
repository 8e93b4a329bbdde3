// Inference operators for the graph executor. All activations are NCHW.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "autotune/schedule.h"
#include "core/depthwise.h"
#include "core/ndirect.h"
#include "core/quantized.h"
#include "runtime/timer.h"
#include "tensor/conv_params.h"
#include "tensor/tensor.h"

namespace ndirect {

/// NCHW activation shape flowing along graph edges.
struct TensorShape {
  int N = 0, C = 0, H = 0, W = 0;
  std::int64_t elems() const { return std::int64_t{N} * C * H * W; }
  bool operator==(const TensorShape&) const = default;
  std::string to_string() const;
};

class Op {
 public:
  virtual ~Op() = default;
  virtual const char* name() const = 0;
  /// Output shape given input shapes (validates arity/shapes; throws
  /// std::invalid_argument on mismatch).
  virtual TensorShape infer(const std::vector<TensorShape>& in) const = 0;
  virtual Tensor forward(const std::vector<const Tensor*>& in) const = 0;
};

/// Which convolution implementation a ConvOp dispatches to (Fig. 7's
/// backend axis).
enum class ConvBackend {
  Ndirect,     ///< this paper (MXNet+NDIRECT)
  Im2colGemm,  ///< MXNet+OpenBLAS stand-in
  Tuned,       ///< Ansor stand-in: searched schedule, generic kernel
  Naive,       ///< Algorithm 1 (testing)
};

const char* conv_backend_name(ConvBackend b);

/// Takes one input, or two: the second is a residual with the output's
/// shape, added after the bias and before the fused ReLU (set up by
/// fuse_conv_relu when it absorbs a conv -> add pair). The Ndirect
/// backend, fp32 or quantized, adds it in the store epilogue; the
/// others in their bias/ReLU post-pass.
class ConvOp final : public Op {
 public:
  /// Weights are initialized deterministically from `seed`; `bias` adds
  /// a per-channel bias (VGG convs have one, ResNet convs do not).
  ConvOp(ConvParams params, ConvBackend backend, std::uint64_t seed,
         bool bias);

  const char* name() const override { return "conv"; }
  TensorShape infer(const std::vector<TensorShape>& in) const override;
  Tensor forward(const std::vector<const Tensor*>& in) const override;

  const ConvParams& params() const { return params_; }
  ConvBackend backend() const { return backend_; }
  void set_backend(ConvBackend b);

  /// Install the schedule used by the Tuned backend.
  void set_schedule(const Schedule& s) { schedule_ = s; has_schedule_ = true; }
  bool has_schedule() const { return has_schedule_; }

  /// Apply ReLU inside the convolution (set by the fuse_conv_relu pass;
  /// the Ndirect backend runs it in the store epilogue, other backends
  /// apply it as a post-pass so semantics stay backend-invariant).
  void set_fused_relu(bool fused) { fused_relu_ = fused; }
  bool fused_relu() const { return fused_relu_; }

  /// Run this convolution through the int8 path (DESIGN.md §14):
  /// activations are quantized u8 asymmetric per forward, weights s8
  /// symmetric per output channel (re-quantized whenever the filter is
  /// marked dirty), and the fp32 output is produced by the per-channel
  /// dequantize epilogue with the op's bias, residual and fused ReLU —
  /// so the graph topology and every downstream op are unchanged. Only
  /// the Ndirect backend; other backends ignore the flag. Switching on
  /// releases the fp32 engine and its packed filter (re-packed lazily if
  /// switched back off); switching off releases the int8 engine.
  void set_quantized(bool on);
  bool quantized() const { return quantized_; }
  /// Stats of the most recent quantized forward (backend actually used,
  /// generic-fallback tile count).
  const Int8RunStats& quantized_stats() const { return qstats_; }

  /// Cache the packed filter inside the Ndirect engine (on by default:
  /// graph inference packs each layer's weights exactly once). Off
  /// restores the seed's transform-per-forward behaviour for A/B
  /// benching of the fixed overhead.
  void set_filter_cache(bool enabled);
  bool filter_cache() const { return filter_cache_; }

  /// Dispatch the Ndirect backend on `pool` instead of the global pool.
  /// The graph executor points every conv of a graph at one shared pool
  /// so concurrent branches cooperate on the same workers instead of
  /// oversubscribing the machine. nullptr restores the global pool.
  void set_pool(ThreadPool* pool);

  /// Collect per-run engine telemetry into `sink` (see
  /// NdirectOptions::telemetry): every forward() on the Ndirect backend,
  /// fp32 or quantized, overwrites it with that run's per-worker
  /// counters and wall time. nullptr (the default) disables collection.
  /// Rebuilds the engine, so its packed filter is re-packed on the next
  /// forward. Ops that may run
  /// concurrently (graph branches) need distinct sinks; merge the
  /// snapshots afterwards for a whole-graph view.
  void set_telemetry(TelemetrySnapshot* sink);
  TelemetrySnapshot* telemetry() const { return telemetry_; }

  /// Mutable access marks the filter dirty; the next forward()
  /// invalidates the engine's packed-filter cache — the graph passes
  /// (e.g. fold_batchnorm) scale weights in place. Deferring to
  /// forward() means any number of accesses between two forwards cost
  /// one re-pack, not one each. Hazard: a retained Tensor& mutated
  /// after a later forward() bypasses the flag (the engine's sampled
  /// content fingerprint usually still catches it, but is best-effort)
  /// — re-take filter() before each round of mutation, and use the
  /// const overload for pure reads so nothing re-packs at all.
  Tensor& filter() {
    filter_dirty_ = true;
    return filter_;
  }
  const Tensor& filter() const { return filter_; }
  std::vector<float>& bias() { return bias_; }

 private:
  Tensor quantized_forward(const Tensor& x, const Tensor* residual) const;

  ConvParams params_;
  ConvBackend backend_;
  Tensor filter_;  ///< KCRS
  std::vector<float> bias_;  ///< empty = no bias
  Schedule schedule_{};
  bool has_schedule_ = false;
  bool fused_relu_ = false;
  bool filter_cache_ = true;
  ThreadPool* pool_ = nullptr;  ///< nullptr = global pool
  TelemetrySnapshot* telemetry_ = nullptr;  ///< nullptr = no collection
  /// Set by the mutable filter() accessor, consumed by forward().
  mutable bool filter_dirty_ = false;
  // Planned engine for the Ndirect backend (lazy, shape is fixed).
  mutable std::unique_ptr<NdirectConv> engine_;
  // Int8 path state (lazy; rebuilt when the pool or the telemetry sink
  // changes or the filter goes dirty).
  bool quantized_ = false;
  mutable std::unique_ptr<Int8Conv> qengine_;
  mutable QuantizedFilterI8 qfilter_;
  mutable std::vector<float> qdequant_;  ///< K: in_scale * w_scale[k]
  mutable bool qfilter_ready_ = false;
  mutable Int8RunStats qstats_;
};

/// Depthwise convolution (Section 10.2: the C reduction removed).
/// Used by the MobileNet builder's depthwise-separable blocks.
class DepthwiseConvOp final : public Op {
 public:
  DepthwiseConvOp(DepthwiseParams params, std::uint64_t seed);

  const char* name() const override { return "dwconv"; }
  TensorShape infer(const std::vector<TensorShape>& in) const override;
  Tensor forward(const std::vector<const Tensor*>& in) const override;

  const DepthwiseParams& params() const { return params_; }

 private:
  DepthwiseParams params_;
  Tensor filter_;  ///< [C, 1, R, S]
};

class ReluOp final : public Op {
 public:
  const char* name() const override { return "relu"; }
  TensorShape infer(const std::vector<TensorShape>& in) const override;
  Tensor forward(const std::vector<const Tensor*>& in) const override;
};

/// Inference-mode batch norm: per-channel y = scale*x + shift.
class BatchNormOp final : public Op {
 public:
  BatchNormOp(int channels, std::uint64_t seed);
  const char* name() const override { return "batchnorm"; }
  TensorShape infer(const std::vector<TensorShape>& in) const override;
  Tensor forward(const std::vector<const Tensor*>& in) const override;

  const std::vector<float>& scale() const { return scale_; }
  const std::vector<float>& shift() const { return shift_; }

 private:
  std::vector<float> scale_;
  std::vector<float> shift_;
};

class MaxPoolOp final : public Op {
 public:
  MaxPoolOp(int kernel, int stride, int pad)
      : kernel_(kernel), stride_(stride), pad_(pad) {}
  const char* name() const override { return "maxpool"; }
  TensorShape infer(const std::vector<TensorShape>& in) const override;
  Tensor forward(const std::vector<const Tensor*>& in) const override;

 private:
  int kernel_, stride_, pad_;
};

class GlobalAvgPoolOp final : public Op {
 public:
  const char* name() const override { return "gavgpool"; }
  TensorShape infer(const std::vector<TensorShape>& in) const override;
  Tensor forward(const std::vector<const Tensor*>& in) const override;
};

/// Channel-axis concatenation of one or more same-N/H/W activations
/// (Inception-style branch merge; the DAG fuzzer's n-ary join).
class ConcatOp final : public Op {
 public:
  const char* name() const override { return "concat"; }
  TensorShape infer(const std::vector<TensorShape>& in) const override;
  Tensor forward(const std::vector<const Tensor*>& in) const override;
};

/// Residual addition of two same-shaped activations.
class AddOp final : public Op {
 public:
  const char* name() const override { return "add"; }
  TensorShape infer(const std::vector<TensorShape>& in) const override;
  Tensor forward(const std::vector<const Tensor*>& in) const override;
};

/// Fully connected layer on flattened input: y = W x + b via SGEMM.
class FcOp final : public Op {
 public:
  FcOp(int in_features, int out_features, std::uint64_t seed);
  const char* name() const override { return "fc"; }
  TensorShape infer(const std::vector<TensorShape>& in) const override;
  Tensor forward(const std::vector<const Tensor*>& in) const override;

 private:
  int in_features_, out_features_;
  Tensor weights_;  ///< [out, in]
  std::vector<float> bias_;
};

class SoftmaxOp final : public Op {
 public:
  const char* name() const override { return "softmax"; }
  TensorShape infer(const std::vector<TensorShape>& in) const override;
  Tensor forward(const std::vector<const Tensor*>& in) const override;
};

}  // namespace ndirect
