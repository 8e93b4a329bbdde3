// Tests for the store-time epilogue (bias + residual + ReLU fusion)
// and the conv+ReLU / conv+add graph fusion pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <utility>

#include "baselines/naive_conv.h"
#include "conv_shapes.h"
#include "core/ndirect.h"
#include "nn/models.h"
#include "nn/optimize.h"
#include "tensor/compare.h"
#include "tensor/rng.h"
#include "tensor/transforms.h"

namespace ndirect {
namespace {

Tensor reference_with_epilogue(const Tensor& input, const Tensor& filter,
                               const ConvParams& p,
                               const std::vector<float>& bias, bool relu) {
  Tensor ref = naive_conv_nchw(input, filter, p);
  const std::int64_t hw = std::int64_t{p.P()} * p.Q();
  for (int n = 0; n < p.N; ++n) {
    for (int k = 0; k < p.K; ++k) {
      float* plane =
          ref.data() + (std::int64_t{n} * p.K + k) * hw;
      for (std::int64_t i = 0; i < hw; ++i) {
        float v = plane[i];
        if (!bias.empty()) v += bias[static_cast<std::size_t>(k)];
        if (relu) v = std::max(v, 0.0f);
        plane[i] = v;
      }
    }
  }
  return ref;
}

std::vector<float> make_bias(int K) {
  std::vector<float> bias(static_cast<std::size_t>(K));
  for (int k = 0; k < K; ++k) {
    bias[static_cast<std::size_t>(k)] =
        0.25f * static_cast<float>(k % 7 - 3);
  }
  return bias;
}

class EpilogueSweep : public ::testing::TestWithParam<ConvParams> {};

TEST_P(EpilogueSweep, BiasAndReluMatchReference) {
  const ConvParams p = GetParam();
  Tensor in = make_input_nchw(p.N, p.C, p.H, p.W);
  Tensor f = make_filter_kcrs(p.K, p.C, p.R, p.S);
  fill_random(in, 81);
  fill_random(f, 82);
  const std::vector<float> bias = make_bias(p.K);
  const Tensor ref = reference_with_epilogue(in, f, p, bias, true);

  const NdirectConv conv(p);
  ConvEpilogue epi;
  epi.bias = bias.data();
  epi.relu = true;
  const Tensor out = conv.run(in, f, epi);
  EXPECT_TRUE(allclose(out, ref))
      << compare_tensors(out, ref).to_string();
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// The unfused chain the residual epilogue replaces: the conv's output
/// (bias applied) through the graph's own AddOp and ReluOp.
Tensor add_then_relu(const Tensor& conv_out, const Tensor& residual) {
  const Tensor sum = AddOp().forward({&conv_out, &residual});
  return ReluOp().forward({&sum});
}

TEST_P(EpilogueSweep, ResidualMatchesUnfusedAddReluBitwise) {
  const ConvParams p = GetParam();
  Tensor in = make_input_nchw(p.N, p.C, p.H, p.W);
  Tensor f = make_filter_kcrs(p.K, p.C, p.R, p.S);
  Tensor res = make_output_nchw(p.N, p.K, p.P(), p.Q());
  fill_random(in, 94);
  fill_random(f, 95);
  fill_random(res, 96);
  const std::vector<float> bias = make_bias(p.K);
  const Tensor in_nhwc = nchw_to_nhwc(in);
  const Tensor res_nhwc = nchw_to_nhwc(res);

  // The policy kernels (ragged W/K tails take the masked edge stores),
  // about three C tiles so the residual lands on the final partial sum
  // only, and the generic fallback's scalar store.
  NdirectOptions c_tiles;
  c_tiles.force_tiling = {std::max(1, (p.C + 2) / 3), 4, 2};
  NdirectOptions generic;
  generic.generic_kernel_only = true;
  const std::pair<const char*, NdirectOptions> configs[] = {
      {"default", {}}, {"c_tiles", c_tiles}, {"generic", generic}};
  for (const auto& [name, opts] : configs) {
    const NdirectConv conv(p, opts);
    const Tensor fused = conv.run(in, f, {bias.data(), true, res.data()});
    EXPECT_TRUE(
        bitwise_equal(fused, add_then_relu(conv.run(in, f, {bias.data()}),
                                           res)))
        << name << " NCHW";
    const Tensor fused_nhwc =
        conv.run_nhwc(in_nhwc, f, {bias.data(), true, res_nhwc.data()});
    EXPECT_TRUE(bitwise_equal(
        fused_nhwc,
        add_then_relu(conv.run_nhwc(in_nhwc, f, {bias.data()}), res_nhwc)))
        << name << " NHWC";
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, EpilogueSweep,
                         ::testing::ValuesIn(correctness_conv_shapes()));

TEST(Epilogue, BiasOnly) {
  const ConvParams p{.N = 1, .C = 8, .H = 10, .W = 10, .K = 12,
                     .R = 3, .S = 3, .str = 1, .pad = 1};
  Tensor in = make_input_nchw(p.N, p.C, p.H, p.W);
  Tensor f = make_filter_kcrs(p.K, p.C, p.R, p.S);
  fill_random(in, 83);
  fill_random(f, 84);
  const std::vector<float> bias = make_bias(p.K);
  const Tensor ref = reference_with_epilogue(in, f, p, bias, false);
  const NdirectConv conv(p);
  const Tensor out = conv.run(in, f, {bias.data(), false});
  EXPECT_TRUE(allclose(out, ref));
  // Some values must actually be negative (ReLU genuinely off).
  bool any_negative = false;
  for (std::size_t i = 0; i < out.size(); ++i) any_negative |= out[i] < 0;
  EXPECT_TRUE(any_negative);
}

TEST(Epilogue, ReluOnlyClampsEverything) {
  const ConvParams p{.N = 1, .C = 8, .H = 10, .W = 10, .K = 12,
                     .R = 3, .S = 3, .str = 1, .pad = 1};
  Tensor in = make_input_nchw(p.N, p.C, p.H, p.W);
  Tensor f = make_filter_kcrs(p.K, p.C, p.R, p.S);
  fill_random(in, 85);
  fill_random(f, 86);
  const NdirectConv conv(p);
  const Tensor out = conv.run(in, f, {nullptr, true});
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_GE(out[i], 0.0f);
  const Tensor ref =
      reference_with_epilogue(in, f, p, {}, /*relu=*/true);
  EXPECT_TRUE(allclose(out, ref));
}

TEST(Epilogue, AppliedOnlyAfterFinalCTile) {
  // Force tiny Tc so several C tiles accumulate; the ReLU must clamp
  // the *final* sum, not intermediate partials (which would corrupt
  // later accumulation).
  const ConvParams p{.N = 1, .C = 24, .H = 8, .W = 8, .K = 8,
                     .R = 3, .S = 3, .str = 1, .pad = 1};
  Tensor in = make_input_nchw(p.N, p.C, p.H, p.W);
  Tensor f = make_filter_kcrs(p.K, p.C, p.R, p.S);
  fill_random(in, 87);
  fill_random(f, 88);
  NdirectOptions opts;
  opts.force_rb = {8, 4};
  opts.force_tiling = {3, 4, 2};  // 8 C tiles
  const NdirectConv conv(p, opts);
  const Tensor out = conv.run(in, f, {nullptr, true});
  const Tensor ref = reference_with_epilogue(in, f, p, {}, true);
  EXPECT_TRUE(allclose(out, ref))
      << compare_tensors(out, ref).to_string();
}

TEST(Epilogue, NhwcPathSupportsEpilogue) {
  const ConvParams p{.N = 1, .C = 8, .H = 9, .W = 9, .K = 16,
                     .R = 3, .S = 3, .str = 1, .pad = 1};
  Tensor in = make_input_nchw(p.N, p.C, p.H, p.W);
  Tensor f = make_filter_kcrs(p.K, p.C, p.R, p.S);
  fill_random(in, 89);
  fill_random(f, 90);
  const std::vector<float> bias = make_bias(p.K);
  const Tensor ref = reference_with_epilogue(in, f, p, bias, true);
  const NdirectConv conv(p);
  const Tensor out_nhwc =
      conv.run_nhwc(nchw_to_nhwc(in), f, {bias.data(), true});
  EXPECT_TRUE(allclose(nhwc_to_nchw(out_nhwc), ref));
}

// ----------------------------------------------------------------------
// Graph-level conv+ReLU fusion
// ----------------------------------------------------------------------

TEST(FuseConvRelu, PreservesVggOutputs) {
  ModelOptions opts;
  opts.channel_divisor = 16;
  opts.image_size = 32;
  auto net = build_vgg16(1, opts);
  Tensor in = make_input_nchw(1, 3, 32, 32);
  fill_random(in, 91);
  const Tensor before = net->run(in);
  const int fused = fuse_conv_relu(*net);
  EXPECT_EQ(fused, 13);  // every VGG-16 conv is followed by ReLU
  const Tensor after = net->run(in);
  EXPECT_TRUE(allclose(before, after, 1e-3, 1e-3));
}

TEST(FuseConvRelu, WalksThroughFoldedBatchNorm) {
  ModelOptions opts;
  opts.channel_divisor = 16;
  opts.image_size = 32;
  auto net = build_resnet50(1, opts);
  Tensor in = make_input_nchw(1, 3, 32, 32);
  fill_random(in, 92);
  const Tensor before = net->run(in);
  ASSERT_EQ(fold_batchnorm(*net), 53);
  // Every ReLU and every residual add fuses into a conv. ResNet-50:
  // ReLUs = stem + 3 per bottleneck = 1 + 3*16 = 49, adds = 16.
  EXPECT_EQ(fuse_conv_relu(*net), 65);
  const Tensor after = net->run(in);
  EXPECT_TRUE(allclose(before, after, 1e-3, 1e-3))
      << compare_tensors(before, after).to_string();
}

TEST(FuseConvRelu, FusionIsBackendInvariant) {
  ModelOptions opts;
  opts.channel_divisor = 16;
  opts.image_size = 32;
  opts.backend = ConvBackend::Ndirect;
  auto net = build_vgg16(1, opts);
  fuse_conv_relu(*net);
  Tensor in = make_input_nchw(1, 3, 32, 32);
  fill_random(in, 93);
  const Tensor nd = net->run(in);
  for (ConvOp* conv : net->conv_ops()) {
    conv->set_backend(ConvBackend::Im2colGemm);
  }
  const Tensor gemm = net->run(in);
  EXPECT_TRUE(allclose(nd, gemm, 1e-3, 1e-3));
}

const ConvParams kSmall{.N = 1, .C = 4, .H = 8, .W = 8, .K = 4,
                        .R = 3, .S = 3, .str = 1, .pad = 1};

NodeId add_conv(Graph& g, NodeId from, std::uint64_t seed) {
  return g.add(std::make_unique<ConvOp>(kSmall, ConvBackend::Ndirect, seed,
                                        /*bias=*/true),
               {from});
}

std::vector<std::string> op_names(Graph& g) {
  std::vector<std::string> names;
  for (NodeId id = 1; id < g.node_count(); ++id) {
    names.emplace_back(g.op_of(id)->name());
  }
  return names;
}

/// Run `build`'s graph with and without fuse_conv_relu on one input;
/// returns {fused count, fused graph's op names} and checks the two
/// outputs are bitwise equal.
std::pair<int, std::vector<std::string>> fuse_and_compare(
    const std::function<void(Graph&)>& build) {
  Graph plain(1, 4, 8, 8);
  Graph fused(1, 4, 8, 8);
  build(plain);
  build(fused);
  const int count = fuse_conv_relu(fused);
  Tensor in = make_input_nchw(1, 4, 8, 8);
  fill_random(in, 97);
  EXPECT_TRUE(bitwise_equal(plain.run(in), fused.run(in)));
  EXPECT_EQ(fused.output_shape(), plain.output_shape());
  return {count, op_names(fused)};
}

using Names = std::vector<std::string>;

TEST(FuseConvRelu, DoesNotFuseResidualRelu) {
  // add(c1, c1): the conv feeds the add twice, so the add is not its
  // sole consumer and both the add and the ReLU after it stay.
  const auto [count, names] = fuse_and_compare([](Graph& g) {
    const NodeId c1 = add_conv(g, 0, 1);
    const NodeId add = g.add(std::make_unique<AddOp>(), {c1, c1});
    g.add(std::make_unique<ReluOp>(), {add});
  });
  EXPECT_EQ(count, 0);
  EXPECT_EQ(names, (Names{"conv", "add", "relu"}));
}

TEST(FuseConvRelu, AbsorbsResidualAddAndItsRelu) {
  // conv -> add(conv, input) -> relu collapses into one conv that reads
  // the input twice: as its operand and as its residual.
  const auto [count, names] = fuse_and_compare([](Graph& g) {
    const NodeId c1 = add_conv(g, 0, 1);
    const NodeId add = g.add(std::make_unique<AddOp>(), {c1, 0});
    g.add(std::make_unique<ReluOp>(), {add});
  });
  EXPECT_EQ(count, 2);
  EXPECT_EQ(names, (Names{"conv"}));
}

TEST(FuseConvRelu, LaterOperandAbsorbsTheAdd) {
  // Projection-block shape: add(c1, c2) with both convs sole-consumed;
  // only c2, the later node, may take the add (c1 is then its
  // residual, already computed when c2 runs).
  Graph g(1, 4, 8, 8);
  const NodeId c1 = add_conv(g, 0, 1);
  const NodeId c2 = add_conv(g, 0, 2);
  g.add(std::make_unique<AddOp>(), {c1, c2});
  EXPECT_EQ(fuse_conv_relu(g), 1);
  EXPECT_EQ(op_names(g), (Names{"conv", "conv"}));
  EXPECT_EQ(g.inputs_of(c2), (std::vector<NodeId>{0, c1}));
  EXPECT_EQ(g.output(), c2);
}

TEST(FuseConvRelu, ConvWithFusedReluKeepsItsAdd) {
  // relu(conv) + input: the ReLU must run before the add, which the
  // epilogue (residual first, then ReLU) cannot express.
  const auto [count, names] = fuse_and_compare([](Graph& g) {
    const NodeId c1 = add_conv(g, 0, 1);
    const NodeId r = g.add(std::make_unique<ReluOp>(), {c1});
    g.add(std::make_unique<AddOp>(), {r, 0});
  });
  EXPECT_EQ(count, 1);
  EXPECT_EQ(names, (Names{"conv", "add"}));
}

TEST(FuseConvRelu, ConvWithTwoConsumersFusesNothing) {
  const auto [count, names] = fuse_and_compare([](Graph& g) {
    const NodeId c1 = add_conv(g, 0, 1);
    const NodeId add = g.add(std::make_unique<AddOp>(), {c1, 0});
    const NodeId r = g.add(std::make_unique<ReluOp>(), {c1});
    g.add(std::make_unique<AddOp>(), {add, r});
  });
  EXPECT_EQ(count, 0);
  EXPECT_EQ(names, (Names{"conv", "add", "relu", "add"}));
}

TEST(FuseConvRelu, AbsorbedOutputNodeStillReturnsItsTensor) {
  // The output add is absorbed by a conv that is not the last node (a
  // dead maxpool follows it): run() must return the conv's tensor.
  const auto [count, names] = fuse_and_compare([](Graph& g) {
    const NodeId c1 = add_conv(g, 0, 1);
    g.add(std::make_unique<MaxPoolOp>(2, 2, 0), {0});
    g.add(std::make_unique<AddOp>(), {c1, 0});
  });
  EXPECT_EQ(count, 1);
  EXPECT_EQ(names, (Names{"conv", "maxpool"}));
}

// ----------------------------------------------------------------------
// Whole-network fusion is bitwise: fold_batchnorm rescales the weights
// (it changes the arithmetic), so both graphs fold; only fuse_conv_relu
// differs between them.
// ----------------------------------------------------------------------

TEST(FuseConvRelu, ResNet50FusionIsBitwiseOnEveryBackend) {
  ModelOptions opts;
  opts.channel_divisor = 16;
  opts.image_size = 32;
  for (const int batch : {1, 2}) {
    auto plain = build_resnet50(batch, opts);
    auto fused = build_resnet50(batch, opts);
    fold_batchnorm(*plain);
    fold_batchnorm(*fused);
    ASSERT_EQ(fuse_conv_relu(*fused), 65);
    // 53 convs + maxpool, gavgpool, fc, softmax: nothing else is left.
    EXPECT_EQ(fused->node_count(), 1 + 53 + 4);
    for (const std::string& name : op_names(*fused)) {
      EXPECT_TRUE(name != "add" && name != "relu" && name != "batchnorm")
          << name;
    }
    Tensor in = make_input_nchw(batch, 3, 32, 32);
    fill_random(in, 98);
    for (const ConvBackend b :
         {ConvBackend::Ndirect, ConvBackend::Im2colGemm}) {
      for (Graph* g : {plain.get(), fused.get()}) {
        for (ConvOp* c : g->conv_ops()) c->set_backend(b);
      }
      EXPECT_TRUE(bitwise_equal(plain->run(in), fused->run(in)))
          << conv_backend_name(b) << " batch " << batch;
    }
    for (Graph* g : {plain.get(), fused.get()}) {
      for (ConvOp* c : g->conv_ops()) c->set_backend(ConvBackend::Ndirect);
      quantize_convs(*g);
    }
    EXPECT_TRUE(bitwise_equal(plain->run(in), fused->run(in)))
        << "int8 batch " << batch;
  }
}

}  // namespace
}  // namespace ndirect
