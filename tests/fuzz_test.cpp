// Randomized property sweep: nDirect (all execution modes) against
// Algorithm 1 on ~40 randomly generated valid shapes, a DAG fuzzer
// proving the concurrent graph executor bitwise-identical to
// sequential execution on 100+ random branchy topologies, plus
// public-API validation behaviour.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <thread>

#include "baselines/naive_conv.h"
#include "core/ndirect.h"
#include "nn/graph.h"
#include "nn/optimize.h"
#include "tensor/compare.h"
#include "tensor/rng.h"
#include "tensor/transforms.h"

#include "graph_gen.h"

namespace ndirect {
namespace {

ConvParams random_params(std::mt19937_64& rng) {
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  for (;;) {
    ConvParams p;
    p.N = pick(1, 3);
    p.C = pick(1, 40);
    p.K = pick(1, 40);
    p.R = pick(1, 5);
    p.S = pick(1, 5);
    p.str = pick(1, 3);
    p.pad = pick(0, 3);
    p.H = pick(1, 30);
    p.W = pick(1, 30);
    if (p.valid() && p.output_elems() > 0 &&
        p.input_elems() < 200'000) {
      return p;
    }
  }
}

class RandomShapeFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RandomShapeFuzz, AllModesMatchNaive) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const ConvParams p = random_params(rng);
  SCOPED_TRACE(p.to_string());

  Tensor in = make_input_nchw(p.N, p.C, p.H, p.W);
  Tensor f = make_filter_kcrs(p.K, p.C, p.R, p.S);
  fill_random(in, rng());
  fill_random(f, rng());
  const Tensor ref = naive_conv_nchw(in, f, p);

  // Default plan, fused packing.
  EXPECT_TRUE(allclose(ndirect_conv(in, f, p), ref));

  // Sequential packing + ahead-of-time filter.
  NdirectOptions seq;
  seq.fuse_packing = false;
  seq.aot_filter = true;
  EXPECT_TRUE(allclose(ndirect_conv(in, f, p, seq), ref));

  // Random valid forced register block.
  const auto blocks = feasible_register_blocks(p.S);
  NdirectOptions forced;
  forced.force_rb =
      blocks[std::uniform_int_distribution<std::size_t>(
          0, blocks.size() - 1)(rng)];
  EXPECT_TRUE(allclose(ndirect_conv(in, f, p, forced), ref))
      << "vw=" << forced.force_rb.vw << " vk=" << forced.force_rb.vk;

  // NHWC path.
  const NdirectConv conv(p);
  EXPECT_TRUE(
      allclose(nhwc_to_nchw(conv.run_nhwc(nchw_to_nhwc(in), f)), ref));

  // Multi-threaded grid.
  ThreadPool pool(3);
  NdirectOptions mt;
  mt.pool = &pool;
  mt.threads = 3;
  EXPECT_TRUE(allclose(ndirect_conv(in, f, p, mt), ref));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomShapeFuzz, ::testing::Range(0, 40));

// ----------------------------------------------------------------------
// DAG fuzzer: concurrent == sequential, bitwise, on random topologies
// ----------------------------------------------------------------------

/// One fuzz iteration: build a random branchy DAG (random split/merge/
/// add/concat over conv/relu/pool), run it sequentially once, then
/// assert every concurrent configuration reproduces that output
/// bit-for-bit — the same guarantee the tile scheduler gives within one
/// conv, lifted to whole graphs. Each seed checks:
///   1. the default concurrent executor on a small shared pool,
///   2. repeated runs (schedule nondeterminism must not surface),
///   3. an OVERSUBSCRIBED pool (threads > cores),
///   4. a second build of the seed after fuse_conv_relu (the generator
///      emits no BatchNorm, so fold_batchnorm has nothing to do): fusing
///      relu / residual adds into the convs' epilogues and erasing the
///      absorbed nodes must not change a bit.
class DagFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DagFuzz, ConcurrentExecutionBitwiseIdenticalToSequential) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  // Sweep the input batch across the sizes the serving layer coalesces
  // to (single request, partial batch, full batch) — the executor
  // guarantees must hold at every N, not just the generator's default.
  static constexpr int kBatches[] = {1, 3, 8};
  auto g = testgen::build_random_dag(seed, kBatches[seed % 3]);
  const TensorShape& in_shape = g->shape_of(0);
  Tensor input =
      make_input_nchw(in_shape.N, in_shape.C, in_shape.H, in_shape.W);
  fill_random(input, seed * 31 + 7);

  GraphRunOptions seq;
  seq.concurrent = false;
  const Tensor expected = g->run(input, seq);
  const std::size_t bytes = expected.size() * sizeof(float);

  ThreadPool pool(3);
  g->set_conv_pool(&pool);
  for (int rep = 0; rep < 2; ++rep) {
    const Tensor got = g->run(input, {});
    ASSERT_EQ(got.size(), expected.size());
    ASSERT_EQ(std::memcmp(got.data(), expected.data(), bytes), 0)
        << "seed " << seed << " rep " << rep;
  }

  // Oversubscribed pool: more pool threads than cores.
  const unsigned hc = std::max(1u, std::thread::hardware_concurrency());
  ThreadPool wide(2 * hc + 1);
  g->set_conv_pool(&wide);
  const Tensor wide_out = g->run(input, {});
  ASSERT_EQ(wide_out.size(), expected.size());
  ASSERT_EQ(std::memcmp(wide_out.data(), expected.data(), bytes), 0)
      << "seed " << seed << " oversubscribed";

  auto fused = testgen::build_random_dag(seed, kBatches[seed % 3]);
  fuse_conv_relu(*fused);
  fused->set_conv_pool(&pool);
  const Tensor fused_out = fused->run(input, {});
  ASSERT_EQ(fused_out.size(), expected.size());
  ASSERT_EQ(std::memcmp(fused_out.data(), expected.data(), bytes), 0)
      << "seed " << seed << " after fuse_conv_relu";
}

INSTANTIATE_TEST_SUITE_P(Topologies, DagFuzz, ::testing::Range(0, 110));

// ----------------------------------------------------------------------
// Batch invariance: graph(N=k) slice i == graph(N=1) on image i
// ----------------------------------------------------------------------

/// The premise the serving layer's dynamic batching stands on: the same
/// seed built at batch k computes, for every slice of a batched input,
/// bitwise the same output as the batch-1 build on that image alone.
/// Holds because conv weights derive from (seed, K, C, R, S) — never N —
/// and the tile scheduler keeps every output element's reduction inside
/// one tile claim regardless of N (DESIGN.md §10). The batched graph
/// also runs once more after fuse_conv_relu, which must reproduce it
/// bitwise.
class DagBatchInvariance : public ::testing::TestWithParam<int> {};

TEST_P(DagBatchInvariance, BatchedSlicesMatchSingleImageRuns) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const int k = 2 + GetParam() % 3;  // batch 2..4
  auto g1 = testgen::build_random_dag(seed, 1);
  auto gk = testgen::build_random_dag(seed, k);
  const TensorShape s1 = g1->shape_of(0);
  ASSERT_EQ(gk->shape_of(0).N, k);
  ASSERT_EQ(gk->node_count(), g1->node_count());

  // Distinct random image per slice, assembled into the batched input.
  const std::size_t per_in = static_cast<std::size_t>(s1.elems());
  Tensor batched = make_input_nchw(k, s1.C, s1.H, s1.W);
  std::vector<Tensor> singles;
  for (int i = 0; i < k; ++i) {
    Tensor img = make_input_nchw(1, s1.C, s1.H, s1.W);
    fill_random(img, seed * 131 + static_cast<std::uint64_t>(i));
    std::memcpy(batched.data() + static_cast<std::size_t>(i) * per_in,
                img.data(), per_in * sizeof(float));
    singles.push_back(std::move(img));
  }

  const Tensor out_k = gk->run(batched);
  const std::size_t per_out = out_k.size() / static_cast<std::size_t>(k);
  auto gk_fused = testgen::build_random_dag(seed, k);
  fuse_conv_relu(*gk_fused);
  const Tensor fused_k = gk_fused->run(batched);
  ASSERT_EQ(fused_k.size(), out_k.size());
  ASSERT_EQ(std::memcmp(fused_k.data(), out_k.data(),
                        out_k.size() * sizeof(float)),
            0)
      << "seed " << seed << " after fuse_conv_relu";
  for (int i = 0; i < k; ++i) {
    const Tensor out_1 = g1->run(singles[static_cast<std::size_t>(i)]);
    ASSERT_EQ(out_1.size(), per_out);
    ASSERT_EQ(std::memcmp(out_1.data(),
                          out_k.data() +
                              static_cast<std::size_t>(i) * per_out,
                          per_out * sizeof(float)),
              0)
        << "seed " << seed << " slice " << i << " of batch " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, DagBatchInvariance,
                         ::testing::Range(0, 24));

// ----------------------------------------------------------------------
// Public-API validation
// ----------------------------------------------------------------------

TEST(ApiValidation, InvalidParamsThrow) {
  ConvParams bad{.N = 1, .C = 1, .H = 2, .W = 2, .K = 1,
                 .R = 5, .S = 5, .str = 1, .pad = 0};
  EXPECT_THROW(NdirectConv conv(bad), std::invalid_argument);
  bad = {.N = 0, .C = 1, .H = 2, .W = 2, .K = 1,
         .R = 1, .S = 1, .str = 1, .pad = 0};
  EXPECT_THROW(NdirectConv conv(bad), std::invalid_argument);
}

TEST(ApiValidation, MismatchedTensorsThrow) {
  const ConvParams p{.N = 1, .C = 4, .H = 8, .W = 8, .K = 4,
                     .R = 3, .S = 3, .str = 1, .pad = 1};
  const NdirectConv conv(p);
  Tensor good_in = make_input_nchw(1, 4, 8, 8);
  Tensor good_f = make_filter_kcrs(4, 4, 3, 3);
  good_in.fill_zero();
  good_f.fill_zero();

  Tensor wrong_c = make_input_nchw(1, 5, 8, 8);
  wrong_c.fill_zero();
  EXPECT_THROW((void)conv.run(wrong_c, good_f), std::invalid_argument);

  Tensor wrong_k = make_filter_kcrs(8, 4, 3, 3);
  wrong_k.fill_zero();
  EXPECT_THROW((void)conv.run(good_in, wrong_k), std::invalid_argument);

  // NHWC tensor passed to the NCHW entry point.
  Tensor nhwc = make_input_nhwc(1, 8, 8, 4);
  nhwc.fill_zero();
  EXPECT_THROW((void)conv.run(nhwc, good_f), std::invalid_argument);

  // And vice versa.
  EXPECT_THROW((void)conv.run_nhwc(good_in, good_f),
               std::invalid_argument);

  // The happy path still works.
  EXPECT_NO_THROW((void)conv.run(good_in, good_f));
}

}  // namespace
}  // namespace ndirect
