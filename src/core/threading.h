// Thread-mapping model (Section 6, Eq. 5-6).
//
// nDirect parallelizes N, H, W and K but never the reduction dims
// (C, R, S), splitting PT threads into a PTn x PTk grid: PTk groups
// partition the output channels, PTn groups partition the (n, output
// row) space with priority N then H. Per-thread FAI (Eq. 5) is
//
//            1
//   ---------------------------------------
//   PTn*str^2/(N*H*W) + alpha/(K*R*S*PTn)
//
// maximized (per Eq. 6, AM-GM) at PTn* = sqrt(alpha*N*H*W/(K*R*S*str^2)).
// Since PTn must divide PT, we evaluate Eq. 5 on every divisor and keep
// the best; with the model's up-bound rule this reduces to the divisor
// closest to ceil(PTn*).
#pragma once

#include <cstdint>

#include "runtime/partition.h"
#include "tensor/conv_params.h"

namespace ndirect {

struct ThreadMapping {
  int ptn = 1;  ///< threads across N/H/W
  int ptk = 1;  ///< threads across K

  int total() const { return ptn * ptk; }
};

/// The continuous optimum PTn* of Eq. 6 (before the divisor constraint).
double ptn_continuous(const ConvParams& p, double alpha);

/// Per-thread FAI of Eq. 5 for a candidate PTn.
double thread_fai(const ConvParams& p, double alpha, int ptn);

/// Best split of `threads` for this convolution.
///
/// With `allow_partial` false (the default, and the paper's rule) only
/// exact divisor grids ptn * ptk == threads are evaluated. Prime and
/// awkward thread counts then force degenerate 1xT / Tx1 grids; with
/// `allow_partial` true the solver also evaluates grids with
/// ptn * ptk < threads (ptk clamped to K) and picks them when their
/// Eq. 5 FAI strictly wins — the work-stealing scheduler hands the
/// remainder threads to the grid as pure stealers, so no thread idles.
/// Ties prefer exact grids, then larger PTn (the paper's up-bound rule).
ThreadMapping solve_thread_mapping(const ConvParams& p, double alpha,
                                   int threads, bool allow_partial = false);

/// Work slice of one thread in the PTn x PTk grid: a contiguous range of
/// (n*P + output_row) indices and a contiguous range of K blocks.
struct ThreadSlice {
  Range rows;      ///< indices into the flattened (n, output row) space
  Range k_blocks;  ///< indices into the ceil(K/Vk) K-block space
};

/// Slice for thread `tid` in [0, mapping.total()). Rows are split over
/// PTn in (n-major, row) order, which realizes the paper's N-then-H
/// priority; K blocks are split over PTk.
ThreadSlice thread_slice(const ThreadMapping& mapping, int tid,
                         std::int64_t total_rows, std::int64_t k_blocks);

}  // namespace ndirect
