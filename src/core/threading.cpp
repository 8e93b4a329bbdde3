#include "core/threading.h"

#include <cmath>

namespace ndirect {

double ptn_continuous(const ConvParams& p, double alpha) {
  const double nhw = static_cast<double>(p.N) * p.H * p.W;
  const double krs = static_cast<double>(p.K) * p.R * p.S;
  return std::sqrt(alpha * nhw / (krs * p.str * p.str));
}

double thread_fai(const ConvParams& p, double alpha, int ptn) {
  const double nhw = static_cast<double>(p.N) * p.H * p.W;
  const double krs = static_cast<double>(p.K) * p.R * p.S;
  const double denom =
      static_cast<double>(ptn) * p.str * p.str / nhw + alpha / (krs * ptn);
  return 1.0 / denom;
}

ThreadMapping solve_thread_mapping(const ConvParams& p, double alpha,
                                   int threads, bool allow_partial) {
  ThreadMapping best{1, threads > 0 ? threads : 1};
  if (threads <= 1) return {1, 1};

  double best_fai = -1.0;
  for (int ptn = 1; ptn <= threads; ++ptn) {
    const bool exact = threads % ptn == 0;
    if (!exact && !allow_partial) continue;
    // A PTn larger than the row space or a PTk larger than K would
    // leave whole thread groups idle.
    if (std::int64_t{ptn} > std::int64_t{p.N} * p.P()) continue;
    int ptk = threads / ptn;
    if (ptk > p.K) {
      // Exact grids cannot shrink PTk without stranding threads; partial
      // grids clamp to K and let the scheduler's stealers soak up the
      // remainder.
      if (!allow_partial) continue;
      ptk = p.K;
      if (ptk < 1) continue;
    }
    const double fai = thread_fai(p, alpha, ptn);
    // The paper takes the up-bound of PTn* when FAIs tie (the packing
    // kernel makes extra PTn cheap), so ties prefer the larger PTn;
    // among FAI-tied grids a fuller one (more seeded threads) wins so
    // divisor thread counts keep the paper's exact mapping.
    const int total = ptn * ptk;
    const int best_total = best_fai < 0 ? 0 : best.total();
    if (fai > best_fai + 1e-12 ||
        (fai > best_fai - 1e-12 &&
         (total > best_total ||
          (total == best_total && ptn > best.ptn)))) {
      best = {ptn, ptk};
      best_fai = fai;
    }
  }
  if (best_fai < 0) {
    // Degenerate shapes (tiny K and tiny row space): fall back to rows.
    const int ptn =
        static_cast<int>(std::min<std::int64_t>(threads,
                                                std::int64_t{p.N} * p.P()));
    return {ptn > 0 ? ptn : 1, 1};
  }
  return best;
}

ThreadSlice thread_slice(const ThreadMapping& mapping, int tid,
                         std::int64_t total_rows, std::int64_t k_blocks) {
  const int tn = tid / mapping.ptk;
  const int tk = tid % mapping.ptk;
  ThreadSlice slice;
  slice.rows = partition_range(static_cast<std::size_t>(total_rows),
                               static_cast<std::size_t>(mapping.ptn),
                               static_cast<std::size_t>(tn));
  slice.k_blocks = partition_range(static_cast<std::size_t>(k_blocks),
                                   static_cast<std::size_t>(mapping.ptk),
                                   static_cast<std::size_t>(tk));
  return slice;
}

}  // namespace ndirect
