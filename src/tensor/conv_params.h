// Convolution problem description, following the paper's Table 1 notation:
//   N batch, C input channels, H/W input height/width, K output channels,
//   R/S kernel height/width, str stride, P/Q output height/width.
#pragma once

#include <cstdint>
#include <string>

namespace ndirect {

struct ConvParams {
  int N = 1;    ///< batch size
  int C = 1;    ///< input channels
  int H = 1;    ///< input height
  int W = 1;    ///< input width
  int K = 1;    ///< output channels
  int R = 1;    ///< kernel height
  int S = 1;    ///< kernel width
  int str = 1;  ///< stride (same in both spatial dims, as in the paper)
  int pad = 0;  ///< zero padding (same on all four sides)

  /// Output height P = floor((H + 2*pad - R)/str) + 1.
  int P() const { return (H + 2 * pad - R) / str + 1; }
  /// Output width Q = floor((W + 2*pad - S)/str) + 1.
  int Q() const { return (W + 2 * pad - S) / str + 1; }

  bool valid() const {
    return N > 0 && C > 0 && H > 0 && W > 0 && K > 0 && R > 0 && S > 0 &&
           str > 0 && pad >= 0 && H + 2 * pad >= R && W + 2 * pad >= S;
  }

  std::int64_t input_elems() const {
    return std::int64_t{N} * C * H * W;
  }
  std::int64_t filter_elems() const {
    return std::int64_t{K} * C * R * S;
  }
  std::int64_t output_elems() const {
    return std::int64_t{N} * K * P() * Q();
  }

  /// Total floating-point operations (each MAC counts as 2 flops).
  std::int64_t flops() const {
    return 2 * std::int64_t{N} * K * P() * Q() * C * R * S;
  }

  std::string to_string() const {
    // Appended piecewise: a `"N" + std::to_string(N) + ...` chain makes
    // GCC 12 emit spurious -Wrestrict at every inlined call site.
    std::string s = "N";
    s += std::to_string(N);
    s += " C";
    s += std::to_string(C);
    s += " H";
    s += std::to_string(H);
    s += " W";
    s += std::to_string(W);
    s += " K";
    s += std::to_string(K);
    s += " R";
    s += std::to_string(R);
    s += "x";
    s += std::to_string(S);
    s += " str";
    s += std::to_string(str);
    s += " pad";
    s += std::to_string(pad);
    return s;
  }

  bool operator==(const ConvParams&) const = default;
};

}  // namespace ndirect
