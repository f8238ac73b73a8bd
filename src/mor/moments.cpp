#include "mor/moments.hpp"

#include "mor/pencil.hpp"

namespace sympvl {

std::vector<Mat> exact_moments(const MnaSystem& sys, Index count, double s0) {
  require(count >= 1, "exact_moments: count must be >= 1");
  const Index n = sys.size();
  const Index p = sys.port_count();
  CommonReductionOptions options;
  options.s0 = s0;
  // The moments are asked for about s0 itself, so the ladder may not
  // move the expansion point.
  options.auto_shift = false;
  const std::shared_ptr<const FactorizedPencil> fact =
      factor_pencil(sys,
                    factor_request(options, "exact_moments", "moments.factor"))
          .pencil;

  // xcols starts as G̃⁻¹B and is advanced by G̃⁻¹C each step.
  std::vector<Vec> xcols(static_cast<size_t>(p));
  for (Index j = 0; j < p; ++j)
    xcols[static_cast<size_t>(j)] = fact->solve(sys.B.col(j));

  std::vector<Mat> moments;
  moments.reserve(static_cast<size_t>(count));
  for (Index k = 0; k < count; ++k) {
    Mat mk(p, p);
    for (Index a = 0; a < p; ++a)
      for (Index b = 0; b < p; ++b) {
        double acc = 0.0;
        for (Index i = 0; i < n; ++i)
          acc += sys.B(i, a) * xcols[static_cast<size_t>(b)][static_cast<size_t>(i)];
        mk(a, b) = acc;
      }
    moments.push_back(std::move(mk));
    if (k + 1 < count)
      for (Index j = 0; j < p; ++j)
        xcols[static_cast<size_t>(j)] =
            fact->solve(sys.C.multiply(xcols[static_cast<size_t>(j)]));
  }
  return moments;
}

Vec exact_moments_scalar(const MnaSystem& sys, Index count, double s0) {
  require(sys.port_count() == 1, "exact_moments_scalar: system must have one port");
  const auto m = exact_moments(sys, count, s0);
  Vec out(m.size());
  for (size_t k = 0; k < m.size(); ++k) out[k] = m[k](0, 0);
  return out;
}

}  // namespace sympvl
