// Sweep results with per-point fault containment.
//
// A frequency sweep is a batch of independent solves; one singular or
// ill-conditioned point (a resonance landing exactly on the grid, an
// injected fault, a pencil assembly overflow) must not destroy the other
// 999 points. SweepResult carries the per-point matrices together with a
// per-point status vector and the structured error records of the points
// that failed: failed points hold a NaN-filled p×p matrix, every other
// point is exactly what an all-healthy sweep would have produced.
//
// The container indexes like the std::vector<CMat> it replaced
// (operator[], size(), begin/end over the matrices), so plotting and
// error-scan code keeps working unchanged.
#pragma once

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "linalg/dense.hpp"

namespace sympvl {

enum class PointStatus : unsigned char { kOk = 0, kFailed = 1 };

/// Structured record of one failed sweep point.
struct SweepPointError {
  Index index = -1;           ///< position in the frequency grid
  double frequency_hz = 0.0;  ///< the frequency that failed
  ErrorCode code = ErrorCode::kUnknown;
  std::string message;
};

/// A p×p matrix filled with quiet NaNs — the placeholder failed sweep
/// points carry so downstream consumers cannot mistake them for data.
inline CMat nan_matrix(Index rows, Index cols) {
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  CMat m(rows, cols);
  for (Index i = 0; i < rows; ++i)
    for (Index j = 0; j < cols; ++j) m(i, j) = Complex(qnan, qnan);
  return m;
}

struct SweepResult {
  Vec frequencies;                       ///< grid, in Hz
  std::vector<CMat> values;              ///< p×p per point (NaN when failed)
  std::vector<PointStatus> point_status; ///< one entry per point
  std::vector<SweepPointError> errors;   ///< failed points, in index order

  size_t size() const { return values.size(); }
  const CMat& operator[](size_t k) const { return values[k]; }
  std::vector<CMat>::const_iterator begin() const { return values.begin(); }
  std::vector<CMat>::const_iterator end() const { return values.end(); }

  bool ok(size_t k) const { return point_status[k] == PointStatus::kOk; }
  bool all_ok() const { return errors.empty(); }
  Index failed_count() const { return static_cast<Index>(errors.size()); }
};

/// The Error(kSweepPointFailed) a strict sweep raises: "N of M sweep points
/// failed; first: …", with the first failed point's index and frequency
/// as context. Requires !res.all_ok().
inline Error sweep_failure(const SweepResult& res) {
  const SweepPointError& first = res.errors.front();
  ErrorContext ctx;
  ctx.stage = "sweep";
  ctx.index = first.index;
  ctx.frequency = Complex(first.frequency_hz, 0.0);
  return Error(ErrorCode::kSweepPointFailed,
               std::to_string(res.errors.size()) + " of " +
                   std::to_string(res.values.size()) +
                   " sweep points failed; first: " + first.message,
               std::move(ctx));
}

}  // namespace sympvl
