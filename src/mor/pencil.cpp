#include "mor/pencil.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>

#include "obs/obs.hpp"

namespace sympvl {

namespace {

// One cache-backed factorization attempt, recorded into the trail.
// Returns nullptr on failure (the failure record carries code/detail).
std::shared_ptr<const FactorizedPencil> attempt_rung(
    const SMat& g, const SMat& c, const PencilFingerprint& fp,
    FactorCache& cache, const PencilFactorRequest& req, double shift,
    bool dense, std::vector<FactorAttemptRecord>* attempts) {
  FactorAttemptRecord rec;
  rec.method = dense ? "dense_bk" : "ldlt";
  rec.shift = shift;
  PencilFactorOptions opt;
  opt.shift = shift;
  opt.ordering = req.ordering;
  opt.dense = dense;
  try {
    bool hit = false;
    std::shared_ptr<const FactorizedPencil> pencil = cache.acquire(
        fp, opt,
        [&] {
          return std::make_shared<const FactorizedPencil>(g, c, opt, &cache);
        },
        &hit);
    rec.success = true;
    if (hit) rec.detail = "cache hit";
    attempts->push_back(std::move(rec));
    return pencil;
  } catch (const Error& e) {
    rec.code = e.code();
    rec.detail = e.what();
    attempts->push_back(std::move(rec));
    return nullptr;
  }
}

// `skipped` names a rung the ladder did not run (empty: none).
[[noreturn]] void throw_ladder_failure(
    const PencilFactorRequest& req,
    const std::vector<FactorAttemptRecord>& attempts,
    const std::string& skipped) {
  std::string history;
  for (const FactorAttemptRecord& a : attempts) {
    if (!history.empty()) history += "; ";
    history += a.method + "(s0=" + std::to_string(a.shift) + "): " + a.detail;
  }
  if (!skipped.empty()) history += "; " + skipped;
  ErrorContext ctx;
  ctx.stage = req.stage;
  ctx.index = static_cast<Index>(attempts.size());
  throw Error(ErrorCode::kSingular,
              std::string(req.driver) +
                  ": every factorization attempt failed [" + history + "]",
              std::move(ctx));
}

}  // namespace

std::vector<double> shift_ladder(double base, Index count) {
  require(base > 0.0, ErrorCode::kInvalidArgument,
          "shift_ladder: base shift must be positive");
  std::vector<double> out;
  out.reserve(static_cast<size_t>(std::max<Index>(count, 0)));
  // Alternate up/down by factors of e with a deterministic ~10% jitter so
  // retries sample ~3 decades around the base without ever repeating it.
  for (Index k = 0; k < count; ++k) {
    const double decade = static_cast<double>(k / 2 + 1);
    const double dir = (k % 2 == 0) ? 1.0 : -1.0;
    const double jitter = 1.0 + 0.1 * static_cast<double>(k + 1);
    out.push_back(base * std::exp(dir * decade) * jitter);
  }
  return out;
}

double automatic_shift(const SMat& g, const SMat& c) {
  // Scale ratio of the pencil terms: s₀ ≈ Σ|diag G| / Σ|diag C| lands in
  // the frequency range where G + s₀C is balanced (and, for PSD G and C
  // with s₀ > 0, nonsingular whenever the pencil is regular).
  double sg = 0.0, sc = 0.0;
  for (Index i = 0; i < g.rows(); ++i) {
    sg += std::abs(g.coeff(i, i));
    sc += std::abs(c.coeff(i, i));
  }
  require(sc > 0.0, ErrorCode::kInvalidArgument,
          "automatic_shift: C has an empty diagonal",
          ErrorContext{.stage = "sympvl.auto_shift"});
  if (sg == 0.0) return 1.0;
  return sg / sc;
}

double automatic_shift(const MnaSystem& sys) {
  return automatic_shift(sys.G, sys.C);
}

PencilFactorRequest factor_request(const CommonReductionOptions& options,
                                   const char* driver, const char* stage) {
  return {.s0 = options.s0,
          .auto_shift = options.auto_shift,
          .ordering = options.ordering,
          .driver = driver,
          .stage = stage,
          .cache = options.factor_cache};
}

PencilFactorResult factor_pencil(const SMat& g, const SMat& c,
                                 const PencilFactorRequest& req) {
  FactorCache& cache =
      req.cache != nullptr ? *req.cache : FactorCache::global();
  const PencilFingerprint fp = fingerprint_pencil(g, c);
  PencilFactorResult res;
  const auto rung = [&](double shift, bool dense) {
    res.pencil =
        attempt_rung(g, c, fp, cache, req, shift, dense, &res.attempts);
    res.s0_used = shift;
    res.dense = dense;
    return res.pencil != nullptr;
  };

  if (rung(req.s0, /*dense=*/false)) return res;
  std::optional<double> s_auto;
  if (req.auto_shift) {
    try {
      s_auto = automatic_shift(g, c);
    } catch (const Error&) {
      // C has an empty diagonal: no automatic shift, so no rung 2.
    }
    if (req.s0 == 0.0 && s_auto && rung(*s_auto, /*dense=*/false))
      return res;
    double base = s_auto ? std::abs(*s_auto) : std::abs(req.s0);
    if (base == 0.0) base = 1.0;
    for (double s : shift_ladder(base, 4))
      if (rung(s, /*dense=*/false)) return res;
  }

  // The dense rung runs at the shift rungs 1–2 asked for (the automatic
  // one when rung 2 applied), so its model matches the one a working
  // sparse factor would give.
  const double s_dense = (req.s0 == 0.0 && s_auto) ? *s_auto : req.s0;
  if (g.rows() > kDenseRungMaxSize)
    throw_ladder_failure(req, res.attempts,
                         "dense_bk skipped: N = " + std::to_string(g.rows()) +
                             " > " + std::to_string(kDenseRungMaxSize));
  obs::instant("sympvl.dense_fallback", {obs::arg("n", g.rows())});
  if (rung(s_dense, /*dense=*/true)) return res;
  throw_ladder_failure(req, res.attempts, "");
}

PencilFactorResult factor_pencil(const MnaSystem& sys,
                                 const PencilFactorRequest& req) {
  return factor_pencil(sys.G, sys.C, req);
}

Mat starting_block(const FactorizedPencil& pencil, const Mat& b) {
  const Vec& j = pencil.j_signs();
  Mat start = pencil.solve_m(b);
  const Index p = start.cols();
  for (Index i = 0; i < start.rows(); ++i) {
    double* row = start.data() + i * p;
    for (Index col = 0; col < p; ++col) row[col] *= j[static_cast<size_t>(i)];
  }
  return start;
}

}  // namespace sympvl
