#include "mor/pencil.hpp"

#include <algorithm>
#include <cmath>
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
  opt.kernels = req.kernels;
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

[[noreturn]] void throw_ladder_failure(
    const PencilFactorRequest& req,
    const std::vector<FactorAttemptRecord>& attempts) {
  std::string history;
  for (const FactorAttemptRecord& a : attempts) {
    if (!history.empty()) history += "; ";
    history += a.method + "(s0=" + std::to_string(a.shift) + "): " + a.detail;
  }
  ErrorContext ctx;
  ctx.stage = req.stage;
  ctx.index = static_cast<Index>(attempts.size());
  throw Error(ErrorCode::kSingular,
              std::string(req.driver) +
                  ": every factorization attempt failed [" + history + "]",
              std::move(ctx));
}

// The SyMPVL recovery ladder (eq. 26):
//   1. sparse LDLᵀ at the requested s₀;
//   2. sparse LDLᵀ at the automatic shift (when s₀ = 0 and auto enabled);
//   3. sparse LDLᵀ at jittered shifts around the base (retries);
//   4. dense Bunch-Kaufman at the last meaningful shift (when allowed).
PencilFactorResult full_ladder(const SMat& g, const SMat& c,
                               const PencilFingerprint& fp, FactorCache& cache,
                               const PencilFactorRequest& req) {
  PencilFactorResult res;
  std::vector<double> shifts{req.s0};
  if (req.auto_shift) {
    if (req.s0 == 0.0 && req.auto_s0 != 0.0) shifts.push_back(req.auto_s0);
    double base = (req.auto_s0 != 0.0) ? std::abs(req.auto_s0) : std::abs(req.s0);
    if (base == 0.0) base = 1.0;
    for (double s : shift_ladder(base, 4)) shifts.push_back(s);
  }
  for (double s : shifts) {
    if (auto pencil = attempt_rung(g, c, fp, cache, req, s,
                                   /*dense=*/false, &res.attempts)) {
      res.pencil = std::move(pencil);
      res.s0_used = s;
      return res;
    }
  }
  if (!req.allow_dense) throw_ladder_failure(req, res.attempts);

  // Dense fallback at the shift the sparse path settled on: the requested
  // one, or the automatic one when the request was 0 and auto is enabled.
  const double s_dense = (req.s0 == 0.0 && req.auto_shift && req.auto_s0 != 0.0)
                             ? req.auto_s0
                             : req.s0;
  obs::instant("sympvl.dense_fallback", {obs::arg("n", g.rows())});
  if (auto pencil = attempt_rung(g, c, fp, cache, req, s_dense,
                                 /*dense=*/true, &res.attempts)) {
    res.pencil = std::move(pencil);
    res.s0_used = s_dense;
    res.dense = true;
    return res;
  }
  throw_ladder_failure(req, res.attempts);
}

// Single attempt at s₀ with one automatic-shift retry — the historical
// SyPVL/PVL/Arnoldi policy. The retry shift is automatic_shift(*sys) when
// a system is given, resolved LAZILY (it throws on resistor-only
// circuits, and those factor fine at s₀ = 0); without one it is
// req.auto_s0, and 0 disables the retry.
PencilFactorResult single_attempt(const SMat& g, const SMat& c,
                                  const PencilFingerprint& fp,
                                  FactorCache& cache,
                                  const PencilFactorRequest& req,
                                  const MnaSystem* sys) {
  PencilFactorResult res;
  if (auto pencil = attempt_rung(g, c, fp, cache, req, req.s0,
                                 /*dense=*/false, &res.attempts)) {
    res.pencil = std::move(pencil);
    res.s0_used = req.s0;
    return res;
  }
  if (!(req.auto_shift && req.s0 == 0.0) ||
      (sys == nullptr && req.auto_s0 == 0.0))
    throw Error(ErrorCode::kSingular,
                std::string(req.driver) +
                    ": factorization of G + s0*C failed and auto_shift "
                    "cannot help: " +
                    res.attempts.back().detail,
                {.stage = req.stage, .value = req.s0});
  const double auto_s0 =
      sys != nullptr ? automatic_shift(*sys) : req.auto_s0;  // may throw
  if (auto pencil = attempt_rung(g, c, fp, cache, req, auto_s0,
                                 /*dense=*/false, &res.attempts)) {
    res.pencil = std::move(pencil);
    res.s0_used = auto_s0;
    return res;
  }
  // The automatic-shift retry failed too: surface its error verbatim (the
  // historical drivers let the second factorization's exception escape).
  const FactorAttemptRecord& retry = res.attempts.back();
  throw Error(retry.code, retry.detail, {.stage = req.stage, .value = auto_s0});
}

FactorCache& request_cache(const PencilFactorRequest& req) {
  return req.cache != nullptr ? *req.cache : FactorCache::global();
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

double automatic_shift(const MnaSystem& sys) {
  // Scale ratio of the pencil terms: s₀ ≈ Σ|diag G| / Σ|diag C| lands in
  // the frequency range where G + s₀C is balanced (and, for PSD G and C
  // with s₀ > 0, nonsingular whenever the pencil is regular).
  double sg = 0.0, sc = 0.0;
  for (Index i = 0; i < sys.size(); ++i) {
    sg += std::abs(sys.G.coeff(i, i));
    sc += std::abs(sys.C.coeff(i, i));
  }
  require(sc > 0.0, ErrorCode::kInvalidArgument,
          "automatic_shift: C has an empty diagonal",
          ErrorContext{.stage = "sympvl.auto_shift"});
  if (sg == 0.0) return 1.0;
  return sg / sc;
}

PencilFactorResult factor_pencil(const SMat& g, const SMat& c,
                                 const PencilFactorRequest& req) {
  FactorCache& cache = request_cache(req);
  const PencilFingerprint fp = fingerprint_pencil(g, c);
  if (req.full_ladder) return full_ladder(g, c, fp, cache, req);
  return single_attempt(g, c, fp, cache, req, nullptr);
}

PencilFactorResult factor_pencil(const MnaSystem& sys,
                                 const PencilFactorRequest& req) {
  FactorCache& cache = request_cache(req);
  const PencilFingerprint fp = fingerprint_pencil(sys.G, sys.C);
  if (!req.full_ladder)
    return single_attempt(sys.G, sys.C, fp, cache, req, &sys);
  PencilFactorRequest r = req;
  if (r.auto_shift && r.auto_s0 == 0.0) {
    try {
      r.auto_s0 = automatic_shift(sys);
    } catch (const Error&) {
      // C has an empty diagonal — no automatic shift available; the
      // ladder degrades to the requested shift plus the dense rung.
    }
  }
  return full_ladder(sys.G, sys.C, fp, cache, r);
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
