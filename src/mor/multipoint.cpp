#include "mor/multipoint.hpp"

#include <cmath>
#include <utility>

#include "linalg/factor_cache.hpp"
#include "mor/rational.hpp"
#include "obs/obs.hpp"
#include "sim/ac.hpp"
#include "sim/sweep_api.hpp"

namespace sympvl {

namespace {

constexpr double kTinySigma = 1e-300;

// Log-scale distance between a frequency point's |σ| and an expansion
// point; s₀ = 0 (DC expansion) is treated as a very small σ so it wins
// exactly the low end of the band.
double log_sigma(double sigma) {
  return std::log10(std::max(std::abs(sigma), kTinySigma));
}

double rel_err(const CMat& approx, const CMat& exact) {
  double diff = 0.0, ref = 0.0;
  for (Index i = 0; i < exact.rows(); ++i)
    for (Index j = 0; j < exact.cols(); ++j) {
      diff = std::max(diff, std::abs(approx(i, j) - exact(i, j)));
      ref = std::max(ref, std::abs(exact(i, j)));
    }
  return ref > 0.0 ? diff / ref : diff;
}

}  // namespace

struct MultipointSession::Impl {
  MnaSystem sys;  // copied: the session must not dangle
  MultipointOptions options;
  FactorCache* cache = nullptr;  // never null after construction
  Vec s0s;                       // expansion points, placement order
  std::vector<ReducedModel> models;
  ArnoldiModel stitched;  // union-basis wideband model (eval/sweep)
  MultipointReport report;

  Index nearest(double sigma_abs) const {
    const double target = log_sigma(sigma_abs);
    Index best = 0;
    double best_d = std::abs(target - log_sigma(s0s[0]));
    for (size_t k = 1; k < s0s.size(); ++k) {
      const double d = std::abs(target - log_sigma(s0s[k]));
      if (d < best_d) {
        best_d = d;
        best = static_cast<Index>(k);
      }
    }
    return best;
  }

  // (Re)builds one SyMPVL session per expansion point at the evenly split
  // order, then stitches the points into the union-basis wideband model.
  // Revisited points hit the factorization cache; the union projection
  // reuses the very factorizations the sessions just created.
  void build_models() {
    const Index per_point = std::max<Index>(
        1, options.total_order / static_cast<Index>(s0s.size()));
    models.clear();
    report.orders.clear();
    report.session_reports.clear();
    for (size_t k = 0; k < s0s.size(); ++k) {
      SympvlOptions opt = options.base;
      opt.order = per_point;
      opt.s0 = s0s[k];
      opt.factor_cache = cache;
      SympvlSession session(sys, opt);
      // The ladder may have moved the shift (singular G at σ = 0 with
      // auto_shift); record where the model actually expanded.
      s0s[k] = session.report().s0_used;
      models.push_back(session.current());
      report.orders.push_back(session.order());
      report.session_reports.push_back(session.report());
    }
    report.points = s0s;

    // Union-basis stitch: congruence-project the pencil onto the union of
    // the per-point Krylov spaces. Splitting total_order as
    // iterations × points × ports keeps the stitched order within the
    // total whenever total_order ≥ points · ports.
    RationalOptions ropt;
    ropt.shifts = s0s;
    ropt.iterations_per_shift = std::max<Index>(
        1, options.total_order /
               (static_cast<Index>(s0s.size()) * sys.port_count()));
    ropt.factor_cache = cache;
    stitched = rational_reduce(sys, ropt);
    report.stitched_order = stitched.order();
  }

  // Validates the stitched model against the exact sweep `ref` of `grid`;
  // returns the max relative error and fills `worst_f`.
  double validate(const SweepResult& ref, const Vec& grid,
                  double* worst_f) const {
    double worst = 0.0;
    if (worst_f != nullptr) *worst_f = grid[0];
    for (size_t k = 0; k < grid.size(); ++k) {
      if (!ref.ok(k)) continue;
      const Complex s(0.0, 2.0 * M_PI * grid[k]);
      const double e = rel_err(stitched.eval(s), ref[k]);
      if (e > worst) {
        worst = e;
        if (worst_f != nullptr) *worst_f = grid[k];
      }
    }
    return worst;
  }
};

MultipointSession::MultipointSession(const MnaSystem& sys,
                                     const MultipointOptions& options)
    : impl_(std::make_unique<Impl>()) {
  require(options.total_order >= 1, ErrorCode::kInvalidArgument,
          "MultipointSession: total_order must be >= 1",
          {.stage = "multipoint"});
  require(options.f_min > 0.0 && options.f_max > options.f_min,
          ErrorCode::kInvalidArgument,
          "MultipointSession: band [f_min, f_max] required",
          {.stage = "multipoint"});
  require(options.validation_points >= 2, ErrorCode::kInvalidArgument,
          "MultipointSession: validation_points must be >= 2",
          {.stage = "multipoint"});
  for (double s0 : options.s0_points)
    require(s0 >= 0.0, ErrorCode::kInvalidArgument,
            "MultipointSession: expansion points must be >= 0",
            {.stage = "multipoint"});

  Impl* impl = impl_.get();
  impl->sys = sys;
  impl->options = options;
  impl->cache =
      options.cache != nullptr ? options.cache : &FactorCache::global();

  obs::ScopedTimer span("multipoint.build");
  span.arg("total_order", options.total_order);
  const FactorCacheStats before = impl->cache->stats();

  const bool adaptive = options.s0_points.empty();
  if (adaptive) {
    // Start at the band's midpoint shift (log-center, mapped through the
    // pencil variable: ω or ω²).
    impl->s0s = rational_shifts_for_band(sys, options.f_min, options.f_max, 1);
  } else {
    impl->s0s = options.s0_points;
  }

  const Vec grid = log_frequency_grid(options.f_min, options.f_max,
                                      options.validation_points);
  const AcSweepEngine engine(sys, impl->cache);

  impl->build_models();
  // The exact reference is swept once and shared by every refinement
  // pass: only the stitched model changes between passes.
  const SweepResult exact = sympvl::sweep(engine, grid);
  double worst_f = 0.0;
  double err = impl->validate(exact, grid, &worst_f);
  span.arg("initial_error", err);

  if (adaptive) {
    while (err > options.target_error &&
           static_cast<Index>(impl->s0s.size()) < options.max_points) {
      // Bisect: expand at the worst-error frequency's pencil value.
      const double sigma =
          std::abs(sys.map_s(Complex(0.0, 2.0 * M_PI * worst_f)));
      bool duplicate = false;
      for (double s0 : impl->s0s)
        if (std::abs(log_sigma(sigma) - log_sigma(s0)) < 1e-6)
          duplicate = true;
      if (duplicate) break;  // refinement stalled on the same point
      impl->s0s.push_back(sigma);
      obs::instant("multipoint.refine",
                   {obs::arg("point", sigma), obs::arg("error", err)});
      impl->build_models();
      err = impl->validate(exact, grid, &worst_f);
    }
  }

  impl->report.max_rel_error = err;
  const FactorCacheStats after = impl->cache->stats();
  impl->report.factorizations = after.factorizations - before.factorizations;
  impl->report.cache_hits = after.hits - before.hits;
  span.arg("points", static_cast<Index>(impl->s0s.size()));
  span.arg("final_error", err);
}

MultipointSession::~MultipointSession() = default;
MultipointSession::MultipointSession(MultipointSession&&) noexcept = default;
MultipointSession& MultipointSession::operator=(MultipointSession&&) noexcept =
    default;

CMat MultipointSession::eval(Complex s) const {
  return impl_->stitched.eval(s);
}

Index MultipointSession::point_count() const {
  return static_cast<Index>(impl_->s0s.size());
}

const std::vector<ReducedModel>& MultipointSession::models() const {
  return impl_->models;
}

const ArnoldiModel& MultipointSession::stitched() const {
  return impl_->stitched;
}

Index MultipointSession::model_index_for(Complex s) const {
  return impl_->nearest(std::abs(impl_->sys.map_s(s)));
}

const MultipointReport& MultipointSession::report() const {
  return impl_->report;
}

}  // namespace sympvl
