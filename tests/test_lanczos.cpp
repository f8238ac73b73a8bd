#include "mor/lanczos.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "circuit/mna.hpp"
#include "gen/package.hpp"
#include "gen/power_grid.hpp"
#include "linalg/dense_factor.hpp"
#include "mor/pencil.hpp"

namespace sympvl {
namespace {

// Dense symmetric operator for direct testing of Algorithm 1.
struct DenseOp {
  Mat a;       // symmetric
  Vec j;       // ±1 diagonal
  Vec operator()(const Vec& v) const {
    Vec w = a * v;
    for (size_t i = 0; i < w.size(); ++i) w[i] *= j[i];
    return w;
  }
};

Mat random_spd(Index n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  Mat m(n, n);
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < n; ++j) m(i, j) = u(rng);
  Mat s = m.transpose() * m;
  for (Index i = 0; i < n; ++i) s(i, i) += 0.5;
  return s;
}

Mat random_start(Index n, Index p, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  Mat b(n, p);
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < p; ++j) b(i, j) = u(rng);
  return b;
}

TEST(Lanczos, SpdCaseProducesIdentityDelta) {
  const Index n = 30, p = 2, order = 12;
  DenseOp op{random_spd(n, 1), Vec(static_cast<size_t>(n), 1.0)};
  const Mat start = random_start(n, p, 2);
  LanczosOptions opt;
  opt.max_order = order;
  const auto res = band_lanczos(CallableOperator([&](const Vec& v) { return op(v); }), start,
                                op.j, opt);
  ASSERT_EQ(res.n, order);
  EXPECT_NEAR((res.delta - Mat::identity(order)).max_abs(), 0.0, 1e-10);
  EXPECT_EQ(res.lookahead_clusters, 0);
  EXPECT_EQ(res.p1, p);
}

TEST(Lanczos, SpdCaseTIsSymmetricBanded) {
  const Index n = 40, p = 3, order = 15;
  DenseOp op{random_spd(n, 3), Vec(static_cast<size_t>(n), 1.0)};
  const Mat start = random_start(n, p, 4);
  LanczosOptions opt;
  opt.max_order = order;
  const auto res = band_lanczos(CallableOperator([&](const Vec& v) { return op(v); }), start,
                                op.j, opt);
  // ΔT symmetric with Δ = I means T itself is symmetric here.
  EXPECT_NEAR(res.t.asymmetry(), 0.0, 1e-9);
  // Band structure: t(i, j) = 0 for |i − j| > p.
  for (Index i = 0; i < order; ++i)
    for (Index j = 0; j < order; ++j)
      if (std::abs(i - j) > p) {
        EXPECT_NEAR(res.t(i, j), 0.0, 1e-9) << i << "," << j;
      }
}

TEST(Lanczos, DeflationOnDuplicateStartColumns) {
  const Index n = 25;
  DenseOp op{random_spd(n, 5), Vec(static_cast<size_t>(n), 1.0)};
  Mat start = random_start(n, 1, 6);
  // Duplicate the single column: second column must deflate immediately.
  Mat dup(n, 2);
  for (Index i = 0; i < n; ++i) {
    dup(i, 0) = start(i, 0);
    dup(i, 1) = start(i, 0);
  }
  LanczosOptions opt;
  opt.max_order = 8;
  const auto res = band_lanczos(CallableOperator([&](const Vec& v) { return op(v); }), dup,
                                op.j, opt);
  EXPECT_GE(res.deflations, 1);
  EXPECT_EQ(res.p1, 1);
  // ρ still expresses both starting columns in terms of v₁.
  EXPECT_NEAR(res.rho(0, 0), res.rho(0, 1), 1e-10);
}

TEST(Lanczos, ExhaustionOnSmallSpace) {
  // Operator of size 5: the Krylov space is at most 5-dimensional; asking
  // for order 10 must terminate early with the exhaustion flag.
  const Index n = 5;
  DenseOp op{random_spd(n, 7), Vec(static_cast<size_t>(n), 1.0)};
  const Mat start = random_start(n, 1, 8);
  LanczosOptions opt;
  opt.max_order = 10;
  const auto res = band_lanczos(CallableOperator([&](const Vec& v) { return op(v); }), start,
                                op.j, opt);
  EXPECT_LE(res.n, n);
  EXPECT_TRUE(res.exhausted);
}

TEST(Lanczos, IndefiniteJStaysJOrthogonal) {
  // Build an indefinite-J problem and check Δ is block diagonal with the
  // reported cluster structure, and that Δ matches VᵀJV by construction.
  const Index n = 30, p = 2, order = 14;
  std::mt19937 rng(11);
  Vec j(static_cast<size_t>(n));
  for (auto& v : j) v = (rng() % 3 == 0) ? -1.0 : 1.0;
  DenseOp op{random_spd(n, 12), j};
  const Mat start = random_start(n, p, 13);
  LanczosOptions opt;
  opt.max_order = order;
  const auto res = band_lanczos(CallableOperator([&](const Vec& v) { return op(v); }), start,
                                j, opt);
  ASSERT_GE(res.n, 4);
  // Δ·T must be symmetric (the J-symmetry invariant of eq. 18).
  const Mat dt = res.delta * res.t;
  EXPECT_NEAR(dt.asymmetry(), 0.0, 1e-7 * (1.0 + dt.max_abs()));
  // Cluster sizes sum to n.
  Index total = 0;
  for (Index c : res.cluster_sizes) total += c;
  EXPECT_EQ(total, res.n);
}

TEST(Lanczos, RhoReproducesStartBlock) {
  // With J = I: start = V·ρ must hold column-wise, verified through
  // norms: ‖start_col‖² = ‖ρ_col‖² when V has orthonormal columns.
  const Index n = 20, p = 2;
  DenseOp op{random_spd(n, 15), Vec(static_cast<size_t>(n), 1.0)};
  const Mat start = random_start(n, p, 16);
  LanczosOptions opt;
  opt.max_order = 10;
  const auto res = band_lanczos(CallableOperator([&](const Vec& v) { return op(v); }), start,
                                op.j, opt);
  for (Index c = 0; c < p; ++c) {
    double rho_norm = 0.0;
    for (Index i = 0; i < res.n; ++i) rho_norm += res.rho(i, c) * res.rho(i, c);
    EXPECT_NEAR(std::sqrt(rho_norm), norm2(start.col(c)), 1e-10);
  }
  // ρ is upper-staircase: rows beyond p are zero.
  for (Index i = p; i < res.n; ++i)
    for (Index c = 0; c < p; ++c) EXPECT_DOUBLE_EQ(res.rho(i, c), 0.0);
}

TEST(Lanczos, InvalidInputs) {
  DenseOp op{random_spd(4, 1), Vec(4, 1.0)};
  const Mat start = random_start(4, 1, 2);
  LanczosOptions opt;
  opt.max_order = 0;
  EXPECT_THROW(band_lanczos(CallableOperator([&](const Vec& v) { return op(v); }), start, op.j, opt),
               Error);
  opt.max_order = 3;
  Vec bad_j(4, 0.5);
  EXPECT_THROW(band_lanczos(CallableOperator([&](const Vec& v) { return op(v); }), start, bad_j, opt),
               Error);
}

TEST(Lanczos, LookAheadTriggersOnZeroJNormStart) {
  // Craft an exact breakdown of the classical indefinite Lanczos process:
  // J = diag(1, −1, 1, 1, …) and starting vector e₁ + e₂, whose J-norm is
  // exactly zero. Step 2b's singular Δ^(γ) keeps the cluster open — the
  // look-ahead machinery of Algorithm 1 must engage and recover.
  const Index n = 16;
  Mat a = random_spd(n, 31);
  Vec j(static_cast<size_t>(n), 1.0);
  j[1] = -1.0;
  DenseOp op{a, j};

  Mat start(n, 1);
  start(0, 0) = 1.0;
  start(1, 0) = 1.0;  // v̂₁ᵀ J v̂₁ = 1 − 1 = 0: immediate serious breakdown

  LanczosOptions opt;
  opt.max_order = 8;
  const auto res = band_lanczos(CallableOperator([&](const Vec& v) { return op(v); }), start,
                                j, opt);
  EXPECT_GE(res.lookahead_clusters, 1) << "look-ahead cluster expected";
  // Clusters partition the vectors and at least one has size > 1.
  Index total = 0, biggest = 0;
  for (Index c : res.cluster_sizes) {
    total += c;
    biggest = std::max(biggest, c);
  }
  EXPECT_EQ(total, res.n);
  EXPECT_GE(biggest, 2);

  // The matrix-Padé property must survive look-ahead: reduced moments
  // ρᵀΔTᵏρ equal the exact moments startᵀ·J·Opᵏ·start.
  Vec x = start.col(0);
  for (Index k = 0; k < res.n; ++k) {
    double exact = 0.0;
    for (Index i = 0; i < n; ++i)
      exact += start(i, 0) * j[static_cast<size_t>(i)] * x[static_cast<size_t>(i)];
    // reduced: ρᵀ Δ Tᵏ ρ
    Vec r(static_cast<size_t>(res.n));
    for (Index i = 0; i < res.n; ++i) r[static_cast<size_t>(i)] = res.rho(i, 0);
    for (Index step = 0; step < k; ++step) r = res.t * r;
    const Vec dr = res.delta * r;
    double reduced = 0.0;
    for (Index i = 0; i < res.n; ++i) reduced += res.rho(i, 0) * dr[static_cast<size_t>(i)];
    EXPECT_NEAR(reduced, exact, 1e-7 * (std::abs(exact) + 1.0)) << "moment " << k;
    x = op(x);
  }
}

TEST(Lanczos, LookAheadZeroJNormMidProcess) {
  // Breakdown induced later in the run: J indefinite with many sign
  // changes makes near-singular clusters likely; verify the process
  // completes and Δ·T stays symmetric (eq. 18's invariant).
  const Index n = 24;
  std::mt19937 rng(77);
  Vec j(static_cast<size_t>(n));
  for (auto& v : j) v = (rng() % 2 == 0) ? -1.0 : 1.0;
  DenseOp op{random_spd(n, 32), j};
  const Mat start = random_start(n, 2, 33);
  LanczosOptions opt;
  opt.max_order = 14;
  opt.lookahead_tol = 1e-3;  // aggressive: force clusters to form
  const auto res = band_lanczos(CallableOperator([&](const Vec& v) { return op(v); }), start,
                                j, opt);
  ASSERT_GE(res.n, 4);
  const Mat dt = res.delta * res.t;
  EXPECT_NEAR(dt.asymmetry(), 0.0, 1e-6 * (1.0 + dt.max_abs()));
}

TEST(Lanczos, WithoutFullReorthogonalizationStillAccurate) {
  const Index n = 30, p = 2, order = 10;
  DenseOp op{random_spd(n, 21), Vec(static_cast<size_t>(n), 1.0)};
  const Mat start = random_start(n, p, 22);
  LanczosOptions opt;
  opt.max_order = order;
  opt.full_reorthogonalization = false;
  const auto res = band_lanczos(CallableOperator([&](const Vec& v) { return op(v); }), start,
                                op.j, opt);
  EXPECT_EQ(res.n, order);
  EXPECT_NEAR(res.t.asymmetry(), 0.0, 1e-6);
}

// ---- Deferred candidates: a pending Op·v_n is formed when it reaches the
// queue front, with one blocked apply for every pending candidate. run_to
// leaves what is pending unformed and result() forms it, so run_to(1),
// result(), run_to(2), result(), …, run_to(n) forms each candidate the
// step after it was queued — the eager order — and must carry the bits of
// one run_to(n).

void expect_same_bits(const Mat& a, const Mat& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.rows() * a.cols()) * sizeof(double)),
            0)
      << what;
}

struct LanczosRun {
  LanczosResult res;
  Mat basis;
  std::int64_t krylov_bytes = 0;
  std::int64_t krylov_peak_bytes = 0;
};

// Reads result(), then krylov_bytes(), then takes the basis. The stepwise
// run also reads result() after every run_to(k), which forms what that
// run_to left pending; before the first cluster closes it throws.
LanczosRun run_lanczos(const SymmetricOperator& op, const Mat& start, const Vec& j,
                       LanczosOptions opt, Index order, bool stepwise) {
  BandLanczos process(op, start, j, opt);
  if (stepwise) {
    for (Index k = 1; k <= order; ++k) {
      process.run_to(k);
      try {
        (void)process.result();
      } catch (const Error& e) {
        if (e.code() != ErrorCode::kBreakdown) throw;
      }
    }
  } else {
    process.run_to(order);
  }
  LanczosRun run;
  run.res = process.result();
  run.krylov_bytes = process.krylov_bytes();
  run.basis = process.take_basis();
  run.krylov_peak_bytes = process.krylov_peak_bytes();
  return run;
}

// Returns the one-shot run's result.
LanczosResult expect_stepwise_matches_one_shot(const SymmetricOperator& op,
                                               const Mat& start, const Vec& j,
                                               const LanczosOptions& opt, Index order) {
  const LanczosRun eager = run_lanczos(op, start, j, opt, order, true);
  const LanczosRun batched = run_lanczos(op, start, j, opt, order, false);
  EXPECT_EQ(eager.res.n, batched.res.n);
  expect_same_bits(eager.res.t, batched.res.t, "T");
  expect_same_bits(eager.res.rho, batched.res.rho, "rho");
  expect_same_bits(eager.res.delta, batched.res.delta, "Delta");
  expect_same_bits(eager.basis, batched.basis, "take_basis");
  EXPECT_EQ(eager.res.deflations, batched.res.deflations);
  EXPECT_EQ(eager.res.cluster_sizes, batched.res.cluster_sizes);
  EXPECT_EQ(eager.res.lookahead_clusters, batched.res.lookahead_clusters);
  EXPECT_EQ(eager.res.exhausted, batched.res.exhausted);
  EXPECT_EQ(eager.res.p1, batched.res.p1);
  EXPECT_EQ(eager.krylov_bytes, batched.krylov_bytes);
  return batched.res;
}

// With and without full reorthogonalization; returns the band run's
// result so a test can check it reached the case it names.
LanczosResult expect_deferral_exact(const DenseOp& op, const Mat& start,
                                    LanczosOptions opt, Index order) {
  const CallableOperator callable([&](const Vec& v) { return op(v); });
  LanczosResult res;
  for (bool full : {true, false}) {
    SCOPED_TRACE(full ? "full reorthogonalization" : "band reorthogonalization");
    opt.full_reorthogonalization = full;
    res = expect_stepwise_matches_one_shot(callable, start, op.j, opt, order);
  }
  return res;
}

TEST(LanczosDeferred, SpdCaseMatchesEagerOrder) {
  DenseOp op{random_spd(40, 41), Vec(40, 1.0)};
  expect_deferral_exact(op, random_start(40, 3, 42), {}, 17);
}

TEST(LanczosDeferred, DeflationMatchesEagerOrder) {
  const Index n = 25;
  DenseOp op{random_spd(n, 5), Vec(static_cast<size_t>(n), 1.0)};
  const Mat one = random_start(n, 2, 6);
  Mat dup(n, 3);
  for (Index i = 0; i < n; ++i) {
    dup(i, 0) = one(i, 0);
    dup(i, 1) = one(i, 1);
    dup(i, 2) = one(i, 0);  // deflates at the start
  }
  EXPECT_GE(expect_deferral_exact(op, dup, {}, 10).deflations, 1);
}

TEST(LanczosDeferred, LookAheadMatchesEagerOrder) {
  const Index n = 16;
  Vec j(static_cast<size_t>(n), 1.0);
  j[1] = -1.0;
  DenseOp op{random_spd(n, 31), j};
  Mat start = random_start(n, 2, 34);
  for (Index i = 0; i < n; ++i) start(i, 0) = 0.0;
  start(0, 0) = 1.0;
  start(1, 0) = 1.0;  // zero J-norm: the first cluster needs look-ahead
  EXPECT_GE(expect_deferral_exact(op, start, {}, 10).lookahead_clusters, 1);
}

TEST(LanczosDeferred, IndefiniteJMatchesEagerOrder) {
  const Index n = 24;
  std::mt19937 rng(77);
  Vec j(static_cast<size_t>(n));
  for (auto& v : j) v = (rng() % 2 == 0) ? -1.0 : 1.0;
  DenseOp op{random_spd(n, 32), j};
  LanczosOptions opt;
  opt.lookahead_tol = 1e-3;
  const LanczosResult res = expect_deferral_exact(op, random_start(n, 2, 33), opt, 14);
  double min_delta = 0.0;
  for (Index i = 0; i < res.n; ++i) min_delta = std::min(min_delta, res.delta(i, i));
  EXPECT_LT(min_delta, 0.0) << "Lanczos vectors of negative J-norm expected";
}

TEST(LanczosDeferred, ExhaustedSpaceMatchesEagerOrder) {
  // A 6-dimensional space with a 2-column start: the last candidates
  // deflate inexactly (recording I_v) and the queue runs dry.
  const Index n = 6;
  DenseOp op{random_spd(n, 7), Vec(static_cast<size_t>(n), 1.0)};
  const LanczosResult res = expect_deferral_exact(op, random_start(n, 2, 8), {}, 12);
  EXPECT_TRUE(res.exhausted);
  EXPECT_GE(res.deflations, 1);
}

// Counts the operator's single and blocked applies.
struct CountingOperator final : SymmetricOperator {
  explicit CountingOperator(const DenseOp& op) : op(op) {}
  Vec apply(const Vec& v) const override {
    ++applies;
    return op(v);
  }
  Mat apply_block(Mat v) const override {
    ++blocks;
    return SymmetricOperator::apply_block(std::move(v));
  }
  const DenseOp& op;
  mutable int applies = 0;
  mutable int blocks = 0;
};

TEST(LanczosDeferred, TakeBasisLeavesPendingUnformed) {
  // At order = p every accepted vector comes from the starting block, so
  // the candidates Op·v₁ … Op·v_p are all still pending when run_to
  // returns. take_basis() drops them unformed: the operator is never
  // applied, and the basis, ρ and Δ are those of an eager run.
  const Index n = 40, p = 4;
  DenseOp dense{random_spd(n, 51), Vec(static_cast<size_t>(n), 1.0)};
  const Mat start = random_start(n, p, 52);
  const CountingOperator op(dense);
  const LanczosOptions opt;

  BandLanczos process(op, start, dense.j, opt);
  ASSERT_EQ(process.run_to(p), p);
  const Mat basis = process.take_basis();
  const LanczosResult res = process.result();
  EXPECT_EQ(op.blocks, 0);
  EXPECT_EQ(op.applies, 0);
  EXPECT_EQ(res.n, p);
  EXPECT_EQ(res.t.rows(), 0) << "the dropped candidates' T columns were never formed";
  EXPECT_EQ(res.t.cols(), 0);

  const LanczosRun eager = run_lanczos(op, start, dense.j, opt, p, true);
  EXPECT_GT(op.blocks, 0) << "the eager run's result() forms the pending candidates";
  expect_same_bits(basis, eager.basis, "take_basis");
  expect_same_bits(res.rho, eager.res.rho, "rho");
  expect_same_bits(res.delta, eager.res.delta, "Delta");
  EXPECT_EQ(res.deflations, eager.res.deflations);
  EXPECT_LT(process.krylov_peak_bytes(), eager.krylov_peak_bytes)
      << "no batch of pending candidates was formed";

  // Past one eight-column copy block (13 = 8 + 5 columns) every column
  // lands in its place: VᵀJV = Δ and the start block is V·ρ.
  BandLanczos longer(op, start, dense.j, opt);
  ASSERT_EQ(longer.run_to(13), 13);
  const LanczosResult res13 = longer.result();
  const Mat v13 = longer.take_basis();
  ASSERT_EQ(v13.rows(), n);
  ASSERT_EQ(v13.cols(), res13.n);
  const Mat gram = v13.transpose() * v13;  // J = I
  const Mat rebuilt = v13 * res13.rho;
  for (Index i = 0; i < res13.n; ++i)
    for (Index k = 0; k < res13.n; ++k)
      EXPECT_NEAR(gram(i, k), res13.delta(i, k), 1e-10) << i << "," << k;
  for (Index i = 0; i < n; ++i)
    for (Index k = 0; k < p; ++k) EXPECT_NEAR(rebuilt(i, k), start(i, k), 1e-10);
}

TEST(LanczosDeferred, CallablePencilGivesThePencilsBits) {
  // A CallableOperator has no blocked path: its looped default
  // apply_block must carry the bits of the pencil's own blocked apply.
  PackageOptions popt;
  popt.pins = 16;
  popt.segments = 4;
  popt.signal_pins = 3;
  const MnaSystem sys = build_mna(make_package_circuit(popt).netlist);
  PencilFactorOptions fopt;
  fopt.shift = 1e9;
  const FactorizedPencil pencil(sys.G, sys.C, fopt);
  ASSERT_GT(pencil.negative_j(), 0) << "the package pencil has an indefinite J";
  const Mat start = starting_block(pencil, sys.B);
  const CallableOperator callable([&](const Vec& v) { return pencil.apply(v); });
  for (bool full : {true, false}) {
    SCOPED_TRACE(full ? "full reorthogonalization" : "band reorthogonalization");
    LanczosOptions opt;
    opt.full_reorthogonalization = full;
    const Index order = 2 * start.cols() + 5;
    const LanczosRun blocked = run_lanczos(pencil, start, pencil.j_signs(), opt, order, false);
    const LanczosRun looped = run_lanczos(callable, start, pencil.j_signs(), opt, order, false);
    expect_same_bits(blocked.res.t, looped.res.t, "T");
    expect_same_bits(blocked.res.rho, looped.res.rho, "rho");
    expect_same_bits(blocked.res.delta, looped.res.delta, "Delta");
    expect_same_bits(blocked.basis, looped.basis, "take_basis");
    expect_stepwise_matches_one_shot(pencil, start, pencil.j_signs(), opt, order);
  }
}

TEST(LanczosDeferred, StartingBlockIsTheColumnLoop) {
  PowerGridOptions gopt;
  gopt.ports = 6;
  gopt.rows = gopt.cols = 9;
  const MnaSystem sys = build_mna(make_power_grid(gopt).netlist);
  for (bool dense : {false, true}) {
    PencilFactorOptions fopt;
    fopt.dense = dense;
    const FactorizedPencil pencil(sys.G, sys.C, fopt);
    const Mat start = starting_block(pencil, sys.B);
    const Vec& j = pencil.j_signs();
    for (Index c = 0; c < sys.B.cols(); ++c) {
      Vec v = pencil.solve_m(sys.B.col(c));
      for (size_t i = 0; i < v.size(); ++i) v[i] *= j[i];
      for (Index i = 0; i < start.rows(); ++i)
        ASSERT_EQ(start(i, c), v[static_cast<size_t>(i)]) << dense << " " << c << "," << i;
    }
  }
}

}  // namespace
}  // namespace sympvl
