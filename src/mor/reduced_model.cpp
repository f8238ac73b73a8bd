#include "mor/reduced_model.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "linalg/dense_factor.hpp"
#include "linalg/eig.hpp"

namespace sympvl {

ReducedModel::ReducedModel(const LanczosResult& lanczos, SVariable variable,
                           int s_prefactor, double s0)
    : t_(lanczos.t),
      delta_(lanczos.delta),
      rho_(lanczos.rho),
      variable_(variable),
      s_prefactor_(s_prefactor),
      s0_(s0),
      lanczos_(lanczos) {
  require(t_.is_square() && delta_.is_square() && t_.rows() == delta_.rows() &&
              rho_.rows() == t_.rows(),
          "ReducedModel: inconsistent Lanczos output shapes");
  delta_inv_ = dense_solve(delta_, Mat::identity(delta_.rows()));
  t_delta_inv_ = t_ * delta_inv_;
  // Symmetrize TΔ⁻¹ (exactly symmetric in exact arithmetic since ΔT is).
  for (Index i = 0; i < t_delta_inv_.rows(); ++i)
    for (Index j = i + 1; j < t_delta_inv_.cols(); ++j) {
      const double m = 0.5 * (t_delta_inv_(i, j) + t_delta_inv_(j, i));
      t_delta_inv_(i, j) = m;
      t_delta_inv_(j, i) = m;
    }
}

namespace {
void write_matrix(std::ostream& out, const char* tag, const Mat& m) {
  out << tag << " " << m.rows() << " " << m.cols() << "\n";
  for (Index i = 0; i < m.rows(); ++i) {
    for (Index j = 0; j < m.cols(); ++j) out << (j ? " " : "") << m(i, j);
    out << "\n";
  }
}
Mat read_matrix(std::istream& in, const char* tag) {
  std::string word;
  Index rows = 0, cols = 0;
  require(static_cast<bool>(in >> word >> rows >> cols) && word == tag,
          std::string("ReducedModel::from_text: expected section '") + tag + "'");
  require(rows >= 0 && cols >= 0 && rows < (Index(1) << 20),
          "ReducedModel::from_text: implausible matrix size");
  Mat m(rows, cols);
  for (Index i = 0; i < rows; ++i)
    for (Index j = 0; j < cols; ++j)
      require(static_cast<bool>(in >> m(i, j)),
              "ReducedModel::from_text: truncated matrix data");
  return m;
}
}  // namespace

std::string ReducedModel::to_text() const {
  std::ostringstream out;
  out.precision(17);
  out << "sympvl-reduced-model v1\n";
  out << "order " << order() << " ports " << port_count() << " variable "
      << (variable_ == SVariable::kS ? "s" : "s2") << " prefactor "
      << s_prefactor_ << " shift " << s0_ << "\n";
  write_matrix(out, "T", t_);
  write_matrix(out, "DELTA", delta_);
  write_matrix(out, "RHO", rho_);
  out << "end\n";
  return out.str();
}

ReducedModel ReducedModel::from_text(const std::string& text) {
  std::istringstream in(text);
  std::string magic, version;
  require(static_cast<bool>(in >> magic >> version) &&
              magic == "sympvl-reduced-model" && version == "v1",
          "ReducedModel::from_text: not a v1 model file");
  std::string kw;
  Index order = 0, ports = 0;
  std::string variable;
  int prefactor = 0;
  double shift = 0.0;
  require(static_cast<bool>(in >> kw >> order) && kw == "order",
          "ReducedModel::from_text: missing 'order'");
  require(static_cast<bool>(in >> kw >> ports) && kw == "ports",
          "ReducedModel::from_text: missing 'ports'");
  require(static_cast<bool>(in >> kw >> variable) && kw == "variable" &&
              (variable == "s" || variable == "s2"),
          "ReducedModel::from_text: missing 'variable'");
  require(static_cast<bool>(in >> kw >> prefactor) && kw == "prefactor",
          "ReducedModel::from_text: missing 'prefactor'");
  require(static_cast<bool>(in >> kw >> shift) && kw == "shift",
          "ReducedModel::from_text: missing 'shift'");

  LanczosResult res;
  res.t = read_matrix(in, "T");
  res.delta = read_matrix(in, "DELTA");
  res.rho = read_matrix(in, "RHO");
  require(res.t.rows() == order && res.rho.cols() == ports,
          "ReducedModel::from_text: header/matrix size mismatch");
  res.n = order;
  res.p1 = std::min(order, ports);
  res.cluster_sizes.assign(static_cast<size_t>(order), 1);
  std::string tail;
  require(static_cast<bool>(in >> tail) && tail == "end",
          "ReducedModel::from_text: missing 'end'");
  return ReducedModel(res, variable == "s" ? SVariable::kS : SVariable::kSSquared,
                      prefactor, shift);
}

void ReducedModel::save(const std::string& path) const {
  std::ofstream out(path);
  require(out.good(), "ReducedModel::save: cannot open '" + path + "'");
  out << to_text();
}

ReducedModel ReducedModel::load(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "ReducedModel::load: cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return from_text(buf.str());
}

CMat ReducedModel::eval(Complex s) const {
  const Index n = order();
  const Index p = port_count();
  const Complex sigma = (variable_ == SVariable::kS ? s : s * s) - s0_;
  // (I + σT) X = ρ, then Zₙ = pref·ρᵀΔX.
  CMat lhs(n, n);
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < n; ++j)
      lhs(i, j) = (i == j ? Complex(1.0, 0.0) : Complex(0.0, 0.0)) +
                  sigma * t_(i, j);
  CMat rhs(n, p);
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < p; ++j) rhs(i, j) = Complex(rho_(i, j), 0.0);
  const CMat x = dense_solve(lhs, rhs);
  Complex pref(1.0, 0.0);
  for (int k = 0; k < s_prefactor_; ++k) pref *= s;
  // Zₙ = pref·ρᵀ(ΔX) as two row-streamed passes, O(n²p) + O(np²);
  // accumulating ρ(i,a)Δ(i,j)X(j,b) entrywise is O(p²n²) — quartic in
  // the order for many-port models, where p ≈ n.
  CMat w(n, p);
  for (Index i = 0; i < n; ++i) {
    Complex* wrow = w.data() + i * p;
    for (Index j = 0; j < n; ++j) {
      const double d = delta_(i, j);
      if (d == 0.0) continue;
      const Complex* xrow = x.data() + j * p;
      for (Index b = 0; b < p; ++b) wrow[b] += d * xrow[b];
    }
  }
  CMat z(p, p);
  for (Index i = 0; i < n; ++i) {
    const Complex* wrow = w.data() + i * p;
    for (Index a = 0; a < p; ++a) {
      const double r = rho_(i, a);
      if (r == 0.0) continue;
      Complex* zrow = z.data() + a * p;
      for (Index b = 0; b < p; ++b) zrow[b] += r * wrow[b];
    }
  }
  for (Index a = 0; a < p; ++a)
    for (Index b = 0; b < p; ++b) z(a, b) *= pref;
  return z;
}

CVec ReducedModel::poles() const {
  const CVec lambdas = eig_general(t_);
  CVec poles;
  poles.reserve(lambdas.size() * 2);
  for (const Complex& l : lambdas) {
    if (std::abs(l) < 1e-14) continue;  // pole at infinity
    const Complex sigma = Complex(s0_, 0.0) - Complex(1.0, 0.0) / l;
    if (variable_ == SVariable::kS) {
      poles.push_back(sigma);
    } else {
      const Complex root = std::sqrt(sigma);
      poles.push_back(root);
      poles.push_back(-root);
    }
  }
  return poles;
}

bool ReducedModel::is_stable(double tol) const {
  for (const Complex& pole : poles())
    if (pole.real() > tol) return false;
  return true;
}

Mat ReducedModel::moment(Index k) const {
  require(k >= 0, "ReducedModel::moment: negative order");
  const Index n = order();
  const Index p = port_count();
  // μₖ = ρᵀ Δ Tᵏ ρ via repeated mat-vec on the columns of ρ.
  Mat tk_rho = rho_;
  for (Index step = 0; step < k; ++step) tk_rho = t_ * tk_rho;
  const Mat d_tk_rho = delta_ * tk_rho;
  Mat mu(p, p);
  for (Index a = 0; a < p; ++a)
    for (Index b = 0; b < p; ++b) {
      double acc = 0.0;
      for (Index i = 0; i < n; ++i) acc += rho_(i, a) * d_tk_rho(i, b);
      mu(a, b) = acc;
    }
  return mu;
}

TransientResult ReducedModel::simulate_transient(
    const std::vector<Waveform>& port_currents,
    const TransientOptions& options) const {
  require(variable_ == SVariable::kS && s_prefactor_ == 0 && s0_ == 0.0,
          "ReducedModel::simulate_transient: requires an unshifted s-domain "
          "model (RC or general RLC)");
  // Express eq. (23) as a small dense MNA-like system and reuse the
  // fixed-step integrator logic: G_r = Δ⁻¹, C_r = TΔ⁻¹, input/output ρ.
  const Index n = order();
  const Index p = port_count();
  require(static_cast<Index>(port_currents.size()) == p,
          "ReducedModel::simulate_transient: one waveform per port required");
  require(options.dt > 0.0 && options.t_end > options.dt,
          "ReducedModel::simulate_transient: invalid time grid");
  const double h = options.dt;
  const bool trap = options.method == IntegrationMethod::kTrapezoidal;
  const Index steps = static_cast<Index>(std::ceil(options.t_end / h));

  Mat lhs = t_delta_inv_;
  lhs *= 1.0 / h;
  Mat hist = t_delta_inv_;
  hist *= 1.0 / h;
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < n; ++j) {
      lhs(i, j) += (trap ? 0.5 : 1.0) * delta_inv_(i, j);
      hist(i, j) -= (trap ? 0.5 : 0.0) * delta_inv_(i, j);
    }
  const LU fact(lhs);

  auto inputs_at = [&](double t) {
    Vec u(static_cast<size_t>(p));
    for (Index j = 0; j < p; ++j) u[static_cast<size_t>(j)] = port_currents[static_cast<size_t>(j)](t);
    return u;
  };

  TransientResult result;
  result.time.resize(static_cast<size_t>(steps) + 1);
  result.outputs.resize(steps + 1, p);
  Vec x(static_cast<size_t>(n), 0.0);
  Vec u_prev = inputs_at(0.0);
  auto record = [&](Index k, double tm) {
    result.time[static_cast<size_t>(k)] = tm;
    for (Index j = 0; j < p; ++j) {
      double acc = 0.0;
      for (Index i = 0; i < n; ++i) acc += rho_(i, j) * x[static_cast<size_t>(i)];
      result.outputs(k, j) = acc;
    }
  };
  record(0, 0.0);
  for (Index k = 1; k <= steps; ++k) {
    const double tm = static_cast<double>(k) * h;
    const Vec u_now = inputs_at(tm);
    Vec b = hist * x;
    for (Index i = 0; i < n; ++i) {
      double acc = 0.0;
      for (Index j = 0; j < p; ++j) {
        const double u =
            trap ? 0.5 * (u_now[static_cast<size_t>(j)] + u_prev[static_cast<size_t>(j)])
                 : u_now[static_cast<size_t>(j)];
        acc += rho_(i, j) * u;
      }
      b[static_cast<size_t>(i)] += acc;
    }
    x = fact.solve(b);
    u_prev = u_now;
    record(k, tm);
  }
  return result;
}

MnaSystem ReducedModel::stamp_into(const Netlist& host,
                                   const std::vector<Index>& attach_nodes) const {
  require(variable_ == SVariable::kS && s_prefactor_ == 0 && s0_ == 0.0,
          "ReducedModel::stamp_into: requires an unshifted s-domain model");
  const Index p = port_count();
  require(static_cast<Index>(attach_nodes.size()) == p,
          "ReducedModel::stamp_into: one attach node per reduced port");
  const MnaSystem base = build_mna(host, MnaForm::kGeneral);
  const Index nh = base.size();
  const Index n = order();
  // Unknowns: [host x (nh); rom state x (n); rom port currents i (p)].
  const Index ntot = nh + n + p;

  TripletBuilder<double> g(ntot, ntot);
  TripletBuilder<double> c(ntot, ntot);
  // Host stamps.
  for (Index j = 0; j < nh; ++j) {
    for (Index k = base.G.colptr()[static_cast<size_t>(j)];
         k < base.G.colptr()[static_cast<size_t>(j) + 1]; ++k)
      g.add(base.G.rowind()[static_cast<size_t>(k)], j,
            base.G.values()[static_cast<size_t>(k)]);
    for (Index k = base.C.colptr()[static_cast<size_t>(j)];
         k < base.C.colptr()[static_cast<size_t>(j) + 1]; ++k)
      c.add(base.C.rowind()[static_cast<size_t>(k)], j,
            base.C.values()[static_cast<size_t>(k)]);
  }
  // ROM state rows: Δ⁻¹x + TΔ⁻¹ẋ − ρ·i = 0.
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < n; ++j) {
      if (delta_inv_(i, j) != 0.0) g.add(nh + i, nh + j, delta_inv_(i, j));
      if (t_delta_inv_(i, j) != 0.0) c.add(nh + i, nh + j, t_delta_inv_(i, j));
    }
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < p; ++j)
      if (rho_(i, j) != 0.0) g.add(nh + i, nh + n + j, -rho_(i, j));
  // Port coupling rows: Eᵀv − ρᵀx = 0 (symmetric counterparts) and host
  // KCL columns E·i.
  for (Index j = 0; j < p; ++j) {
    const Index node = attach_nodes[static_cast<size_t>(j)];
    require(node >= 0 && node < host.node_count(),
            "ReducedModel::stamp_into: attach node out of range");
    if (node >= 1) {
      g.add(node - 1, nh + n + j, 1.0);   // E in host KCL rows
      g.add(nh + n + j, node - 1, 1.0);   // Eᵀ in coupling rows
    }
    for (Index i = 0; i < n; ++i)
      if (rho_(i, j) != 0.0) g.add(nh + n + j, nh + i, -rho_(i, j));
  }

  MnaSystem sys;
  sys.G = g.compress();
  sys.C = c.compress();
  sys.variable = SVariable::kS;
  sys.s_prefactor = 0;
  sys.definite = false;
  sys.node_unknowns = base.node_unknowns;
  sys.inductor_unknowns = base.inductor_unknowns;
  sys.port_names = base.port_names;
  sys.B.resize(ntot, base.B.cols());
  for (Index i = 0; i < nh; ++i)
    for (Index j = 0; j < base.B.cols(); ++j) sys.B(i, j) = base.B(i, j);
  return sys;
}

}  // namespace sympvl
