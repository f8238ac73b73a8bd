#include "mor/reduced_model.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "linalg/dense_factor.hpp"
#include "linalg/eig.hpp"

namespace sympvl {

ReducedModel::ReducedModel(const LanczosResult& lanczos, SVariable variable,
                           int s_prefactor, double s0)
    : variable_(variable),
      s_prefactor_(s_prefactor),
      s0_(s0),
      lanczos_(lanczos) {
  require(t().is_square() && delta().is_square() &&
              t().rows() == delta().rows() && rho().rows() == t().rows(),
          "ReducedModel: inconsistent Lanczos output shapes");
  // TΔ⁻¹ as computed: Lanczos vectors that lost J-orthogonality leave it
  // visibly nonsymmetric, and such a model stays on the LU path.
  const Pencil pen = pencil();
  form_ = PoleResidueForm::of_pencil(pen.gr, pen.cr, rho());
}

ReducedModel::Pencil ReducedModel::pencil() const {
  Pencil pen;
  pen.gr = dense_solve(delta(), Mat::identity(delta().rows()));
  pen.cr = t() * pen.gr;
  return pen;
}

namespace {
void write_matrix(std::ostream& out, const char* tag, const Mat& m) {
  out << tag << " " << m.rows() << " " << m.cols() << "\n";
  for (Index i = 0; i < m.rows(); ++i) {
    for (Index j = 0; j < m.cols(); ++j) out << (j ? " " : "") << m(i, j);
    out << "\n";
  }
}

// Reads section `tag`, which the header sizes as rows × cols. Its own size
// line must agree, and its entries must fit in what is left of the
// `text_bytes`-byte text (each takes a digit and a separator at least), so
// a crafted file cannot make it allocate past the text it came in.
Mat read_matrix(std::istream& in, const char* tag, Index rows, Index cols,
                size_t text_bytes) {
  std::string word;
  Index r = 0, c = 0;
  require(static_cast<bool>(in >> word >> r >> c) && word == tag,
          ErrorCode::kIo,
          std::string("ReducedModel::from_text: expected section '") + tag + "'");
  require(r == rows && c == cols, ErrorCode::kIo,
          "ReducedModel::from_text: section size does not match the header");
  const std::streamoff pos = in.tellg();
  const size_t left = pos < 0 ? 0 : text_bytes - static_cast<size_t>(pos);
  require(rows == 0 ||
              static_cast<size_t>(cols) <= left / 2 / static_cast<size_t>(rows),
          ErrorCode::kIo,
          "ReducedModel::from_text: section holds more entries than the text");
  Mat m(rows, cols);
  for (Index i = 0; i < rows; ++i)
    for (Index j = 0; j < cols; ++j)
      require(static_cast<bool>(in >> m(i, j)), ErrorCode::kIo,
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
  write_matrix(out, "T", t());
  write_matrix(out, "DELTA", delta());
  write_matrix(out, "RHO", rho());
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

  require(order >= 0 && ports >= 0, ErrorCode::kIo,
          "ReducedModel::from_text: negative order or ports");

  LanczosResult res;
  res.t = read_matrix(in, "T", order, order, text.size());
  res.delta = read_matrix(in, "DELTA", order, order, text.size());
  res.rho = read_matrix(in, "RHO", order, ports, text.size());
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
  Complex pref(1.0, 0.0);
  for (int k = 0; k < s_prefactor_; ++k) pref *= s;
  if (form_) return form_->eval(sigma, pref);
  // (I + σT) X = ρ, then Zₙ = pref·ρᵀΔX.
  CMat lhs(n, n);
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < n; ++j)
      lhs(i, j) = (i == j ? Complex(1.0, 0.0) : Complex(0.0, 0.0)) +
                  sigma * t()(i, j);
  CMat rhs(n, p);
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < p; ++j) rhs(i, j) = Complex(rho()(i, j), 0.0);
  const CMat x = dense_solve(lhs, rhs);
  // Zₙ = pref·ρᵀ(ΔX) as two row-streamed passes, O(n²p) + O(np²);
  // accumulating ρ(i,a)Δ(i,j)X(j,b) entrywise is O(p²n²) — quartic in
  // the order for many-port models, where p ≈ n.
  CMat w(n, p);
  for (Index i = 0; i < n; ++i) {
    Complex* wrow = w.data() + i * p;
    for (Index j = 0; j < n; ++j) {
      const double d = delta()(i, j);
      if (d == 0.0) continue;
      const Complex* xrow = x.data() + j * p;
      for (Index b = 0; b < p; ++b) wrow[b] += d * xrow[b];
    }
  }
  CMat z(p, p);
  for (Index i = 0; i < n; ++i) {
    const Complex* wrow = w.data() + i * p;
    for (Index a = 0; a < p; ++a) {
      const double r = rho()(i, a);
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
  if (form_) return poles_from_eigenvalues(form_->lambda(), s0_, variable_);
  return poles_from_eigenvalues(eig_general(t()), s0_, variable_);
}

bool ReducedModel::is_stable(double tol) const {
  for (const Complex& pole : poles())
    if (pole.real() > tol) return false;
  return true;
}

std::int64_t ReducedModel::bytes() const {
  const auto doubles = [](const Mat& m) {
    return static_cast<std::int64_t>(m.rows() * m.cols());
  };
  return (doubles(t()) + doubles(delta()) + doubles(rho())) *
             static_cast<std::int64_t>(sizeof(double)) +
         static_cast<std::int64_t>(lanczos_.cluster_sizes.size() *
                                   sizeof(Index)) +
         (form_ ? form_->bytes() : 0);
}

Mat ReducedModel::moment(Index k) const {
  require(k >= 0, "ReducedModel::moment: negative order");
  const Index n = order();
  const Index p = port_count();
  // μₖ = ρᵀ Δ Tᵏ ρ via repeated mat-vec on the columns of ρ.
  Mat tk_rho = rho();
  for (Index step = 0; step < k; ++step) tk_rho = t() * tk_rho;
  const Mat d_tk_rho = delta() * tk_rho;
  Mat mu(p, p);
  for (Index a = 0; a < p; ++a)
    for (Index b = 0; b < p; ++b) {
      double acc = 0.0;
      for (Index i = 0; i < n; ++i) acc += rho()(i, a) * d_tk_rho(i, b);
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

  const Pencil pen = pencil();
  const Mat cr = symmetrized(pen.cr);
  Mat lhs = cr;
  lhs *= 1.0 / h;
  Mat hist = cr;
  hist *= 1.0 / h;
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < n; ++j) {
      lhs(i, j) += (trap ? 0.5 : 1.0) * pen.gr(i, j);
      hist(i, j) -= (trap ? 0.5 : 0.0) * pen.gr(i, j);
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
      for (Index i = 0; i < n; ++i) acc += rho()(i, j) * x[static_cast<size_t>(i)];
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
        acc += rho()(i, j) * u;
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
  const Pencil pen = pencil();
  const Mat cr = symmetrized(pen.cr);
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < n; ++j) {
      if (pen.gr(i, j) != 0.0) g.add(nh + i, nh + j, pen.gr(i, j));
      if (cr(i, j) != 0.0) c.add(nh + i, nh + j, cr(i, j));
    }
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < p; ++j)
      if (rho()(i, j) != 0.0) g.add(nh + i, nh + n + j, -rho()(i, j));
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
      if (rho()(i, j) != 0.0) g.add(nh + n + j, nh + i, -rho()(i, j));
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
