#include "sim/transient.hpp"

#include <cmath>

#include "linalg/factor_chain.hpp"

namespace sympvl {

TransientResult simulate_transient(const MnaSystem& sys, const Mat& input_map,
                                   const std::vector<Waveform>& inputs,
                                   const Mat& output_map,
                                   const TransientOptions& options) {
  require(sys.variable == SVariable::kS && sys.s_prefactor == 0,
          "simulate_transient: requires a general or RC MNA form");
  const Index n = sys.size();
  require(input_map.rows() == n && output_map.rows() == n,
          "simulate_transient: map dimension mismatch");
  require(static_cast<Index>(inputs.size()) == input_map.cols(),
          "simulate_transient: one waveform per input column required");
  require(options.dt > 0.0 && options.t_end > options.dt,
          "simulate_transient: invalid time grid");

  const double h = options.dt;
  const Index steps = static_cast<Index>(std::ceil(options.t_end / h));
  const Index n_in = input_map.cols();
  const Index n_out = output_map.cols();
  const bool trap = options.method == IntegrationMethod::kTrapezoidal;

  // System matrix: (C/h + G/2) for trapezoidal, (C/h + G) for BE, through
  // the LDLᵀ → LU chain (the general-RLC matrix is indefinite and can
  // defeat the unpivoted path).
  const FactorChainD lhs(SMat::add(sys.C, 1.0 / h, sys.G, trap ? 0.5 : 1.0));
  // History matrix: (C/h − G/2) for trapezoidal, C/h for BE.
  const SMat rhs_mat = SMat::add(sys.C, 1.0 / h, sys.G, trap ? -0.5 : 0.0);

  auto eval_inputs = [&](double t) {
    Vec u(static_cast<size_t>(n_in));
    for (Index j = 0; j < n_in; ++j) u[static_cast<size_t>(j)] = inputs[static_cast<size_t>(j)](t);
    return u;
  };
  auto apply_input_map = [&](const Vec& u) {
    Vec b(static_cast<size_t>(n), 0.0);
    for (Index j = 0; j < n_in; ++j) {
      const double uj = u[static_cast<size_t>(j)];
      if (uj == 0.0) continue;
      for (Index i = 0; i < n; ++i) b[static_cast<size_t>(i)] += input_map(i, j) * uj;
    }
    return b;
  };

  TransientResult result;
  result.time.resize(static_cast<size_t>(steps) + 1);
  result.outputs.resize(steps + 1, n_out);

  Vec x(static_cast<size_t>(n), 0.0);  // zero initial conditions
  Vec u_prev = eval_inputs(0.0);
  auto record = [&](Index k, double t) {
    result.time[static_cast<size_t>(k)] = t;
    for (Index j = 0; j < n_out; ++j) {
      double acc = 0.0;
      for (Index i = 0; i < n; ++i) acc += output_map(i, j) * x[static_cast<size_t>(i)];
      result.outputs(k, j) = acc;
    }
  };
  record(0, 0.0);

  for (Index k = 1; k <= steps; ++k) {
    const double t = static_cast<double>(k) * h;
    const Vec u_now = eval_inputs(t);
    // rhs = (C/h ∓ G...)·x + input term.
    Vec b = rhs_mat.multiply(x);
    if (trap) {
      Vec u_mid(u_now);
      for (size_t j = 0; j < u_mid.size(); ++j)
        u_mid[j] = 0.5 * (u_now[j] + u_prev[j]);
      const Vec bi = apply_input_map(u_mid);
      for (Index i = 0; i < n; ++i) b[static_cast<size_t>(i)] += bi[static_cast<size_t>(i)];
    } else {
      const Vec bi = apply_input_map(u_now);
      for (Index i = 0; i < n; ++i) b[static_cast<size_t>(i)] += bi[static_cast<size_t>(i)];
    }
    x = lhs.solve(b);
    u_prev = u_now;
    record(k, t);
  }
  return result;
}

TransientResult simulate_ports_transient(
    const MnaSystem& sys, const std::vector<Waveform>& port_currents,
    const TransientOptions& options) {
  return simulate_transient(sys, sys.B, port_currents, sys.B, options);
}

Waveform ramp_waveform(double amplitude, double t0, double rise) {
  require(rise > 0.0, "ramp_waveform: rise must be positive");
  return [=](double t) {
    if (t <= t0) return 0.0;
    if (t >= t0 + rise) return amplitude;
    return amplitude * (t - t0) / rise;
  };
}

Waveform pulse_waveform(double amplitude, double t0, double rise, double width,
                        double fall) {
  require(rise > 0.0 && fall > 0.0 && width >= 0.0,
          "pulse_waveform: invalid shape");
  return [=](double t) {
    if (t <= t0) return 0.0;
    if (t < t0 + rise) return amplitude * (t - t0) / rise;
    if (t < t0 + rise + width) return amplitude;
    if (t < t0 + rise + width + fall)
      return amplitude * (1.0 - (t - t0 - rise - width) / fall);
    return 0.0;
  };
}

}  // namespace sympvl
