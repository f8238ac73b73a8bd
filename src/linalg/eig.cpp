#include "linalg/eig.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "linalg/dense_factor.hpp"

namespace sympvl {

namespace {

// One cyclic-Jacobi diagonalization. Robust O(n³) method; reduced-order
// models are small so this is fully adequate and numerically excellent
// (backward-stable, eigenvectors orthogonal to machine precision). `vt`
// receives the eigenvectors as rows (row k pairs with w[k]).
void jacobi_eig(Mat& a, Mat& vt, Vec& w) {
  const Index n = a.rows();
  vt = Mat::identity(n);
  const int max_sweeps = 100;
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    // Off-diagonal Frobenius norm.
    double off = 0.0;
    for (Index p = 0; p < n; ++p)
      for (Index q = p + 1; q < n; ++q) off += 2.0 * a(p, q) * a(p, q);
    off = std::sqrt(off);
    double diag = 0.0;
    for (Index p = 0; p < n; ++p) diag += a(p, p) * a(p, p);
    const double scale = std::sqrt(diag) + off;
    if (off <= 1e-15 * (scale > 0.0 ? scale : 1.0)) break;

    for (Index p = 0; p < n - 1; ++p) {
      for (Index q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (std::abs(apq) <=
            1e-18 * (std::abs(a(p, p)) + std::abs(a(q, q)) + 1e-300))
          continue;
        const double theta = (a(q, q) - a(p, p)) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        // A <- Jᵀ A J on rows/columns p and q.
        for (Index k = 0; k < n; ++k) {
          const double akp = a(k, p), akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (Index k = 0; k < n; ++k) {
          const double apk = a(p, k), aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        double* vp = vt.data() + p * n;
        double* vq = vt.data() + q * n;
        for (Index k = 0; k < n; ++k) {
          const double vkp = vp[k], vkq = vq[k];
          vp[k] = c * vkp - s * vkq;
          vq[k] = s * vkp + c * vkq;
        }
      }
    }
  }
  w.resize(static_cast<size_t>(n));
  for (Index i = 0; i < n; ++i) w[static_cast<size_t>(i)] = a(i, i);
}

double sign_of(double a, double b) { return b >= 0.0 ? std::abs(a) : -std::abs(a); }

// Householder reduction of a symmetric matrix to tridiagonal form with
// accumulation of the orthogonal transformation (EISPACK tred2). On exit
// z holds Q with A = Q T Qt, d the diagonal and e the sub-diagonal
// (e[0] unused).
void tred2(Mat& z, Vec& d, Vec& e) {
  const Index n = z.rows();
  d.assign(static_cast<size_t>(n), 0.0);
  e.assign(static_cast<size_t>(n), 0.0);
  for (Index i = n - 1; i >= 1; --i) {
    const Index l = i - 1;
    double h = 0.0, scale = 0.0;
    if (l > 0) {
      for (Index k = 0; k <= l; ++k) scale += std::abs(z(i, k));
      if (scale == 0.0) {
        e[static_cast<size_t>(i)] = z(i, l);
      } else {
        for (Index k = 0; k <= l; ++k) {
          z(i, k) /= scale;
          h += z(i, k) * z(i, k);
        }
        double f = z(i, l);
        double g = (f >= 0.0) ? -std::sqrt(h) : std::sqrt(h);
        e[static_cast<size_t>(i)] = scale * g;
        h -= f * g;
        z(i, l) = f - g;
        f = 0.0;
        for (Index j = 0; j <= l; ++j) {
          z(j, i) = z(i, j) / h;
          g = 0.0;
          for (Index k = 0; k <= j; ++k) g += z(j, k) * z(i, k);
          for (Index k = j + 1; k <= l; ++k) g += z(k, j) * z(i, k);
          e[static_cast<size_t>(j)] = g / h;
          f += e[static_cast<size_t>(j)] * z(i, j);
        }
        const double hh = f / (h + h);
        for (Index j = 0; j <= l; ++j) {
          f = z(i, j);
          const double gg = e[static_cast<size_t>(j)] - hh * f;
          e[static_cast<size_t>(j)] = gg;
          for (Index k = 0; k <= j; ++k)
            z(j, k) -= (f * e[static_cast<size_t>(k)] + gg * z(i, k));
        }
      }
    } else {
      e[static_cast<size_t>(i)] = z(i, l);
    }
    d[static_cast<size_t>(i)] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;
  // Accumulation. For one i, the update of column j touches rows 0..l of
  // column j only, never row i, column i or another column's g, so every
  // g_j = Σₖ z(i,k)·z(k,j) can be formed first and the rows updated after:
  // both passes walk rows, each g_j still sums in ascending k, and each
  // entry takes the same single update, so the bits are EISPACK's
  // column-walk order's.
  Vec g(static_cast<size_t>(n));
  for (Index i = 0; i < n; ++i) {
    const Index l = i - 1;
    if (d[static_cast<size_t>(i)] != 0.0) {
      std::fill(g.begin(), g.begin() + i, 0.0);
      for (Index k = 0; k <= l; ++k) {
        const double zik = z(i, k);
        const double* zk = z.data() + k * n;
        for (Index j = 0; j <= l; ++j) g[static_cast<size_t>(j)] += zik * zk[j];
      }
      for (Index k = 0; k <= l; ++k) {
        const double zki = z(k, i);
        double* zk = z.data() + k * n;
        for (Index j = 0; j <= l; ++j) zk[j] -= g[static_cast<size_t>(j)] * zki;
      }
    }
    d[static_cast<size_t>(i)] = z(i, i);
    z(i, i) = 1.0;
    for (Index j = 0; j <= l; ++j) {
      z(j, i) = 0.0;
      z(i, j) = 0.0;
    }
  }
}

// Implicit-shift QL iteration on a tridiagonal matrix with eigenvector
// accumulation (EISPACK tql2). d/e as produced by tred2; `zt` is tred2's Q
// transposed, so each Givens rotation updates two contiguous rows (the
// same arithmetic per element as EISPACK's column walk, unit stride).
void tql2(Vec& d, Vec& e, Mat& zt) {
  const Index n = static_cast<Index>(d.size());
  for (Index i = 1; i < n; ++i) e[static_cast<size_t>(i) - 1] = e[static_cast<size_t>(i)];
  e[static_cast<size_t>(n) - 1] = 0.0;
  for (Index l = 0; l < n; ++l) {
    int iter = 0;
    Index m;
    do {
      for (m = l; m < n - 1; ++m) {
        const double dd = std::abs(d[static_cast<size_t>(m)]) +
                          std::abs(d[static_cast<size_t>(m) + 1]);
        if (std::abs(e[static_cast<size_t>(m)]) <=
            std::numeric_limits<double>::epsilon() * dd)
          break;
      }
      if (m != l) {
        require(iter++ != 80, "eig_symmetric_ql: QL iteration failed to converge");
        double g = (d[static_cast<size_t>(l) + 1] - d[static_cast<size_t>(l)]) /
                   (2.0 * e[static_cast<size_t>(l)]);
        double r = std::hypot(g, 1.0);
        g = d[static_cast<size_t>(m)] - d[static_cast<size_t>(l)] +
            e[static_cast<size_t>(l)] / (g + sign_of(r, g));
        double s = 1.0, c = 1.0, p = 0.0;
        Index i = m - 1;
        bool underflow = false;
        for (; i >= l; --i) {
          double f = s * e[static_cast<size_t>(i)];
          const double b = c * e[static_cast<size_t>(i)];
          r = std::hypot(f, g);
          e[static_cast<size_t>(i) + 1] = r;
          if (r == 0.0) {
            d[static_cast<size_t>(i) + 1] -= p;
            e[static_cast<size_t>(m)] = 0.0;
            underflow = true;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[static_cast<size_t>(i) + 1] - p;
          r = (d[static_cast<size_t>(i)] - g) * s + 2.0 * c * b;
          p = s * r;
          d[static_cast<size_t>(i) + 1] = g + p;
          g = c * r - b;
          double* zi = zt.data() + i * n;
          double* zi1 = zi + n;
          for (Index k = 0; k < n; ++k) {
            f = zi1[k];
            zi1[k] = s * zi[k] + c * f;
            zi[k] = c * zi[k] - s * f;
          }
        }
        if (underflow && i >= l) continue;
        d[static_cast<size_t>(l)] -= p;
        e[static_cast<size_t>(l)] = g;
        e[static_cast<size_t>(m)] = 0.0;
      }
    } while (m != l);
  }
}

// Sorts an eigendecomposition ascending; row k of `vt` is the
// eigenvector of w[k], and the result stores it as a column.
SymmetricEig sort_eig(const Vec& w, const Mat& vt) {
  const Index n = static_cast<Index>(w.size());
  std::vector<Index> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), Index(0));
  std::sort(order.begin(), order.end(), [&](Index i, Index j) {
    return w[static_cast<size_t>(i)] < w[static_cast<size_t>(j)];
  });
  SymmetricEig out;
  out.values.resize(static_cast<size_t>(n));
  out.vectors.resize(n, n);
  for (Index k = 0; k < n; ++k) {
    const Index src = order[static_cast<size_t>(k)];
    out.values[static_cast<size_t>(k)] = w[static_cast<size_t>(src)];
    const double* row = vt.data() + src * n;
    for (Index i = 0; i < n; ++i) out.vectors(i, k) = row[i];
  }
  return out;
}

Mat symmetrized_copy(const Mat& a, const char* who) {
  require(a.is_square(), std::string(who) + ": matrix not square");
  require(a.asymmetry() <= 1e-8 * (1.0 + a.max_abs()),
          std::string(who) + ": matrix not symmetric");
  return symmetrized(a);
}

}  // namespace

SymmetricEig eig_symmetric_jacobi(const Mat& a) {
  Mat work = symmetrized_copy(a, "eig_symmetric");
  Mat vt;
  Vec w;
  jacobi_eig(work, vt, w);
  return sort_eig(w, vt);
}

SymmetricEig eig_symmetric_ql(const Mat& a) {
  Mat z = symmetrized_copy(a, "eig_symmetric");
  if (z.rows() == 0) return {};
  if (z.rows() == 1) {
    SymmetricEig out;
    out.values = {z(0, 0)};
    out.vectors = Mat::identity(1);
    return out;
  }
  Vec d, e;
  tred2(z, d, e);
  Mat zt = z.transpose();
  tql2(d, e, zt);
  return sort_eig(d, zt);
}

SymmetricEig eig_symmetric(const Mat& a) {
  if (a.rows() <= kEigFastCutover) return eig_symmetric_jacobi(a);
  try {
    return eig_symmetric_ql(a);
  } catch (const Error&) {
    // The implicit-QL iteration can stall on extreme-spread spectra
    // (e.g. Gramians with eigenvalue clusters at rounding level); cyclic
    // Jacobi always converges, at O(n³·sweeps) cost.
    return eig_symmetric_jacobi(a);
  }
}

Vec eig_symmetric_tridiagonal(const Vec& d, const Vec& e) {
  const Index n = static_cast<Index>(d.size());
  require(static_cast<Index>(e.size()) == n - 1 || (n == 0 && e.empty()),
          "eig_symmetric_tridiagonal: sub-diagonal must have n-1 entries");
  if (n == 0) return {};
  Mat a(n, n);
  for (Index i = 0; i < n; ++i) a(i, i) = d[static_cast<size_t>(i)];
  for (Index i = 0; i + 1 < n; ++i) {
    a(i + 1, i) = e[static_cast<size_t>(i)];
    a(i, i + 1) = e[static_cast<size_t>(i)];
  }
  return eig_symmetric(a).values;
}

CVec eig_general(const Mat& a_in) {
  require(a_in.is_square(), "eig_general: matrix not square");
  const Index n = a_in.rows();
  if (n == 0) return {};
  Mat a = a_in;

  // --- Reduction to upper Hessenberg form by stabilized elementary
  // transformations (elmhes). ---
  for (Index m = 1; m + 1 < n; ++m) {
    double x = 0.0;
    Index i = m;
    for (Index j = m; j < n; ++j) {
      if (std::abs(a(j, m - 1)) > std::abs(x)) {
        x = a(j, m - 1);
        i = j;
      }
    }
    if (i != m) {
      for (Index j = m - 1; j < n; ++j) std::swap(a(i, j), a(m, j));
      for (Index j = 0; j < n; ++j) std::swap(a(j, i), a(j, m));
    }
    if (x != 0.0) {
      for (Index ii = m + 1; ii < n; ++ii) {
        double y = a(ii, m - 1);
        if (y != 0.0) {
          y /= x;
          a(ii, m - 1) = y;
          for (Index j = m; j < n; ++j) a(ii, j) -= y * a(m, j);
          for (Index j = 0; j < n; ++j) a(j, m) += y * a(j, ii);
        }
      }
    }
  }
  // Zero the sub-sub-diagonal (multiplier storage) so hqr sees a clean
  // Hessenberg matrix.
  for (Index i = 2; i < n; ++i)
    for (Index j = 0; j + 1 < i; ++j) a(i, j) = 0.0;

  // --- Francis double-shift QR on the Hessenberg matrix (hqr). ---
  CVec wri(static_cast<size_t>(n));
  double anorm = 0.0;
  for (Index i = 0; i < n; ++i)
    for (Index j = std::max<Index>(i - 1, 0); j < n; ++j)
      anorm += std::abs(a(i, j));
  Index nn = n - 1;
  double t = 0.0;
  while (nn >= 0) {
    int its = 0;
    Index l;
    do {
      for (l = nn; l >= 1; --l) {
        double s = std::abs(a(l - 1, l - 1)) + std::abs(a(l, l));
        if (s == 0.0) s = anorm;
        if (std::abs(a(l, l - 1)) + s == s) {
          a(l, l - 1) = 0.0;
          break;
        }
      }
      if (l < 0) l = 0;
      double x = a(nn, nn);
      if (l == nn) {
        // Single real eigenvalue isolated.
        wri[static_cast<size_t>(nn)] = Complex(x + t, 0.0);
        nn -= 1;
      } else {
        double y = a(nn - 1, nn - 1);
        double w = a(nn, nn - 1) * a(nn - 1, nn);
        if (l == nn - 1) {
          // 2x2 block isolated: real pair or complex conjugate pair.
          double p = 0.5 * (y - x);
          double q = p * p + w;
          double z = std::sqrt(std::abs(q));
          x += t;
          if (q >= 0.0) {
            z = p + sign_of(z, p);
            wri[static_cast<size_t>(nn - 1)] = Complex(x + z, 0.0);
            wri[static_cast<size_t>(nn)] = wri[static_cast<size_t>(nn - 1)];
            if (z != 0.0) wri[static_cast<size_t>(nn)] = Complex(x - w / z, 0.0);
          } else {
            wri[static_cast<size_t>(nn)] = Complex(x + p, -z);
            wri[static_cast<size_t>(nn - 1)] =
                std::conj(wri[static_cast<size_t>(nn)]);
          }
          nn -= 2;
        } else {
          // Perform one Francis double-shift QR sweep.
          require(its != 60, "eig_general: QR iteration failed to converge");
          if (its == 10 || its == 20 || its == 30 || its == 40 || its == 50) {
            // Exceptional shift.
            t += x;
            for (Index i = 0; i <= nn; ++i) a(i, i) -= x;
            const double s =
                std::abs(a(nn, nn - 1)) + std::abs(a(nn - 1, nn - 2));
            y = x = 0.75 * s;
            w = -0.4375 * s * s;
          }
          ++its;
          Index m;
          double p = 0.0, q = 0.0, r = 0.0, z = 0.0;
          for (m = nn - 2; m >= l; --m) {
            z = a(m, m);
            const double rr = x - z;
            const double ss = y - z;
            p = (rr * ss - w) / a(m + 1, m) + a(m, m + 1);
            q = a(m + 1, m + 1) - z - rr - ss;
            r = a(m + 2, m + 1);
            const double s3 = std::abs(p) + std::abs(q) + std::abs(r);
            p /= s3;
            q /= s3;
            r /= s3;
            if (m == l) break;
            const double u =
                std::abs(a(m, m - 1)) * (std::abs(q) + std::abs(r));
            const double v = std::abs(p) * (std::abs(a(m - 1, m - 1)) +
                                            std::abs(z) + std::abs(a(m + 1, m + 1)));
            if (u + v == v) break;
          }
          for (Index i = m; i < nn - 1; ++i) {
            a(i + 2, i) = 0.0;
            if (i != m) a(i + 2, i - 1) = 0.0;
          }
          for (Index k = m; k < nn; ++k) {
            if (k != m) {
              p = a(k, k - 1);
              q = a(k + 1, k - 1);
              r = (k + 1 != nn) ? a(k + 2, k - 1) : 0.0;
              x = std::abs(p) + std::abs(q) + std::abs(r);
              if (x != 0.0) {
                p /= x;
                q /= x;
                r /= x;
              }
            }
            const double s = sign_of(std::sqrt(p * p + q * q + r * r), p);
            if (s == 0.0) continue;
            if (k == m) {
              if (l != m) a(k, k - 1) = -a(k, k - 1);
            } else {
              a(k, k - 1) = -s * x;
            }
            p += s;
            x = p / s;
            y = q / s;
            z = r / s;
            q /= p;
            r /= p;
            // Row modification.
            for (Index j = k; j <= nn; ++j) {
              double pp = a(k, j) + q * a(k + 1, j);
              if (k + 1 != nn) {
                pp += r * a(k + 2, j);
                a(k + 2, j) -= pp * z;
              }
              a(k + 1, j) -= pp * y;
              a(k, j) -= pp * x;
            }
            const Index mmin = std::min(nn, k + 3);
            // Column modification.
            for (Index i = l; i <= mmin; ++i) {
              double pp = x * a(i, k) + y * a(i, k + 1);
              if (k + 1 != nn) {
                pp += z * a(i, k + 2);
                a(i, k + 2) -= pp * r;
              }
              a(i, k + 1) -= pp * q;
              a(i, k) -= pp;
            }
          }
        }
      }
    } while (nn >= 0 && l < nn - 1);
  }
  return wri;
}

GeneralEig eig_general_vectors(const Mat& a) {
  require(a.is_square(), "eig_general_vectors: matrix not square");
  const Index n = a.rows();
  GeneralEig out;
  out.values = eig_general(a);
  out.vectors.resize(n, n);
  const CMat ac = to_complex(a);

  double anorm = a.max_abs();
  if (anorm == 0.0) anorm = 1.0;

  for (Index k = 0; k < n; ++k) {
    // Shifted inverse iteration: (A − (λ+ε)I) x_{m+1} = x_m. The small
    // perturbation ε keeps the solve well-posed while the near-null
    // direction dominates after a few iterations.
    const Complex lambda = out.values[static_cast<size_t>(k)];
    const Complex shift =
        lambda + Complex(1e-10 * anorm, 1e-10 * anorm);
    CMat shifted = ac;
    for (Index i = 0; i < n; ++i) shifted(i, i) -= shift;
    const DenseLU<Complex> lu(shifted);
    require(!lu.singular(), "eig_general_vectors: singular shifted system");

    // Deterministic pseudo-random start, orthogonal-ish across k.
    CVec x(static_cast<size_t>(n));
    for (Index i = 0; i < n; ++i)
      x[static_cast<size_t>(i)] =
          Complex(std::cos(static_cast<double>(1 + i + 3 * k)),
                  std::sin(static_cast<double>(2 + 5 * i + k)));
    double residual = std::numeric_limits<double>::infinity();
    for (int iter = 0; iter < 8 && residual > 1e-10 * anorm; ++iter) {
      x = lu.solve(x);
      const double nx = norm2(x);
      require(nx > 0.0, "eig_general_vectors: inverse iteration collapsed");
      scale(x, Complex(1.0 / nx, 0.0));
      // Residual ‖Ax − λx‖.
      CVec r = ac * x;
      for (Index i = 0; i < n; ++i) r[static_cast<size_t>(i)] -= lambda * x[static_cast<size_t>(i)];
      residual = norm2(r);
    }
    require(residual <= 1e-6 * anorm,
            "eig_general_vectors: inverse iteration failed to converge "
            "(matrix may be defective)");
    out.vectors.set_col(k, x);
  }
  return out;
}

SymmetricEig eig_symmetric_generalized(const Mat& a, const Mat& b) {
  require(a.is_square() && b.is_square() && a.rows() == b.rows(),
          "eig_symmetric_generalized: shape mismatch");
  DenseCholesky chol(b);  // b = L Lᵀ, throws if not SPD
  const Index n = a.rows();
  // C = L⁻¹ A L⁻ᵀ, computed column-wise.
  Mat c(n, n);
  for (Index j = 0; j < n; ++j) {
    // column j of A L⁻ᵀ is obtained by solving Lᵀ row-systems; instead use:
    // C = L⁻¹ (L⁻¹ Aᵀ)ᵀ with A symmetric.
    Vec col = chol.solve_l(a.col(j));
    c.set_col(j, col);
  }
  // Now c = L⁻¹ A; apply L⁻ᵀ from the right: C = (L⁻¹ (L⁻¹ A)ᵀ)ᵀ.
  Mat ct = c.transpose();
  Mat c2(n, n);
  for (Index j = 0; j < n; ++j) c2.set_col(j, chol.solve_l(ct.col(j)));
  const Mat sym = symmetrized(c2.transpose());
  SymmetricEig e = eig_symmetric(sym);
  // Back-transform eigenvectors: v = L⁻ᵀ y.
  for (Index k = 0; k < n; ++k) e.vectors.set_col(k, chol.solve_lt(e.vectors.col(k)));
  return e;
}

}  // namespace sympvl
