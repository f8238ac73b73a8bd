#include "linalg/dense_factor.hpp"

#include <cmath>

namespace sympvl {

// ---- DenseLU ---------------------------------------------------------------

template <typename T>
DenseLU<T>::DenseLU(const Matrix<T>& a) : lu_(a) {
  require(a.is_square(), "DenseLU: matrix not square");
  const Index n = a.rows();
  perm_.resize(static_cast<size_t>(n));
  for (Index i = 0; i < n; ++i) perm_[static_cast<size_t>(i)] = i;

  for (Index k = 0; k < n; ++k) {
    // Partial pivoting: pick the largest magnitude entry in column k.
    Index piv = k;
    auto best = ScalarTraits<T>::abs(lu_(k, k));
    for (Index i = k + 1; i < n; ++i) {
      const auto v = ScalarTraits<T>::abs(lu_(i, k));
      if (v > best) {
        best = v;
        piv = i;
      }
    }
    if (best == typename ScalarTraits<T>::Real(0)) {
      singular_ = true;
      continue;
    }
    if (piv != k) {
      for (Index j = 0; j < n; ++j) std::swap(lu_(k, j), lu_(piv, j));
      std::swap(perm_[static_cast<size_t>(k)], perm_[static_cast<size_t>(piv)]);
    }
    const T pivot = lu_(k, k);
    for (Index i = k + 1; i < n; ++i) {
      const T lik = lu_(i, k) / pivot;
      lu_(i, k) = lik;
      if (lik == T(0)) continue;
      for (Index j = k + 1; j < n; ++j) lu_(i, j) -= lik * lu_(k, j);
    }
  }
}

template <typename T>
std::vector<T> DenseLU<T>::solve(const std::vector<T>& b) const {
  require(!singular_, "DenseLU::solve: matrix is singular");
  const Index n = lu_.rows();
  require(static_cast<Index>(b.size()) == n, "DenseLU::solve: size mismatch");
  std::vector<T> x(static_cast<size_t>(n));
  // Apply the row permutation, then forward substitution with unit L.
  for (Index i = 0; i < n; ++i)
    x[static_cast<size_t>(i)] = b[static_cast<size_t>(perm_[static_cast<size_t>(i)])];
  for (Index i = 0; i < n; ++i) {
    T acc = x[static_cast<size_t>(i)];
    for (Index j = 0; j < i; ++j) acc -= lu_(i, j) * x[static_cast<size_t>(j)];
    x[static_cast<size_t>(i)] = acc;
  }
  // Backward substitution with U.
  for (Index i = n - 1; i >= 0; --i) {
    T acc = x[static_cast<size_t>(i)];
    for (Index j = i + 1; j < n; ++j) acc -= lu_(i, j) * x[static_cast<size_t>(j)];
    x[static_cast<size_t>(i)] = acc / lu_(i, i);
  }
  return x;
}

template <typename T>
Matrix<T> DenseLU<T>::solve(const Matrix<T>& b) const {
  require(b.rows() == lu_.rows(), "DenseLU::solve: row mismatch");
  Matrix<T> x(b.rows(), b.cols());
  for (Index j = 0; j < b.cols(); ++j) x.set_col(j, solve(b.col(j)));
  return x;
}

template class DenseLU<double>;
template class DenseLU<Complex>;

// ---- DenseCholesky ---------------------------------------------------------

DenseCholesky::DenseCholesky(const Mat& a) : l_(a.rows(), a.cols()) {
  require(a.is_square(), "DenseCholesky: matrix not square");
  const Index n = a.rows();
  for (Index j = 0; j < n; ++j) {
    double d = a(j, j);
    for (Index k = 0; k < j; ++k) d -= l_(j, k) * l_(j, k);
    require(d > 0.0, "DenseCholesky: matrix not positive definite");
    l_(j, j) = std::sqrt(d);
    for (Index i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (Index k = 0; k < j; ++k) s -= l_(i, k) * l_(j, k);
      l_(i, j) = s / l_(j, j);
    }
  }
}

Vec DenseCholesky::solve_l(const Vec& b) const {
  const Index n = l_.rows();
  require(static_cast<Index>(b.size()) == n, "solve_l: size mismatch");
  Vec y(b);
  for (Index i = 0; i < n; ++i) {
    double acc = y[static_cast<size_t>(i)];
    for (Index j = 0; j < i; ++j) acc -= l_(i, j) * y[static_cast<size_t>(j)];
    y[static_cast<size_t>(i)] = acc / l_(i, i);
  }
  return y;
}

Vec DenseCholesky::solve_lt(const Vec& b) const {
  const Index n = l_.rows();
  require(static_cast<Index>(b.size()) == n, "solve_lt: size mismatch");
  Vec x(b);
  for (Index i = n - 1; i >= 0; --i) {
    double acc = x[static_cast<size_t>(i)];
    for (Index j = i + 1; j < n; ++j) acc -= l_(j, i) * x[static_cast<size_t>(j)];
    x[static_cast<size_t>(i)] = acc / l_(i, i);
  }
  return x;
}

Vec DenseCholesky::solve(const Vec& b) const { return solve_lt(solve_l(b)); }

Mat DenseCholesky::solve(const Mat& b) const {
  Mat x(b.rows(), b.cols());
  for (Index j = 0; j < b.cols(); ++j) x.set_col(j, solve(b.col(j)));
  return x;
}

// ---- DenseQR ---------------------------------------------------------------

DenseQR::DenseQR(const Mat& a) : qr_(a), m_(a.rows()), n_(a.cols()) {
  require(m_ >= n_, "DenseQR: requires rows >= cols");
  beta_.assign(static_cast<size_t>(n_), 0.0);
  for (Index k = 0; k < n_; ++k) {
    // Householder vector for column k, rows k..m-1.
    double xnorm = 0.0;
    for (Index i = k; i < m_; ++i) xnorm += qr_(i, k) * qr_(i, k);
    xnorm = std::sqrt(xnorm);
    if (xnorm == 0.0) continue;
    const double alpha = qr_(k, k) >= 0.0 ? -xnorm : xnorm;
    // v = x - alpha e1, normalized so v_k = 1.
    const double vk = qr_(k, k) - alpha;
    if (vk == 0.0) continue;
    for (Index i = k + 1; i < m_; ++i) qr_(i, k) /= vk;
    beta_[static_cast<size_t>(k)] = -vk / alpha;
    qr_(k, k) = alpha;
    // Apply the reflector H = I - beta v vᵀ to the remaining columns.
    const double beta = beta_[static_cast<size_t>(k)];
    for (Index j = k + 1; j < n_; ++j) {
      double s = qr_(k, j);
      for (Index i = k + 1; i < m_; ++i) s += qr_(i, k) * qr_(i, j);
      s *= beta;
      qr_(k, j) -= s;
      for (Index i = k + 1; i < m_; ++i) qr_(i, j) -= qr_(i, k) * s;
    }
  }
}

Mat DenseQR::q_thin() const {
  // Accumulate Q by applying the reflectors to the first n columns of I.
  Mat q(m_, n_);
  for (Index j = 0; j < n_; ++j) q(j, j) = 1.0;
  for (Index k = n_ - 1; k >= 0; --k) {
    const double beta = beta_[static_cast<size_t>(k)];
    if (beta == 0.0) continue;
    for (Index j = 0; j < n_; ++j) {
      double s = q(k, j);
      for (Index i = k + 1; i < m_; ++i) s += qr_(i, k) * q(i, j);
      s *= beta;
      q(k, j) -= s;
      for (Index i = k + 1; i < m_; ++i) q(i, j) -= qr_(i, k) * s;
    }
  }
  return q;
}

Mat DenseQR::q_full() const {
  Mat q = Mat::identity(m_);
  for (Index k = n_ - 1; k >= 0; --k) {
    const double beta = beta_[static_cast<size_t>(k)];
    if (beta == 0.0) continue;
    for (Index j = 0; j < m_; ++j) {
      double s = q(k, j);
      for (Index i = k + 1; i < m_; ++i) s += qr_(i, k) * q(i, j);
      s *= beta;
      q(k, j) -= s;
      for (Index i = k + 1; i < m_; ++i) q(i, j) -= qr_(i, k) * s;
    }
  }
  return q;
}

Mat DenseQR::r() const {
  Mat r(n_, n_);
  for (Index i = 0; i < n_; ++i)
    for (Index j = i; j < n_; ++j) r(i, j) = qr_(i, j);
  return r;
}

Index DenseQR::rank(double tol) const {
  double dmax = 0.0;
  for (Index i = 0; i < n_; ++i) dmax = std::max(dmax, std::abs(qr_(i, i)));
  if (dmax == 0.0) return 0;
  Index r = 0;
  for (Index i = 0; i < n_; ++i)
    if (std::abs(qr_(i, i)) > tol * dmax) ++r;
  return r;
}

Vec DenseQR::solve(const Vec& b) const {
  require(static_cast<Index>(b.size()) == m_, "DenseQR::solve: size mismatch");
  Vec y(b);
  // y = Qᵀ b via the stored reflectors.
  for (Index k = 0; k < n_; ++k) {
    const double beta = beta_[static_cast<size_t>(k)];
    if (beta == 0.0) continue;
    double s = y[static_cast<size_t>(k)];
    for (Index i = k + 1; i < m_; ++i) s += qr_(i, k) * y[static_cast<size_t>(i)];
    s *= beta;
    y[static_cast<size_t>(k)] -= s;
    for (Index i = k + 1; i < m_; ++i) y[static_cast<size_t>(i)] -= qr_(i, k) * s;
  }
  // Back-substitute R x = y[0..n).
  Vec x(static_cast<size_t>(n_));
  for (Index i = n_ - 1; i >= 0; --i) {
    double acc = y[static_cast<size_t>(i)];
    for (Index j = i + 1; j < n_; ++j) acc -= qr_(i, j) * x[static_cast<size_t>(j)];
    require(qr_(i, i) != 0.0, "DenseQR::solve: rank deficient");
    x[static_cast<size_t>(i)] = acc / qr_(i, i);
  }
  return x;
}

// ---- BunchKaufman ----------------------------------------------------------

namespace {
// Threshold from Bunch & Kaufman (1977) bounding element growth.
const double kBkAlpha = (1.0 + std::sqrt(17.0)) / 8.0;

// Eigendecomposition of a symmetric 2x2 [[a, b], [b, c]] = W diag(l1,l2) Wᵀ.
void eig2x2(double a, double b, double c, double& l1, double& l2, double w[4]) {
  if (b == 0.0) {
    l1 = a;
    l2 = c;
    w[0] = 1.0; w[1] = 0.0; w[2] = 0.0; w[3] = 1.0;
    return;
  }
  const double tr = a + c;
  const double diff = a - c;
  const double rt = std::hypot(diff, 2.0 * b);
  l1 = 0.5 * (tr + rt);
  l2 = 0.5 * (tr - rt);
  // Eigenvector for l1: (b, l1 - a) or (l1 - c, b), whichever is better
  // conditioned.
  double vx, vy;
  if (std::abs(l1 - a) > std::abs(l1 - c)) {
    vx = b;
    vy = l1 - a;
  } else {
    vx = l1 - c;
    vy = b;
  }
  const double nv = std::hypot(vx, vy);
  vx /= nv;
  vy /= nv;
  w[0] = vx; w[1] = -vy;
  w[2] = vy; w[3] = vx;
}
}  // namespace

BunchKaufman::BunchKaufman(const Mat& a) : ld_(a), n_(a.rows()) {
  require(a.is_square(), "BunchKaufman: matrix not square");
  require(a.asymmetry() <= 1e-10 * (1.0 + a.max_abs()),
          "BunchKaufman: matrix not symmetric");
  perm_.assign(static_cast<size_t>(n_), 0);

  Index k = 0;
  while (k < n_) {
    const double absakk = std::abs(ld_(k, k));
    // Largest off-diagonal magnitude in column k below the diagonal.
    Index imax = k;
    double colmax = 0.0;
    for (Index i = k + 1; i < n_; ++i) {
      const double v = std::abs(ld_(i, k));
      if (v > colmax) {
        colmax = v;
        imax = i;
      }
    }

    int bsize = 1;
    Index kp = k;  // pivot row to swap with (k for 1x1, or with k+1 for 2x2)
    if (std::max(absakk, colmax) == 0.0) {
      // Zero column: 1x1 zero pivot (recorded; solve() will reject).
      kp = k;
    } else if (absakk >= kBkAlpha * colmax) {
      kp = k;  // 1x1 pivot, no interchange
    } else {
      // Largest off-diagonal magnitude in row imax of the trailing block.
      double rowmax = 0.0;
      for (Index j = k; j < n_; ++j) {
        if (j == imax) continue;
        rowmax = std::max(rowmax, std::abs(ld_(imax, j)));
      }
      if (absakk * rowmax >= kBkAlpha * colmax * colmax) {
        kp = k;  // 1x1 pivot, no interchange
      } else if (std::abs(ld_(imax, imax)) >= kBkAlpha * rowmax) {
        kp = imax;  // 1x1 pivot, interchange k <-> imax
      } else {
        bsize = 2;  // 2x2 pivot, interchange k+1 <-> imax
        kp = imax;
      }
    }

    // Apply the symmetric interchange on the full working matrix.
    const Index swap_pos = (bsize == 1) ? k : k + 1;
    if (kp != swap_pos) {
      for (Index j = 0; j < n_; ++j) std::swap(ld_(swap_pos, j), ld_(kp, j));
      for (Index i = 0; i < n_; ++i) std::swap(ld_(i, swap_pos), ld_(i, kp));
    }
    perm_[static_cast<size_t>(k)] = kp;
    blocks_.push_back(bsize);

    if (bsize == 1) {
      const double d = ld_(k, k);
      if (d != 0.0) {
        for (Index i = k + 1; i < n_; ++i) {
          const double lik = ld_(i, k) / d;
          for (Index j = k + 1; j <= i; ++j) {
            ld_(i, j) -= lik * ld_(j, k);
            ld_(j, i) = ld_(i, j);
          }
        }
        for (Index i = k + 1; i < n_; ++i) ld_(i, k) /= d;
        for (Index i = k + 1; i < n_; ++i) ld_(k, i) = ld_(i, k);
      }
      k += 1;
    } else {
      perm_[static_cast<size_t>(k + 1)] = kp;
      // 2x2 block D = [[d11, d21], [d21, d22]].
      const double d11 = ld_(k, k);
      const double d21 = ld_(k + 1, k);
      const double d22 = ld_(k + 1, k + 1);
      const double det = d11 * d22 - d21 * d21;
      require(det != 0.0, "BunchKaufman: singular 2x2 pivot");
      const double i11 = d22 / det, i22 = d11 / det, i21 = -d21 / det;
      // Update the trailing block first using the raw column values; only
      // then overwrite columns k, k+1 with the L entries.
      for (Index i = k + 2; i < n_; ++i) {
        const double a1 = ld_(i, k), a2 = ld_(i, k + 1);
        const double l1 = a1 * i11 + a2 * i21;
        const double l2 = a1 * i21 + a2 * i22;
        for (Index j = k + 2; j <= i; ++j) {
          ld_(i, j) -= l1 * ld_(j, k) + l2 * ld_(j, k + 1);
          ld_(j, i) = ld_(i, j);
        }
      }
      for (Index i = k + 2; i < n_; ++i) {
        const double a1 = ld_(i, k), a2 = ld_(i, k + 1);
        ld_(i, k) = a1 * i11 + a2 * i21;
        ld_(i, k + 1) = a1 * i21 + a2 * i22;
        ld_(k, i) = ld_(i, k);
        ld_(k + 1, i) = ld_(i, k + 1);
      }
      k += 2;
    }
  }
}

Vec BunchKaufman::solve(const Vec& b) const {
  require(static_cast<Index>(b.size()) == n_, "BunchKaufman::solve: size mismatch");
  Vec x(b);
  // The factorization swaps *full* rows/columns (upfront-permutation
  // storage: Pᵀ A P = L D Lᵀ), so all interchanges apply before the
  // triangular solves, in the order they were recorded.
  Index k = 0;
  for (int bsize : blocks_) {
    const Index swap_pos = (bsize == 1) ? k : k + 1;
    const Index kp = perm_[static_cast<size_t>(k)];
    if (kp != swap_pos)
      std::swap(x[static_cast<size_t>(swap_pos)], x[static_cast<size_t>(kp)]);
    k += bsize;
  }
  // Forward pass: L⁻¹ (unit lower, block pattern).
  k = 0;
  for (int bsize : blocks_) {
    for (Index i = k + bsize; i < n_; ++i)
      for (Index j = k; j < k + bsize; ++j)
        x[static_cast<size_t>(i)] -= ld_(i, j) * x[static_cast<size_t>(j)];
    k += bsize;
  }
  // Diagonal solve D y = z.
  k = 0;
  for (int bsize : blocks_) {
    if (bsize == 1) {
      require(ld_(k, k) != 0.0, "BunchKaufman::solve: singular diagonal");
      x[static_cast<size_t>(k)] /= ld_(k, k);
    } else {
      const double d11 = ld_(k, k), d21 = ld_(k + 1, k), d22 = ld_(k + 1, k + 1);
      const double det = d11 * d22 - d21 * d21;
      const double b1 = x[static_cast<size_t>(k)], b2 = x[static_cast<size_t>(k + 1)];
      x[static_cast<size_t>(k)] = (d22 * b1 - d21 * b2) / det;
      x[static_cast<size_t>(k + 1)] = (-d21 * b1 + d11 * b2) / det;
    }
    k += bsize;
  }
  // Backward pass: Lᵀ, then undo the interchanges in reverse order.
  k = n_;
  for (size_t bi = blocks_.size(); bi-- > 0;) {
    const int bsize = blocks_[bi];
    k -= bsize;
    for (Index j = k; j < k + bsize; ++j)
      for (Index i = k + bsize; i < n_; ++i)
        x[static_cast<size_t>(j)] -= ld_(i, j) * x[static_cast<size_t>(i)];
  }
  k = n_;
  for (size_t bi = blocks_.size(); bi-- > 0;) {
    const int bsize = blocks_[bi];
    k -= bsize;
    const Index swap_pos = (bsize == 1) ? k : k + 1;
    const Index kp = perm_[static_cast<size_t>(k)];
    if (kp != swap_pos)
      std::swap(x[static_cast<size_t>(swap_pos)], x[static_cast<size_t>(kp)]);
  }
  return x;
}

void BunchKaufman::symmetric_factor(Mat& m_out, Vec& j_out) const {
  // A = P L D Lᵀ Pᵀ; with D = W Λ Wᵀ block-wise we get
  // M = P L W √|Λ| and A = M J Mᵀ, J = sign(Λ).
  Mat lw(n_, n_);  // L * W * sqrt(|Λ|)
  j_out.assign(static_cast<size_t>(n_), 1.0);
  // Explicit unit-lower L with the block pattern.
  Mat l = Mat::identity(n_);
  Index k = 0;
  for (int bsize : blocks_) {
    for (Index i = k + bsize; i < n_; ++i)
      for (Index j = k; j < k + bsize; ++j) l(i, j) = ld_(i, j);
    k += bsize;
  }
  // Multiply by the block-diagonal W √|Λ| on the right.
  k = 0;
  for (int bsize : blocks_) {
    if (bsize == 1) {
      const double d = ld_(k, k);
      require(d != 0.0,
              "BunchKaufman::symmetric_factor: zero pivot (apply a frequency "
              "shift, eq. 26)");
      const double r = std::sqrt(std::abs(d));
      j_out[static_cast<size_t>(k)] = d > 0.0 ? 1.0 : -1.0;
      for (Index i = 0; i < n_; ++i) lw(i, k) = l(i, k) * r;
    } else {
      double l1, l2, w[4];
      eig2x2(ld_(k, k), ld_(k + 1, k), ld_(k + 1, k + 1), l1, l2, w);
      require(l1 != 0.0 && l2 != 0.0,
              "BunchKaufman::symmetric_factor: singular 2x2 block");
      const double r1 = std::sqrt(std::abs(l1)), r2 = std::sqrt(std::abs(l2));
      j_out[static_cast<size_t>(k)] = l1 > 0.0 ? 1.0 : -1.0;
      j_out[static_cast<size_t>(k + 1)] = l2 > 0.0 ? 1.0 : -1.0;
      for (Index i = 0; i < n_; ++i) {
        const double a = l(i, k), b = l(i, k + 1);
        lw(i, k) = (a * w[0] + b * w[2]) * r1;
        lw(i, k + 1) = (a * w[1] + b * w[3]) * r2;
      }
    }
    k += bsize;
  }
  // Apply P: undo the recorded interchanges on the rows, in reverse order.
  m_out = lw;
  k = n_;
  for (size_t bi = blocks_.size(); bi-- > 0;) {
    const int bsize = blocks_[bi];
    k -= bsize;
    const Index swap_pos = (bsize == 1) ? k : k + 1;
    const Index kp = perm_[static_cast<size_t>(k)];
    if (kp != swap_pos)
      for (Index j = 0; j < n_; ++j) std::swap(m_out(swap_pos, j), m_out(kp, j));
  }
}

}  // namespace sympvl
