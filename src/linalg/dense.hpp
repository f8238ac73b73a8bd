// Dense matrix / vector types and elementary operations.
//
// The library deliberately implements its own small dense-linear-algebra
// layer (no Eigen/LAPACK dependency): reduced-order models produced by
// SyMPVL are small (n in the tens to low hundreds), so simple row-major
// storage with straightforward kernels is fully adequate and keeps the
// numerical behaviour of the reproduction transparent.
#pragma once

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <vector>

#include "common.hpp"

namespace sympvl {

/// Row-major dense matrix over `T` (double or std::complex<double>).
///
/// Invariant: storage size == rows()*cols() at all times.
template <typename T>
class Matrix {
 public:
  using Scalar = T;
  using Real = typename ScalarTraits<T>::Real;

  Matrix() = default;
  Matrix(Index rows, Index cols, T value = T(0))
      : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows * cols), value) {
    require(rows >= 0 && cols >= 0, "Matrix: negative dimension");
  }

  /// Builds a matrix from a nested initializer list (row by row).
  Matrix(std::initializer_list<std::initializer_list<T>> init) {
    rows_ = static_cast<Index>(init.size());
    cols_ = rows_ > 0 ? static_cast<Index>(init.begin()->size()) : 0;
    data_.reserve(static_cast<size_t>(rows_ * cols_));
    for (const auto& row : init) {
      require(static_cast<Index>(row.size()) == cols_,
              "Matrix: ragged initializer list");
      data_.insert(data_.end(), row.begin(), row.end());
    }
  }

  static Matrix identity(Index n) {
    Matrix m(n, n);
    for (Index i = 0; i < n; ++i) m(i, i) = T(1);
    return m;
  }

  static Matrix zero(Index rows, Index cols) { return Matrix(rows, cols); }

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  T& operator()(Index i, Index j) {
    return data_[static_cast<size_t>(i * cols_ + j)];
  }
  const T& operator()(Index i, Index j) const {
    return data_[static_cast<size_t>(i * cols_ + j)];
  }

  /// Raw row-major storage (rows()*cols() entries).
  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  /// Resizes, discarding contents; new entries are `value`.
  void resize(Index rows, Index cols, T value = T(0)) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(static_cast<size_t>(rows * cols), value);
  }

  Matrix transpose() const {
    Matrix r(cols_, rows_);
    for (Index i = 0; i < rows_; ++i)
      for (Index j = 0; j < cols_; ++j) r(j, i) = (*this)(i, j);
    return r;
  }

  /// Conjugate transpose (== transpose for real T).
  Matrix adjoint() const {
    Matrix r(cols_, rows_);
    for (Index i = 0; i < rows_; ++i)
      for (Index j = 0; j < cols_; ++j)
        r(j, i) = ScalarTraits<T>::conj((*this)(i, j));
    return r;
  }

  std::vector<T> col(Index j) const {
    std::vector<T> c(static_cast<size_t>(rows_));
    for (Index i = 0; i < rows_; ++i) c[static_cast<size_t>(i)] = (*this)(i, j);
    return c;
  }

  std::vector<T> row(Index i) const {
    std::vector<T> r(data_.begin() + i * cols_, data_.begin() + (i + 1) * cols_);
    return r;
  }

  void set_col(Index j, const std::vector<T>& c) {
    require(static_cast<Index>(c.size()) == rows_, "set_col: size mismatch");
    for (Index i = 0; i < rows_; ++i) (*this)(i, j) = c[static_cast<size_t>(i)];
  }

  /// Returns the sub-matrix rows [r0,r1) x cols [c0,c1).
  Matrix block(Index r0, Index r1, Index c0, Index c1) const {
    require(0 <= r0 && r0 <= r1 && r1 <= rows_ && 0 <= c0 && c0 <= c1 &&
                c1 <= cols_,
            "block: range out of bounds");
    Matrix b(r1 - r0, c1 - c0);
    for (Index i = r0; i < r1; ++i)
      for (Index j = c0; j < c1; ++j) b(i - r0, j - c0) = (*this)(i, j);
    return b;
  }

  Matrix& operator+=(const Matrix& o) {
    require(rows_ == o.rows_ && cols_ == o.cols_, "operator+=: shape mismatch");
    for (size_t k = 0; k < data_.size(); ++k) data_[k] += o.data_[k];
    return *this;
  }
  Matrix& operator-=(const Matrix& o) {
    require(rows_ == o.rows_ && cols_ == o.cols_, "operator-=: shape mismatch");
    for (size_t k = 0; k < data_.size(); ++k) data_[k] -= o.data_[k];
    return *this;
  }
  Matrix& operator*=(T s) {
    for (auto& x : data_) x *= s;
    return *this;
  }

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, T s) { return a *= s; }
  friend Matrix operator*(T s, Matrix a) { return a *= s; }

  friend Matrix operator*(const Matrix& a, const Matrix& b) {
    require(a.cols_ == b.rows_, "matmul: inner dimension mismatch");
    Matrix c(a.rows_, b.cols_);
    // Cache-blocked i×k panels with a contiguous j inner loop: the B panel
    // stays resident across the whole i block instead of being streamed
    // once per output row.
    constexpr Index kBlock = 64;
    const Index m = a.rows_, kn = a.cols_, n = b.cols_;
    for (Index i0 = 0; i0 < m; i0 += kBlock) {
      const Index i1 = std::min(i0 + kBlock, m);
      for (Index k0 = 0; k0 < kn; k0 += kBlock) {
        const Index k1 = std::min(k0 + kBlock, kn);
        for (Index i = i0; i < i1; ++i) {
          const T* arow = a.data_.data() + i * kn;
          T* crow = c.data_.data() + i * n;
          for (Index k = k0; k < k1; ++k) {
            const T aik = arow[k];
            if (aik == T(0)) continue;
            const T* brow = b.data_.data() + k * n;
            for (Index j = 0; j < n; ++j) crow[j] += aik * brow[j];
          }
        }
      }
    }
    return c;
  }

  friend std::vector<T> operator*(const Matrix& a, const std::vector<T>& x) {
    require(a.cols_ == static_cast<Index>(x.size()), "matvec: size mismatch");
    std::vector<T> y(static_cast<size_t>(a.rows_));
    const T* xp = x.data();
    const T* row = a.data_.data();
    for (Index i = 0; i < a.rows_; ++i, row += a.cols_) {
      T acc(0);
      for (Index j = 0; j < a.cols_; ++j) acc += row[j] * xp[j];
      y[static_cast<size_t>(i)] = acc;
    }
    return y;
  }

  /// Frobenius norm.
  Real norm() const {
    Real s(0);
    for (const auto& x : data_) {
      const Real a = ScalarTraits<T>::abs(x);
      s += a * a;
    }
    return std::sqrt(s);
  }

  /// Largest absolute entry.
  Real max_abs() const {
    Real m(0);
    for (const auto& x : data_) m = std::max(m, ScalarTraits<T>::abs(x));
    return m;
  }

  bool is_square() const { return rows_ == cols_; }

  /// Max |A - Aᵀ| entry; 0 for exactly symmetric matrices.
  Real asymmetry() const {
    require(is_square(), "asymmetry: matrix not square");
    Real m(0);
    for (Index i = 0; i < rows_; ++i)
      for (Index j = i + 1; j < cols_; ++j)
        m = std::max(m, ScalarTraits<T>::abs((*this)(i, j) - (*this)(j, i)));
    return m;
  }

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<T> data_;
};

using Mat = Matrix<double>;
using CMat = Matrix<Complex>;
using Vec = std::vector<double>;
using CVec = std::vector<Complex>;

// ---- transpose-aware matrix products -------------------------------------

/// C = Aᵀ·B (plain transpose, no conjugation) without materializing Aᵀ.
/// Row-major friendly: the k (shared-dimension) loop is outermost, so both
/// A and B are streamed by contiguous rows while the small C accumulator
/// stays in cache — the shape of port projections Bᵀ·X with tall-skinny
/// operands.
template <typename T, typename U>
auto matmul_transA(const Matrix<T>& a, const Matrix<U>& b) {
  using R = decltype(T() * U());
  require(a.rows() == b.rows(), "matmul_transA: inner dimension mismatch");
  const Index n = a.rows(), p = a.cols(), q = b.cols();
  Matrix<R> c(p, q);
  for (Index k = 0; k < n; ++k) {
    const T* arow = a.data() + k * p;
    const U* brow = b.data() + k * q;
    for (Index i = 0; i < p; ++i) {
      const T aki = arow[i];
      if (aki == T(0)) continue;
      R* crow = c.data() + i * q;
      for (Index j = 0; j < q; ++j) crow[j] += aki * brow[j];
    }
  }
  return c;
}

/// C = A·Bᵀ without materializing Bᵀ: every inner product runs over two
/// contiguous rows.
template <typename T>
Matrix<T> matmul_transB(const Matrix<T>& a, const Matrix<T>& b) {
  require(a.cols() == b.cols(), "matmul_transB: inner dimension mismatch");
  const Index m = a.rows(), n = a.cols(), q = b.rows();
  Matrix<T> c(m, q);
  for (Index i = 0; i < m; ++i) {
    const T* arow = a.data() + i * n;
    T* crow = c.data() + i * q;
    for (Index j = 0; j < q; ++j) {
      const T* brow = b.data() + j * n;
      T acc(0);
      for (Index k = 0; k < n; ++k) acc += arow[k] * brow[k];
      crow[j] = acc;
    }
  }
  return c;
}

// ---- free vector helpers -------------------------------------------------

/// Euclidean inner product xᴴy (conjugates x for complex scalars).
template <typename T>
T dot(const std::vector<T>& x, const std::vector<T>& y) {
  require(x.size() == y.size(), "dot: size mismatch");
  T s(0);
  for (size_t i = 0; i < x.size(); ++i) s += ScalarTraits<T>::conj(x[i]) * y[i];
  return s;
}

template <typename T>
typename ScalarTraits<T>::Real norm2(const std::vector<T>& x) {
  typename ScalarTraits<T>::Real s(0);
  for (const auto& v : x) {
    const auto a = ScalarTraits<T>::abs(v);
    s += a * a;
  }
  return std::sqrt(s);
}

template <typename T>
void axpy(T alpha, const std::vector<T>& x, std::vector<T>& y) {
  require(x.size() == y.size(), "axpy: size mismatch");
  for (size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

template <typename T>
void scale(std::vector<T>& x, T alpha) {
  for (auto& v : x) v *= alpha;
}

/// Converts a real matrix to complex.
CMat to_complex(const Mat& a);

/// Real part of a complex matrix.
Mat real_part(const CMat& a);

/// Imaginary part of a complex matrix.
Mat imag_part(const CMat& a);

/// (A + Aᵀ)/2 of a square matrix: each off-diagonal pair becomes
/// 0.5·(aᵢⱼ + aⱼᵢ) and the diagonal is kept. Clears the rounding-level
/// asymmetry of products that are symmetric in exact arithmetic.
Mat symmetrized(Mat a);

}  // namespace sympvl
