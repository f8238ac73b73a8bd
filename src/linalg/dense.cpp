#include "linalg/dense.hpp"

namespace sympvl {

CMat to_complex(const Mat& a) {
  CMat c(a.rows(), a.cols());
  for (Index i = 0; i < a.rows(); ++i)
    for (Index j = 0; j < a.cols(); ++j) c(i, j) = Complex(a(i, j), 0.0);
  return c;
}

Mat real_part(const CMat& a) {
  Mat r(a.rows(), a.cols());
  for (Index i = 0; i < a.rows(); ++i)
    for (Index j = 0; j < a.cols(); ++j) r(i, j) = a(i, j).real();
  return r;
}

Mat imag_part(const CMat& a) {
  Mat r(a.rows(), a.cols());
  for (Index i = 0; i < a.rows(); ++i)
    for (Index j = 0; j < a.cols(); ++j) r(i, j) = a(i, j).imag();
  return r;
}

Mat symmetrized(Mat a) {
  require(a.is_square(), "symmetrized: matrix not square");
  for (Index i = 0; i < a.rows(); ++i)
    for (Index j = i + 1; j < a.cols(); ++j)
      a(i, j) = a(j, i) = 0.5 * (a(i, j) + a(j, i));
  return a;
}

}  // namespace sympvl
