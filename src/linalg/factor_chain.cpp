#include "linalg/factor_chain.hpp"

#include <string>

#include "fault.hpp"
#include "obs/obs.hpp"

namespace sympvl {

namespace {

// Runs one rung's `factor` under its fault site and records the attempt.
// Returns false, with the reason in `failure`, when the rung threw.
template <typename F>
bool try_rung(Index attempt, bool ldlt, std::string* failure, F&& factor) {
  bool ok = true;
  try {
    fault::check(ldlt ? "factor.ldlt" : "factor.lu", attempt);
    factor();
  } catch (const Error& e) {
    ok = false;
    *failure = e.what();
  }
  obs::instant("factor_chain.attempt",
               {obs::arg("attempt", attempt), obs::arg("ldlt", ldlt ? 1.0 : 0.0),
                obs::arg("success", ok ? 1.0 : 0.0)});
  return ok;
}

}  // namespace

template <typename T>
FactorChain<T>::FactorChain(const SparseMatrix<T>& a,
                            std::shared_ptr<const LdltSymbolic> symbolic) {
  require(a.rows() == a.cols(), ErrorCode::kInvalidArgument,
          "FactorChain: matrix must be square");
  std::string ldlt_failure, lu_failure;
  if (try_rung(0, /*ldlt=*/true, &ldlt_failure, [&] {
        if (symbolic != nullptr)
          ldlt_.emplace(a, std::move(symbolic), /*zero_pivot_tol=*/0.0);
        else
          ldlt_.emplace(a, kDefaultOrdering, /*zero_pivot_tol=*/0.0);
      }))
    return;
  if (try_rung(1, /*ldlt=*/false, &lu_failure, [&] {
        lu_.emplace(a, kDefaultOrdering, /*pivot_threshold=*/1.0,
                    /*zero_pivot_tol=*/0.0);
      }))
    return;
  throw Error(ErrorCode::kSingular,
              "FactorChain: every factorization rung failed [ldlt: " +
                  ldlt_failure + "; lu: " + lu_failure + "]",
              {.stage = "factor_chain"});
}

template <typename T>
std::vector<T> FactorChain<T>::solve(const std::vector<T>& b) const {
  return ldlt_ ? ldlt_->solve(b) : lu_->solve(b);
}

template <typename T>
Matrix<T> FactorChain<T>::solve(const Matrix<T>& b) const {
  if (ldlt_) return ldlt_->solve(b);
  Matrix<T> x(b.rows(), b.cols());
  for (Index j = 0; j < b.cols(); ++j) x.set_col(j, lu_->solve(b.col(j)));
  return x;
}

template class FactorChain<double>;
template class FactorChain<Complex>;

}  // namespace sympvl
