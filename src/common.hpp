// Common utilities shared across the SyMPVL library.
#pragma once

#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace sympvl {

using Index = std::ptrdiff_t;
using Complex = std::complex<double>;

/// Failure taxonomy carried by every sympvl::Error. Codes are stable
/// identifiers for programmatic dispatch; error_code_name() gives the
/// log/wire spelling. The split mirrors where the reduction pipeline can
/// actually fail: caller mistakes, factorization trouble (zero pivot,
/// outright singularity), Lanczos breakdown, per-frequency sweep
/// failures, I/O, and deliberately injected faults.
enum class ErrorCode {
  kUnknown = 0,       ///< legacy string-only errors (no taxonomy info)
  kInvalidArgument,   ///< malformed caller input (validation failures)
  kZeroPivot,         ///< unpivoted LDLᵀ hit an exact/relative zero pivot
  kSingular,          ///< matrix or pencil singular after all pivoting options
  kBreakdown,         ///< Lanczos recurrence could not continue (δ ≈ 0 /
                      ///< look-ahead cluster failed to close)
  kSweepPointFailed,  ///< one frequency point of a sweep failed
  kIo,                ///< file / serialization failure
  kFaultInjected,     ///< SYMPVL_FAULT / fault::arm forced this failure
};

inline const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kUnknown: return "unknown";
    case ErrorCode::kInvalidArgument: return "invalid_argument";
    case ErrorCode::kZeroPivot: return "zero_pivot";
    case ErrorCode::kSingular: return "singular";
    case ErrorCode::kBreakdown: return "breakdown";
    case ErrorCode::kSweepPointFailed: return "sweep_point_failed";
    case ErrorCode::kIo: return "io";
    case ErrorCode::kFaultInjected: return "fault_injected";
  }
  return "unknown";
}

/// Context payload attached to structured errors: which pipeline stage
/// failed, which pivot/iteration/frequency-point index and the offending
/// magnitude. Every field defaults to "absent" so call sites only fill
/// what they know.
struct ErrorContext {
  std::string stage;      ///< dot-separated site, e.g. "ldlt.factor"
  Index index = -1;       ///< pivot column / Lanczos iteration / sweep point
  double value = 0.0;     ///< offending magnitude (pivot, min |λ(Δ)|, …)
  /// Frequency point (pencil variable) for sweep failures; NaN = absent.
  Complex frequency{std::numeric_limits<double>::quiet_NaN(), 0.0};
  bool has_frequency() const { return !std::isnan(frequency.real()); }
};

/// Error thrown on invalid arguments or numerical failure anywhere in the
/// library. All public entry points validate their inputs and throw this
/// (never assert) so callers can recover. Numerical failures carry an
/// ErrorCode plus an ErrorContext describing the failing stage; the
/// string-only constructor remains for legacy call sites and maps to
/// ErrorCode::kUnknown.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
  Error(ErrorCode code, const std::string& what, ErrorContext context = {})
      : std::runtime_error(what), code_(code), context_(std::move(context)) {}

  ErrorCode code() const noexcept { return code_; }
  const ErrorContext& context() const noexcept { return context_; }

  /// One-line structured rendering:
  /// "[zero_pivot @ ldlt.factor #17] message (value=…, s=(…))".
  std::string describe() const {
    std::string out = "[";
    out += error_code_name(code_);
    if (!context_.stage.empty()) out += " @ " + context_.stage;
    if (context_.index >= 0) out += " #" + std::to_string(context_.index);
    out += "] ";
    out += what();
    std::string detail;
    if (context_.value != 0.0)
      detail += "value=" + std::to_string(context_.value);
    if (context_.has_frequency())
      detail += (detail.empty() ? "" : ", ") + std::string("s=(") +
                std::to_string(context_.frequency.real()) + "," +
                std::to_string(context_.frequency.imag()) + ")";
    if (!detail.empty()) out += " (" + detail + ")";
    return out;
  }

 private:
  ErrorCode code_ = ErrorCode::kUnknown;
  ErrorContext context_;
};

/// Throws sympvl::Error with `msg` when `cond` is false (legacy,
/// code = kUnknown).
inline void require(bool cond, const std::string& msg) {
  if (!cond) throw Error(msg);
}

/// Literal form: the message string is built only on failure, so a
/// passing check on a hot path allocates nothing.
inline void require(bool cond, const char* msg) {
  if (!cond) throw Error(msg);
}

/// Coded variant: throws Error(code, msg, context) when `cond` is false.
inline void require(bool cond, ErrorCode code, const std::string& msg,
                    ErrorContext context = {}) {
  if (!cond) throw Error(code, msg, std::move(context));
}

/// Coded literal form (message built only on failure).
inline void require(bool cond, ErrorCode code, const char* msg,
                    ErrorContext context = {}) {
  if (!cond) throw Error(code, msg, std::move(context));
}

/// The standard 64-bit FNV-1a offset basis.
inline constexpr std::uint64_t kFnv1aBasis = 14695981039346656037ull;

/// 64-bit FNV-1a over `bytes` raw bytes, continuing from `h`: the one hash
/// behind the factor cache's keys and the serving registry's ROM keys.
inline std::uint64_t fnv1a(const void* data, std::size_t bytes,
                           std::uint64_t h = kFnv1aBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Scalar traits used by templated numerical kernels: the associated real
/// type and a uniform absolute-value.
template <typename T>
struct ScalarTraits {
  using Real = T;
  static Real abs(T x) { return x < T(0) ? -x : x; }
  static T conj(T x) { return x; }
};

template <typename R>
struct ScalarTraits<std::complex<R>> {
  using Real = R;
  static Real abs(const std::complex<R>& x) { return std::abs(x); }
  static std::complex<R> conj(const std::complex<R>& x) { return std::conj(x); }
};

}  // namespace sympvl
