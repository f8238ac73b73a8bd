// Thread scaling of the numeric LDLᵀ (DESIGN.md §5.6) on perfbench's
// seeded RC power grid: its real pencil at the automatic shift and
// G + jωC at 10 MHz, each refactored on one shared analysis at 1, 2 and
// 4 threads. Each row prints the fastest of `reps` factors, its speedup
// over 1 thread and an FNV-1a digest of D, which must read the same on
// every row of a pencil (the factor keeps its bits at any width).
//
//   bench_factor_threads [rows] [reps]
//
// rows defaults to 384 (grid_147k's seed-1 netlist: 147,456 unknowns);
// 1000 gives the 10⁶-unknown grid. reps defaults to 5.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>

#include "../perfbench/netgen.hpp"
#include "circuit/mna.hpp"
#include "circuit/parser.hpp"
#include "linalg/factorized_pencil.hpp"
#include "linalg/sparse_ldlt.hpp"
#include "mor/pencil.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using namespace sympvl;

template <typename T>
std::uint64_t fnv(const std::vector<T>& v) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* c = reinterpret_cast<const unsigned char*>(v.data());
  for (size_t i = 0; i < v.size() * sizeof(T); ++i) {
    h ^= c[i];
    h *= 1099511628211ull;
  }
  return h;
}

template <typename T>
void scale(const char* pencil, const SparseMatrix<T>& a, int reps) {
  set_num_threads(1);
  const auto sym = std::make_shared<const LdltSymbolic>(a, Ordering::kNestedDissection);
  double base = 0.0;
  for (const Index threads : {1, 2, 4}) {
    set_num_threads(threads);
    double best = std::numeric_limits<double>::infinity();
    std::uint64_t digest = 0;
    for (int k = 0; k < reps; ++k) {
      const auto t0 = std::chrono::steady_clock::now();
      const SparseLDLT<T> f(a, sym, 0.0);
      best = std::min(best, std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
      digest = fnv(f.d());
    }
    if (threads == 1) base = best;
    std::printf("%s,%ld,%.4f,%.2f,%016llx\n", pencil, static_cast<long>(threads),
                best, base / best, static_cast<unsigned long long>(digest));
    std::fflush(stdout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const long rows = argc > 1 ? std::atol(argv[1]) : 384;
  const int reps = argc > 2 ? std::atoi(argv[2]) : 5;
  if (rows < 2 || reps < 1) {
    std::fprintf(stderr, "usage: bench_factor_threads [rows >= 2] [reps >= 1]\n");
    return 2;
  }
  const MnaSystem sys = build_mna(parse_netlist(perfbench::rc_grid_netlist(
      rows, rows, 16, perfbench::mix_seed(1, 0))));
  std::printf("### numeric LDLT thread scaling, %ldx%ld RC grid (seed 1), n = %ld\n",
              rows, rows, static_cast<long>(sys.size()));
  std::printf("pencil,threads,min_s,speedup,d_fnv\n");
  scale("real", assemble_pencil(sys.G, sys.C, automatic_shift(sys)), reps);
  scale("complex", pencil_combine(sys.G, sys.C, sys.map_s(Complex(0.0, 2.0 * M_PI * 1e7))),
        reps);
  set_num_threads(0);
  return 0;
}
