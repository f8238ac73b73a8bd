// Fill-reducing orderings for sparse symmetric factorization.
//
// Nested dissection (kDefaultOrdering) orders every factor that does not
// name an ordering: on mesh-like MNA patterns it leaves far less fill
// than reverse Cuthill-McKee, which stays available as a cheap
// small-bandwidth alternative, as do minimum degree and the natural order.
#pragma once

#include <vector>

#include "linalg/sparse.hpp"

namespace sympvl {

/// Fill-reducing pre-ordering selector for the sparse factorizations.
enum class Ordering {
  kNatural,           ///< factor A as given
  kRCM,               ///< reverse Cuthill-McKee pre-ordering
  kMinDegree,         ///< quotient-graph minimum-degree ordering
  kNestedDissection,  ///< recursive level-set bisection, min-degree leaves
};

/// The one default ordering of every factorization, reduction option and
/// daemon request that does not set one.
inline constexpr Ordering kDefaultOrdering = Ordering::kNestedDissection;

/// Stable display name (used in telemetry and reports).
inline const char* ordering_name(Ordering o) {
  switch (o) {
    case Ordering::kNatural: return "natural";
    case Ordering::kRCM: return "rcm";
    case Ordering::kMinDegree: return "mindegree";
    case Ordering::kNestedDissection: return "nd";
  }
  return "unknown";
}

/// Symmetric adjacency structure (pattern of A + Aᵀ without the diagonal).
struct AdjacencyGraph {
  std::vector<Index> ptr;  // size n+1
  std::vector<Index> adj;  // neighbor lists

  Index size() const { return static_cast<Index>(ptr.size()) - 1; }
  Index degree(Index v) const {
    return ptr[static_cast<size_t>(v) + 1] - ptr[static_cast<size_t>(v)];
  }
};

/// Builds the undirected adjacency graph of a square sparse pattern.
template <typename T>
AdjacencyGraph build_graph(const SparseMatrix<T>& a);

/// Reverse Cuthill-McKee ordering. Returns `perm` with perm[new] = old.
/// Handles disconnected graphs (each component ordered from a
/// pseudo-peripheral start node).
std::vector<Index> rcm_ordering(const AdjacencyGraph& g);

/// Convenience: RCM permutation of a sparse symmetric matrix's pattern.
template <typename T>
std::vector<Index> rcm_ordering(const SparseMatrix<T>& a) {
  return rcm_ordering(build_graph(a));
}

/// Minimum-degree ordering on the quotient (elimination) graph: at every
/// step the variable of smallest external degree is eliminated and its
/// neighborhood merged into a new element. Produces markedly less fill
/// than RCM on mesh-like circuits (see bench_ordering_ablation); RCM
/// remains cheaper to compute.
std::vector<Index> min_degree_ordering(const AdjacencyGraph& g);

template <typename T>
std::vector<Index> min_degree_ordering(const SparseMatrix<T>& a) {
  return min_degree_ordering(build_graph(a));
}

/// Partitions at or below this node count are ordered by min-degree
/// instead of being bisected further.
inline constexpr Index kNestedDissectionLeafSize = 64;

/// Nested-dissection ordering: recursive graph bisection via BFS level-set
/// separators (with one-sided separator refinement), separators numbered
/// last, and a quotient-graph min-degree fallback on leaf partitions. No
/// external partitioner; fully serial and deterministic. On large 2D
/// meshes the fill scales O(n log n) versus min-degree's larger constant,
/// and the elimination tree is deeper-balanced, which feeds the level-set
/// parallel supernodal factorization wider independent subtrees.
std::vector<Index> nested_dissection_ordering(const AdjacencyGraph& g);

template <typename T>
std::vector<Index> nested_dissection_ordering(const SparseMatrix<T>& a) {
  return nested_dissection_ordering(build_graph(a));
}

/// Dispatch on the Ordering enum (kNatural/kRCM/kMinDegree/
/// kNestedDissection).
template <typename T>
std::vector<Index> make_ordering(const SparseMatrix<T>& a, Ordering ordering);

/// Identity permutation of size n.
std::vector<Index> natural_ordering(Index n);

/// Number of off-diagonal L entries the Cholesky/LDLᵀ factorization of the
/// pattern would create under the given permutation (symbolic count via
/// the elimination tree).
template <typename T>
Index symbolic_fill(const SparseMatrix<T>& a, const std::vector<Index>& perm);

/// Symbolic factorization statistics of a pattern under a permutation.
struct SymbolicStats {
  Index fill = 0;          ///< off-diagonal L entries (== symbolic_fill)
  Index etree_height = 0;  ///< nodes on the longest root-to-leaf etree path
};

/// Fill and elimination-tree height in one pass. A lower etree height
/// means more independent subtrees for the level-set parallel supernodal
/// factorization (the critical path is proportional to the height).
template <typename T>
SymbolicStats symbolic_stats(const SparseMatrix<T>& a,
                             const std::vector<Index>& perm);

extern template std::vector<Index> make_ordering<double>(const SMat&, Ordering);
extern template std::vector<Index> make_ordering<Complex>(const CSMat&, Ordering);
extern template Index symbolic_fill<double>(const SMat&, const std::vector<Index>&);
extern template Index symbolic_fill<Complex>(const CSMat&, const std::vector<Index>&);
extern template SymbolicStats symbolic_stats<double>(const SMat&,
                                                     const std::vector<Index>&);
extern template SymbolicStats symbolic_stats<Complex>(
    const CSMat&, const std::vector<Index>&);

/// Bandwidth of a square sparse matrix (max |i-j| over stored entries).
template <typename T>
Index bandwidth(const SparseMatrix<T>& a);

extern template AdjacencyGraph build_graph<double>(const SMat&);
extern template AdjacencyGraph build_graph<Complex>(const CSMat&);
extern template Index bandwidth<double>(const SMat&);
extern template Index bandwidth<Complex>(const CSMat&);

}  // namespace sympvl
