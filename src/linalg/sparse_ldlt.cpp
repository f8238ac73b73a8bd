#include "linalg/sparse_ldlt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>

#include "fault.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace sympvl {
namespace {

// Parallel grain gate of the backward panel solve: an elimination-tree
// level fans out across the thread pool only when it holds at least two
// supernodes AND enough dense work to amortize the dispatch. Work is
// measured in dense panel entries times the RHS block width — a
// deterministic function of the symbolic analysis, so the schedule never
// depends on timing.
constexpr double kSolveGrainEntries = 65536.0;

}  // namespace

template <typename T>
LdltSymbolic::LdltSymbolic(const SparseMatrix<T>& a, Ordering ordering)
    : n_(a.rows()), ordering_(ordering) {
  obs::ScopedTimer span("ldlt.symbolic");
  {
    obs::ScopedTimer ordering_span("ldlt.ordering");
    perm_ = make_ordering(a, ordering);
    ordering_span.arg("n", n_);
    ordering_span.arg("ordering", ordering_name(ordering_));
  }
  analyze(a.colptr(), a.rowind());
  mem_charge_ = obs::MemCharge(obs::byte_gauge("mem.factor_bytes"), bytes());
  span.arg("n", n_);
  span.arg("nnz_l", l_nnz());
  span.arg("supernodes", supernode_count());
  span.arg("ordering", ordering_name(ordering_));
}

template LdltSymbolic::LdltSymbolic(const SMat&, Ordering);
template LdltSymbolic::LdltSymbolic(const CSMat&, Ordering);

void LdltSymbolic::analyze(const std::vector<Index>& colptr,
                           const std::vector<Index>& rowind) {
  require(static_cast<Index>(perm_.size()) == n_,
          "LdltSymbolic: permutation size mismatch");
  perm_inv_.resize(static_cast<size_t>(n_));
  for (Index k = 0; k < n_; ++k)
    perm_inv_[static_cast<size_t>(perm_[static_cast<size_t>(k)])] = k;

  // ---- Permuted pattern with source mapping (counting sort by new
  // column, then sort each column by new row, carrying the original entry
  // index as payload). ----
  const Index nnz = static_cast<Index>(rowind.size());
  std::vector<Index> count(static_cast<size_t>(n_) + 1, 0);
  for (Index j = 0; j < n_; ++j) {
    const Index jnew = perm_inv_[static_cast<size_t>(j)];
    count[static_cast<size_t>(jnew) + 1] += colptr[static_cast<size_t>(j) + 1] -
                                            colptr[static_cast<size_t>(j)];
  }
  for (size_t k = 1; k <= static_cast<size_t>(n_); ++k) count[k] += count[k - 1];
  p_colptr_ = count;
  p_rowind_.resize(static_cast<size_t>(nnz));
  source_.resize(static_cast<size_t>(nnz));
  {
    std::vector<Index> next(count);
    for (Index j = 0; j < n_; ++j) {
      const Index jnew = perm_inv_[static_cast<size_t>(j)];
      for (Index p = colptr[static_cast<size_t>(j)];
           p < colptr[static_cast<size_t>(j) + 1]; ++p) {
        const Index pos = next[static_cast<size_t>(jnew)]++;
        p_rowind_[static_cast<size_t>(pos)] =
            perm_inv_[static_cast<size_t>(rowind[static_cast<size_t>(p)])];
        source_[static_cast<size_t>(pos)] = p;
      }
    }
    // Sort each permuted column by row index (payload follows).
    std::vector<Index> order;
    for (Index jn = 0; jn < n_; ++jn) {
      const Index beg = p_colptr_[static_cast<size_t>(jn)];
      const Index end = p_colptr_[static_cast<size_t>(jn) + 1];
      order.resize(static_cast<size_t>(end - beg));
      for (Index k = 0; k < end - beg; ++k) order[static_cast<size_t>(k)] = beg + k;
      std::sort(order.begin(), order.end(), [&](Index a, Index b) {
        return p_rowind_[static_cast<size_t>(a)] < p_rowind_[static_cast<size_t>(b)];
      });
      std::vector<Index> rtmp(order.size()), stmp(order.size());
      for (size_t k = 0; k < order.size(); ++k) {
        rtmp[k] = p_rowind_[static_cast<size_t>(order[k])];
        stmp[k] = source_[static_cast<size_t>(order[k])];
      }
      for (size_t k = 0; k < order.size(); ++k) {
        p_rowind_[static_cast<size_t>(beg) + k] = rtmp[k];
        source_[static_cast<size_t>(beg) + k] = stmp[k];
      }
    }
  }

  // ---- Elimination tree and column counts (LDL, Davis) on the permuted
  // upper-triangular pattern. ----
  std::vector<Index> parent(static_cast<size_t>(n_), -1);
  std::vector<Index> lnz(static_cast<size_t>(n_), 0);
  std::vector<Index> flag(static_cast<size_t>(n_), -1);
  for (Index k = 0; k < n_; ++k) {
    flag[static_cast<size_t>(k)] = k;
    for (Index p = p_colptr_[static_cast<size_t>(k)];
         p < p_colptr_[static_cast<size_t>(k) + 1]; ++p) {
      Index i = p_rowind_[static_cast<size_t>(p)];
      if (i >= k) continue;
      while (flag[static_cast<size_t>(i)] != k) {
        if (parent[static_cast<size_t>(i)] == -1) parent[static_cast<size_t>(i)] = k;
        ++lnz[static_cast<size_t>(i)];
        flag[static_cast<size_t>(i)] = k;
        i = parent[static_cast<size_t>(i)];
      }
    }
  }
  l_nnz_ = 0;
  for (const Index c : lnz) l_nnz_ += c;

  // ---- Supernode partition and panel layout. The below rows of a
  // supernode are the pattern of its last column (the partition only
  // merges elimination-tree chains). ----
  const SupernodePartition part = detect_supernodes(parent, lnz);
  super_start_ = part.start;
  panel_zeros_ = part.zeros;
  max_panel_width_ = part.max_width();
  const Index nsuper = supernode_count();
  std::vector<Index> super_of_col(static_cast<size_t>(n_));
  row_ptr_.assign(static_cast<size_t>(nsuper) + 1, 0);
  panel_offset_.assign(static_cast<size_t>(nsuper) + 1, 0);
  for (Index s = 0; s < nsuper; ++s) {
    const Index a = first_col(s);
    const Index e = a + width(s);
    const Index r = lnz[static_cast<size_t>(e - 1)];
    for (Index j = a; j < e; ++j) super_of_col[static_cast<size_t>(j)] = s;
    row_ptr_[static_cast<size_t>(s) + 1] = row_ptr_[static_cast<size_t>(s)] + r;
    panel_offset_[static_cast<size_t>(s) + 1] =
        panel_offset_[static_cast<size_t>(s)] + (e - a + r) * (e - a);
  }

  // ---- Row lists: a second ereach sweep appending row k to the list of
  // every supernode whose last column lies on row k's pattern. Appends
  // happen in ascending k, so each list comes out sorted. ----
  rows_.resize(static_cast<size_t>(row_ptr_[static_cast<size_t>(nsuper)]));
  {
    std::vector<Index> cursor(row_ptr_.begin(), row_ptr_.end() - 1);
    std::fill(flag.begin(), flag.end(), -1);
    for (Index k = 0; k < n_; ++k) {
      flag[static_cast<size_t>(k)] = k;
      for (Index p = p_colptr_[static_cast<size_t>(k)];
           p < p_colptr_[static_cast<size_t>(k) + 1]; ++p) {
        Index i = p_rowind_[static_cast<size_t>(p)];
        if (i >= k) continue;
        while (flag[static_cast<size_t>(i)] != k) {
          const Index s = super_of_col[static_cast<size_t>(i)];
          if (super_start_[static_cast<size_t>(s) + 1] == i + 1)
            rows_[static_cast<size_t>(cursor[static_cast<size_t>(s)]++)] = k;
          flag[static_cast<size_t>(i)] = k;
          i = parent[static_cast<size_t>(i)];
        }
      }
    }
  }

  // ---- Descendant update segments, CSR by TARGET supernode. Each
  // below-row run of supernode d landing in target t's columns becomes
  // one segment; iterating d ascending in both passes leaves every
  // target's segment list d-ascending. ----
  auto for_each_segment = [&](auto&& emit) {
    for (Index d = 0; d < nsuper; ++d) {
      const Index rd = below(d);
      const Index* rowsd = rows(d);
      Index p1 = 0;
      while (p1 < rd) {
        const Index t = super_of_col[static_cast<size_t>(rowsd[p1])];
        const Index et = super_start_[static_cast<size_t>(t) + 1];
        Index p2 = p1;
        while (p2 < rd && rowsd[p2] < et) ++p2;
        emit(d, t, p1, p2);
        p1 = p2;
      }
    }
  };
  upd_ptr_.assign(static_cast<size_t>(nsuper) + 1, 0);
  for_each_segment([&](Index, Index t, Index, Index) {
    ++upd_ptr_[static_cast<size_t>(t) + 1];
  });
  for (Index s = 0; s < nsuper; ++s)
    upd_ptr_[static_cast<size_t>(s) + 1] += upd_ptr_[static_cast<size_t>(s)];
  const Index nseg = upd_ptr_[static_cast<size_t>(nsuper)];
  upd_src_.resize(static_cast<size_t>(nseg));
  upd_p1_.resize(static_cast<size_t>(nseg));
  upd_p2_.resize(static_cast<size_t>(nseg));
  {
    std::vector<Index> cursor(upd_ptr_.begin(), upd_ptr_.end() - 1);
    for_each_segment([&](Index d, Index t, Index p1, Index p2) {
      const Index u = cursor[static_cast<size_t>(t)]++;
      upd_src_[static_cast<size_t>(u)] = d;
      upd_p1_[static_cast<size_t>(u)] = p1;
      upd_p2_[static_cast<size_t>(u)] = p2;
    });
  }

  // ---- Supernodal elimination tree and its level sets. The parent of s
  // is the supernode owning s's first below row — always a later
  // supernode, and (because each supernode is an elimination-tree chain)
  // every below row of s lives on s's supernodal ancestor path. A level
  // is therefore an antichain: its supernodes share no rows, so the
  // backward panel solve runs a level's supernodes concurrently. ----
  std::vector<Index> slevel(static_cast<size_t>(nsuper), 0);
  Index nlevels = nsuper > 0 ? 1 : 0;
  for (Index s = 0; s < nsuper; ++s) {
    if (below(s) == 0) continue;
    const Index up = super_of_col[static_cast<size_t>(rows(s)[0])];
    slevel[static_cast<size_t>(up)] =
        std::max(slevel[static_cast<size_t>(up)], slevel[static_cast<size_t>(s)] + 1);
    nlevels = std::max(nlevels, slevel[static_cast<size_t>(up)] + 1);
  }
  level_ptr_.assign(static_cast<size_t>(nlevels) + 1, 0);
  for (Index s = 0; s < nsuper; ++s)
    ++level_ptr_[static_cast<size_t>(slevel[static_cast<size_t>(s)]) + 1];
  for (Index l = 0; l < nlevels; ++l)
    level_ptr_[static_cast<size_t>(l) + 1] += level_ptr_[static_cast<size_t>(l)];
  level_order_.resize(static_cast<size_t>(nsuper));
  level_work_.assign(static_cast<size_t>(std::max<Index>(nlevels, 1)), 0.0);
  {
    std::vector<Index> cursor(level_ptr_.begin(), level_ptr_.end() - 1);
    for (Index s = 0; s < nsuper; ++s) {
      const Index l = slevel[static_cast<size_t>(s)];
      level_order_[static_cast<size_t>(cursor[static_cast<size_t>(l)]++)] = s;
      level_work_[static_cast<size_t>(l)] += static_cast<double>(
          panel_offset_[static_cast<size_t>(s) + 1] -
          panel_offset_[static_cast<size_t>(s)]);
    }
  }
}

template <typename T>
void SparseLDLT<T>::require_symmetric(const SparseMatrix<T>& a) {
  require(a.rows() == a.cols(), "SparseLDLT: matrix not square");
  typename ScalarTraits<T>::Real amax(0);
  for (const auto& v : a.values()) amax = std::max(amax, ScalarTraits<T>::abs(v));
  require(a.asymmetry() <= 1e-10 * (1.0 + amax),
          "SparseLDLT: matrix not symmetric");
}

template <typename T>
std::shared_ptr<const LdltSymbolic> SparseLDLT<T>::analyze(
    const SparseMatrix<T>& a, Ordering ordering) {
  require_symmetric(a);
  return std::make_shared<const LdltSymbolic>(a, ordering);
}

template <typename T>
SparseLDLT<T>::SparseLDLT(const SparseMatrix<T>& a, Ordering ordering,
                          double zero_pivot_tol, const KernelOptions& kernels)
    : SparseLDLT(a, analyze(a, ordering), zero_pivot_tol, kernels) {}

template <typename T>
SparseLDLT<T>::SparseLDLT(const SparseMatrix<T>& a,
                          std::shared_ptr<const LdltSymbolic> symbolic,
                          double zero_pivot_tol, const KernelOptions& kernels)
    : symbolic_(std::move(symbolic)), simd_(resolve_simd_level(kernels.simd)) {
  obs::ScopedTimer span("ldlt.factor");
  require(symbolic_ != nullptr, "SparseLDLT: null symbolic analysis");
  require(a.rows() == a.cols() && a.rows() == symbolic_->n_,
          "SparseLDLT: size does not match the symbolic analysis");
  require(a.nnz() == static_cast<Index>(symbolic_->source_.size()),
          "SparseLDLT: pattern does not match the symbolic analysis");
  n_ = a.rows();
  factorize(a, zero_pivot_tol);
  span.arg("n", n_);
  span.arg("nnz_a", a.nnz());
  span.arg("nnz_l", l_nnz());
  span.arg("fill_ratio", fill_ratio_);
  span.arg("flops", flops_);
  span.arg("pivot_ratio", pivot_ratio_);
  span.arg("ordering", ordering_name(symbolic_->ordering_));
  span.arg("supernodes", supernode_count());
  span.arg("max_panel_width", max_panel_width());
  span.arg("simd", simd_level_name(simd_));
}

namespace {

// The zero-pivot rejection (the fault-injection tests expect this exact
// code/context).
template <typename T>
inline void accept_pivot(Index k, const T& dval, double pivot_floor,
                         double& dmin, double& dmax) {
  const double dk = ScalarTraits<T>::abs(dval);
  fault::check("ldlt.pivot", k);
  if (!(dk != 0.0 && dk > pivot_floor))
    throw Error(ErrorCode::kZeroPivot,
                "SparseLDLT: zero pivot encountered (matrix singular or not "
                "quasi-definite; consider a frequency shift, eq. 26)",
                ErrorContext{.stage = "ldlt.factor", .index = k, .value = dk});
  dmin = std::min(dmin, dk);
  dmax = std::max(dmax, dk);
}

}  // namespace

template <typename T>
void SparseLDLT<T>::factorize(const SparseMatrix<T>& a, double zero_pivot_tol) {
  const LdltSymbolic& sym = *symbolic_;
  const auto& colptr = sym.p_colptr_;
  const auto& rowind = sym.p_rowind_;

  // Gather the values into permuted order via the precomputed mapping.
  std::vector<T> values(sym.source_.size());
  for (size_t k = 0; k < values.size(); ++k)
    values[k] = a.values()[static_cast<size_t>(sym.source_[k])];

  double amax = 0.0;
  for (const auto& v : values) amax = std::max(amax, ScalarTraits<T>::abs(v));
  const double pivot_floor = zero_pivot_tol * amax;

  d_.assign(static_cast<size_t>(n_), T(0));
  double dmin = std::numeric_limits<double>::infinity();
  double dmax = 0.0;

  const Index nsuper = sym.supernode_count();
  const Index max_w = sym.max_panel_width();
  Index max_r = 0;
  for (Index s = 0; s < nsuper; ++s) max_r = std::max(max_r, sym.below(s));
  panel_data_.assign(static_cast<size_t>(sym.panel_entries()), T(0));

  // ---- Numeric phase: one ascending serial sweep — every descendant
  // precedes its ancestors — with one workspace. Each panel's arithmetic
  // is fully determined by its contents and the d-ascending segment
  // order. (Fanning elimination-tree levels out across the pool measured
  // no reliable gain at 2 threads and 1.15–1.34× at 4; DESIGN.md §5.6.)
  const auto& K = kernels::panel_kernels<T>(simd_);
  std::vector<T> wbuf(static_cast<size_t>(max_w) * static_cast<size_t>(max_w));
  std::vector<T> cbuf(static_cast<size_t>(std::max<Index>(max_r + max_w, 1)) *
                      static_cast<size_t>(std::max<Index>(max_w, 1)));
  std::vector<Index> local(static_cast<size_t>(n_), -1);
  Index* row_local = local.data();
  double flops = 0.0;

  obs::ScopedTimer span("kernel.panel_update");
  for (Index s = 0; s < nsuper; ++s) {
    const Index a0 = sym.first_col(s);
    const Index w = sym.width(s);
    const Index e = a0 + w;
    const Index r = sym.below(s);
    const Index h = w + r;
    const Index* rows = sym.rows(s);
    T* panel = panel_data_.data() + sym.panel_offset_[static_cast<size_t>(s)];

    for (Index jj = 0; jj < w; ++jj) row_local[a0 + jj] = jj;
    for (Index i = 0; i < r; ++i) row_local[rows[i]] = w + i;

    // Assemble the lower triangle of A's panel columns.
    for (Index j = a0; j < e; ++j) {
      T* col = panel + (j - a0) * h;
      for (Index p = colptr[static_cast<size_t>(j)];
           p < colptr[static_cast<size_t>(j) + 1]; ++p) {
        const Index i = rowind[static_cast<size_t>(p)];
        if (i < j) continue;
        col[row_local[i]] += values[static_cast<size_t>(p)];
      }
    }

    // Pull every incoming descendant segment: the extended update
    // C = L_d[p1:,:]·D_d·L_d[p1:p2,:]ᵀ lands entirely in this panel
    // (rows of d beyond the target's columns are a subset of the
    // target's below rows).
    for (Index u = sym.upd_ptr_[static_cast<size_t>(s)];
         u < sym.upd_ptr_[static_cast<size_t>(s) + 1]; ++u) {
      const Index d = sym.upd_src_[static_cast<size_t>(u)];
      const Index da = sym.first_col(d);
      const Index wd = sym.width(d);
      const Index rd = sym.below(d);
      const Index hd = wd + rd;
      const Index* rowsd = sym.rows(d);
      const T* dpanel =
          panel_data_.data() + sym.panel_offset_[static_cast<size_t>(d)];
      const Index p1 = sym.upd_p1_[static_cast<size_t>(u)];
      const Index p2 = sym.upd_p2_[static_cast<size_t>(u)];
      const Index m = rd - p1;
      const Index q = p2 - p1;
      // W(i,j) = L_d(p1+i, j) · d_j  — the D-scaled middle segment.
      K.scale_cols(q, wd, dpanel + wd + p1, hd, d_.data() + da, wbuf.data(),
                   q);
      std::fill(cbuf.begin(),
                cbuf.begin() + static_cast<size_t>(m) * static_cast<size_t>(q),
                T(0));
      K.gemm_nt_acc(m, q, wd, dpanel + wd + p1, hd, wbuf.data(), q, cbuf.data(),
                    m);
      flops += 2.0 * static_cast<double>(m) * static_cast<double>(q) *
                   static_cast<double>(wd) +
               static_cast<double>(q) * static_cast<double>(wd);
      // Scatter-subtract the lower triangle (rows_d ascending, so rr >= c
      // is exactly the lower part).
      for (Index c = 0; c < q; ++c) {
        T* colt = panel + row_local[rowsd[p1 + c]] * h;
        const T* csrc = cbuf.data() + c * m;
        for (Index rr = c; rr < m; ++rr)
          colt[row_local[rowsd[p1 + rr]]] -= csrc[rr];
      }
    }

    // Dense in-panel factorization; pivots accepted per global column in
    // ascending order.
    flops += kernels::panel_ldlt(K, h, w, panel, [&](Index jj, const T& dj) {
      const Index k = a0 + jj;
      d_[static_cast<size_t>(k)] = dj;
      accept_pivot(k, dj, pivot_floor, dmin, dmax);
    });

    for (Index jj = 0; jj < w; ++jj) row_local[a0 + jj] = -1;
    for (Index i = 0; i < r; ++i) row_local[rows[i]] = -1;
  }
  span.arg("supernodes", nsuper);
  span.arg("levels", static_cast<Index>(sym.level_ptr_.size()) - 1);
  span.arg("simd", simd_level_name(simd_));
  span.arg("flops", flops);
  span.close();
  flops_ = flops;

  pivot_ratio_ = (dmax > 0.0) ? dmin / dmax : 0.0;
  // Fill-in relative to the lower triangle of A (A is stored with both
  // triangles; (nnz + n)/2 is its lower-triangle count incl. diagonal).
  fill_ratio_ = static_cast<double>(l_nnz() + n_) /
                std::max(1.0, (static_cast<double>(a.nnz()) +
                               static_cast<double>(n_)) / 2.0);

  sqrt_abs_d_.resize(static_cast<size_t>(n_));
  for (Index k = 0; k < n_; ++k)
    sqrt_abs_d_[static_cast<size_t>(k)] =
        std::sqrt(ScalarTraits<T>::abs(d_[static_cast<size_t>(k)]));

  mem_charge_ = obs::MemCharge(obs::byte_gauge("mem.factor_bytes"),
                               factor_bytes());
}

template <typename T>
SparseMatrix<T> SparseLDLT<T>::l_matrix() const {
  const LdltSymbolic& sym = *symbolic_;
  // Column j of supernode s holds its in-panel rows j+1..e-1 and then the
  // below rows, both ascending, so each gathered column is sorted.
  std::vector<Index> colptr(static_cast<size_t>(n_) + 1, 0);
  std::vector<Index> rowind;
  std::vector<T> vals;
  for (Index s = 0; s < sym.supernode_count(); ++s) {
    const Index a0 = sym.first_col(s);
    const Index w = sym.width(s);
    const Index h = w + sym.below(s);
    const Index* rows = sym.rows(s);
    const T* panel = panel_data_.data() + sym.panel_offset_[static_cast<size_t>(s)];
    for (Index jj = 0; jj < w; ++jj) {
      const T* col = panel + jj * h;
      for (Index i = jj + 1; i < h; ++i) {
        if (col[i] == T(0)) continue;
        rowind.push_back(i < w ? a0 + i : rows[i - w]);
        vals.push_back(col[i]);
      }
      colptr[static_cast<size_t>(a0 + jj) + 1] = static_cast<Index>(rowind.size());
    }
  }
  SparseMatrix<T> l(n_, n_);
  l.set_raw(std::move(colptr), std::move(rowind), std::move(vals));
  return l;
}

template <typename T>
void SparseLDLT<T>::panel_forward(T* x, Index nrhs) const {
  const LdltSymbolic& sym = *symbolic_;
  const auto& K = kernels::panel_kernels<T>(simd_);
  obs::ScopedTimer span("kernel.trsm");
  span.arg("phase", "forward");
  span.arg("nrhs", nrhs);
  span.arg("levels", static_cast<Index>(sym.level_ptr_.size()) - 1);
  span.arg("simd", simd_level_name(simd_));
  span.arg("threads", Index{1});
  span.arg("flops", 2.0 * static_cast<double>(panel_data_.size()) *
                        static_cast<double>(nrhs));
  // Serial push: one below_forward over all of s's below rows right after
  // its in-panel solve. Supernodes run in ascending order, so every target
  // row takes its updates in ascending source order. (A level-parallel
  // pull of descendant segments kept these bits but never paid at 2
  // threads and gained at most 13 % at 4; DESIGN.md §5.6.)
  for (Index s = 0; s < sym.supernode_count(); ++s) {
    const Index a0 = sym.first_col(s);
    const Index w = sym.width(s);
    const Index r = sym.below(s);
    const T* panel = panel_data_.data() + sym.panel_offset_[static_cast<size_t>(s)];
    K.trsm_forward(w, panel, w + r, nrhs, x + a0 * nrhs);
    if (r > 0)
      K.below_forward(r, w, nrhs, panel + w, w + r, sym.rows(s), x + a0 * nrhs,
                      x);
  }
}

template <typename T>
void SparseLDLT<T>::panel_backward(T* x, Index nrhs) const {
  const LdltSymbolic& sym = *symbolic_;
  const Index nsuper = sym.supernode_count();
  const auto& level_ptr = sym.level_ptr_;
  const auto& level_order = sym.level_order_;
  const auto& level_work = sym.level_work_;
  const Index nlevels = static_cast<Index>(level_ptr.size()) - 1;
  const auto& K = kernels::panel_kernels<T>(simd_);

  // The backward sweep is naturally a pull: each supernode reads only its
  // own below rows (all on its ancestor path, finalized at higher levels)
  // and writes only its own top rows.
  auto process = [&](Index s) {
    const Index a0 = sym.first_col(s);
    const Index w = sym.width(s);
    const Index r = sym.below(s);
    const T* panel = panel_data_.data() + sym.panel_offset_[static_cast<size_t>(s)];
    if (r > 0)
      K.below_backward(r, w, nrhs, panel + w, w + r, sym.rows(s), x,
                       x + a0 * nrhs);
    K.trsm_backward(w, panel, w + r, nrhs, x + a0 * nrhs);
  };

  const bool can_parallel = num_threads() > 1 && !in_parallel_region();
  const double rhs_scale = static_cast<double>(std::max<Index>(nrhs, 1));
  auto fans_out = [&](Index l) {
    return level_ptr[static_cast<size_t>(l) + 1] -
                   level_ptr[static_cast<size_t>(l)] >= 2 &&
           level_work[static_cast<size_t>(l)] * rhs_scale >= kSolveGrainEntries;
  };
  bool any_parallel_level = false;
  if (can_parallel)
    for (Index l = 0; l < nlevels; ++l) any_parallel_level |= fans_out(l);

  // Span policy: one "kernel.trsm" span on the calling lane for a fully
  // serial sweep, one span per fanned-out chunk on the worker's lane
  // otherwise (small in-between levels run unwrapped — solves happen per
  // sweep point, and per-level micro-spans would dominate the trace).
  if (!any_parallel_level) {
    obs::ScopedTimer span("kernel.trsm");
    span.arg("phase", "backward");
    span.arg("nrhs", nrhs);
    span.arg("levels", nlevels);
    span.arg("simd", simd_level_name(simd_));
    span.arg("threads", Index{1});
    span.arg("flops", 2.0 * static_cast<double>(panel_data_.size()) *
                          static_cast<double>(nrhs));
    for (Index s = nsuper - 1; s >= 0; --s) process(s);
    return;
  }
  for (Index l = nlevels - 1; l >= 0; --l) {
    const Index lb = level_ptr[static_cast<size_t>(l)];
    const Index le = level_ptr[static_cast<size_t>(l) + 1];
    if (fans_out(l)) {
      parallel_for_chunks(lb, le, [&](Index /*rank*/, Index b, Index e2) {
        obs::ScopedTimer cspan("kernel.trsm");
        double entries = 0.0;
        for (Index k = b; k < e2; ++k) {
          const Index s = level_order[static_cast<size_t>(k)];
          entries += static_cast<double>(
              sym.panel_offset_[static_cast<size_t>(s) + 1] -
              sym.panel_offset_[static_cast<size_t>(s)]);
          process(s);
        }
        cspan.arg("phase", "backward");
        cspan.arg("nrhs", nrhs);
        cspan.arg("threads", num_threads());
        cspan.arg("simd", simd_level_name(simd_));
        cspan.arg("flops", 2.0 * entries * static_cast<double>(nrhs));
      });
    } else {
      for (Index k = lb; k < le; ++k)
        process(level_order[static_cast<size_t>(k)]);
    }
  }
}

template <typename T>
std::vector<T> SparseLDLT<T>::solve(const std::vector<T>& b) const {
  require(static_cast<Index>(b.size()) == n_, "SparseLDLT::solve: size mismatch");
  obs::ScopedTimer span("ldlt.solve");
  span.arg("n", n_);
  span.arg("nrhs", Index{1});
  const auto& perm = symbolic_->perm_;
  std::vector<T> x(static_cast<size_t>(n_));
  for (Index i = 0; i < n_; ++i)
    x[static_cast<size_t>(i)] = b[static_cast<size_t>(perm[static_cast<size_t>(i)])];
  panel_forward(x.data(), 1);
  // Same dispatched kernel as the blocked solve's diagonal phase, so
  // solve(vector) stays bit-identical to a column of solve(Matrix).
  kernels::panel_kernels<T>(simd_).diag_solve(n_, 1, d_.data(), x.data());
  panel_backward(x.data(), 1);
  std::vector<T> out(static_cast<size_t>(n_));
  for (Index i = 0; i < n_; ++i)
    out[static_cast<size_t>(perm[static_cast<size_t>(i)])] = x[static_cast<size_t>(i)];
  return out;
}

template <typename T>
Matrix<T> SparseLDLT<T>::solve(const Matrix<T>& b) const {
  require(b.rows() == n_, "SparseLDLT::solve: row count mismatch");
  const Index p = b.cols();
  obs::ScopedTimer span("ldlt.solve");
  span.arg("n", n_);
  span.arg("nrhs", p);
  const auto& perm = symbolic_->perm_;
  // Row-major X: row i is the length-p block for unknown i, so the panel
  // kernels' inner loops run over contiguous memory.
  Matrix<T> x(n_, p);
  for (Index i = 0; i < n_; ++i) {
    const T* src = b.data() + perm[static_cast<size_t>(i)] * p;
    T* dst = x.data() + i * p;
    for (Index r = 0; r < p; ++r) dst[r] = src[r];
  }
  panel_forward(x.data(), p);
  kernels::panel_kernels<T>(simd_).diag_solve(n_, p, d_.data(), x.data());
  panel_backward(x.data(), p);
  Matrix<T> out(n_, p);
  for (Index i = 0; i < n_; ++i) {
    const T* src = x.data() + i * p;
    T* dst = out.data() + perm[static_cast<size_t>(i)] * p;
    for (Index r = 0; r < p; ++r) dst[r] = src[r];
  }
  return out;
}

template <typename T>
Vec SparseLDLT<T>::j_signs() const {
  if constexpr (std::is_same_v<T, double>) {
    Vec j(static_cast<size_t>(n_));
    for (Index k = 0; k < n_; ++k)
      j[static_cast<size_t>(k)] = d_[static_cast<size_t>(k)] > 0.0 ? 1.0 : -1.0;
    return j;
  } else {
    throw Error(ErrorCode::kInvalidArgument,
                "SparseLDLT::j_signs: only defined for real factorizations",
                {.stage = "ldlt"});
  }
}

template <typename T>
Index SparseLDLT<T>::negative_pivots() const {
  if constexpr (std::is_same_v<T, double>) {
    Index c = 0;
    for (const auto& dk : d_)
      if (dk < 0.0) ++c;
    return c;
  } else {
    throw Error(ErrorCode::kInvalidArgument,
                "SparseLDLT::negative_pivots: only defined for real factorizations",
                {.stage = "ldlt"});
  }
}

template <typename T>
void SparseLDLT<T>::scaled_forward(T* x, Index nrhs) const {
  panel_forward(x, nrhs);
  for (Index i = 0; i < n_; ++i) {
    const auto s = sqrt_abs_d_[static_cast<size_t>(i)];
    T* row = x + i * nrhs;
    for (Index r = 0; r < nrhs; ++r) row[r] /= s;
  }
}

template <typename T>
void SparseLDLT<T>::scaled_backward(T* x, Index nrhs) const {
  for (Index i = 0; i < n_; ++i) {
    const auto s = sqrt_abs_d_[static_cast<size_t>(i)];
    T* row = x + i * nrhs;
    for (Index r = 0; r < nrhs; ++r) row[r] /= s;
  }
  panel_backward(x, nrhs);
}

template <typename T>
std::vector<T> SparseLDLT<T>::solve_m(const std::vector<T>& b) const {
  require(static_cast<Index>(b.size()) == n_, "solve_m: size mismatch");
  const auto& perm = symbolic_->perm_;
  std::vector<T> x(static_cast<size_t>(n_));
  for (Index i = 0; i < n_; ++i)
    x[static_cast<size_t>(i)] = b[static_cast<size_t>(perm[static_cast<size_t>(i)])];
  scaled_forward(x.data(), 1);
  return x;
}

template <typename T>
std::vector<T> SparseLDLT<T>::solve_mt(const std::vector<T>& b) const {
  require(static_cast<Index>(b.size()) == n_, "solve_mt: size mismatch");
  const auto& perm = symbolic_->perm_;
  std::vector<T> x(b);
  scaled_backward(x.data(), 1);
  std::vector<T> out(static_cast<size_t>(n_));
  for (Index i = 0; i < n_; ++i)
    out[static_cast<size_t>(perm[static_cast<size_t>(i)])] = x[static_cast<size_t>(i)];
  return out;
}

template <typename T>
Matrix<T> SparseLDLT<T>::solve_m(const Matrix<T>& b) const {
  require(b.rows() == n_, "solve_m: row count mismatch");
  const Index p = b.cols();
  const auto& perm = symbolic_->perm_;
  Matrix<T> x(n_, p);
  for (Index i = 0; i < n_; ++i)
    std::copy_n(b.data() + perm[static_cast<size_t>(i)] * p, p,
                x.data() + i * p);
  scaled_forward(x.data(), p);
  return x;
}

template <typename T>
Matrix<T> SparseLDLT<T>::solve_mt(const Matrix<T>& b) const {
  require(b.rows() == n_, "solve_mt: row count mismatch");
  const Index p = b.cols();
  const auto& perm = symbolic_->perm_;
  Matrix<T> x = b;
  scaled_backward(x.data(), p);
  Matrix<T> out(n_, p);
  for (Index i = 0; i < n_; ++i)
    std::copy_n(x.data() + i * p, p,
                out.data() + perm[static_cast<size_t>(i)] * p);
  return out;
}

template <typename T>
void SparseLDLT<T>::forward_m(Matrix<T>& x) const {
  require(x.rows() == n_, "forward_m: row count mismatch");
  scaled_forward(x.data(), x.cols());
}

template <typename T>
void SparseLDLT<T>::backward_mt(Matrix<T>& x) const {
  require(x.rows() == n_, "backward_mt: row count mismatch");
  scaled_backward(x.data(), x.cols());
}

template class SparseLDLT<double>;
template class SparseLDLT<Complex>;

}  // namespace sympvl
