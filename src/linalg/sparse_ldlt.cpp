#include "linalg/sparse_ldlt.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <type_traits>
#include <utility>

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

// Pool gate of the numeric factor: a factor whose structural work
// (LdltSymbolic::total_work_, multiply-adds) is below this runs on the
// caller alone, so small factors pay no fork.
constexpr double kFactorGrainWork = 4194304.0;  // 2^22

// Subtree split of the pooled factor: subtrees are split into their
// children until none holds more than 1/(kSubtreeParts · threads) of the
// total work.
constexpr double kSubtreeParts = 4.0;

// A top-set supernode whose incoming updates hold at least this many
// multiply-adds pulls them across the pool, split by target rows.
constexpr double kRowSplitWork = 262144.0;  // 2^18

// Column block of the trapezoidal descendant update, and the rows of an
// update computed per pass through the update buffer.
constexpr Index kUpdateBlock = 16;
constexpr Index kUpdateRows = 256;

// Multiply-adds of row rr of a trapezoidal update with q columns and
// rank wd: the columns of every kUpdateBlock block starting at or above
// it.
double row_work(Index rr, Index q, Index wd) {
  return static_cast<double>(std::min(q, (rr / kUpdateBlock + 1) * kUpdateBlock)) *
         static_cast<double>(wd);
}

// Splits [0, n) into `parts` contiguous blocks of near-equal weight:
// bounds[k] is block k's first index, bounds[parts] = n.
void balanced_bounds(const std::vector<double>& weight, Index parts, Index* bounds) {
  const Index n = static_cast<Index>(weight.size());
  double total = 0.0;
  for (const double x : weight) total += x;
  bounds[0] = 0;
  Index i = 0;
  double done = 0.0;
  for (Index k = 1; k < parts; ++k) {
    const double goal = total * static_cast<double>(k) / static_cast<double>(parts);
    while (i < n && done < goal) done += weight[static_cast<size_t>(i++)];
    bounds[k] = i;
  }
  bounds[parts] = n;
}

// Rows [i0, i1) of one descendant update, subtracted from the target
// panel. The update is C = L·Wᵀ with L the segment's m×w_d rows of the
// descendant panel (`l`, leading dimension ld) and W its D-scaled top
// block (`w`, leading dimension ldw, at least min(q, i1) rows); the
// target keeps the entries rr ≥ c. Each kUpdateBlock-column block of C
// starts at its own first row, so only the lower trapezoid is computed,
// kUpdateRows rows at a time, into `cbuf`. Each entry's k-chain is the
// one a whole-update gemm_nt_acc call runs (its bits depend on neither
// tile height, tile width nor tail kind), and every target entry takes
// one subtraction, so any row split keeps its bits. `rows` are the
// segment's global rows, mapped to panel rows by `row_local`.
template <typename T>
void update_rows(const kernels::PanelKernels<T>& K, Index i0, Index i1, Index q,
                 Index wd, const T* l, Index ld, const T* w, Index ldw,
                 const Index* rows, const Index* row_local, T* panel, Index h,
                 T* cbuf) {
  for (Index b0 = i0; b0 < i1; b0 += kUpdateRows) {
    const Index b1 = std::min(i1, b0 + kUpdateRows);
    const Index mb = b1 - b0;
    const Index qb = std::min(q, b1);
    for (Index j0 = 0; j0 < qb; j0 += kUpdateBlock) {
      const Index jb = std::min(kUpdateBlock, qb - j0);
      const Index r0 = std::max(b0, j0);
      T* c = cbuf + j0 * mb + (r0 - b0);
      for (Index j = 0; j < jb; ++j) std::fill_n(c + j * mb, b1 - r0, T(0));
      K.gemm_nt_acc(b1 - r0, jb, wd, l + r0, ld, w + j0, ldw, c, mb);
    }
    for (Index c = 0; c < qb; ++c) {
      T* colt = panel + row_local[rows[c]] * h;
      const T* csrc = cbuf + c * mb;
      for (Index rr = std::max(c, b0); rr < b1; ++rr)
        colt[row_local[rows[rr]]] -= csrc[rr - b0];
    }
  }
}

// True when all n entries at x are +0.0 bit for bit: a −0.0 or NaN entry
// counts as nonzero. A forward sweep skips a supernode whose rows pass.
template <typename T>
bool all_plus_zero(const T* x, Index n) {
  // std::complex<double> is an array of two doubles ([complex.numbers]).
  const double* v = reinterpret_cast<const double*>(x);
  const Index m = n * static_cast<Index>(sizeof(T) / sizeof(double));
  for (Index k = 0; k < m; ++k)
    if (std::bit_cast<std::uint64_t>(v[k]) != 0) return false;
  return true;
}

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
  super_parent_.assign(static_cast<size_t>(nsuper), -1);
  std::vector<Index> slevel(static_cast<size_t>(nsuper), 0);
  Index nlevels = nsuper > 0 ? 1 : 0;
  for (Index s = 0; s < nsuper; ++s) {
    if (below(s) == 0) continue;
    const Index up = super_of_col[static_cast<size_t>(rows(s)[0])];
    super_parent_[static_cast<size_t>(s)] = up;
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

  // ---- Structural work, summed up the supernodal tree (children come
  // before their parent, so an ascending pass is complete). ----
  subtree_work_.assign(static_cast<size_t>(nsuper), 0.0);
  total_work_ = 0.0;
  for (Index s = 0; s < nsuper; ++s) {
    const double w = static_cast<double>(width(s));
    double& work = subtree_work_[static_cast<size_t>(s)];
    work += static_cast<double>(width(s) + below(s)) * w * w;
    for (Index u = upd_ptr_[static_cast<size_t>(s)];
         u < upd_ptr_[static_cast<size_t>(s) + 1]; ++u) {
      const Index d = upd_src_[static_cast<size_t>(u)];
      const Index p1 = upd_p1_[static_cast<size_t>(u)];
      work += static_cast<double>(below(d) - p1) *
              static_cast<double>(upd_p2_[static_cast<size_t>(u)] - p1) *
              static_cast<double>(width(d));
    }
    const Index up = super_parent_[static_cast<size_t>(s)];
    if (up >= 0)
      subtree_work_[static_cast<size_t>(up)] += work;
    else
      total_work_ += work;
    const auto [wb, cb] = update_blocks(s);
    update_wbuf_ = std::max(update_wbuf_, wb);
    update_cbuf_ = std::max(update_cbuf_, cb);
  }
}

std::pair<Index, Index> LdltSymbolic::update_blocks(Index s) const {
  Index wb = 0, cb = 0;
  for (Index u = upd_ptr_[static_cast<size_t>(s)];
       u < upd_ptr_[static_cast<size_t>(s) + 1]; ++u) {
    const Index d = upd_src_[static_cast<size_t>(u)];
    const Index p1 = upd_p1_[static_cast<size_t>(u)];
    const Index q = upd_p2_[static_cast<size_t>(u)] - p1;
    wb = std::max(wb, q * width(d));
    cb = std::max(cb, std::min(below(d) - p1, kUpdateRows) * q);
  }
  return {wb, cb};
}

struct LdltSymbolic::FactorSchedule {
  // Group g < bins is worker bin g, group `bins` the top set; group g
  // factors order[ptr[g] .. ptr[g+1]), ascending.
  Index bins = 0;
  // Row blocks of each large top-set update (1: none).
  Index split = 1;
  std::vector<Index> ptr;
  std::vector<Index> order;
  // Workspace entries of rank r: rank r < bins serves bin r, rank 0 the
  // top set, and rank r row block r of a split update.
  std::vector<Index> wbuf;
  std::vector<Index> cbuf;
};

LdltSymbolic::FactorSchedule LdltSymbolic::factor_schedule(Index threads) const {
  const Index nsuper = supernode_count();
  FactorSchedule sched;
  sched.split = threads;
  // group[s]: a worker bin, kTop, or (before the walk down) kBelow for a
  // supernode inside a subtree whose root holds the bin.
  constexpr Index kTop = -1;
  constexpr Index kBelow = -2;
  std::vector<Index> group(static_cast<size_t>(nsuper), kBelow);
  std::vector<Index> first_child(static_cast<size_t>(nsuper), -1);
  std::vector<Index> next_sibling(static_cast<size_t>(nsuper), -1);
  for (Index s = nsuper - 1; s >= 0; --s) {
    const Index up = super_parent_[static_cast<size_t>(s)];
    if (up < 0) continue;
    next_sibling[static_cast<size_t>(s)] = first_child[static_cast<size_t>(up)];
    first_child[static_cast<size_t>(up)] = s;
  }
  // Split the heaviest subtree into its children (its root joins the
  // top set) until none holds more than the limit; a heavy leaf joins
  // the top set, where its in-panel factor splits by columns. Subtrees
  // leave the heap heaviest first.
  const double limit = total_work_ / (kSubtreeParts * static_cast<double>(threads));
  std::priority_queue<std::pair<double, Index>> heap;
  for (Index s = 0; s < nsuper; ++s)
    if (super_parent_[static_cast<size_t>(s)] < 0)
      heap.emplace(subtree_work_[static_cast<size_t>(s)], s);
  std::vector<double> load(static_cast<size_t>(threads), 0.0);
  while (!heap.empty()) {
    const auto [work, s] = heap.top();
    heap.pop();
    if (work > limit) {
      group[static_cast<size_t>(s)] = kTop;
      for (Index c = first_child[static_cast<size_t>(s)]; c >= 0;
           c = next_sibling[static_cast<size_t>(c)])
        heap.emplace(subtree_work_[static_cast<size_t>(c)], c);
      continue;
    }
    // Largest first onto the least-loaded bin: the first `threads`
    // subtrees fill bins 0, 1, ... in order, so no bin stays empty
    // below a used one.
    const auto bin = std::min_element(load.begin(), load.end()) - load.begin();
    load[static_cast<size_t>(bin)] += work;
    group[static_cast<size_t>(s)] = bin;
    sched.bins = std::max<Index>(sched.bins, bin + 1);
  }
  for (Index s = nsuper - 1; s >= 0; --s)
    if (group[static_cast<size_t>(s)] == kBelow)
      group[static_cast<size_t>(s)] =
          group[static_cast<size_t>(super_parent_[static_cast<size_t>(s)])];
  const auto slot = [&](Index s) {
    const Index g = group[static_cast<size_t>(s)];
    return static_cast<size_t>(g == kTop ? sched.bins : g);
  };
  sched.ptr.assign(static_cast<size_t>(sched.bins) + 2, 0);
  for (Index s = 0; s < nsuper; ++s) ++sched.ptr[slot(s) + 1];
  for (size_t g = 1; g < sched.ptr.size(); ++g) sched.ptr[g] += sched.ptr[g - 1];
  sched.order.resize(static_cast<size_t>(nsuper));
  {
    std::vector<Index> cursor(sched.ptr.begin(), sched.ptr.end() - 1);
    for (Index s = 0; s < nsuper; ++s) sched.order[static_cast<size_t>(cursor[slot(s)]++)] = s;
  }

  // Workspace per rank: the largest W block and update block it meets.
  // Rank r < bins serves bin r; the top set runs on rank 0 alone, or on
  // every rank when its pulls split by target rows.
  sched.wbuf.assign(static_cast<size_t>(threads), 0);
  sched.cbuf.assign(static_cast<size_t>(threads), 0);
  for (Index s = 0; s < nsuper; ++s) {
    const size_t g = slot(s);
    const bool top = g == static_cast<size_t>(sched.bins);
    const auto [wb, cb] = update_blocks(s);
    const size_t r0 = top ? 0 : g;
    const size_t r1 = top ? static_cast<size_t>(threads) : g + 1;
    for (size_t r = r0; r < r1; ++r) {
      sched.wbuf[r] = std::max(sched.wbuf[r], wb);
      sched.cbuf[r] = std::max(sched.cbuf[r], cb);
    }
  }
  return sched;
}

LdltRowReach LdltSymbolic::row_reach(std::vector<Index> rows) const {
  const Index nsuper = supernode_count();
  std::vector<char> on(static_cast<size_t>(nsuper), 0);
  for (const Index i : rows) {
    require(0 <= i && i < n_, "LdltSymbolic::row_reach: row out of range");
    const Index k = perm_inv_[static_cast<size_t>(i)];
    Index s = static_cast<Index>(std::upper_bound(super_start_.begin(),
                                                  super_start_.end(), k) -
                                 super_start_.begin()) -
              1;
    // Stop at the first supernode already on: its ancestors are too.
    for (; s >= 0 && on[static_cast<size_t>(s)] == 0;
         s = super_parent_[static_cast<size_t>(s)])
      on[static_cast<size_t>(s)] = 1;
  }
  LdltRowReach reach;
  for (Index s = nsuper - 1; s >= 0; --s)
    if (on[static_cast<size_t>(s)] != 0) reach.supernodes.push_back(s);
  reach.rows = std::move(rows);
  reach.analysis = this;
  return reach;
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

  // Gather the values into permuted order via the precomputed mapping.
  std::vector<T> values(sym.source_.size());
  for (size_t k = 0; k < values.size(); ++k)
    values[k] = a.values()[static_cast<size_t>(sym.source_[k])];

  double amax = 0.0;
  for (const auto& v : values) amax = std::max(amax, ScalarTraits<T>::abs(v));
  const double pivot_floor = zero_pivot_tol * amax;

  // ---- Numeric phase: on the pool when the factor is large enough and
  // the caller is not already inside a parallel region. Any failure
  // there, and any factor while a fault site is armed, runs on the
  // caller alone, which raises the 1-thread factor's error: the first
  // failing column in ascending order, each fault site reached as often.
  const Index pool = num_threads();
  Index threads = pool > 1 && !in_parallel_region() && !fault::active() &&
                          sym.total_work_ >= kFactorGrainWork
                      ? pool
                      : 1;
  obs::ScopedTimer span("kernel.panel_update");
  PhaseTally tally;
  if (threads > 1) {
    try {
      tally = numeric_phase(values, pivot_floor, threads);
    } catch (...) {
      threads = 1;
    }
  }
  if (threads == 1) tally = numeric_phase(values, pivot_floor, 1);
  flops_ = tally.flops;
  span.arg("supernodes", sym.supernode_count());
  span.arg("simd", simd_level_name(simd_));
  span.arg("threads", threads);
  span.arg("row_splits", tally.row_splits);
  span.arg("column_splits", tally.column_splits);
  span.arg("flops", flops_);
  span.close();

  pivot_ratio_ = (tally.dmax > 0.0) ? tally.dmin / tally.dmax : 0.0;
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
typename SparseLDLT<T>::PhaseTally SparseLDLT<T>::numeric_phase(
    const std::vector<T>& values, double pivot_floor, Index threads) {
  const LdltSymbolic& sym = *symbolic_;
  const auto& colptr = sym.p_colptr_;
  const auto& rowind = sym.p_rowind_;
  const auto& K = kernels::panel_kernels<T>(simd_);
  d_.assign(static_cast<size_t>(n_), T(0));
  panel_data_.assign(static_cast<size_t>(sym.panel_entries()), T(0));

  // A workspace: the D-scaled W block, the update buffer and the row map.
  // A pooled factor's ranks (`ws`), the row bounds of a split and the
  // row weights are filled below only when threads > 1, so a factor at
  // 1 thread, which is how one inside a parallel region runs, allocates
  // only those three large blocks (DESIGN.md §5.1).
  struct Workspace {
    std::vector<T> wbuf, cbuf;
    std::vector<Index> row_local;
  };
  std::vector<Workspace> ws;
  std::vector<Index> bounds;
  std::vector<double> row_weight;

  // One supernode: assemble A's columns, pull every incoming descendant
  // segment in the analysis's d-ascending order, then the dense in-panel
  // LDLᵀ. Each panel's arithmetic depends only on its contents and that
  // order, so L and D keep their bits at every thread count. With
  // split > 1 (the top set of a pooled factor) a large update's row
  // blocks run across the pool; they write disjoint target rows.
  const auto factor_supernode = [&](Index s, Workspace& wk, Index split,
                                    PhaseTally& t) {
    const Index a0 = sym.first_col(s);
    const Index w = sym.width(s);
    const Index e = a0 + w;
    const Index r = sym.below(s);
    const Index h = w + r;
    const Index* rows = sym.rows(s);
    T* panel = panel_data_.data() + sym.panel_offset_[static_cast<size_t>(s)];
    Index* row_local = wk.row_local.data();

    for (Index jj = 0; jj < w; ++jj) row_local[a0 + jj] = jj;
    for (Index i = 0; i < r; ++i) row_local[rows[i]] = w + i;

    for (Index j = a0; j < e; ++j) {
      T* col = panel + (j - a0) * h;
      for (Index p = colptr[static_cast<size_t>(j)];
           p < colptr[static_cast<size_t>(j) + 1]; ++p) {
        const Index i = rowind[static_cast<size_t>(p)];
        if (i < j) continue;
        col[row_local[i]] += values[static_cast<size_t>(p)];
      }
    }

    // The extended update C = L_d[p1:,:]·D_d·L_d[p1:p2,:]ᵀ lands entirely
    // in this panel (rows of d beyond the target's columns are a subset
    // of the target's below rows). pull(t0, t1, pw) applies the rows of
    // every segment whose panel rows lie in [t0, t1): a segment's rows
    // ascend and so do their panel rows, so those rows are a range.
    const Index u0 = sym.upd_ptr_[static_cast<size_t>(s)];
    const Index u1 = sym.upd_ptr_[static_cast<size_t>(s) + 1];
    const auto pull = [&](Index t0, Index t1, Workspace& pw) {
      for (Index u = u0; u < u1; ++u) {
        const Index d = sym.upd_src_[static_cast<size_t>(u)];
        const Index wd = sym.width(d);
        const Index hd = wd + sym.below(d);
        const Index p1 = sym.upd_p1_[static_cast<size_t>(u)];
        const Index m = hd - wd - p1;
        const Index q = sym.upd_p2_[static_cast<size_t>(u)] - p1;
        const Index* rowsd = sym.rows(d) + p1;
        const auto first_at = [&](Index t) {
          return static_cast<Index>(
              std::partition_point(rowsd, rowsd + m,
                                   [&](Index i) { return row_local[i] < t; }) -
              rowsd);
        };
        const Index i0 = t0 == 0 ? 0 : first_at(t0);
        const Index i1 = t1 == h ? m : first_at(t1);
        if (i0 == i1) continue;
        const T* lseg =
            panel_data_.data() + sym.panel_offset_[static_cast<size_t>(d)] + wd + p1;
        // W(i,j) = L_d(p1+i, j) · d_j — the D-scaled middle segment, its
        // first min(q, i1) rows.
        const Index qn = std::min(q, i1);
        K.scale_cols(qn, wd, lseg, hd, d_.data() + sym.first_col(d),
                     pw.wbuf.data(), qn);
        update_rows(K, i0, i1, q, wd, lseg, hd, pw.wbuf.data(), qn, rowsd,
                    row_local, panel, h, pw.cbuf.data());
      }
    };
    // Split by target rows of near-equal work when the pulls are large:
    // each row block runs every segment in order, so every panel entry
    // takes its updates in the analysis's d-ascending order, and no two
    // blocks write one row.
    bool pooled = false;
    if (split > 1) {
      row_weight.assign(static_cast<size_t>(h), 0.0);
      double incoming = 0.0;
      for (Index u = u0; u < u1; ++u) {
        const Index d = sym.upd_src_[static_cast<size_t>(u)];
        const Index wd = sym.width(d);
        const Index p1 = sym.upd_p1_[static_cast<size_t>(u)];
        const Index m = sym.below(d) - p1;
        const Index q = sym.upd_p2_[static_cast<size_t>(u)] - p1;
        const Index* rowsd = sym.rows(d) + p1;
        for (Index rr = 0; rr < m; ++rr) {
          const double x = row_work(rr, q, wd);
          row_weight[static_cast<size_t>(row_local[rowsd[rr]])] += x;
          incoming += x;
        }
      }
      pooled = incoming >= kRowSplitWork;
    }
    if (pooled) {
      ++t.row_splits;
      balanced_bounds(row_weight, split, bounds.data());
      parallel_for_chunks(Index(0), split, [&](Index, Index b, Index e2) {
        for (Index k = b; k < e2; ++k)
          pull(bounds[static_cast<size_t>(k)], bounds[static_cast<size_t>(k) + 1],
               ws[static_cast<size_t>(k)]);
      });
    } else {
      pull(0, h, wk);
    }
    for (Index u = u0; u < u1; ++u) {
      // Today's count for the full rectangular update, so GFLOP/s stays
      // comparable across the trapezoid.
      const Index wd = sym.width(sym.upd_src_[static_cast<size_t>(u)]);
      const Index p1 = sym.upd_p1_[static_cast<size_t>(u)];
      const Index m = sym.below(sym.upd_src_[static_cast<size_t>(u)]) - p1;
      const Index q = sym.upd_p2_[static_cast<size_t>(u)] - p1;
      t.flops += 2.0 * static_cast<double>(m) * static_cast<double>(q) *
                     static_cast<double>(wd) +
                 static_cast<double>(q) * static_cast<double>(wd);
    }

    // Pivots accepted per global column in ascending order, on this
    // thread. With split > 1 a block's large trailing update runs across
    // the pool in column ranges of near-equal length.
    const auto trailing = [&](Index k0, Index k1, const auto& apply) {
      double work = 0.0;
      if (split > 1) {
        row_weight.resize(static_cast<size_t>(k1 - k0));
        for (Index k = k0; k < k1; ++k)
          work += row_weight[static_cast<size_t>(k - k0)] =
              static_cast<double>(h - k);
      }
      if (static_cast<double>(kernels::kPanelBlock) * work < kRowSplitWork) {
        apply(k0, k1);
        return;
      }
      ++t.column_splits;
      balanced_bounds(row_weight, split, bounds.data());
      parallel_for_chunks(Index(0), split, [&](Index, Index b, Index e2) {
        for (Index k = b; k < e2; ++k)
          apply(k0 + bounds[static_cast<size_t>(k)],
                k0 + bounds[static_cast<size_t>(k) + 1]);
      });
    };
    t.flops += kernels::panel_ldlt(
        K, h, w, panel,
        [&](Index jj, const T& dj) {
          const Index k = a0 + jj;
          d_[static_cast<size_t>(k)] = dj;
          accept_pivot(k, dj, pivot_floor, t.dmin, t.dmax);
        },
        trailing);

    for (Index jj = 0; jj < w; ++jj) row_local[a0 + jj] = -1;
    for (Index i = 0; i < r; ++i) row_local[rows[i]] = -1;
  };

  // At 1 thread every supernode runs ascending on one workspace sized by
  // the analysis, so every descendant is final before its ancestor
  // starts.
  if (threads == 1) {
    Workspace wk;
    wk.wbuf.resize(static_cast<size_t>(sym.update_wbuf_));
    wk.cbuf.resize(static_cast<size_t>(sym.update_cbuf_));
    wk.row_local.assign(static_cast<size_t>(n_), -1);
    PhaseTally t;
    for (Index s = 0; s < sym.supernode_count(); ++s) factor_supernode(s, wk, 1, t);
    return t;
  }

  // Pooled: every rank's workspace is allocated here, before any fork,
  // so a pool worker allocates nothing. Ranks that factor supernodes
  // (each bin's, and rank 0 for the top set) get a row map; a split
  // update's row blocks read rank 0's. Phase 1 runs each bin's subtrees
  // on one worker, its supernodes ascending; phase 2 the top set on the
  // caller after the join, ascending.
  const LdltSymbolic::FactorSchedule sched = sym.factor_schedule(threads);
  ws.resize(static_cast<size_t>(threads));
  for (size_t r = 0; r < ws.size(); ++r) {
    ws[r].wbuf.resize(static_cast<size_t>(sched.wbuf[r]));
    ws[r].cbuf.resize(static_cast<size_t>(sched.cbuf[r]));
    if (r < static_cast<size_t>(std::max<Index>(sched.bins, 1)))
      ws[r].row_local.assign(static_cast<size_t>(n_), -1);
  }
  bounds.resize(static_cast<size_t>(sched.split) + 1);
  std::vector<PhaseTally> tally(static_cast<size_t>(sched.bins) + 1);
  const auto run_group = [&](Index g, Workspace& wk, Index split) {
    PhaseTally t;
    for (Index k = sched.ptr[static_cast<size_t>(g)];
         k < sched.ptr[static_cast<size_t>(g) + 1]; ++k)
      factor_supernode(sched.order[static_cast<size_t>(k)], wk, split, t);
    tally[static_cast<size_t>(g)] = t;
  };
  if (sched.bins > 0)
    parallel_for_chunks(Index(0), sched.bins, [&](Index, Index b, Index e) {
      for (Index g = b; g < e; ++g) run_group(g, ws[static_cast<size_t>(g)], 1);
    });
  run_group(sched.bins, ws[0], sched.split);

  // The flop count sums integer-valued doubles, exact in any order.
  PhaseTally all;
  for (const PhaseTally& t : tally) {
    all.flops += t.flops;
    all.dmin = std::min(all.dmin, t.dmin);
    all.dmax = std::max(all.dmax, t.dmax);
    all.row_splits += t.row_splits;
    all.column_splits += t.column_splits;
  }
  return all;
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
  // Serial push: one below_forward over all of s's below rows right after
  // its in-panel solve. Supernodes run in ascending order, so every target
  // row takes its updates in ascending source order. (A level-parallel
  // pull of descendant segments kept these bits but never paid at 2
  // threads and gained at most 13 % at 4; DESIGN.md §5.6.)
  //
  // A supernode whose rows are all +0.0 when the sweep reaches it is
  // skipped: every kernel starts its chains at +0, so on finite L its
  // in-panel solve leaves +0 and its below update subtracts +0, which
  // changes no entry (−0.0 included). A dense right-hand side pays one
  // zero test per supernode.
  Index visited = 0;
  double entries = 0.0;
  for (Index s = 0; s < sym.supernode_count(); ++s) {
    const Index a0 = sym.first_col(s);
    const Index w = sym.width(s);
    const Index r = sym.below(s);
    T* xs = x + a0 * nrhs;
    if (all_plus_zero(xs, w * nrhs)) continue;
    const Index off = sym.panel_offset_[static_cast<size_t>(s)];
    const T* panel = panel_data_.data() + off;
    K.trsm_forward(w, panel, w + r, nrhs, xs);
    if (r > 0) K.below_forward(r, w, nrhs, panel + w, w + r, sym.rows(s), xs, x);
    ++visited;
    entries += static_cast<double>(
        sym.panel_offset_[static_cast<size_t>(s) + 1] - off);
  }
  span.arg("phase", "forward");
  span.arg("nrhs", nrhs);
  span.arg("supernodes", visited);
  span.arg("simd", simd_level_name(simd_));
  span.arg("threads", Index{1});
  span.arg("flops", 2.0 * entries * static_cast<double>(nrhs));
}

template <typename T>
void SparseLDLT<T>::backward_supernode(Index s, T* x, Index nrhs) const {
  // A pull: s reads only its own below rows (all on its ancestor path,
  // finalized before it) and writes only its own top rows.
  const LdltSymbolic& sym = *symbolic_;
  const auto& K = kernels::panel_kernels<T>(simd_);
  const Index a0 = sym.first_col(s);
  const Index w = sym.width(s);
  const Index r = sym.below(s);
  const T* panel = panel_data_.data() + sym.panel_offset_[static_cast<size_t>(s)];
  if (r > 0)
    K.below_backward(r, w, nrhs, panel + w, w + r, sym.rows(s), x,
                     x + a0 * nrhs);
  K.trsm_backward(w, panel, w + r, nrhs, x + a0 * nrhs);
}

template <typename T>
void SparseLDLT<T>::panel_backward(T* x, Index nrhs) const {
  const LdltSymbolic& sym = *symbolic_;
  const Index nsuper = sym.supernode_count();
  const auto& level_ptr = sym.level_ptr_;
  const auto& level_order = sym.level_order_;
  const auto& level_work = sym.level_work_;
  const Index nlevels = static_cast<Index>(level_ptr.size()) - 1;
  auto process = [&](Index s) { backward_supernode(s, x, nrhs); };

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
    span.arg("supernodes", nsuper);
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
        cspan.arg("supernodes", e2 - b);
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
Matrix<T> SparseLDLT<T>::solve_rows(const SMat& b,
                                    const LdltRowReach& reach) const {
  require(b.rows() == n_, "SparseLDLT::solve_rows: row count mismatch");
  require(reach.analysis == symbolic_.get(),
          "SparseLDLT::solve_rows: reach resolved against another analysis");
  const LdltSymbolic& sym = *symbolic_;
  const Index p = b.cols();
  const Index nrows = static_cast<Index>(reach.rows.size());
  obs::ScopedTimer span("ldlt.solve");
  span.arg("n", n_);
  span.arg("nrhs", p);
  span.arg("rows", nrows);
  const auto& perm_inv = sym.perm_inv_;
  // The permuted row-major workspace of solve(Matrix), +0.0 wherever B
  // has no entry, with B's entries written straight into it.
  Matrix<T> x(n_, p);
  for (Index c = 0; c < p; ++c)
    for (Index q = b.colptr()[static_cast<size_t>(c)];
         q < b.colptr()[static_cast<size_t>(c) + 1]; ++q)
      x(perm_inv[static_cast<size_t>(b.rowind()[static_cast<size_t>(q)])], c) =
          T(b.values()[static_cast<size_t>(q)]);
  panel_forward(x.data(), p);
  // Diagonal and backward phases over the reach, parents first. A
  // supernode's rows take their diagonal solve just before its backward
  // step: nothing reads them earlier, and every row a backward step reads
  // lies in the reach, so each wanted row gets solve(Matrix)'s bits.
  {
    const auto& K = kernels::panel_kernels<T>(simd_);
    obs::ScopedTimer bspan("kernel.trsm");
    double entries = 0.0;
    for (const Index s : reach.supernodes) {
      const Index a0 = sym.first_col(s);
      K.diag_solve(sym.width(s), p, d_.data() + a0, x.data() + a0 * p);
      backward_supernode(s, x.data(), p);
      entries += static_cast<double>(
          sym.panel_offset_[static_cast<size_t>(s) + 1] -
          sym.panel_offset_[static_cast<size_t>(s)]);
    }
    bspan.arg("phase", "backward");
    bspan.arg("nrhs", p);
    bspan.arg("supernodes", static_cast<Index>(reach.supernodes.size()));
    bspan.arg("simd", simd_level_name(simd_));
    bspan.arg("threads", Index{1});
    bspan.arg("flops", 2.0 * entries * static_cast<double>(p));
  }
  Matrix<T> out(nrows, p);
  for (Index k = 0; k < nrows; ++k)
    std::copy_n(x.data() +
                    perm_inv[static_cast<size_t>(reach.rows[static_cast<size_t>(k)])] * p,
                p, out.data() + k * p);
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
