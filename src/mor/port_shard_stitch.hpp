// Internal to the reduce() facade (mor/reduce.cpp): the stitched K > 1
// path of ReduceMethod::kShardedSympvl, and the two Gram kernels its
// stitch runs (declared for their tests). Not part of the public
// surface — reduce() resolves the shard count and runs the monolithic
// kSympvl code for one shard; this is what it calls for more.
#pragma once

#include <functional>
#include <vector>

#include "circuit/mna.hpp"
#include "linalg/dense.hpp"
#include "mor/reduce.hpp"
#include "mor/sympvl.hpp"

namespace sympvl::detail {

/// Clustered per-shard SyMPVL with the stitched union model as an
/// ArnoldiModel. `options` is the ordinary SyMPVL surface; options.shard
/// selects clustering and stitch tolerance. `shards` is the count reduce()
/// resolved, 2 <= shards <= min(ports, order) (kInvalidArgument
/// otherwise). Never throws for per-shard failures — they land in
/// diagnostics with status kTruncated; a failed priming factorization or
/// an all-shards failure reports kFailed.
ReduceResult sharded_sympvl_reduce(const MnaSystem& sys,
                                   const SympvlOptions& options, Index shards);

/// The stitch's union Gram AᵀJA of the row-major N×n `a` and the ±1
/// diagonal `j`, summed over the rows listed in `rows` (ascending). A
/// row of `a` left out must be all zero (±0.0): the kernel skips every
/// zero a(k, i), so such a row adds nothing, and the result carries the
/// bits of the sum over every row.
Mat sym_gram_signed(const Mat& a, const Vec& j, const std::vector<Index>& rows);

/// AᵀB over the rows listed in `rows`, with B's columns produced one
/// 48-column panel at a time: `fill(j0, j1)` returns columns [j0, j1) of
/// B as a row-major N×(j1 − j0) matrix, so only one panel of B is ever
/// resident. The row rule of sym_gram_signed holds: B's entries in a
/// left-out row are never read, whatever they hold.
Mat sym_gram_streamed(const Mat& a, const std::vector<Index>& rows,
                      const std::function<Mat(Index, Index)>& fill);

}  // namespace sympvl::detail
