// Internal to the reduce() facade (mor/reduce.cpp): the stitched K > 1
// path of ReduceMethod::kShardedSympvl. Not part of the public surface —
// reduce() resolves the shard count and runs the monolithic kSympvl code
// for one shard; this is what it calls for more.
#pragma once

#include "circuit/mna.hpp"
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

}  // namespace sympvl::detail
