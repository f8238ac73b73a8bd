#include "linalg/factor_cache.hpp"

#include <cstdlib>
#include <cstring>
#include <list>
#include <mutex>
#include <unordered_map>

#include "fault.hpp"
#include "obs/memstat.hpp"
#include "obs/obs.hpp"

namespace sympvl {

namespace {

template <typename T>
std::uint64_t fnv1a_vec(const std::vector<T>& v, std::uint64_t h) {
  return v.empty() ? h : fnv1a(v.data(), v.size() * sizeof(T), h);
}

std::uint64_t fingerprint_matrix(const SMat& m) {
  std::uint64_t h = kFnv1aBasis;
  const Index dims[2] = {m.rows(), m.cols()};
  h = fnv1a(dims, sizeof(dims), h);
  h = fnv1a_vec(m.colptr(), h);
  h = fnv1a_vec(m.rowind(), h);
  h = fnv1a_vec(m.values(), h);
  return h;
}

std::uint64_t double_bits(double v) {
  // Canonicalize -0.0 so s₀ = 0 and s₀ = -0 hit the same entry.
  if (v == 0.0) v = 0.0;
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// Identity of a symbolic analysis: the pattern (n, nnz, FNV-1a of colptr
// and rowind) and the ordering.
struct SymbolicKey {
  Index n = 0, nnz = 0;
  std::uint64_t pattern = 0;
  int ordering = 0;

  bool operator==(const SymbolicKey& o) const {
    return n == o.n && nnz == o.nnz && pattern == o.pattern &&
           ordering == o.ordering;
  }
};

struct SymbolicKeyHash {
  std::size_t operator()(const SymbolicKey& k) const {
    std::uint64_t h = fnv1a(&k.n, sizeof(k.n), k.pattern);
    h = fnv1a(&k.nnz, sizeof(k.nnz), h);
    h = fnv1a(&k.ordering, sizeof(k.ordering), h);
    return static_cast<std::size_t>(h);
  }
};

SymbolicKey symbolic_key(const SMat& pattern, Ordering ordering) {
  std::uint64_t h = kFnv1aBasis;
  h = fnv1a_vec(pattern.colptr(), h);
  h = fnv1a_vec(pattern.rowind(), h);
  return SymbolicKey{pattern.rows(), pattern.nnz(), h,
                     static_cast<int>(ordering)};
}

struct Key {
  std::uint64_t g = 0, c = 0;
  std::uint64_t shift = 0;
  int ordering = 0;
  bool dense = false;
  // The SIMD level changes the factorization's rounding, so it is part of
  // the identity of a cached factor. It is stored RESOLVED (through
  // SYMPVL_SIMD and the CPU probe): requests that resolve to the same
  // level share one entry, so a hit always returns the rounding the
  // caller would have produced fresh.
  int simd = 0;

  bool operator==(const Key& o) const {
    return g == o.g && c == o.c && shift == o.shift &&
           ordering == o.ordering && dense == o.dense && simd == o.simd;
  }
};

struct KeyHash {
  std::size_t operator()(const Key& k) const {
    std::uint64_t h = kFnv1aBasis;
    h = fnv1a(&k.g, sizeof(k.g), h);
    h = fnv1a(&k.c, sizeof(k.c), h);
    h = fnv1a(&k.shift, sizeof(k.shift), h);
    h = fnv1a(&k.ordering, sizeof(k.ordering), h);
    const unsigned char dense = k.dense ? 1 : 0;
    h = fnv1a(&dense, sizeof(dense), h);
    h = fnv1a(&k.simd, sizeof(k.simd), h);
    return static_cast<std::size_t>(h);
  }
};

Key real_key(const PencilFingerprint& fp, const PencilFactorOptions& opt) {
  Key k;
  k.g = fp.g;
  k.c = fp.c;
  k.shift = double_bits(opt.shift);
  k.ordering = static_cast<int>(opt.ordering);
  k.dense = opt.dense;
  k.simd = static_cast<int>(resolve_simd_level(opt.kernels.simd));
  return k;
}

}  // namespace

PencilFingerprint fingerprint_pencil(const SMat& g, const SMat& c) {
  return PencilFingerprint{fingerprint_matrix(g), fingerprint_matrix(c)};
}

struct FactorCache::Impl {
  struct Entry {
    Key key;
    std::shared_ptr<const FactorizedPencil> real;
    std::int64_t bytes = 0;  // resident cost, charged while cached
  };

  explicit Impl(std::size_t cap) : capacity(cap == 0 ? 1 : cap) {}

  ~Impl() {
    // Release the byte charges of whatever is still resident so short-
    // lived (test/bench) caches leave the process-wide gauge balanced.
    for (const Entry& e : lru) charge_bytes(-e.bytes);
  }

  std::size_t capacity;
  std::atomic<bool> enabled{true};
  mutable std::mutex mutex;
  // Front = most recently used.
  std::list<Entry> lru;
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> map;
  // Shared symbolic analyses, weakly held (expired slots are pruned on
  // every insert).
  std::unordered_map<SymbolicKey, std::weak_ptr<const LdltSymbolic>,
                     SymbolicKeyHash>
      symbolics;

  std::atomic<std::uint64_t> hits{0}, misses{0}, evictions{0},
      factorizations{0}, symbolic_hits{0}, symbolic_misses{0};
  std::atomic<std::int64_t> resident_bytes{0}, peak_resident_bytes{0};

  // Per-cache resident/peak accounting plus the process-wide gauge (the
  // gauge aggregates across instances — the number the million-unknown
  // audit cares about).
  void charge_bytes(std::int64_t delta) {
    if (delta == 0) return;
    const std::int64_t now =
        resident_bytes.fetch_add(delta, std::memory_order_relaxed) + delta;
    std::int64_t peak = peak_resident_bytes.load(std::memory_order_relaxed);
    while (now > peak && !peak_resident_bytes.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
    static obs::ByteGauge& gauge =
        obs::byte_gauge("factor_cache.resident_bytes");
    gauge.add(delta);
  }

  void note_hit() {
    hits.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter& c = obs::counter("factor_cache.hit");
    c.add();
  }
  void note_miss() {
    misses.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter& c = obs::counter("factor_cache.miss");
    c.add();
  }
  void note_evict() {
    evictions.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter& c = obs::counter("factor_cache.evict");
    c.add();
  }
  void note_symbolic_hit() {
    symbolic_hits.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter& c = obs::counter("factor_cache.symbolic_hit");
    c.add();
  }
  void note_symbolic_miss() {
    symbolic_misses.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter& c = obs::counter("factor_cache.symbolic_miss");
    c.add();
  }

  // Must hold `mutex`. Returns the entry for `key`, touched to the LRU
  // front, or nullptr.
  Entry* find_locked(const Key& key) {
    auto it = map.find(key);
    if (it == map.end()) return nullptr;
    lru.splice(lru.begin(), lru, it->second);
    it->second = lru.begin();
    return &*lru.begin();
  }

  // Must hold `mutex`. Inserts (or returns the raced-in) entry and evicts
  // past capacity.
  Entry* insert_locked(Entry entry) {
    if (Entry* existing = find_locked(entry.key)) return existing;
    entry.bytes = entry.real->bytes();
    charge_bytes(entry.bytes);
    lru.push_front(std::move(entry));
    map.emplace(lru.front().key, lru.begin());
    while (lru.size() > capacity) {
      charge_bytes(-lru.back().bytes);
      map.erase(lru.back().key);
      lru.pop_back();
      note_evict();
    }
    return &*lru.begin();
  }
};

FactorCache::FactorCache(std::size_t capacity)
    : impl_(std::make_unique<Impl>(capacity)) {}

FactorCache::~FactorCache() = default;

// The environment reads stay: no option sizes or disables the
// process-wide cache, so they are an operator's only control of it.
FactorCache& FactorCache::global() {
  static FactorCache cache([]() -> std::size_t {
    if (const char* env = std::getenv("SYMPVL_FACTOR_CACHE_CAP")) {
      const long v = std::atol(env);
      if (v > 0) return static_cast<std::size_t>(v);
    }
    return 32;
  }());
  static const bool env_applied = [] {
    if (const char* env = std::getenv("SYMPVL_FACTOR_CACHE"))
      if (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0)
        cache.set_enabled(false);
    return true;
  }();
  (void)env_applied;
  return cache;
}

std::shared_ptr<const FactorizedPencil> FactorCache::acquire(
    const PencilFingerprint& fp, const PencilFactorOptions& options,
    const RealMaker& make, bool* was_hit) {
  if (was_hit != nullptr) *was_hit = false;
  if (fault::active() || !enabled()) {
    // Fault drills and a disabled cache always exercise the real
    // factorization path.
    impl_->factorizations.fetch_add(1, std::memory_order_relaxed);
    return make();
  }
  const Key key = real_key(fp, options);
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (Impl::Entry* e = impl_->find_locked(key)) {
      impl_->note_hit();
      if (was_hit != nullptr) *was_hit = true;
      return e->real;
    }
  }
  impl_->note_miss();
  // Factor OUTSIDE the lock: concurrent misses on distinct keys proceed
  // in parallel; racing duplicates on one key are harmless (identical
  // values, loser's work discarded on insert).
  std::shared_ptr<const FactorizedPencil> pencil = make();
  impl_->factorizations.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(impl_->mutex);
  Impl::Entry entry;
  entry.key = key;
  entry.real = std::move(pencil);
  return impl_->insert_locked(std::move(entry))->real;
}

std::shared_ptr<const LdltSymbolic> FactorCache::symbolic(const SMat& pattern,
                                                          Ordering ordering) {
  if (fault::active() || !enabled())
    return std::make_shared<const LdltSymbolic>(pattern, ordering);
  const SymbolicKey key = symbolic_key(pattern, ordering);
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    const auto it = impl_->symbolics.find(key);
    if (it != impl_->symbolics.end())
      if (auto live = it->second.lock()) {
        impl_->note_symbolic_hit();
        return live;
      }
  }
  impl_->note_symbolic_miss();
  auto made = std::make_shared<const LdltSymbolic>(pattern, ordering);
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::erase_if(impl_->symbolics,
                [](const auto& slot) { return slot.second.expired(); });
  // A racing thread's live analysis of the same pattern wins, so both
  // callers share one (bit-identical) analysis.
  std::weak_ptr<const LdltSymbolic>& slot = impl_->symbolics[key];
  if (auto live = slot.lock()) return live;
  slot = made;
  return made;
}

void FactorCache::clear() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  // Releases the byte charges but is NOT capacity pressure — the evict
  // counter tracks forced evictions only.
  for (const Impl::Entry& e : impl_->lru) impl_->charge_bytes(-e.bytes);
  impl_->lru.clear();
  impl_->map.clear();
  impl_->symbolics.clear();
}

std::size_t FactorCache::size() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->lru.size();
}

std::size_t FactorCache::capacity() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->capacity;
}

void FactorCache::set_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->capacity = capacity == 0 ? 1 : capacity;
  while (impl_->lru.size() > impl_->capacity) {
    impl_->charge_bytes(-impl_->lru.back().bytes);
    impl_->map.erase(impl_->lru.back().key);
    impl_->lru.pop_back();
    impl_->note_evict();
  }
}

bool FactorCache::enabled() const {
  return impl_->enabled.load(std::memory_order_relaxed);
}

void FactorCache::set_enabled(bool enabled) {
  impl_->enabled.store(enabled, std::memory_order_relaxed);
}

FactorCacheStats FactorCache::stats() const {
  FactorCacheStats s;
  s.hits = impl_->hits.load(std::memory_order_relaxed);
  s.misses = impl_->misses.load(std::memory_order_relaxed);
  s.evictions = impl_->evictions.load(std::memory_order_relaxed);
  s.factorizations = impl_->factorizations.load(std::memory_order_relaxed);
  s.symbolic_hits = impl_->symbolic_hits.load(std::memory_order_relaxed);
  s.symbolic_misses = impl_->symbolic_misses.load(std::memory_order_relaxed);
  s.resident_bytes = impl_->resident_bytes.load(std::memory_order_relaxed);
  s.peak_resident_bytes =
      impl_->peak_resident_bytes.load(std::memory_order_relaxed);
  return s;
}

void FactorCache::reset_stats() {
  impl_->hits.store(0, std::memory_order_relaxed);
  impl_->misses.store(0, std::memory_order_relaxed);
  impl_->evictions.store(0, std::memory_order_relaxed);
  impl_->factorizations.store(0, std::memory_order_relaxed);
  impl_->symbolic_hits.store(0, std::memory_order_relaxed);
  impl_->symbolic_misses.store(0, std::memory_order_relaxed);
  impl_->peak_resident_bytes.store(
      impl_->resident_bytes.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
}

}  // namespace sympvl
