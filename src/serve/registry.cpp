#include "serve/registry.hpp"

#include <condition_variable>
#include <cstdio>

#include "obs/obs.hpp"

namespace sympvl::serve {

RomKey rom_key(const std::string& netlist_text, const ReduceOptions& opt) {
  RomKey key;
  key.netlist = fnv1a(netlist_text.data(), netlist_text.size());
  // Canonical options encoding: every field that changes the produced
  // model, in a fixed order. Fields that only change HOW it is computed
  // but not the result (the factor-cache pointer and behavior) stay out,
  // so equivalent requests share an entry.
  std::uint64_t h = kFnv1aBasis;
  const auto index = [&h](Index v) {
    const std::int64_t x = v;
    h = fnv1a(&x, sizeof x, h);
  };
  const auto real = [&h](double v) { h = fnv1a(&v, sizeof v, h); };
  index(static_cast<Index>(opt.method));
  index(opt.order);
  real(opt.s0);
  index(opt.auto_shift ? 1 : 0);
  real(opt.deflation_tol);
  real(opt.lookahead_tol);
  index(opt.full_reorthogonalization ? 1 : 0);
  index(opt.max_cluster_size);
  index(static_cast<Index>(opt.ordering));
  index(opt.shard.shards);
  index(static_cast<Index>(opt.shard.clustering));
  real(opt.shard.stitch_tol);
  index(opt.pvl_row);
  index(opt.pvl_col);
  key.options = h;
  return key;
}

std::string rom_key_hex(const RomKey& key) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%016llx-%016llx",
                static_cast<unsigned long long>(key.netlist),
                static_cast<unsigned long long>(key.options));
  return buf;
}

bool parse_rom_key_hex(const std::string& hex, RomKey* key) {
  if (hex.size() != 33 || hex[16] != '-') return false;
  auto parse_half = [](const std::string& s, size_t at, std::uint64_t* out) {
    std::uint64_t v = 0;
    for (size_t k = 0; k < 16; ++k) {
      const char c = s[at + k];
      int d;
      if (c >= '0' && c <= '9') d = c - '0';
      else if (c >= 'a' && c <= 'f') d = 10 + (c - 'a');
      else return false;
      v = (v << 4) | static_cast<std::uint64_t>(d);
    }
    *out = v;
    return true;
  };
  RomKey k;
  if (!parse_half(hex, 0, &k.netlist) || !parse_half(hex, 17, &k.options))
    return false;
  *key = k;
  return true;
}

struct RomRegistry::Inflight {
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  EntryPtr entry;                 ///< set on success
  std::exception_ptr error;       ///< set on failure
};

RomRegistry::RomRegistry(std::int64_t capacity_bytes)
    : capacity_bytes_(capacity_bytes > 0 ? capacity_bytes : 1) {}

RomRegistry::EntryPtr RomRegistry::acquire(
    const RomKey& key, const std::function<ReduceResult()>& build,
    bool* was_hit, bool* was_shared) {
  if (was_hit) *was_hit = false;
  if (was_shared) *was_shared = false;

  std::shared_ptr<Inflight> flight;
  bool builder = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      it->second.last_used = ++tick_;
      ++stats_.hits;
      obs::counter("serve.registry.hit").add(1);
      if (was_hit) *was_hit = true;
      return it->second.entry;
    }
    auto fit = inflight_.find(key);
    if (fit != inflight_.end()) {
      flight = fit->second;
      ++stats_.single_flight_shared;
    } else {
      flight = std::make_shared<Inflight>();
      inflight_[key] = flight;
      builder = true;
    }
  }

  if (!builder) {
    // Join the in-flight build: no second reduction for this key.
    obs::counter("serve.registry.single_flight_shared").add(1);
    if (was_shared) *was_shared = true;
    std::unique_lock<std::mutex> lock(flight->m);
    flight->cv.wait(lock, [&] { return flight->done; });
    if (flight->error) std::rethrow_exception(flight->error);
    return flight->entry;
  }

  // Builder path: run the reduction outside every lock.
  EntryPtr entry;
  std::exception_ptr error;
  try {
    obs::ScopedTimer span("serve.reduce");
    ReduceResult result = build();
    if (result.status == ReductionStatus::kFailed) {
      if (!result.diagnostics.empty()) {
        const ReductionIssue& first = result.diagnostics.front();
        throw Error(first.code, first.message,
                    {.stage = first.stage.empty() ? "serve.reduce"
                                                  : first.stage,
                     .index = first.index, .value = first.value});
      }
      throw Error(ErrorCode::kUnknown, "reduction failed (no diagnostics)",
                  {.stage = "serve.reduce"});
    }
    auto built = std::make_shared<Entry>();
    built->key = key;
    built->key_hex = rom_key_hex(key);
    built->result = std::move(result);
    built->bytes = built->result.model.bytes();
    built->charge =
        obs::MemCharge(obs::byte_gauge("mem.rom_registry_bytes"),
                       built->bytes);
    entry = std::move(built);
  } catch (...) {
    error = std::current_exception();
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    inflight_.erase(key);
    if (entry) {
      ++stats_.misses;
      obs::counter("serve.registry.miss").add(1);
      insert_locked(entry);
    }
  }
  {
    std::lock_guard<std::mutex> lock(flight->m);
    flight->entry = entry;
    flight->error = error;
    flight->done = true;
  }
  flight->cv.notify_all();
  if (error) std::rethrow_exception(error);
  return entry;
}

RomRegistry::EntryPtr RomRegistry::find(const std::string& key_hex) {
  RomKey key;
  if (!parse_rom_key_hex(key_hex, &key)) return nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  it->second.last_used = ++tick_;
  ++stats_.hits;
  obs::counter("serve.registry.hit").add(1);
  return it->second.entry;
}

void RomRegistry::insert_locked(const EntryPtr& entry) {
  resident_bytes_ += entry->bytes;
  entries_[entry->key] = Resident{entry, ++tick_};
  evict_to_capacity_locked();
}

void RomRegistry::evict_to_capacity_locked() {
  while (resident_bytes_ > capacity_bytes_ && entries_.size() > 1) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it)
      if (victim == entries_.end() ||
          it->second.last_used < victim->second.last_used)
        victim = it;
    resident_bytes_ -= victim->second.entry->bytes;
    entries_.erase(victim);
    ++stats_.evictions;
    obs::counter("serve.registry.evict").add(1);
  }
}

RegistryStats RomRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  RegistryStats s = stats_;
  s.entries = static_cast<Index>(entries_.size());
  s.resident_bytes = resident_bytes_;
  s.capacity_bytes = capacity_bytes_;
  return s;
}

}  // namespace sympvl::serve
