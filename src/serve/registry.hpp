// Warm-ROM registry: the daemon's central cache of reduced models.
//
// The paper's economics — an expensive Padé reduction buys a macromodel
// that is nearly free to evaluate — make a serving daemon's hot path
// "look the ROM up, don't rebuild it". The registry is a bounded LRU
// keyed by (netlist fingerprint, reduce-options fingerprint):
//
//   * byte-accounted: each entry carries an obs::MemCharge against the
//     always-on "mem.rom_registry_bytes" gauge, and eviction runs on
//     total resident bytes (not entry count) against the configured
//     capacity — the same accounting discipline as FactorCache;
//   * concurrent-safe: lookups/inserts take one mutex; reductions run
//     OUTSIDE it;
//   * single-flight: N concurrent reduce requests for the same key
//     produce ONE reduction — the first becomes the builder, the rest
//     wait on its in-flight slot and share the result (or its error).
//     Failed reductions are never cached; every waiter of a failed
//     flight receives the builder's exception.
//
// Entries are handed out as shared_ptr<const Entry>, so an eviction
// never invalidates a model a request is still sweeping.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "mor/reduce.hpp"
#include "obs/memstat.hpp"

namespace sympvl::serve {

/// 128-bit registry key: FNV-1a of the netlist text and of the
/// canonicalized ReduceOptions encoding. Rendered for the wire as
/// "xxxxxxxxxxxxxxxx-xxxxxxxxxxxxxxxx".
struct RomKey {
  std::uint64_t netlist = 0;
  std::uint64_t options = 0;

  bool operator==(const RomKey& o) const {
    return netlist == o.netlist && options == o.options;
  }
  bool operator<(const RomKey& o) const {
    return netlist != o.netlist ? netlist < o.netlist : options < o.options;
  }
};

/// Key derivation (deterministic across runs and hosts: pure value
/// hashing, no pointers).
RomKey rom_key(const std::string& netlist_text, const ReduceOptions& options);

std::string rom_key_hex(const RomKey& key);
/// Parses the hex rendering; false on malformed input.
bool parse_rom_key_hex(const std::string& hex, RomKey* key);

struct RegistryStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;       ///< reductions actually built
  std::uint64_t evictions = 0;
  /// Requests that joined another request's in-flight reduction instead
  /// of building their own (the single-flight win).
  std::uint64_t single_flight_shared = 0;
  Index entries = 0;
  std::int64_t resident_bytes = 0;
  std::int64_t capacity_bytes = 0;
};

class RomRegistry {
 public:
  struct Entry {
    RomKey key;
    std::string key_hex;
    ReduceResult result;        ///< model + report + diagnostics
    std::int64_t bytes = 0;     ///< result.model.bytes()
    obs::MemCharge charge;      ///< against mem.rom_registry_bytes
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  explicit RomRegistry(std::int64_t capacity_bytes);

  /// Returns the entry for `key`, building it via `build` on a miss.
  /// Single-flight: concurrent callers with the same key share one
  /// build. `build` runs outside every registry lock. A build whose
  /// ReduceResult is kFailed throws the first diagnostic as a coded
  /// Error to ALL callers of that flight and caches nothing.
  /// `was_hit`/`was_shared` (optional) report how the entry was
  /// obtained.
  EntryPtr acquire(const RomKey& key,
                   const std::function<ReduceResult()>& build,
                   bool* was_hit = nullptr, bool* was_shared = nullptr);

  /// Lookup by wire key; nullptr when absent (evicted or never built).
  EntryPtr find(const std::string& key_hex);

  RegistryStats stats() const;

 private:
  struct Inflight;

  void insert_locked(const EntryPtr& entry);
  void evict_to_capacity_locked();

  mutable std::mutex mutex_;
  std::int64_t capacity_bytes_;
  std::int64_t resident_bytes_ = 0;
  std::uint64_t tick_ = 0;  ///< LRU clock
  struct Resident {
    EntryPtr entry;
    std::uint64_t last_used = 0;
  };
  std::map<RomKey, Resident> entries_;
  std::map<RomKey, std::shared_ptr<Inflight>> inflight_;
  RegistryStats stats_;
};

}  // namespace sympvl::serve
