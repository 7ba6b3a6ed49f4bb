// Per-code-hash translation cache, lock-striped into shards.
//
// Off-chain rounds and the corpus benchmarks execute the same bytecode
// thousands of times; translating it once (decoded.hpp) only pays off if
// the translation is findable again. This cache keys decoded programs by
// `keccak256(code)` plus the profile flags that shaped the translation and
// holds them behind N independently-locked LRU shards selected by
// code-hash bits, so concurrent sessions looking up (or inserting)
// distinct code don't serialize on one mutex. It is shared across `Vm`
// instances — by default every Vm consults one process-wide cache, so a
// contract deployed through the chain host and re-run by a corpus worker
// or a channel-hub session reuses the same translation.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "crypto/hash.hpp"
#include "evm/decoded.hpp"
#include "obs/metrics.hpp"
#include "runtime/thread_annotations.hpp"

namespace tinyevm::evm {

class CodeCache {
 public:
  struct Config {
    /// Total decoded-program bytes retained; least-recently-used
    /// translations are evicted past this. The budget is split evenly
    /// across the shards, so a single translation larger than
    /// capacity_bytes / shards is handed to its one execution uncached —
    /// size the cap (or lower `shards`) accordingly when max_code_bytes
    /// is raised.
    std::size_t capacity_bytes = 8u << 20;
    /// Code larger than this is never translated — the raw threaded loop
    /// runs it. Bounds worst-case translate latency and cache churn from
    /// one-shot giants.
    std::size_t max_code_bytes = 64u << 10;
    /// Lock-striped shards, selected by code-hash bits (clamped to >= 1).
    /// More shards cut mutex contention when many workers touch distinct
    /// code; `shards = 1` restores the single-LRU behaviour exactly.
    std::size_t shards = 8;
  };

  /// Counter invariant: every non-empty get_or_translate call resolves as
  /// exactly one of hit / miss / oversized, so
  ///   hits + misses + oversized == lookups
  /// always holds (empty code returns before any accounting). The
  /// aggregate stats() sums the per-shard counters, so the invariant holds
  /// for the aggregate and for every shard_stats() row individually.
  struct Stats {
    std::uint64_t lookups = 0;     ///< non-empty get_or_translate calls
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;      ///< lookups that had to translate
    std::uint64_t evictions = 0;   ///< entries dropped by the byte cap
    std::uint64_t oversized = 0;   ///< lookups declined by max_code_bytes
    /// Concurrent first executions of the same code race to translate;
    /// each loser's finished translation is dropped in favour of the
    /// winner's cached entry. Purely wasted work. Cumulative: one racing
    /// episode adds at most racers-1, but evicted code can be re-raced,
    /// so the counter itself is unbounded over a run.
    std::uint64_t dup_translations = 0;
    /// Shard-mutex acquisitions that found the lock already held and had
    /// to wait; scraped per shard as tinyevm_cache_lock_contentions_total.
    std::uint64_t lock_contentions = 0;
    std::size_t bytes = 0;         ///< resident decoded-program bytes
    std::size_t entries = 0;
    std::size_t shards = 0;        ///< stripe count (Config::shards clamped)
    /// Check-elision spans (decoded.hpp::ElideSpan) across the resident
    /// translations — how much of the cache the static analyzer proved
    /// safe for block-granular dispatch. Resident-state gauge like
    /// `bytes`/`entries`, not a cumulative counter.
    std::size_t elide_spans = 0;
    /// Translate-time dataflow results summed over the resident
    /// translations (DecodedProgram::AnalysisSummary): dynamic jumps the
    /// constant propagation turned into static edges vs. those left as
    /// every-JUMPDEST over-approximations, blocks/slots proven dead, and
    /// the stream slots elide spans cover. Resident-state gauges like
    /// `elide_spans`.
    struct Analysis {
      std::uint64_t resolved_jumps = 0;
      std::uint64_t unresolved_jumps = 0;
      std::uint64_t dead_blocks = 0;
      std::uint64_t dead_slots = 0;
      std::uint64_t span_slots = 0;
    } analysis;

    [[nodiscard]] double hit_rate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(total);
    }
  };

  CodeCache();
  explicit CodeCache(Config config);

  /// Returns the decoded program for `code`, translating (and caching) on
  /// a miss. Pass `code_hash` when the caller already knows
  /// keccak256(code) — the chain host caches it per account — to skip
  /// rehashing. Returns nullptr for empty or oversized code; the caller
  /// then runs the raw threaded loop.
  std::shared_ptr<const DecodedProgram> get_or_translate(
      std::span<const std::uint8_t> code, const TranslationProfile& profile,
      const Hash256* code_hash = nullptr);

  /// Aggregate over every shard.
  [[nodiscard]] Stats stats() const;
  /// One shard's counters (shard < shard_count()); `shards` is set to 1.
  [[nodiscard]] Stats shard_stats(std::size_t shard) const;
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  void clear();
  [[nodiscard]] const Config& config() const { return config_; }

  /// The process-wide cache every Vm uses unless handed its own — this is
  /// what shares translations across Vm instances (chain hosts, corpus
  /// workers, channel endpoints and hubs all construct their own Vm).
  /// Constructed lazily with the configure_shared_default() config, or
  /// Config{} when none was installed.
  static const std::shared_ptr<CodeCache>& shared_default();

  /// Installs the Config the process-wide cache will be built with. Must
  /// run before anything touches shared_default() (constructing a Vm
  /// without an explicit cache counts): the first use wins, and a call
  /// after the cache exists returns false and changes nothing.
  static bool configure_shared_default(const Config& config);

 private:
  struct Key {
    Hash256 hash{};
    std::uint8_t profile = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHasher {
    std::size_t operator()(const Key& k) const;
  };
  struct Entry {
    Key key;
    std::shared_ptr<const DecodedProgram> program;
    std::size_t bytes = 0;
  };
  /// One lock stripe: an independent LRU over its slice of the key space
  /// with its own byte budget and counters. Locked inline via
  /// `runtime::MutexLock lock(shard.mu, shard.lock_contentions)` — the
  /// contended-acquisition counting lives in the lock type now, and a
  /// scoped capability cannot be returned from a helper.
  struct Shard {
    mutable runtime::Mutex mu;
    std::list<Entry> lru GUARDED_BY(mu);  // front = most recently used
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHasher> index
        GUARDED_BY(mu);
    std::size_t bytes GUARDED_BY(mu) = 0;
    std::uint64_t lookups GUARDED_BY(mu) = 0;
    std::uint64_t hits GUARDED_BY(mu) = 0;
    std::uint64_t misses GUARDED_BY(mu) = 0;
    std::uint64_t evictions GUARDED_BY(mu) = 0;
    std::uint64_t oversized GUARDED_BY(mu) = 0;
    std::uint64_t dup_translations GUARDED_BY(mu) = 0;
    /// Outside mu: bumped before blocking on it (mutable so const stats
    /// readers can count their own contended acquisitions too).
    mutable std::atomic<std::uint64_t> lock_contentions{0};
  };

  Shard& shard_for(const Key& key);
  void accumulate(const Shard& shard, Stats& s) const REQUIRES(shard.mu);

  Config config_;
  std::size_t shard_capacity_bytes_;
  std::vector<Shard> shards_;
  /// Scrape-time registration publishing stats() (plus per-shard
  /// lock_contentions) under a per-instance `cache` label. Declared last:
  /// the handle's destructor is the barrier that keeps a concurrent
  /// scrape from reading a cache mid-teardown.
  obs::CollectorHandle collector_;
};

}  // namespace tinyevm::evm
