// Tuple routing for the sharded cluster runtime.
//
// Two partitioning policies:
//
// * kSplitGrid — the SplitJoin discipline (store-to-one-shard,
//   process-against-all) generalized to a rows×cols worker grid, the
//   join-matrix layout: R tuples are assigned round-robin to a *row* and
//   replicated across that row's workers; S tuples are assigned
//   round-robin to a *column* and replicated down it. Every (r, s) pair
//   meets at exactly one worker — (row(r), col(s)) — and, because the
//   round-robin row/column assignment slices each stream exactly like
//   SplitJoin's per-core turn counting, each worker's local count-based
//   sub-window of W/rows (resp. W/cols) tuples is precisely its slice of
//   the global W-tuple window. Works for arbitrary join predicates.
//
// * kKeyHash — equi-join fast path: each tuple goes to the single worker
//   owning its key, so matches co-locate and no replication is needed.
//   State is partitioned (each worker stores only its key range), which
//   cuts per-probe scan work by the shard count — the scaling mode.
//   Ownership is indirected through a versioned KeyspaceMap (keyslot →
//   shard table plus hot-key split groups) so hal::elastic can move key
//   ranges and split skewed keys at runtime; a fresh router starts from
//   KeyspaceMap::uniform(shards), which reproduces the static
//   hash(key) % shards layout. The router can additionally count routed
//   tuples per key (enable_load_tracking) — the measured-skew feed for
//   the elastic rebalance policy.
//
// Exactness: a worker wraps an unmodified single-node engine, which evicts
// by *local* arrival count. Whenever a worker's local window can outlive
// the global W-tuple window (kKeyHash, or the long side of a non-square
// grid), the engine is given a window large enough to never *miss* a
// global-window partner, and the worker itself drops the stale extras
// before they reach the wire. The rule needs no lookup table: the
// HorizonStamper at the ingress stamps every admitted tuple with its
// *horizon*, the seq of the oldest opposite-stream tuple still inside the
// global window when it arrived (0 while that stream has not yet filled
// the window). Seqs rise with arrival, so a stored tuple q is in probe p's
// window iff q.seq >= p.horizon — the reference oracle's probe-then-insert
// rule, decided from the probe's own stamp. The stamper keeps the seqs of
// the last W tuples of each stream (2·W in all), whatever the run length.
// Subset guarantee + superset filter ⇒ byte-identical result multisets to
// the single-node oracle.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "cluster/keyspace.h"
#include "common/assert.h"
#include "simd/probe.h"
#include "stream/tuple.h"

namespace hal::cluster {

enum class Partitioning : std::uint8_t {
  kSplitGrid,  // store-to-one, process-against-all (any predicate)
  kKeyHash,    // hash(key) ownership (equi-joins)
};

[[nodiscard]] constexpr const char* to_string(Partitioning p) noexcept {
  switch (p) {
    case Partitioning::kSplitGrid: return "split-grid";
    case Partitioning::kKeyHash: return "key-hash";
  }
  return "?";
}

// Per-shard window discipline (see header comment).
enum class WindowMode : std::uint8_t {
  // Workers hold enough history that, after the merger's window filter,
  // the cluster is byte-identical to the global count-based W window.
  kExactGlobal,
  // Workers hold W/shards each (kKeyHash) — the discipline real
  // key-partitioned deployments use: per-partition count-based windows.
  // Aggregate state is W, per-probe work drops by the shard count.
  kPartitionedLocal,
};

[[nodiscard]] constexpr const char* to_string(WindowMode m) noexcept {
  switch (m) {
    case WindowMode::kExactGlobal: return "exact-global";
    case WindowMode::kPartitionedLocal: return "partitioned-local";
  }
  return "?";
}

class Router {
 public:
  Router(Partitioning partitioning, std::uint32_t rows, std::uint32_t cols);

  // Shard slots (grid cells or hash partitions) the tuple must visit, in
  // slot-index order. Must be called exactly once per tuple, in arrival
  // order (grid assignment advances per-stream round-robin counters).
  void route(const stream::Tuple& t, std::vector<std::uint32_t>& slots_out);

  // Batch-granularity routing: one call per arrival-order span, invoking
  // emit(tuple, slot) for every (tuple, destination) pair without a
  // scratch-vector round trip per tuple. Equivalent to route() called
  // tuple-by-tuple (the round-robin counters advance identically); it
  // exists so the cluster ingress amortizes the per-tuple dispatch the
  // same way the engines do.
  template <typename EmitFn>
  void route_span(std::span<const stream::Tuple> tuples, EmitFn&& emit) {
    if (partitioning_ == Partitioning::kKeyHash) {
      if (!track_load_ && map_.splits().empty()) {
        // Hot-loop fast path: no per-key accounting, no split groups —
        // every tuple goes to owners[keyslot(key)]. Hash a chunk of keys
        // at a time through the simd kernel (identical output to
        // KeyspaceMap::hash_key lane by lane, pinned by the kernel
        // tests), then emit through the owner table.
        const std::uint32_t* owners = map_.owners().data();
        std::size_t pos = 0;
        while (pos < tuples.size()) {
          const std::size_t n = std::min(kHashChunk, tuples.size() - pos);
          for (std::size_t j = 0; j < n; ++j) {
            hash_keys_[j] = tuples[pos + j].key;
          }
          simd::hash_fib_hi16(hash_keys_.data(), n, hash_out_.data());
          for (std::size_t j = 0; j < n; ++j) {
            emit(tuples[pos + j],
                 owners[hash_out_[j] % KeyspaceMap::kKeyslots]);
          }
          pos += n;
        }
        return;
      }
      for (const stream::Tuple& t : tuples) route_hashed(t, emit);
      return;
    }
    for (const stream::Tuple& t : tuples) {
      if (t.origin == stream::StreamId::R) {
        const auto row = static_cast<std::uint32_t>(count_r_++ % rows_);
        for (std::uint32_t col = 0; col < cols_; ++col) {
          emit(t, row * cols_ + col);
        }
      } else {
        const auto col = static_cast<std::uint32_t>(count_s_++ % cols_);
        for (std::uint32_t row = 0; row < rows_; ++row) {
          emit(t, row * cols_ + col);
        }
      }
    }
  }

  // Construction-time slot count (grid cells, or the initial shard count
  // for kKeyHash). Elastic reconfiguration can grow past this; the
  // cluster engine tracks the live slot set itself.
  [[nodiscard]] std::uint32_t num_slots() const noexcept {
    return rows_ * cols_;
  }
  [[nodiscard]] Partitioning partitioning() const noexcept {
    return partitioning_;
  }
  [[nodiscard]] std::uint32_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::uint32_t cols() const noexcept { return cols_; }

  // --- Elastic keyspace (kKeyHash only) --------------------------------
  [[nodiscard]] const KeyspaceMap& keyspace() const {
    HAL_CHECK(partitioning_ == Partitioning::kKeyHash,
              "the keyspace map only exists under key-hash partitioning");
    return map_;
  }
  // Atomic (from the routing thread's perspective: between route calls)
  // swap to the next revision. Revisions install strictly in order.
  void set_keyspace(KeyspaceMap map);

  // --- Per-key load accounting (skew detection) ------------------------
  void enable_load_tracking() noexcept { track_load_ = true; }
  [[nodiscard]] const std::unordered_map<std::uint32_t, std::uint64_t>&
  key_load() const noexcept {
    return key_load_;
  }
  void reset_key_load() { key_load_.clear(); }

 private:
  // Key-hash dispatch for one tuple: hot-key groups replicate R to every
  // member and deal S round-robin (each (r, s) pair of the key meets at
  // exactly one member — s's member, which holds every windowed r);
  // everything else goes to the keyslot owner.
  template <typename EmitFn>
  void route_hashed(const stream::Tuple& t, EmitFn&& emit) {
    if (track_load_) ++key_load_[t.key];
    if (!map_.splits().empty()) {
      if (const std::vector<std::uint32_t>* group = map_.split_group(t.key)) {
        if (t.origin == stream::StreamId::R) {
          for (const std::uint32_t slot : *group) emit(t, slot);
        } else {
          emit(t, (*group)[split_turn_[t.key]++ % group->size()]);
        }
        return;
      }
    }
    emit(t, map_.shard_of_key(t.key));
  }

  Partitioning partitioning_;
  std::uint32_t rows_;  // kKeyHash: rows_ == 1, cols_ == initial shards
  std::uint32_t cols_;
  std::uint64_t count_r_ = 0;  // grid round-robin turn counters
  std::uint64_t count_s_ = 0;

  KeyspaceMap map_;  // kKeyHash only; starts at uniform(cols_)
  // Per-split-key S-side deal counters. Survive re-splits; routing stays
  // deterministic either way (single routing thread).
  std::unordered_map<std::uint32_t, std::uint64_t> split_turn_;

  bool track_load_ = false;
  std::unordered_map<std::uint32_t, std::uint64_t> key_load_;

  // Gather/landing buffers of the batched keyslot-hash fast path (the
  // router is single-threaded, like the turn counters above).
  static constexpr std::size_t kHashChunk = 256;
  std::vector<std::uint32_t> hash_keys_ = std::vector<std::uint32_t>(kHashChunk);
  std::vector<std::uint32_t> hash_out_ = std::vector<std::uint32_t>(kHashChunk);
};

// Ingress horizon stamps for exact-global windows (see the header
// comment). Single-threaded, like the router.
class HorizonStamper {
 public:
  explicit HorizonStamper(std::size_t window);

  // Records one admitted arrival and returns its horizon. Tuples must be
  // stamped in arrival order, seqs strictly ascending across the run; seqs
  // may have gaps (tuples shed before the stamper never advance it).
  [[nodiscard]] std::uint64_t stamp(const stream::Tuple& t) {
    HAL_CHECK(t.seq >= next_seq_,
              "exact-global windows need seqs that ascend across the run");
    next_seq_ = t.seq + 1;
    const bool is_r = t.origin == stream::StreamId::R;
    const std::uint64_t horizon = (is_r ? s_ : r_).oldest(window_);
    (is_r ? r_ : s_).push(t.seq, window_);
    return horizon;
  }

  // Seqs currently held, over both streams (at most 2·window).
  [[nodiscard]] std::size_t held() const noexcept {
    return r_.seqs.size() + s_.seqs.size();
  }

 private:
  // The seqs of a stream's last `window` arrivals: grows to `window`, then
  // overwrites its oldest entry (at `head`) in place.
  struct Ring {
    std::vector<std::uint64_t> seqs;
    std::size_t head = 0;

    [[nodiscard]] std::uint64_t oldest(std::size_t window) const noexcept {
      return seqs.size() < window ? 0 : seqs[head];
    }
    void push(std::uint64_t seq, std::size_t window) {
      if (seqs.size() < window) {
        seqs.push_back(seq);
        return;
      }
      seqs[head] = seq;
      head = head + 1 == window ? 0 : head + 1;
    }
  };

  std::size_t window_;
  std::uint64_t next_seq_ = 0;  // lowest seq the next arrival may carry
  Ring r_;
  Ring s_;
};

// The worker half of the exact-global rule: erases from `results` every
// pair whose stored tuple had left its probe's global window, and returns
// how many it erased. `tuples` is the arrival-order batch the results were
// computed from and `horizons` its stamps; every result's probe (its
// higher-seq tuple) must be in `tuples` — an engine's process() runs a
// batch to completion, so it is.
std::size_t drop_stale_pairs(std::span<const stream::Tuple> tuples,
                             std::span<const std::uint64_t> horizons,
                             std::vector<stream::ResultTuple>& results);

// Deterministic emission order: by probing-tuple arrival, then r.seq, then
// s.seq (the gathering-network contract). A total order on distinct pairs.
[[nodiscard]] inline bool emission_before(const stream::ResultTuple& a,
                                          const stream::ResultTuple& b) {
  const std::uint64_t pa = std::max(a.r.seq, a.s.seq);
  const std::uint64_t pb = std::max(b.r.seq, b.s.seq);
  if (pa != pb) return pa < pb;
  if (a.r.seq != b.r.seq) return a.r.seq < b.r.seq;
  return a.s.seq < b.s.seq;
}

}  // namespace hal::cluster
