// Independent output oracles. They share no code with the engines or with
// stream::ReferenceJoin: the window join below is a hash-indexed,
// count-based window equi-join written for the benchmark alone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stream/tuple.h"

namespace perfbench {

// Order-independent multiset digest of result pairs (or records): count
// plus two commutative folds of a strong per-item hash.
struct Digest {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t xors = 0;

  void add(std::uint64_t a, std::uint64_t b) {
    std::uint64_t h = a * 0x9E3779B97F4A7C15ull ^ (b + 0x632BE59BD9B4E019ull);
    h ^= h >> 32;
    h *= 0xD6E8FEB86659FD93ull;
    h ^= h >> 29;
    ++count;
    sum += h;
    xors ^= h * 0xFF51AFD7ED558CCDull;
  }
  friend bool operator==(const Digest&, const Digest&) = default;
};

// Digest of engine results over (r.seq, s.seq); false if any result is not
// an R-S pair with r.key == s.key.
[[nodiscard]] bool digest_results(
    const std::vector<hal::stream::ResultTuple>& results, Digest& out);

// Sliding-window equi-join on key with count-based windows of `window`
// tuples per stream: a new tuple probes the opposite window, then enters
// its own, evicting that stream's oldest tuple once the window is full.
// Each window is a ring of (key, seq) with a per-key chain through the
// ring, so a probe walks exactly the matching tuples; the chain heads are
// a direct-addressed table over the key domain [0, key_domain).
class WindowJoinOracle {
 public:
  WindowJoinOracle(std::size_t window, std::uint32_t key_domain);

  // Loads tuples into the windows without emitting (engine prefill).
  void fill(const std::vector<hal::stream::Tuple>& tuples);
  // Joins tuples in arrival order, folding every pair into `out`.
  void process(const std::vector<hal::stream::Tuple>& tuples, Digest& out);

  struct Check {
    std::uint64_t expected = 0;  // the oracle's result count
    double seconds = 0.0;        // time in the oracle's join
    std::string mismatch;        // empty when the results agree
  };
  // Joins `batch` and compares the outcome with the engine's results for
  // the same batch.
  Check check(const std::vector<hal::stream::Tuple>& batch,
              const std::vector<hal::stream::ResultTuple>& results);

 private:
  struct Side {
    Side(std::size_t window, std::uint32_t key_domain);
    void insert(std::uint32_t key, std::uint64_t seq);

    static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
    std::vector<std::uint32_t> keys;
    std::vector<std::uint64_t> seqs;
    std::vector<std::uint32_t> next;  // newer slot with the same key
    std::vector<std::uint32_t> head;  // per key: oldest slot, or kNone
    std::vector<std::uint32_t> tail;  // per key: newest slot
    std::size_t size = 0;
    std::size_t pos = 0;  // next write slot (oldest once full)
  };

  void step(const hal::stream::Tuple& t, Digest* out);

  Side r_;
  Side s_;
};

}  // namespace perfbench
