#include "oracle.h"

#include <chrono>

namespace perfbench {

using hal::stream::ResultTuple;
using hal::stream::StreamId;
using hal::stream::Tuple;

bool digest_results(const std::vector<ResultTuple>& results, Digest& out) {
  bool ok = true;
  for (const ResultTuple& p : results) {
    ok = ok && p.r.origin == StreamId::R && p.s.origin == StreamId::S &&
         p.r.key == p.s.key;
    out.add(p.r.seq, p.s.seq);
  }
  return ok;
}

WindowJoinOracle::Side::Side(std::size_t window, std::uint32_t key_domain)
    : keys(window), seqs(window), next(window, kNone),
      head(key_domain, kNone), tail(key_domain, kNone) {}

void WindowJoinOracle::Side::insert(std::uint32_t key, std::uint64_t seq) {
  const auto slot = static_cast<std::uint32_t>(pos);
  if (size == keys.size()) {  // evict the oldest, which heads its chain
    const std::uint32_t old = keys[slot];
    head[old] = next[slot];
    if (head[old] == kNone) tail[old] = kNone;
  } else {
    ++size;
  }
  keys[slot] = key;
  seqs[slot] = seq;
  next[slot] = kNone;
  if (tail[key] == kNone) {
    head[key] = slot;
  } else {
    next[tail[key]] = slot;
  }
  tail[key] = slot;
  pos = (pos + 1) % keys.size();
}

WindowJoinOracle::WindowJoinOracle(std::size_t window,
                                   std::uint32_t key_domain)
    : r_(window, key_domain), s_(window, key_domain) {}

void WindowJoinOracle::step(const Tuple& t, Digest* out) {
  const bool is_r = t.origin == StreamId::R;
  Side& own = is_r ? r_ : s_;
  const Side& other = is_r ? s_ : r_;
  if (out != nullptr) {
    for (std::uint32_t i = other.head.at(t.key); i != Side::kNone;
         i = other.next[i]) {
      if (is_r) {
        out->add(t.seq, other.seqs[i]);
      } else {
        out->add(other.seqs[i], t.seq);
      }
    }
  }
  own.insert(t.key, t.seq);
}

void WindowJoinOracle::fill(const std::vector<Tuple>& tuples) {
  for (const Tuple& t : tuples) step(t, nullptr);
}

void WindowJoinOracle::process(const std::vector<Tuple>& tuples,
                               Digest& out) {
  for (const Tuple& t : tuples) step(t, &out);
}

WindowJoinOracle::Check WindowJoinOracle::check(
    const std::vector<Tuple>& batch, const std::vector<ResultTuple>& results) {
  Check c;
  Digest got;
  Digest want;
  const bool pairs_ok = digest_results(results, got);
  const auto t0 = std::chrono::steady_clock::now();
  process(batch, want);
  c.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
  c.expected = want.count;
  if (!pairs_ok) {
    c.mismatch = "a result is not an R-S pair with equal keys";
  } else if (!(got == want)) {
    c.mismatch = "engine emitted " + std::to_string(got.count) +
                 " results, oracle " + std::to_string(want.count) +
                 " (or the pairs differ)";
  }
  return c;
}

}  // namespace perfbench
