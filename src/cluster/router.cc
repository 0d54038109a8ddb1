#include "cluster/router.h"

#include <algorithm>

namespace hal::cluster {

Router::Router(Partitioning partitioning, std::uint32_t rows,
               std::uint32_t cols)
    : partitioning_(partitioning), rows_(rows), cols_(cols) {
  HAL_CHECK(rows_ >= 1 && cols_ >= 1, "grid must have at least one worker");
  if (partitioning_ == Partitioning::kKeyHash) {
    HAL_CHECK(rows_ == 1, "key-hash partitioning is a flat 1×N layout");
    map_ = KeyspaceMap::uniform(cols_);
  }
}

void Router::set_keyspace(KeyspaceMap map) {
  HAL_CHECK(partitioning_ == Partitioning::kKeyHash,
            "the keyspace map only exists under key-hash partitioning");
  HAL_CHECK(map.valid(), "refusing to install a malformed keyspace map");
  HAL_CHECK(map.version() == map_.version() + 1,
            "keyspace revisions must install in order, one at a time");
  map_ = std::move(map);
}

void Router::route(const stream::Tuple& t,
                   std::vector<std::uint32_t>& slots_out) {
  slots_out.clear();
  if (partitioning_ == Partitioning::kKeyHash) {
    route_hashed(t, [&](const stream::Tuple&, std::uint32_t slot) {
      slots_out.push_back(slot);
    });
    return;
  }
  // kSplitGrid: slot index = row * cols + col. R owns a row (replicated
  // across its columns), S owns a column (replicated down its rows).
  if (t.origin == stream::StreamId::R) {
    const auto row = static_cast<std::uint32_t>(count_r_++ % rows_);
    for (std::uint32_t col = 0; col < cols_; ++col) {
      slots_out.push_back(row * cols_ + col);
    }
  } else {
    const auto col = static_cast<std::uint32_t>(count_s_++ % cols_);
    for (std::uint32_t row = 0; row < rows_; ++row) {
      slots_out.push_back(row * cols_ + col);
    }
  }
}

HorizonStamper::HorizonStamper(std::size_t window) : window_(window) {
  HAL_CHECK(window_ >= 1, "the global window must hold at least one tuple");
}

std::size_t drop_stale_pairs(std::span<const stream::Tuple> tuples,
                             std::span<const std::uint64_t> horizons,
                             std::vector<stream::ResultTuple>& results) {
  HAL_CHECK(horizons.size() == tuples.size(),
            "drop_stale_pairs needs one horizon per batch tuple");
  const std::size_t before = results.size();
  std::erase_if(results, [&](const stream::ResultTuple& rt) {
    const bool r_probes = rt.r.seq > rt.s.seq;
    const std::uint64_t probe = r_probes ? rt.r.seq : rt.s.seq;
    const std::uint64_t stored = r_probes ? rt.s.seq : rt.r.seq;
    // The batch is in arrival order, so its seqs ascend.
    const auto it = std::lower_bound(
        tuples.begin(), tuples.end(), probe,
        [](const stream::Tuple& t, std::uint64_t seq) { return t.seq < seq; });
    HAL_CHECK(it != tuples.end() && it->seq == probe,
              "a result's probe is not in the batch that produced it");
    return stored < horizons[static_cast<std::size_t>(it - tuples.begin())];
  });
  return before - results.size();
}

}  // namespace hal::cluster
