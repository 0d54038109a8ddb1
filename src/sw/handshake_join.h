// Software realization of the bi-flow model: handshake join on a
// multi-core CPU (Teubner & Mueller, SIGMOD'11 — the paper's [33]).
//
// One thread per join core, arranged in a chain. R tuples enter at core 0
// and flow right, S tuples enter at core N-1 and flow left. The shared
// state between adjacent cores lives on the *boundary*: a mutex (the
// paper's "locks needed to avoid race conditions") plus the two eviction
// queues whose occupants are still logically resident in their source
// core's window. A tuple entering a core through a boundary is scanned
// against the core's opposite sub-window and that boundary's opposite
// eviction queue while the boundary lock is held, which makes every R/S
// crossing observable exactly once — the same discipline the hardware
// HandshakeChannel enforces with its one-transfer-at-a-time lock.
//
// The eviction queues are bounded, as the hardware chain's channels are: a
// core stores a tuple only if its own sub-window has room, the tuple's
// stream ends at this core (the evicted tuple expires), or the eviction
// queue toward the next core holds fewer than `input_queue_capacity`
// tuples. Otherwise the tuple is not taken and waits where it is: at the
// head of its boundary queue (still visible to crossing scans) or behind
// the chain end's input cursor. The queues, and with them the window each
// crossing scan sees, cannot grow while a neighbour is descheduled. R
// backpressure flows only rightward and S only leftward toward chain ends
// that always drain, so no wait cycle can form.
//
// Lock acquisition is ordered (entry boundary first, eviction boundary
// second; R operations lean rightward, S leftward), which excludes
// deadlock cycles on the boundary mutexes.
//
// The batched data path (`process_batched`) feeds the chain ends one
// TupleBatch per SPSC push instead of one tuple; the consuming end core
// enters the batch's tuples in arrival order and retires the whole batch
// with a single release RMW on `pending_`. Entry scans use the same
// vectorized contiguous-key kernel as SplitJoin when the spec is a pure
// key equi-join. Batching widens the feeder decoupling (the end queues
// below count batches, not tuples); the bounded boundary queues keep the
// multi-core chain within the same window tolerance as the tuple path. A
// batch that meets backpressure is entered part-way and resumed, never
// split or dropped. A 1-core chain consumes mixed batches in exact
// arrival order and stays an exact oracle.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/spsc_queue.h"
#include "core/window_image.h"
#include "obs/enabled.h"
#include "obs/metrics.h"
#include "stream/join_spec.h"
#include "stream/tuple.h"
#include "stream/tuple_batch.h"
#include "sw/indexed_window.h"
#include "sw/probe_path.h"
#include "sw/splitjoin.h"  // SwRunReport

namespace hal::sw {

struct HandshakeJoinConfig {
  std::uint32_t num_cores = 4;
  std::size_t window_size = 1 << 12;  // per stream, summed across cores
  // Bounds every queue in the chain: the feeder's end queues (entries:
  // tuples, or batches on the batched path) and each boundary eviction
  // queue (tuples). Deliberately small: the feeder blocks on a full end
  // queue and a core refuses a tuple whose eviction would overfill its
  // boundary queue, which keeps the two streams' processing order close
  // to their merged arrival order. This is the software analogue of the
  // hardware chain's rendezvous backpressure, and the knob behind
  // "adjustable ordering precision" in the SplitJoin paper's terminology —
  // a larger queue trades window-semantics fidelity for decoupling.
  // Must be at least 1.
  std::size_t input_queue_capacity = 4;
  // Equi-probe strategy of the sub-window entry scan (see
  // sw/probe_path.h); boundary-queue scans stay scalar either way.
  ProbePath probe = ProbePath::kIndexed;
};

class HandshakeJoinEngine {
 public:
  HandshakeJoinEngine(HandshakeJoinConfig cfg, stream::JoinSpec spec);
  ~HandshakeJoinEngine();

  HandshakeJoinEngine(const HandshakeJoinEngine&) = delete;
  HandshakeJoinEngine& operator=(const HandshakeJoinEngine&) = delete;

  // Feeds the batch and blocks until the chain is fully drained (all
  // queues empty, all cores idle). Results accumulate across calls.
  SwRunReport process(const std::vector<stream::Tuple>& tuples);

  // Batched feed: slices `tuples` into arrival-order spans of
  // `batch_size`. With one core the mixed span enters as-is (exact
  // arrival order, same results as `process`); with more cores each span
  // is split per stream and handed to its chain end as one batch.
  SwRunReport process_batched(const std::vector<stream::Tuple>& tuples,
                              std::size_t batch_size);

  // Results collected so far (call only between process() calls).
  [[nodiscard]] std::vector<stream::ResultTuple> results() const;
  [[nodiscard]] const HandshakeJoinConfig& config() const noexcept {
    return cfg_;
  }

  // Checkpoint/restore of the chain state (hal::recovery): per-core
  // sub-windows in age order plus the boundary eviction queues (whose
  // occupants are still logically resident). Both wait for a drained chain
  // (pending_ == 0) before touching state; restore_state returns false
  // (chain untouched) on a core-count/window-size/shape mismatch or on an
  // over-full sub-window or boundary queue.
  void snapshot_state(core::WindowImage& out);
  [[nodiscard]] bool restore_state(const core::WindowImage& image);

  // Publishes per-core probe/match/handover tallies. Everything here is
  // kRuntime: with more than one core the chain's window semantics depend
  // on thread interleaving (crossings race against arrivals), so even the
  // total result count varies run to run. Call only between process()
  // calls (quiescent chain).
  void collect_metrics(obs::MetricRegistry& registry,
                       const std::string& prefix) const;

 private:
  using BatchPtr = std::shared_ptr<const stream::TupleBatch>;

  // Both queues hold at most cfg_.input_queue_capacity tuples.
  struct Boundary {
    std::mutex mu;
    std::deque<stream::Tuple> r_q;  // evicted from core b, visible, → b+1
    std::deque<stream::Tuple> s_q;  // evicted from core b+1, visible, → b
  };

  struct Core {
    Core(std::size_t sub_window, std::size_t queue_capacity, ProbePath probe)
        : win_r(sub_window, probe),
          win_s(sub_window, probe),
          input(queue_capacity),
          batch_input(queue_capacity) {}
    IndexedSoaWindow win_r;
    IndexedSoaWindow win_s;
    SpscQueue<stream::Tuple> input;  // driver feed (used at chain ends)
    SpscQueue<BatchPtr> batch_input;  // batched driver feed (chain ends)
    // Core-thread-owned fresh input refused by backpressure: a batch
    // entered up to `cursor`, or one tuple taken off `input`.
    BatchPtr parked;
    std::size_t cursor = 0;
    stream::Tuple held;
    bool holding = false;
    std::vector<stream::ResultTuple> local_results;
    // Core-thread-owned tallies, read at quiescence (published by the
    // pending_ release/acquire pair).
    std::uint64_t probes = 0;
    std::uint64_t entries = 0;
    std::uint64_t handovers = 0;
  };

  void core_loop(std::uint32_t i);
  // Admits `t` to core i if its eviction has somewhere to go (see the
  // header comment), scans it against core i's opposite residents (own
  // sub-window plus the boundary eviction queue `extra`, which must be
  // guarded by a lock the caller already holds when non-null), then stores
  // and evicts. Returns false, having changed nothing, when backpressure
  // refuses `t`.
  [[nodiscard]] bool enter(std::uint32_t i, const stream::Tuple& t,
                           const std::deque<stream::Tuple>* extra);

  HandshakeJoinConfig cfg_;
  stream::JoinSpec spec_;
  bool pure_key_equi_ = false;
  std::vector<std::unique_ptr<Core>> cores_;
  std::vector<std::unique_ptr<Boundary>> boundaries_;  // size N-1
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> results_count_{0};
  // Tuples in flight anywhere in the chain (fresh input + handovers);
  // zero ⇔ the chain is drained and all results are visible. Per-match
  // results_count_ adds are relaxed; the release edge that publishes them
  // (and local_results) is the fetch_sub on pending_ when an entry or a
  // whole batch retires, paired with process()'s acquire load of zero.
  std::atomic<std::uint64_t> pending_{0};
};

}  // namespace hal::sw
