// Correctness of the bi-flow (handshake join) hardware engine.
//
// Handshake join produces results *lazily*: a pair meets when the two
// tuples cross somewhere in the chain, which may happen many arrivals
// after the later tuple entered. The verifiable invariants are therefore:
//
//   1. single-core chain == eager reference oracle exactly (no flow);
//   2. every emitted pair satisfies the join predicate;
//   3. no pair is emitted twice (the paper's race-condition locks);
//   4. no pair is emitted whose window distance exceeds the window plus
//      the in-flight slack (outgoing buffers + driver skew);
//   5. every "interior" oracle pair — comfortably inside the window, with
//      enough subsequent input to force the crossing — is emitted.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "hw/biflow/engine.h"
#include "stream/generator.h"
#include "stream/reference_join.h"
#include "support/param_printer.h"

namespace hal::hw {
namespace {

using stream::JoinSpec;
using stream::normalize;
using stream::ReferenceJoin;
using stream::ResultKey;
using stream::StreamId;
using stream::Tuple;

std::vector<Tuple> make_workload(std::size_t n, std::uint32_t key_domain,
                                 std::uint64_t seed) {
  stream::WorkloadConfig wl;
  wl.seed = seed;
  wl.key_domain = key_domain;
  stream::WorkloadGenerator gen(wl);
  return gen.take(n);
}

TEST(BiflowEngine, SingleCoreMatchesOracleInAcceptanceOrder) {
  // With one core there is no chain flow; the engine is an eager
  // nested-loop join over the order in which the core accepted entries
  // (the two entry ports may interleave R and S differently from the
  // offer order, so we replay the core's own acceptance log).
  BiflowConfig cfg;
  cfg.num_cores = 1;
  cfg.window_size = 16;
  BiflowEngine engine(cfg);
  engine.mutable_core(0).set_record_acceptance(true);
  const JoinSpec spec = JoinSpec::equi_on_key();
  engine.program(spec);
  const auto tuples = make_workload(120, 8, 3);
  engine.offer(tuples);
  engine.run_to_quiescence(10'000'000);

  ReferenceJoin oracle(16, spec);
  EXPECT_EQ(normalize(engine.result_tuples()),
            normalize(oracle.process_all(engine.core(0).acceptance_log())));
  EXPECT_EQ(engine.core(0).acceptance_log().size(), tuples.size());
}

struct BiParams {
  std::uint32_t cores;
  std::size_t window;
  std::uint32_t key_domain;
  std::uint64_t seed;
};

// Stable ctest names (tests/support/param_printer.h).
void PrintTo(const BiParams& p, std::ostream* os) {
  test_support::print_fields(p, os,
                             &BiParams::cores, &BiParams::window,
                             &BiParams::key_domain, &BiParams::seed);
}

std::string bi_name(const testing::TestParamInfo<BiParams>& info) {
  return "c" + std::to_string(info.param.cores) + "_w" +
         std::to_string(info.param.window) + "_k" +
         std::to_string(info.param.key_domain) + "_s" +
         std::to_string(info.param.seed);
}

class BiflowInvariantTest : public testing::TestWithParam<BiParams> {};

TEST_P(BiflowInvariantTest, ExactlyOnceWithinWindowTolerance) {
  const BiParams& p = GetParam();
  BiflowConfig cfg;
  cfg.num_cores = p.cores;
  cfg.window_size = p.window;
  BiflowEngine engine(cfg);
  const JoinSpec spec = JoinSpec::equi_on_key();
  engine.program(spec);

  const auto tuples = make_workload(4 * p.window + 21, p.key_domain, p.seed);
  engine.offer(tuples);
  engine.run_to_quiescence(500'000'000);

  const auto results = engine.result_tuples();

  // (2) every pair satisfies the predicate; keys match by construction of
  // the result, so verify against the original tuples by seq.
  for (const auto& res : results) {
    EXPECT_TRUE(spec.matches(res.r, res.s));
    EXPECT_EQ(res.r.origin, StreamId::R);
    EXPECT_EQ(res.s.origin, StreamId::S);
  }

  // (3) exactly-once: no duplicates.
  const auto keys = normalize(results);
  const std::set<ResultKey> unique(keys.begin(), keys.end());
  EXPECT_EQ(unique.size(), keys.size()) << "duplicate result pairs emitted";

  // Slack: outgoing buffers on each boundary plus driver skew, in units
  // of window distance (per-stream tuple counts ~ half the merged count).
  const std::size_t sub = p.window / p.cores;
  const std::size_t slack = 2 * sub + 4 * p.cores + 16;

  // (4) soundness: nothing outside the widened window.
  ReferenceJoin wide(p.window + slack, spec);
  const auto wide_keys = normalize(wide.process_all(tuples));
  const std::set<ResultKey> wide_set(wide_keys.begin(), wide_keys.end());
  for (const auto& k : keys) {
    EXPECT_TRUE(wide_set.contains(k))
        << "pair (" << k.r_seq << "," << k.s_seq
        << ") outside the widened window";
  }

  // (5) completeness: interior pairs of the narrowed window whose both
  // tuples have at least ~2*window subsequent merged arrivals (time for
  // the crossing) must all be present.
  if (p.window > slack) {
    ReferenceJoin narrow(p.window - slack, spec);
    const auto narrow_results = narrow.process_all(tuples);
    const std::uint64_t cutoff = tuples.size() - 2 * p.window;
    std::size_t checked = 0;
    for (const auto& res : narrow_results) {
      if (res.r.seq >= cutoff || res.s.seq >= cutoff) continue;
      ++checked;
      EXPECT_TRUE(unique.contains(key_of(res)))
          << "interior pair (" << res.r.seq << "," << res.s.seq
          << ") never met";
    }
    EXPECT_GT(checked, 0u) << "test vacuous: no interior pairs checked";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BiflowInvariantTest,
    testing::Values(BiParams{2, 64, 8, 1}, BiParams{2, 128, 16, 2},
                    BiParams{4, 128, 8, 3}, BiParams{4, 256, 32, 4},
                    BiParams{8, 256, 16, 5}, BiParams{8, 512, 64, 6},
                    BiParams{16, 512, 32, 7}),
    bi_name);

TEST(BiflowEngine, PrefillLaysOutChainLikeStreaming) {
  // prefill() must leave the chain in a state equivalent to having
  // streamed the same tuples: sub-windows full with the newest R slice at
  // core 0 and the newest S slice at core N-1, and subsequent streaming
  // must satisfy the usual invariants (soundness + no duplicates).
  BiflowConfig cfg;
  cfg.num_cores = 4;
  cfg.window_size = 64;
  BiflowEngine engine(cfg);
  const JoinSpec spec = JoinSpec::equi_on_key();
  engine.program(spec);

  const auto fill = make_workload(3 * 64, 16, 9);
  engine.prefill(fill);
  std::size_t total_r = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    total_r += engine.core(i).window(StreamId::R).size();
  }
  EXPECT_EQ(total_r, 64u) << "windows full after prefilling > W per stream";
  // Newest R tuple sits at core 0; oldest in-window R at core 3.
  const auto& newest_slice = engine.core(0).window(StreamId::R);
  const auto& oldest_slice = engine.core(3).window(StreamId::R);
  EXPECT_GT(newest_slice.at(newest_slice.size() - 1).seq,
            oldest_slice.at(0).seq);

  // Stream more tuples; results must be sound and duplicate-free.
  stream::WorkloadConfig wl;
  wl.seed = 10;
  wl.key_domain = 16;
  stream::WorkloadGenerator gen(wl);
  auto more = gen.take(128);
  for (auto& t : more) t.seq += fill.size();  // keep seqs unique
  engine.offer(more);
  engine.run_to_quiescence(100'000'000);

  const auto keys = normalize(engine.result_tuples());
  const std::set<ResultKey> unique(keys.begin(), keys.end());
  EXPECT_EQ(unique.size(), keys.size());
  for (const auto& res : engine.result_tuples()) {
    EXPECT_TRUE(spec.matches(res.r, res.s));
  }
}

TEST(BiflowEngine, RequiresProgrammingBeforeOffer) {
  BiflowConfig cfg;
  cfg.num_cores = 2;
  cfg.window_size = 8;
  BiflowEngine engine(cfg);
  Tuple t;
  t.origin = StreamId::R;
  EXPECT_THROW(engine.offer(t), PreconditionError);
}

TEST(BiflowEngine, WindowOccupancySumsToWindowSize) {
  BiflowConfig cfg;
  cfg.num_cores = 4;
  cfg.window_size = 32;
  BiflowEngine engine(cfg);
  engine.program(JoinSpec::equi_on_key());
  const auto tuples = make_workload(400, 16, 11);
  engine.offer(tuples);
  engine.run_to_quiescence(100'000'000);

  // After far more than W tuples per stream, every sub-window is full:
  // the chain holds exactly W tuples per stream.
  std::size_t total_r = 0;
  std::size_t total_s = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    total_r += engine.core(i).window(StreamId::R).size();
    total_s += engine.core(i).window(StreamId::S).size();
  }
  EXPECT_EQ(total_r, 32u);
  EXPECT_EQ(total_s, 32u);
  // And tuples expired off both chain ends.
  EXPECT_GT(engine.core(3).expired(), 0u);  // R expires rightward
  EXPECT_GT(engine.core(0).expired(), 0u);  // S expires leftward
}

TEST(BiflowEngine, DesignStatsReflectBiflowComplexity) {
  BiflowConfig cfg;
  cfg.num_cores = 8;
  cfg.window_size = 64;
  BiflowEngine engine(cfg);
  const DesignStats s = engine.design_stats();
  EXPECT_EQ(s.flow, FlowModel::kBiflow);
  EXPECT_EQ(s.io_channels_per_core, 5u);
  EXPECT_EQ(s.num_cores, 8u);
  EXPECT_EQ(s.sub_window_capacity, 8u);
}

}  // namespace
}  // namespace hal::hw
