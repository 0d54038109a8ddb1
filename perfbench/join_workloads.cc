// Stream-join workloads: single-node SplitJoin (splitjoin-uniform) and the
// key-hash sharded cluster over the net loopback transport (cluster-zipf).
//
// Both run the same three phases against an engine behind the
// core::StreamJoinEngine facade, and check every process() call against
// the benchmark's own window-join oracle:
//   1. set-up (construction, net link set-up, window prefill), sampled
//      repeatedly at the start and at the end of the run;
//   2. closed loop: one caller submits fixed-size chunks back to back,
//      after a warm-up; throughput_tps is the median over chunks of
//      tuples / time inside process(), which a host hiccup cannot drag;
//   3. open loop: fixed-size batches due on a fixed-rate schedule;
//      latency runs from a batch's due time to the return of its call.
#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "bench.h"
#include "cluster/cluster_engine.h"
#include "cluster/router.h"
#include "core/stream_join.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "sw/indexed_window.h"

namespace perfbench {

namespace {

using hal::stream::ResultTuple;
using hal::stream::StreamId;
using hal::stream::Tuple;

struct JoinWorkload {
  const char* span = nullptr;  // span name of the engine call
  std::size_t window = 0;
  std::uint32_t key_domain = 0;
  double zipf_theta = 0.0;  // 0 = uniform keys
  std::size_t chunk = 0;          // closed-loop tuples per process()
  std::size_t open_batch = 0;     // open-loop tuples per process()
  double open_rate_tps = 0.0;     // open-loop offered rate
  std::size_t probe_window = 0;   // per-core sub-window (isolated probe)
  std::function<std::unique_ptr<hal::core::StreamJoinEngine>()> make;
};

struct JoinRun {
  Outcome out;
  SetupTimer setup;
  std::unique_ptr<hal::core::StreamJoinEngine> engine;
  std::vector<Tuple> fill;        // prefill tuples (the first 2W seqs)
  std::vector<Tuple> sample;      // a closed-loop chunk, for layer probes
  std::vector<ResultTuple> sample_results;
  std::uint64_t tuples = 0;       // tuples sent through process()
  std::uint64_t results = 0;      // results the oracle expected
  double oracle_s = 0.0;          // time inside the oracle's join
  double throughput_tps = 0.0;
};

// One checked operation: process `batch`, then compare its results with
// the oracle's. Returns the host seconds spent inside process().
double checked_process(const JoinWorkload& wl, JoinRun& run,
                       WindowJoinOracle& oracle,
                       const std::vector<Tuple>& batch) {
  ++run.out.attempted;
  double seconds = 0.0;
  std::vector<ResultTuple> results;
  try {
    Span span(wl.span);
    const auto t0 = Clock::now();
    (void)run.engine->process(batch);
    seconds = seconds_since(t0);
    results = run.engine->take_results();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "process() failed: %s\n", e.what());
    ++run.out.failed;
    return 0.0;
  }
  Span span("oracle.check");
  const WindowJoinOracle::Check check = oracle.check(batch, results);
  run.oracle_s += check.seconds;
  run.results += check.expected;
  if (!check.mismatch.empty()) {
    run.out.mismatch("op " + std::to_string(run.out.attempted) + ": " +
                     check.mismatch);
  }
  if (run.sample_results.empty()) run.sample_results = std::move(results);
  run.tuples += batch.size();
  return seconds;
}

// A constructed engine with prefilled windows: what set-up produces.
auto ready_engine(const JoinWorkload& wl, const JoinRun& run) {
  return [&wl, &run] {
    auto engine = wl.make();
    engine->prefill(run.fill);
    return engine;
  };
}

JoinRun run_join(const JoinWorkload& wl, const Options& opt) {
  JoinRun run;
  TupleSource source(opt.seed, wl.key_domain, wl.zipf_theta);
  source.take(2 * wl.window, run.fill);

  run.engine = run.setup.sample(ready_engine(wl, run), 3, 0.1);
  WindowJoinOracle oracle(wl.window, wl.key_domain);
  oracle.fill(run.fill);

  std::vector<Tuple> batch;
  std::vector<double> rates;  // tuples/s of each timed closed-loop op
  OpenLoop load;
  load.period_us = 1e6 * static_cast<double>(wl.open_batch) / wl.open_rate_tps;
  run_phases(
      opt,
      [&](bool timed) {
        source.take(wl.chunk, batch);
        const double s = checked_process(wl, run, oracle, batch);
        if (timed && s > 0.0) {
          rates.push_back(static_cast<double>(batch.size()) / s);
        }
        if (run.sample.empty()) run.sample = batch;
      },
      [&](std::uint64_t i) {
        source.take(wl.open_batch, batch);
        const double due = load.wait_for(i);
        Span span("bench.open");
        (void)checked_process(wl, run, oracle, batch);
        load.latency_us.push_back(now_us() - due);
      },
      load);
  run.throughput_tps = median(rates);

  const double p50 = percentile(load.latency_us, 50);
  const double p99 = percentile(load.latency_us, 99);
  std::fprintf(stderr,
               "%s: %.3f results/tuple; %zu latency samples, p50 %.1f us, "
               "p99 %.1f us, late max %.1f us\n",
               opt.workload.c_str(),
               static_cast<double>(run.results) /
                   static_cast<double>(run.tuples),
               load.latency_us.size(), p50, p99, load.late_max_us);
  run.out.end_to_end = {
      {"throughput_tps", run.throughput_tps, "tuples/s"},
      {"latency_p50_us", p50, "us"},
      {"setup_s", 0.0, "s"},  // see finish_setup
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  run.out.per_layer = {
      {"trace.throughput_tps", run.throughput_tps, "tuples/s"},
      {"oracle.join_tps", static_cast<double>(run.tuples) / run.oracle_s,
       "tuples/s"},
      {"load.latency_p99_us", p99, "us"},
      {"load.late_max_us", load.late_max_us, "us"},
  };
  return run;
}

// Isolated layer probes of the traced run. Each times one pass of `pass`
// over `items` items repeatedly, for at least 0.1 s and 5 passes, inside
// a span named `span`, and returns the median ns per item.
template <typename Pass>
double median_ns_per_item(const char* span, std::size_t items, Pass&& pass) {
  std::vector<double> ns;
  double total_s = 0.0;
  while (ns.size() < 5 || total_s < 0.1) {
    Span s(span);
    const auto t0 = Clock::now();
    pass();
    const double dt = seconds_since(t0);
    total_s += dt;
    ns.push_back(1e9 * dt / static_cast<double>(items));
  }
  return median(std::move(ns));
}

// The batched path's equi-probe kernel: one core's sub-window filled from
// the workload's own prefill, probed with a workload chunk's keys.
double probe_ns_per_tuple(const JoinRun& run, std::size_t sub_window) {
  hal::sw::IndexedSoaWindow win(sub_window);
  for (const Tuple& t : run.fill) {
    if (t.origin == StreamId::S) win.insert(t);
  }
  std::uint64_t sink = 0;
  const double ns = median_ns_per_item("simd.probe", run.sample.size(), [&] {
    for (const Tuple& t : run.sample) {
      win.prefetch_equal(t.key);
      win.collect_equal(t.key, [&](const Tuple& s) { sink += s.seq; });
    }
  });
  if (sink == 1) std::fprintf(stderr, " ");  // keeps the probes live
  return ns;
}

// cluster::Router::route_span on a workload chunk.
double route_ns_per_tuple(const JoinRun& run, std::uint32_t shards) {
  hal::cluster::Router router(hal::cluster::Partitioning::kKeyHash, 1,
                              shards);
  std::uint64_t sink = 0;
  const double ns =
      median_ns_per_item("router.route_span", run.sample.size(), [&] {
        router.route_span(run.sample, [&](const Tuple& t, std::uint32_t d) {
          sink += t.seq + d;
        });
      });
  if (sink == 1) std::fprintf(stderr, " ");  // keeps the routing live
  return ns;
}

struct WireCost {
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  bool round_trip_ok = true;
};

// The net::wire codec on the workload's own batches: a chunk's tuples and
// an operation's results, cut into 64-item messages.
WireCost wire_ns_per_batch(const JoinRun& run) {
  constexpr std::size_t kItems = 64;
  std::vector<hal::net::TupleBatchMsg> tuple_msgs;
  for (std::size_t i = 0; i + kItems <= run.sample.size(); i += kItems) {
    const auto first = run.sample.begin() + static_cast<std::ptrdiff_t>(i);
    tuple_msgs.push_back({1, 0, false, {first, first + kItems}});
  }
  std::vector<hal::net::ResultBatchMsg> result_msgs;
  const std::vector<ResultTuple>& res = run.sample_results;
  for (std::size_t i = 0; i + kItems <= res.size(); i += kItems) {
    const auto first = res.begin() + static_cast<std::ptrdiff_t>(i);
    result_msgs.push_back({1, false, false, {first, first + kItems}});
  }
  const std::size_t batches = tuple_msgs.size() + result_msgs.size();
  WireCost cost;
  std::vector<std::vector<std::uint8_t>> wire;
  cost.encode_ns = median_ns_per_item("wire.encode", batches, [&] {
    wire.clear();
    for (const auto& m : tuple_msgs) wire.push_back(hal::net::encode(m));
    for (const auto& m : result_msgs) wire.push_back(hal::net::encode(m));
  });
  std::vector<hal::net::TupleBatchMsg> tuples_back(tuple_msgs.size());
  std::vector<hal::net::ResultBatchMsg> results_back(result_msgs.size());
  cost.decode_ns = median_ns_per_item("wire.decode", batches, [&] {
    std::size_t i = 0;
    for (auto& m : tuples_back) {
      cost.round_trip_ok &= hal::net::decode(wire[i++], m);
    }
    for (auto& m : results_back) {
      cost.round_trip_ok &= hal::net::decode(wire[i++], m);
    }
  });
  cost.round_trip_ok = cost.round_trip_ok && tuples_back == tuple_msgs &&
                       results_back == result_msgs;
  return cost;
}

}  // namespace

Outcome run_splitjoin_uniform(const Options& opt) {
  JoinWorkload wl;
  wl.span = "core.process";
  wl.window = std::size_t{1} << 16;
  wl.key_domain = 2 * (1u << 16);  // ~0.5 results per tuple
  wl.chunk = 32768;
  wl.open_batch = 1024;
  wl.open_rate_tps = 5.0e5;
  constexpr std::uint32_t kCores = 2;
  wl.probe_window = wl.window / kCores;
  wl.make = [&] {
    hal::core::EngineConfig cfg;
    cfg.backend = hal::core::Backend::kSwSplitJoin;
    cfg.num_cores = kCores;
    cfg.window_size = wl.window;
    cfg.dispatch_batch = 64;
    cfg.probe = hal::sw::ProbePath::kIndexed;
    cfg.collect_results = true;
    return hal::core::make_engine(cfg);
  };
  JoinRun run = run_join(wl, opt);

  hal::obs::MetricRegistry reg;
  run.engine->collect_metrics(reg, "");
  const hal::obs::ObsSnapshot snap = reg.snapshot();
  double inbox_hw = 0.0;
  for (std::uint32_t c = 0; c < kCores; ++c) {
    inbox_hw = std::max(
        inbox_hw,
        metric(snap, "core." + std::to_string(c) + ".inbox.high_water"));
  }
  auto& pl = run.out.per_layer;
  pl.push_back({"sw.probes_per_tuple",
                metric(snap, "probes") / static_cast<double>(run.tuples),
                "count"});
  pl.push_back({"sw.inbox_high_water", inbox_hw, "batches"});
  if (opt.trace) {
    pl.push_back({"simd.probe_ns_per_tuple",
                  probe_ns_per_tuple(run, wl.probe_window), "ns"});
  }
  run.engine.reset();
  finish_setup(run.out, run.setup, ready_engine(wl, run));
  add_self_times(run.out);
  finish_layers(run.out);
  return run.out;
}

Outcome run_cluster_zipf(const Options& opt) {
  JoinWorkload wl;
  wl.span = "cluster.process";
  wl.window = std::size_t{1} << 12;
  wl.key_domain = 1u << 16;
  wl.zipf_theta = 0.8;
  wl.chunk = 8192;
  wl.open_batch = 512;
  wl.open_rate_tps = 4.0e4;
  wl.probe_window = wl.window;
  hal::cluster::ClusterConfig cfg;
  cfg.partitioning = hal::cluster::Partitioning::kKeyHash;
  cfg.shards = 2;
  cfg.window_mode = hal::cluster::WindowMode::kExactGlobal;
  cfg.window_size = wl.window;
  cfg.worker.backend = hal::core::Backend::kSwSplitJoin;
  cfg.worker.num_cores = 1;
  cfg.worker.dispatch_batch = 64;
  cfg.worker.probe = hal::sw::ProbePath::kIndexed;
  cfg.worker.collect_results = true;
  cfg.transport.batch_size = 64;
  cfg.transport.link_transport = hal::net::TransportKind::kLoopback;
  wl.make = [&] {
    return std::unique_ptr<hal::core::StreamJoinEngine>(
        hal::cluster::make_cluster_engine(cfg));
  };
  JoinRun run = run_join(wl, opt);

  const hal::cluster::ClusterReport rep =
      dynamic_cast<const hal::cluster::ClusterEngine&>(*run.engine).report();
  double busy = 0.0;
  for (const auto& w : rep.workers) busy += w.busy_seconds;
  const double in = static_cast<double>(rep.input_tuples);
  auto& pl = run.out.per_layer;
  pl.push_back({"cluster.useful_pair_ratio",
                static_cast<double>(rep.merged_results) /
                    static_cast<double>(rep.merged_results +
                                        rep.filtered_results),
                "ratio"});
  pl.push_back({"cluster.worker_busy_share",
                busy / (static_cast<double>(rep.workers.size()) *
                        rep.elapsed_seconds),
                "ratio"});
  pl.push_back({"cluster.router_stall_spins",
                static_cast<double>(rep.router_stall_spins), "count"});
  pl.push_back({"cluster.worker_stall_spins",
                static_cast<double>(rep.worker_stall_spins), "count"});
  pl.push_back({"cluster.ingress_high_water",
                static_cast<double>(rep.ingress_queue_high_water), "batches"});
  pl.push_back({"cluster.egress_high_water",
                static_cast<double>(rep.egress_queue_high_water), "batches"});
  pl.push_back({"net.bytes_per_tuple",
                static_cast<double>(rep.net.bytes_sent) / in, "B"});
  pl.push_back({"net.credit_stalls",
                static_cast<double>(rep.net.credit_stalls), "count"});
  pl.push_back({"net.retransmits", static_cast<double>(rep.net.retransmits),
                "count"});
  if (opt.trace) {
    pl.push_back({"simd.probe_ns_per_tuple",
                  probe_ns_per_tuple(run, wl.probe_window), "ns"});
    pl.push_back({"cluster.route_ns_per_tuple",
                  route_ns_per_tuple(run, cfg.shards), "ns"});
    const WireCost wire = wire_ns_per_batch(run);
    pl.push_back({"net.encode_ns_per_batch", wire.encode_ns, "ns"});
    pl.push_back({"net.decode_ns_per_batch", wire.decode_ns, "ns"});
    if (!wire.round_trip_ok) run.out.mismatch("wire round trip");
  }
  run.engine.reset();
  finish_setup(run.out, run.setup, ready_engine(wl, run));
  add_self_times(run.out);
  finish_layers(run.out);
  return run.out;
}

}  // namespace perfbench
