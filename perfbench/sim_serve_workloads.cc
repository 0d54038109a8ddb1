// uniflow-sim: the uni-flow FPGA design on the cycle simulator.
// serve-shared: the multi-tenant serving tier over one shared plan.
//
// Both follow the join workloads' phases (repeated set-up, closed loop
// after a warm-up, fixed-rate open loop); an operation is one simulation
// batch run to quiescence, or one process_epoch().
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <string>

#include "bench.h"
#include "fqp/query.h"
#include "hw/uniflow/engine.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "serve/serve_engine.h"

namespace perfbench {

using hal::stream::Tuple;

// --- uniflow-sim ------------------------------------------------------------

Outcome run_uniflow_sim(const Options& opt) {
  // The Fig. 14c peak point: 512 join cores, W = 2^11 per stream, so each
  // core holds W/N = 4 tuples per stream.
  constexpr std::uint32_t kCores = 512;
  constexpr std::size_t kWindow = std::size_t{1} << 11;
  constexpr std::uint32_t kKeyDomain = 1u << 13;  // ~0.25 results per tuple
  constexpr std::size_t kClosedBatch = 1024;
  constexpr std::uint64_t kChunkCycles = 512;  // throughput sample size
  constexpr std::size_t kOpenBatch = 16;
  constexpr double kOpenRateTps = 5.0e2;
  // Generous drain budget; a batch that does not quiesce within it fails.
  constexpr std::uint64_t kCyclesPerTupleBudget = 64;

  Outcome out;
  TupleSource source(opt.seed, kKeyDomain, 0.0);
  std::vector<Tuple> fill;
  source.take(2 * kWindow, fill);

  hal::hw::UniflowConfig cfg;
  cfg.num_cores = kCores;
  cfg.window_size = kWindow;
  // Set-up: a programmed engine with prefilled windows.
  auto ready_engine = [&] {
    auto e = std::make_unique<hal::hw::UniflowEngine>(cfg);
    e->program(hal::stream::JoinSpec::equi_on_key());
    e->run_to_quiescence(1'000'000);
    e->prefill(fill);
    e->set_record_injections(false);
    return e;
  };
  SetupTimer setup;
  std::unique_ptr<hal::hw::UniflowEngine> engine =
      setup.sample(ready_engine, 3, 0.1);
  WindowJoinOracle oracle(kWindow, kKeyDomain);
  oracle.fill(fill);

  std::uint64_t tuples = 0;
  std::uint64_t injection_cycles = 0;   // closed-loop batches only
  std::uint64_t injected_tuples = 0;
  std::vector<double> rates;  // tuples/s of each timed closed-loop chunk
  double oracle_s = 0.0;      // time inside the oracle's join
  std::uint64_t timed_cycles = 0;
  double busy_s = 0.0;
  std::vector<Tuple> batch;

  // One checked simulation batch: offered at once, stepped until the
  // input is drained, then run to quiescence. With `chunk_tps` given it
  // steps kChunkCycles at a time and records each chunk's host speed as
  // tuples per host second (simulated cycles per host second over the
  // batch's simulated cycles per tuple); without, it steps 64 cycles at a
  // time so a short batch does not overshoot its drain by much. Returns
  // the batch's host seconds.
  auto sim_batch = [&](const std::vector<Tuple>& in,
                       std::vector<double>* chunk_tps, bool closed,
                       std::uint64_t& cycles_out) -> double {
    ++out.attempted;
    double seconds = 0.0;
    std::vector<hal::stream::ResultTuple> results;
    const std::uint64_t c0 = engine->cycle();
    try {
      Span span("hw.run");
      const auto t0 = Clock::now();
      engine->offer(in);
      const std::uint64_t step = chunk_tps != nullptr ? kChunkCycles : 64;
      std::vector<double> cycles_per_s;
      while (!engine->input_drained()) {
        const auto s0 = Clock::now();
        engine->step(step);
        cycles_per_s.push_back(static_cast<double>(step) / seconds_since(s0));
      }
      const std::uint64_t span_cycles = engine->last_injection_cycle() - c0 + 1;
      engine->run_to_quiescence(kCyclesPerTupleBudget * in.size() + 10'000);
      seconds = seconds_since(t0);
      if (chunk_tps != nullptr) {
        const double cycles_per_tuple = static_cast<double>(span_cycles) /
                                        static_cast<double>(in.size());
        for (const double cps : cycles_per_s) {
          chunk_tps->push_back(cps / cycles_per_tuple);
        }
      }
      if (closed) {
        injection_cycles += span_cycles;
        injected_tuples += in.size();
      }
      results = engine->result_tuples();
      engine->clear_results();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "simulation batch failed: %s\n", e.what());
      ++out.failed;
      return 0.0;
    }
    cycles_out = engine->cycle() - c0;
    Span span("oracle.check");
    const WindowJoinOracle::Check check = oracle.check(in, results);
    oracle_s += check.seconds;
    if (!check.mismatch.empty()) out.mismatch(check.mismatch);
    tuples += in.size();
    return seconds;
  };

  OpenLoop load;
  load.period_us = 1e6 * static_cast<double>(kOpenBatch) / kOpenRateTps;
  run_phases(
      opt,
      [&](bool timed) {
        source.take(kClosedBatch, batch);
        std::uint64_t cycles = 0;
        const double s =
            sim_batch(batch, timed ? &rates : nullptr, true, cycles);
        if (timed) {
          busy_s += s;
          timed_cycles += cycles;
        }
      },
      [&](std::uint64_t i) {
        source.take(kOpenBatch, batch);
        const double due = load.wait_for(i);
        Span span("bench.open");
        std::uint64_t cycles = 0;
        (void)sim_batch(batch, nullptr, false, cycles);
        load.latency_us.push_back(now_us() - due);
      },
      load);

  // Steady-state injection rate of the closed-loop batches. (A short
  // open-loop batch partly drains into the networks' pipeline buffers, so
  // it may pass faster than the cores' steady rate.)
  const double cycles_per_tuple = static_cast<double>(injection_cycles) /
                                  static_cast<double>(injected_tuples);
  // Method bound: every core reads one window slot per cycle, so a tuple
  // cannot pass in fewer than W/N cycles.
  if (cycles_per_tuple < static_cast<double>(kWindow) / kCores) {
    out.mismatch("cycles/tuple " + std::to_string(cycles_per_tuple) +
                 " below the W/N bound");
  }
  const double throughput = median(rates);
  out.end_to_end = {
      {"throughput_tps", throughput, "tuples/s"},
      {"latency_p50_us", percentile(load.latency_us, 50), "us"},
      {"setup_s", 0.0, "s"},  // see finish_setup
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  hal::obs::MetricRegistry reg;
  engine->collect_metrics(reg, "");
  const hal::obs::ObsSnapshot snap = reg.snapshot();
  const double n = static_cast<double>(tuples);
  out.per_layer = {
      {"trace.throughput_tps", throughput, "tuples/s"},
      {"oracle.join_tps", n / oracle_s, "tuples/s"},
      {"load.latency_p99_us", percentile(load.latency_us, 99), "us"},
      {"load.late_max_us", load.late_max_us, "us"},
      {"hw.cycles_per_tuple", cycles_per_tuple, "cycles"},
      {"hw.distribution_stall_cycles_per_tuple",
       metric(snap, "distribution.stall_cycles") / n, "cycles"},
      {"hw.gathering_stall_cycles_per_tuple",
       metric(snap, "gathering.stall_cycles") / n, "cycles"},
      {"hw.probes_per_tuple", static_cast<double>(engine->total_probes()) / n,
       "count"},
      {"sim.module_evals_per_s",
       static_cast<double>(timed_cycles) *
           static_cast<double>(engine->module_count()) / busy_s,
       "evals/s"},
  };
  engine.reset();
  finish_setup(out, setup, ready_engine);
  add_self_times(out);
  finish_layers(out);
  return out;
}

// --- serve-shared -----------------------------------------------------------

namespace {

using hal::fqp::Query;
using hal::fqp::QueryBuilder;
using hal::fqp::Record;
using hal::fqp::Schema;
using hal::serve::Arrival;
using hal::stream::CmpOp;

Schema customer() { return Schema("Customer", {"Age", "Gender", "ProductID"}); }
Schema product() { return Schema("Product", {"ProductID", "Price"}); }

// The 16-shape pool, mixed selectivities and windows: select-only chains,
// sigma(Age>T)(C) join P and C join sigma(Price<P)(P) at windows 64/256.
struct Shape {
  enum class Kind { kSelect, kJoinSelectLeft, kJoinSelectRight } kind;
  std::uint32_t threshold;  // Age > threshold, or Price < threshold
  std::size_t window;
};

Shape shape_of(std::size_t s) {
  static const std::uint32_t kAges[] = {20, 30, 40, 50};
  static const std::uint32_t kJoinAges[] = {10, 25, 35, 45};
  if (s < 4) return {Shape::Kind::kSelect, kAges[s], 0};
  if (s < 12) {
    const std::size_t j = s - 4;
    return {Shape::Kind::kJoinSelectLeft, kJoinAges[j % 4],
            j < 4 ? std::size_t{64} : std::size_t{256}};
  }
  const std::size_t j = s - 12;
  return {Shape::Kind::kJoinSelectRight, j % 2 == 0 ? 30u : 70u,
          j < 2 ? std::size_t{64} : std::size_t{256}};
}

Query build_query(const Shape& sh, const std::string& name) {
  switch (sh.kind) {
    case Shape::Kind::kSelect:
      return QueryBuilder::from("Customer", customer())
          .select("Age", CmpOp::Gt, sh.threshold)
          .output(name);
    case Shape::Kind::kJoinSelectLeft:
      return QueryBuilder::from("Customer", customer())
          .select("Age", CmpOp::Gt, sh.threshold)
          .join(QueryBuilder::from("Product", product()), "ProductID",
                "ProductID", sh.window)
          .output(name);
    case Shape::Kind::kJoinSelectRight: {
      QueryBuilder rhs = QueryBuilder::from("Product", product());
      rhs.select("Price", CmpOp::Lt, sh.threshold);
      return QueryBuilder::from("Customer", customer())
          .join(rhs, "ProductID", "ProductID", sh.window)
          .output(name);
    }
  }
  return {};
}

// FNV-1a over the field values; hashing a joined record's two halves in
// sequence equals hashing the concatenation.
constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ull;
std::uint64_t fields_hash(const std::vector<std::uint32_t>& fields,
                          std::uint64_t h = kFnvBasis) {
  for (const std::uint32_t f : fields) h = (h ^ f) * 0x100000001B3ull;
  return h;
}

// One query evaluated alone: its own selection and its own count-based
// windows (last `window` qualifying records per side, keyed by ProductID).
class ShapeOracle {
 public:
  explicit ShapeOracle(Shape sh) : sh_(sh) {}

  void process(const Arrival& a, Digest& out) {
    const bool is_c = a.stream == "Customer";
    const Record& r = a.record;
    switch (sh_.kind) {
      case Shape::Kind::kSelect:
        if (is_c && r.fields[0] > sh_.threshold) {
          out.add(fields_hash(r.fields), r.seq);
        }
        return;
      case Shape::Kind::kJoinSelectLeft:
        if (is_c && !(r.fields[0] > sh_.threshold)) return;
        break;
      case Shape::Kind::kJoinSelectRight:
        if (!is_c && !(r.fields[1] < sh_.threshold)) return;
        break;
    }
    // Customer.ProductID is field 2, Product.ProductID field 0.
    const std::uint32_t key = is_c ? r.fields[2] : r.fields[0];
    Side& own = is_c ? left_ : right_;
    const Side& other = is_c ? right_ : left_;
    if (const auto it = other.by_key.find(key); it != other.by_key.end()) {
      for (const Record* o : it->second) {
        const Record& c = is_c ? r : *o;
        const Record& p = is_c ? *o : r;
        out.add(fields_hash(p.fields, fields_hash(c.fields)),
                std::max(c.seq, p.seq));
      }
    }
    own.fifo.push_back(r);
    own.by_key[key].push_back(&own.fifo.back());
    if (own.fifo.size() > sh_.window) {
      const Record& old = own.fifo.front();
      const std::uint32_t old_key = is_c ? old.fields[2] : old.fields[0];
      auto& chain = own.by_key[old_key];
      chain.erase(chain.begin());
      own.fifo.pop_front();
    }
  }

 private:
  struct Side {
    std::deque<Record> fifo;  // deque: push/pop at the ends keep pointers
    std::map<std::uint32_t, std::vector<const Record*>> by_key;
  };
  Shape sh_;
  Side left_;
  Side right_;
};

}  // namespace

Outcome run_serve_shared(const Options& opt) {
  constexpr std::size_t kQueries = 64;
  constexpr std::size_t kShapes = 16;
  constexpr std::uint32_t kKeyDomain = 64;
  constexpr double kZipfTheta = 0.99;
  constexpr std::size_t kClosedEpoch = 1024;
  constexpr std::size_t kOpenEpoch = 16;
  constexpr double kOpenRateArrivals = 1.25e3;

  Outcome out;
  Rng rng(opt.seed);
  KeySampler keys(kKeyDomain, kZipfTheta);
  std::uint64_t seq = 0;
  auto take = [&](std::size_t n, std::vector<Arrival>& arrivals) {
    arrivals.resize(n);
    for (Arrival& a : arrivals) {
      const std::uint64_t bits = rng.next();
      const auto value = static_cast<std::uint32_t>(bits >> 32);
      const std::uint32_t key = keys(rng);
      if ((bits & 1) == 0) {
        a.stream = "Customer";
        a.record.fields = {value % 60, (value >> 8) % 2, key};
      } else {
        a.stream = "Product";
        a.record.fields = {key, value % 100};
      }
      a.record.seq = ++seq;
    }
  };

  std::vector<Query> queries;
  for (std::size_t i = 0; i < kQueries; ++i) {
    queries.push_back(
        build_query(shape_of(i % kShapes), "q" + std::to_string(i)));
  }
  // Set-up: an engine with all queries submitted and installed.
  struct Served {
    std::unique_ptr<hal::serve::ServeEngine> engine;
    std::vector<hal::serve::QueryId> ids;
  };
  double submit_us = 0.0;
  std::uint64_t submits = 0;
  auto ready_engine = [&] {
    Served fresh{std::make_unique<hal::serve::ServeEngine>(), {}};
    for (std::size_t q = 0; q < kQueries; ++q) {
      Span submit("fqp.submit");
      const auto s0 = Clock::now();
      fresh.ids.push_back(
          fresh.engine->submit("t" + std::to_string(q % 4), queries[q]));
      submit_us += 1e6 * seconds_since(s0);
      ++submits;
    }
    (void)fresh.engine->process_epoch({});  // install barrier
    return fresh;
  };
  SetupTimer setup;
  Served served = setup.sample(ready_engine, 3, 0.1);
  hal::serve::ServeEngine* engine = served.engine.get();
  const std::vector<hal::serve::QueryId>& ids = served.ids;
  for (const hal::serve::QueryId id : ids) {
    if (engine->state(id) != hal::serve::QueryState::kRunning) {
      out.mismatch("query " + std::to_string(id) + " not running");
    }
  }
  std::vector<ShapeOracle> oracles;
  for (std::size_t s = 0; s < kShapes; ++s) oracles.emplace_back(shape_of(s));

  std::vector<double> rates;  // arrivals/s of each timed closed-loop epoch
  std::vector<Arrival> epoch;

  auto serve_epoch = [&](const std::vector<Arrival>& in) -> double {
    ++out.attempted;
    double seconds = 0.0;
    try {
      Span span("serve.process_epoch");
      const auto t0 = Clock::now();
      (void)engine->process_epoch(in);
      seconds = seconds_since(t0);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "process_epoch failed: %s\n", e.what());
      ++out.failed;
      return 0.0;
    }
    Span span("oracle.check");
    std::vector<Digest> want(kShapes);
    for (const Arrival& a : in) {
      for (std::size_t s = 0; s < kShapes; ++s) oracles[s].process(a, want[s]);
    }
    for (std::size_t q = 0; q < kQueries; ++q) {
      Digest got;
      for (const Record& r : engine->output(ids[q])) {
        got.add(fields_hash(r.fields), r.seq);
      }
      if (!(got == want[q % kShapes])) {
        out.mismatch("query q" + std::to_string(q) + ": engine " +
                     std::to_string(got.count) + " records, oracle " +
                     std::to_string(want[q % kShapes].count));
      }
    }
    engine->clear_outputs();
    return seconds;
  };

  OpenLoop load;
  load.period_us = 1e6 * static_cast<double>(kOpenEpoch) / kOpenRateArrivals;
  run_phases(
      opt,
      [&](bool timed) {
        take(kClosedEpoch, epoch);
        const double s = serve_epoch(epoch);
        if (timed && s > 0.0) {
          rates.push_back(static_cast<double>(epoch.size()) / s);
        }
      },
      [&](std::uint64_t i) {
        take(kOpenEpoch, epoch);
        const double due = load.wait_for(i);
        Span span("bench.open");
        (void)serve_epoch(epoch);
        load.latency_us.push_back(now_us() - due);
      },
      load);

  const double throughput = median(rates);
  out.end_to_end = {
      {"throughput_tps", throughput, "tuples/s"},
      {"latency_p50_us", percentile(load.latency_us, 50), "us"},
      {"setup_s", 0.0, "s"},  // see finish_setup
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  const hal::serve::ServeReport rep = engine->report();
  out.per_layer = {
      {"trace.throughput_tps", throughput, "tuples/s"},
      {"load.latency_p99_us", percentile(load.latency_us, 99), "us"},
      {"load.late_max_us", load.late_max_us, "us"},
      {"serve.ops_per_arrival",
       static_cast<double>(rep.ops) / static_cast<double>(rep.arrivals),
       "count"},
      {"serve.windows_live", static_cast<double>(rep.windows_live), "count"},
      {"serve.nodes_live", static_cast<double>(rep.nodes_live), "count"},
      {"serve.window_shared_hits", static_cast<double>(rep.window_shared_hits),
       "count"},
      {"fqp.submit_us", submit_us / static_cast<double>(submits), "us"},
  };
  served = {};
  finish_setup(out, setup, ready_engine);
  add_self_times(out);
  finish_layers(out);
  return out;
}

}  // namespace perfbench
