#include "bench.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>

namespace perfbench {

void Outcome::mismatch(const std::string& what) {
  if (correct) std::fprintf(stderr, "check failed: %s\n", what.c_str());
  correct = false;
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50); }

// Nearest-rank percentile.
double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(xs.size()));
  const auto i = std::min(
      xs.size(), std::max<std::size_t>(1, static_cast<std::size_t>(rank)));
  return xs[i - 1];
}

// VmHWM, the resident high-water mark of this process image. (getrusage's
// ru_maxrss survives exec, so it would report the launcher's RSS when the
// benchmark itself is small.)
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  if (kib <= 0.0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kib / 1024.0;
}

double metric(const hal::obs::ObsSnapshot& snap, const std::string& name) {
  const hal::obs::MetricSnapshot* m = snap.find(name);
  if (m == nullptr) return 0.0;
  return m->kind == hal::obs::Kind::kCounter
             ? static_cast<double>(m->counter_value)
             : m->gauge_value;
}

KeySampler::KeySampler(std::uint32_t domain, double zipf_theta)
    : domain_(domain) {
  if (zipf_theta <= 0.0) return;
  cdf_.resize(domain);
  double total = 0.0;
  for (std::uint32_t k = 0; k < domain; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), zipf_theta);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::uint32_t KeySampler::operator()(Rng& rng) {
  if (cdf_.empty()) return static_cast<std::uint32_t>(rng.next() % domain_);
  const double u = rng.uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::uint32_t>(
      std::min<std::ptrdiff_t>(it - cdf_.begin(), domain_ - 1));
}

void TupleSource::take(std::size_t n, std::vector<hal::stream::Tuple>& out) {
  out.resize(n);
  for (hal::stream::Tuple& t : out) {
    const std::uint64_t bits = rng_.next();
    t.origin = (bits & 1) != 0 ? hal::stream::StreamId::S
                               : hal::stream::StreamId::R;
    t.value = static_cast<std::uint32_t>(bits >> 32);
    t.key = keys_(rng_);
    t.seq = seq_++;
  }
}

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

std::uint32_t Tracer::open(const char* name) {
  const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back(
      Record{name, id, stack_.empty() ? 0 : stack_.back(), now_us(), 0.0});
  stack_.push_back(id);
  return id;
}

void Tracer::close(std::uint32_t id) {
  spans_[id - 1].end_us = now_us();
  stack_.pop_back();
}

std::vector<std::pair<std::string, double>> Tracer::self_us() const {
  std::vector<double> child(spans_.size() + 1, 0.0);
  for (const Record& s : spans_) child[s.parent] += s.end_us - s.start_us;
  std::map<std::string, double> by_layer;
  for (const Record& s : spans_) {
    const std::string name(s.name);
    by_layer[name.substr(0, name.find('.'))] +=
        (s.end_us - s.start_us) - child[s.id];
  }
  return {by_layer.begin(), by_layer.end()};
}

void Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %u, \"parent\": %u, \"name\": \"%s\", "
                 "\"start_us\": %.3f, \"dur_us\": %.3f}%s\n",
                 s.id, s.parent, s.name, s.start_us - spans_[0].start_us,
                 s.end_us - s.start_us, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "],\n\"self_us\": {");
  const auto self = self_us();
  for (std::size_t i = 0; i < self.size(); ++i) {
    std::fprintf(f, "%s\"%s\": %.3f", i == 0 ? "" : ", ",
                 self[i].first.c_str(), self[i].second);
  }
  std::fprintf(f, "}}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench

namespace perfbench {

namespace {

// Every per-layer metric, in the order BENCHMARK.json lists them.
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"trace.throughput_tps", "tuples/s"},
    {"oracle.join_tps", "tuples/s"},
    {"load.latency_p99_us", "us"},
    {"load.late_max_us", "us"},
    {"self.engine_us_per_op", "us"},
    {"self.oracle_us_per_op", "us"},
    {"self.harness_us_per_op", "us"},
    {"sw.probes_per_tuple", "count"},
    {"sw.inbox_high_water", "batches"},
    {"simd.probe_ns_per_tuple", "ns"},
    {"cluster.useful_pair_ratio", "ratio"},
    {"cluster.worker_busy_share", "ratio"},
    {"cluster.router_stall_spins", "count"},
    {"cluster.worker_stall_spins", "count"},
    {"cluster.ingress_high_water", "batches"},
    {"cluster.egress_high_water", "batches"},
    {"cluster.route_ns_per_tuple", "ns"},
    {"net.bytes_per_tuple", "B"},
    {"net.credit_stalls", "count"},
    {"net.retransmits", "count"},
    {"net.encode_ns_per_batch", "ns"},
    {"net.decode_ns_per_batch", "ns"},
    {"hw.cycles_per_tuple", "cycles"},
    {"hw.distribution_stall_cycles_per_tuple", "cycles"},
    {"hw.gathering_stall_cycles_per_tuple", "cycles"},
    {"hw.probes_per_tuple", "count"},
    {"sim.module_evals_per_s", "evals/s"},
    {"serve.ops_per_arrival", "count"},
    {"serve.windows_live", "count"},
    {"serve.nodes_live", "count"},
    {"serve.window_shared_hits", "count"},
    {"fqp.submit_us", "us"},
};

}  // namespace

void add_self_times(Outcome& out) {
  double engine = 0.0;
  double oracle = 0.0;
  double harness = 0.0;
  for (const auto& [layer, us] : Tracer::get().self_us()) {
    if (layer == "oracle") oracle += us;
    if (layer == "bench") harness += us;
    if (layer == "core" || layer == "cluster" || layer == "hw" ||
        layer == "serve") {
      engine += us;
    }
  }
  const double ops = std::max<double>(1.0, static_cast<double>(out.attempted));
  out.per_layer.push_back({"self.engine_us_per_op", engine / ops, "us"});
  out.per_layer.push_back({"self.oracle_us_per_op", oracle / ops, "us"});
  out.per_layer.push_back({"self.harness_us_per_op", harness / ops, "us"});
}

void finish_layers(Outcome& out) {
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : kPerLayer) {
    Metric m{name, 0.0, unit};
    for (const Metric& got : out.per_layer) {
      if (got.name == name) {
        if (got.unit != unit) throw std::logic_error("unit of " + got.name);
        m.value = got.value;
      }
    }
    ordered.push_back(m);
  }
  for (const Metric& got : out.per_layer) {
    const bool known = std::any_of(
        kPerLayer.begin(), kPerLayer.end(),
        [&](const auto& entry) { return got.name == entry.first; });
    if (!known) throw std::logic_error("uncatalogued metric " + got.name);
  }
  out.per_layer = std::move(ordered);
}

}  // namespace perfbench
