// Benchmark harness: runs one named workload from a seed and prints, as the
// last line of stdout, {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 records spans around
// every layer call, writes them to --trace-out and prints the per-layer
// metrics. A human-readable summary goes to stderr.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"

namespace {

using namespace perfbench;

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty() && opt.seconds > 0.0;
}

void print_json(const Outcome& out, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse(argc, argv, opt)) {
      std::fprintf(stderr,
                   "usage: perfbench --workload <name> --seed <n> "
                   "--seconds <s> --trace <0|1> [--trace-out <file>]\n");
      return 2;
    }
    Outcome (*run)(const Options&) = nullptr;
    if (opt.workload == "splitjoin-uniform") run = run_splitjoin_uniform;
    if (opt.workload == "cluster-zipf") run = run_cluster_zipf;
    if (opt.workload == "uniflow-sim") run = run_uniflow_sim;
    if (opt.workload == "serve-shared") run = run_serve_shared;
    if (run == nullptr) {
      std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
      return 2;
    }
    Tracer::get().enabled = opt.trace;
    const Outcome out = run(opt);
    const std::vector<Metric>& shown =
        opt.trace ? out.per_layer : out.end_to_end;
    for (const Metric& m : shown) {
      std::fprintf(stderr, "  %-40s %14.4f %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
    }
    if (opt.trace) {
      for (const auto& [layer, us] : Tracer::get().self_us()) {
        std::fprintf(stderr, "  self time %-28s %14.1f ms\n", layer.c_str(),
                     us / 1e3);
      }
      if (!opt.trace_out.empty()) Tracer::get().write(opt.trace_out);
    }
    std::fprintf(stderr, "  attempted %llu, failed %llu, correct %s\n",
                 static_cast<unsigned long long>(out.attempted),
                 static_cast<unsigned long long>(out.failed),
                 out.correct ? "yes" : "NO");
    print_json(out, shown);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
