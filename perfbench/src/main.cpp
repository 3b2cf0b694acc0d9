// perfbench: the repository benchmark program.
//
//   perfbench --workload build|chip|serve-eval --seed N
//             --seconds S --trace 0|1 --cfpm PATH --out DIR [--rev TEXT]
//
// Runs one workload from its seed, checks every output, and prints detail
// lines followed by one JSON result line:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// per-layer set (see README.md). Normally started through run.py, which
// builds this program first.
#include <unistd.h>

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <set>
#include <string>
#include <string_view>

#include "harness.hpp"
#include "support/parse.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Outcome;

struct Declared {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json; the program refuses to print a result whose
// metric set differs, so a workload cannot silently drop a metric.
constexpr Declared kEndToEnd[] = {
    {"setup_s", "s"},         {"peak_rss_mb", "MiB"},
    {"op_p50_ms", "ms"},      {"op_tail_ms", "ms"},
    {"ops_per_s", "1/s"},     {"model_are_pct", "%"},
};

constexpr Declared kPerLayer[] = {
    {"netlist.generate_ms", "ms"},
    {"power.build_ms", "ms"},
    {"power.save_ms", "ms"},
    {"dd.sift_ms", "ms"},
    {"dd.approx_ms", "ms"},
    {"dd.reorder.swap", "count"},
    {"dd.node.alloc", "count"},
    {"dd.gc.run", "count"},
    {"dd.approx.round", "count"},
    {"dd.cache.hit_ratio", "ratio"},
    {"dd.model_nodes", "count"},
    {"stats.generate_ms", "ms"},
    {"stats.ns_per_bit", "ns"},
    {"power.estimate_trace_ms", "ms"},
    {"power.patterns_per_s", "1/s"},
    {"chip.build_ms", "ms"},
    {"chip.evaluate_ms", "ms"},
    {"chip.tightness", "ratio"},
    {"serve.rtt_us.eval", "us"},
    {"serve.rtt_us.trace", "us"},
    {"serve.rtt_us.build_hit", "us"},
    {"serve.rtt_us.build_miss", "us"},
    {"serve.handler_us", "us"},
    {"serve.transport_us", "us"},
    {"serve.wire.encode_us", "us"},
    {"serve.wire.decode_us", "us"},
    {"serve.wire.bytes", "B"},
    {"serve.queue.wait_us", "us"},
    {"serve.build.latency_us", "us"},
    {"serve.cache.hit_ratio", "ratio"},
    {"serve.request.count", "count"},
    {"trace.overhead_pct", "%"},
};

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      const auto seed = cfpm::parse_number<std::uint64_t>(value);
      if (!seed) return false;
      o.seed = *seed;
    } else if (flag == "--seconds") {
      const auto seconds = cfpm::parse_number<double>(value);
      if (!seconds || *seconds <= 0) return false;
      o.seconds = *seconds;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      o.trace = value == "1";
    } else if (flag == "--cfpm") {
      o.cfpm = value;
    } else if (flag == "--out") {
      o.out_dir = value;
    } else if (flag == "--rev") {
      o.revision = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty() && !o.out_dir.empty();
}

/// Orders the outcome's metrics as declared and verifies the set is exact.
/// In a traced run a layer the workload never entered reads 0 (its spans
/// and counters never fired); every end-to-end metric must be measured.
bool finalize_metrics(Outcome& o, bool trace) {
  std::vector<Metric> ordered;
  std::set<std::string> seen;
  bool ok = true;
  const auto take = [&](const Declared* begin, const Declared* end) {
    for (const Declared* d = begin; d != end; ++d) {
      int found = 0;
      for (const Metric& m : o.metrics) {
        if (m.name != d->name) continue;
        ++found;
        ordered.push_back({m.name, m.value, d->unit});
      }
      if (found == 0 && trace) {
        ++found;
        ordered.push_back({d->name, 0.0, d->unit});
      }
      if (found != 1) {
        std::cerr << "perfbench: metric " << d->name << " reported " << found
                  << " times\n";
        ok = false;
      }
      seen.insert(d->name);
    }
  };
  if (trace) {
    take(std::begin(kPerLayer), std::end(kPerLayer));
  } else {
    take(std::begin(kEndToEnd), std::end(kEndToEnd));
  }
  for (const Metric& m : o.metrics) {
    if (!seen.count(m.name)) {
      std::cerr << "perfbench: undeclared metric " << m.name << "\n";
      ok = false;
    }
  }
  o.metrics = std::move(ordered);
  return ok;
}

std::string result_json(const Outcome& o) {
  std::string s = "{\"correct\": ";
  s += o.correct && o.failed == 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(o.attempted);
  s += ", \"failed\": " + std::to_string(o.failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    const Metric& m = o.metrics[i];
    if (i) s += ", ";
    s += "\"" + m.name + "\": {\"value\": " + perfbench::format_number(m.value) +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  s += "}}";
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options)) {
    std::cerr << "usage: perfbench --workload build|chip|serve-eval "
                 "--seed N --seconds S --trace 0|1 --cfpm PATH --out DIR "
                 "[--rev TEXT]\n";
    return 2;
  }
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  options.nproc = cpus > 0 ? static_cast<unsigned>(cpus) : 1;
  try {
    std::filesystem::create_directories(options.out_dir);
    Outcome outcome;
    perfbench::SpanLog spans;
    perfbench::SpanLog* log = options.trace ? &spans : nullptr;
    if (options.workload == "build") {
      outcome = perfbench::run_build(options, log);
    } else if (options.workload == "chip") {
      outcome = perfbench::run_chip(options, log);
    } else if (options.workload == "serve-eval") {
      outcome = perfbench::run_serve_eval(options, log);
    } else {
      std::cerr << "perfbench: unknown workload " << options.workload << "\n";
      return 2;
    }
    const std::string stem = options.out_dir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed);
    if (log) spans.write_chrome_json(stem + "-spans.json");
    if (!finalize_metrics(outcome, options.trace)) return 1;

    for (const std::string& line : outcome.notes) std::cout << "# " << line << "\n";
    std::cout << "# env " << perfbench::environment_json(options) << "\n";
    std::cout << "# counters digest " << perfbench::counter_digest(outcome.counters)
              << " (" << outcome.counters.size() << " deterministic counters)\n";
    for (const auto& [name, value] : outcome.counters) {
      std::cout << "#   " << name << " = " << value << "\n";
    }
    for (const Metric& m : outcome.metrics) {
      std::cout << "# " << m.name << " = " << perfbench::format_number(m.value)
                << " " << m.unit << "\n";
    }
    std::cout << result_json(outcome) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
