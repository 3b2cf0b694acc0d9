// Workload `build`: serial `service::build` + `AddPowerModel::save` (what
// `cfpm build -o` does) of five Table-1 circuits at their average-model
// budgets, each built cold in a fresh manager. Accuracy is scored after the
// timed phase against the gate-level golden simulator.
#include <cmath>
#include <fstream>

#include "netlist/generators.hpp"
#include "power/add_model.hpp"
#include "serve/service.hpp"
#include "support/io.hpp"
#include "support/trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace service = cfpm::service;

struct SuiteEntry {
  const char* name;
  std::size_t max_nodes;
};
constexpr SuiteEntry kSuite[] = {
    {"cmb", 200}, {"cm150", 1000}, {"mux", 1000}, {"comp", 5000}, {"x1", 1000}};
constexpr std::size_t kSuiteSize = std::size(kSuite);

constexpr std::size_t kSetupReps = 7;
constexpr std::size_t kCheckVectors = 2000;
constexpr std::size_t kAccuracyVectors = 4000;

struct BuiltModel {
  std::shared_ptr<const cfpm::power::PowerModel> model;
  std::size_t nodes = 0;
};

/// Bitwise comparison of two estimate_trace results.
bool same_estimate(const cfpm::power::TraceEstimate& a,
                   const cfpm::power::TraceEstimate& b) {
  return a.total_ff == b.total_ff && a.peak_ff == b.peak_ff &&
         a.transitions == b.transitions;
}

}  // namespace

Outcome run_build(const Options& options, SpanLog* spans) {
  Outcome out;
  const cfpm::netlist::GateLibrary library =
      cfpm::netlist::GateLibrary::standard();

  // ----- set-up: netlist generation and the golden accuracy reference,
  // repeated; the median is reported ---------------------------------------
  std::vector<cfpm::netlist::Netlist> circuits;
  std::vector<Reference> references;
  std::vector<double> setup_ms;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const std::uint64_t t0 = now_ns();
    circuits.clear();
    references.clear();
    for (std::size_t c = 0; c < kSuiteSize; ++c) {
      {
        ScopedSpan span(spans, "netlist.generate");
        circuits.push_back(cfpm::netlist::gen::mcnc_like(kSuite[c].name));
      }
      references.push_back(golden_reference(circuits[c], library,
                                            kAccuracyVectors,
                                            mix(options.seed + 1000 + c)));
    }
    setup_ms.push_back(ms_since(t0));
  }

  // ----- timed phase ------------------------------------------------------
  // Untraced: circuits round-robin until the time is up (at least one full
  // pass); the suite time is the sum of per-circuit medians. Traced: whole
  // passes alternate untraced / traced (at least two) so the tracing
  // overhead is measured on the same work.
  std::vector<std::vector<double>> times(kSuiteSize);
  std::vector<Counters> first_counters(kSuiteSize);
  std::vector<BuiltModel> first_models(kSuiteSize);
  std::vector<cfpm::sim::InputSequence> check_seqs;
  for (std::size_t c = 0; c < kSuiteSize; ++c) {
    check_seqs.push_back(markov_sequence(circuits[c].num_inputs(),
                                         kCheckVectors, 0.5, 0.5,
                                         mix(options.seed * 31 + c)));
  }
  std::vector<double> traced_pass_ms, untraced_pass_ms;
  double peak_rss_mb = 0.0;
  std::size_t builds = 0;
  const std::uint64_t phase_start = now_ns();
  const double budget_ms = options.seconds * 1000.0;
  const std::size_t min_builds = spans ? 2 * kSuiteSize : kSuiteSize;
  for (std::size_t i = 0;; ++i) {
    const std::size_t c = i % kSuiteSize;
    const std::size_t pass = i / kSuiteSize;
    if (i >= min_builds && ms_since(phase_start) >= budget_ms &&
        (!spans || c == 0)) {
      break;
    }
    const bool traced = spans && pass % 2 == 1;
    const SuiteEntry& e = kSuite[c];
    service::BuildRequest request{service::kApiVersion, circuits[c], {}};
    request.options.max_nodes = e.max_nodes;
    const std::string path =
        options.out_dir + "/" + std::string(e.name) + ".cfpm";

    const Counters before = work_counters_now();
    if (traced) cfpm::trace::set_enabled(true);
    bool ok = true;
    service::BuildReply reply;
    const std::uint64_t t0 = now_ns();
    {
      ScopedSpan request_span(traced ? spans : nullptr, "build.request");
      {
        ScopedSpan span(traced ? spans : nullptr, "power.build");
        reply = service::build(request);
      }
      const auto* add =
          dynamic_cast<const cfpm::power::AddPowerModel*>(reply.model.get());
      ok = add != nullptr;
      if (add) {
        ScopedSpan span(traced ? spans : nullptr, "power.save");
        cfpm::atomic_write_file(path,
                                [&](std::ostream& os) { add->save(os); });
      }
    }
    const double ms = ms_since(t0);
    if (traced) {
      cfpm::trace::set_enabled(false);
      spans->import_program_trace();
    }
    const Counters delta = counter_delta(work_counters_now(), before);
    times[c].push_back(ms);
    ++builds;
    if (spans) {
      if (c == 0) (traced ? traced_pass_ms : untraced_pass_ms).push_back(0.0);
      (traced ? traced_pass_ms : untraced_pass_ms).back() += ms;
    }

    // Output checks (outside the timed interval): clean build within
    // budget, saved file reloads to bit-identical estimates, and every
    // rebuild repeats the first build's estimates and work counters.
    ok = ok && reply.status == service::StatusCode::kOk &&
         reply.model_nodes <= e.max_nodes;
    if (ok) {
      std::ifstream in(path);
      const auto loaded = cfpm::power::AddPowerModel::load(in);
      const auto est = reply.model->estimate_trace(check_seqs[c]);
      ok = same_estimate(loaded.estimate_trace(check_seqs[c]), est);
      if (pass == 0) {
        first_models[c] = {reply.model, reply.model_nodes};
        first_counters[c] = delta;
      } else {
        ok = ok && reply.model_nodes == first_models[c].nodes &&
             same_estimate(est, first_models[c].model->estimate_trace(
                                    check_seqs[c]));
        out.check(delta == first_counters[c],
                  std::string("work counters repeat on rebuild of ") + e.name);
      }
    }
    out.op(ok);
    // Memory is read after the first full pass, so it does not depend on
    // how far a partial last pass got.
    if (i + 1 == kSuiteSize) peak_rss_mb = self_peak_rss_mb();
  }
  const double phase_s = ms_since(phase_start) / 1000.0;

  // ----- accuracy and summaries (untimed) ----------------------------------
  double are_sum = 0.0;
  std::size_t model_nodes = 0;
  for (std::size_t c = 0; c < kSuiteSize; ++c) {
    if (!first_models[c].model) continue;
    are_sum += model_are_pct(*first_models[c].model, references[c]);
    model_nodes += first_models[c].nodes;
  }
  Counters pass_counters;
  for (const Counters& c : first_counters) {
    for (const auto& [name, value] : c) pass_counters[name] += value;
  }
  out.counters = pass_counters;

  double suite_p50 = 0.0, suite_max = 0.0;
  std::string per_circuit;
  for (std::size_t c = 0; c < kSuiteSize; ++c) {
    suite_p50 += median(times[c]);
    suite_max += *std::max_element(times[c].begin(), times[c].end());
    per_circuit += std::string(" ") + kSuite[c].name + "=" +
                   format_number(std::round(median(times[c]) * 10) / 10) +
                   "ms(n=" + std::to_string(times[c].size()) + ")";
  }
  out.note("build: " + std::to_string(builds) + " builds in " +
           format_number(phase_s) + " s; per-circuit medians:" + per_circuit);
  out.note("build: op = one suite pass (sum of per-circuit medians); tail = "
           "sum of per-circuit maxima");

  if (!spans) {
    out.metric("setup_s", median(setup_ms) / 1000.0, "s");
    out.metric("peak_rss_mb", peak_rss_mb, "MiB");
    out.metric("op_p50_ms", suite_p50, "ms");
    out.metric("op_tail_ms", suite_max, "ms");
    // Suite passes per second at the median pass time: a raw build count
    // would depend on which circuits a partial last pass reached.
    out.metric("ops_per_s", 1000.0 / suite_p50, "1/s");
    out.metric("model_are_pct", are_sum / kSuiteSize, "%");
    return out;
  }

  const double passes = static_cast<double>(traced_pass_ms.size());
  out.metric("netlist.generate_ms",
             spans->total_ms("netlist.generate", false) / kSetupReps, "ms");
  out.metric("power.build_ms", spans->self_ms("power.build", false, "dd.") / passes,
             "ms");
  out.metric("power.save_ms", spans->total_ms("power.save", false) / passes,
             "ms");
  out.metric("dd.sift_ms", spans->total_ms("dd.sift", true) / passes, "ms");
  out.metric("dd.approx_ms", spans->total_ms("dd.approx", true) / passes, "ms");
  for (const char* name :
       {"dd.reorder.swap", "dd.node.alloc", "dd.gc.run", "dd.approx.round"}) {
    out.metric(name, static_cast<double>(counter(pass_counters, name)),
               "count");
  }
  const double hits = static_cast<double>(counter(pass_counters, "dd.cache.hit"));
  const double misses =
      static_cast<double>(counter(pass_counters, "dd.cache.miss"));
  out.metric("dd.cache.hit_ratio",
             hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  out.note("dd.cache.hit_ratio base: " + format_number(hits + misses) +
           " lookups per pass");
  out.metric("dd.model_nodes", static_cast<double>(model_nodes), "count");
  out.metric("trace.overhead_pct",
             100.0 * (median(traced_pass_ms) / median(untraced_pass_ms) - 1.0),
             "%");
  return out;
}

}  // namespace perfbench
