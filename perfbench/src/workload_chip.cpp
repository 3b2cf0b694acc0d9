// Workload `chip`: one cold `service::evaluate_chip` of spec 4x6x16 at the
// default per-macro MAX over a long seeded workload, sharded over a pool of
// nproc lanes. Nothing is cached between repetitions: every operation
// builds the whole macro library again, as one `cfpm chip` run does.
#include <algorithm>
#include <cstring>

#include "chip/chip.hpp"
#include "chip/evaluator.hpp"
#include "serve/service.hpp"
#include "stats/markov.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace service = cfpm::service;
namespace chip = cfpm::chip;

constexpr const char* kSpec = "4x6x16";
constexpr std::size_t kVectors = 1'000'000;
constexpr const char* kWarmSpec = "2x3x12";
constexpr std::size_t kWarmVectors = 16'384;
constexpr std::size_t kSetupReps = 3;
constexpr std::size_t kPrefixVectors = 65'536;
constexpr std::size_t kBoundCheckTransitions = 2000;
constexpr std::size_t kAccuracyVectors = 40'000;

bool same_reply(const service::ChipReply& a, const service::ChipReply& b) {
  return a.total_ff == b.total_ff && a.peak_ff == b.peak_ff &&
         a.bound_total_ff == b.bound_total_ff &&
         a.bound_peak_ff == b.bound_peak_ff &&
         a.worst_case_sum_ff == b.worst_case_sum_ff &&
         a.transitions == b.transitions;
}

bool same_result(const chip::ChipTraceResult& a,
                 const chip::ChipTraceResult& b) {
  return a.total_ff == b.total_ff && a.peak_ff == b.peak_ff &&
         a.transitions == b.transitions &&
         a.per_instance_ff == b.per_instance_ff;
}

/// The first `length` vectors of `seq`.
cfpm::sim::InputSequence prefix(const cfpm::sim::InputSequence& seq,
                                std::size_t length) {
  cfpm::sim::InputSequence out(seq.num_inputs(), length);
  for (std::size_t i = 0; i < seq.num_inputs(); ++i) {
    for (std::size_t k = 0; k < out.words_per_input(); ++k) {
      std::uint64_t w = seq.word(i, k);
      const std::size_t last = std::min<std::size_t>(64, length - 64 * k);
      if (last < 64) w &= (std::uint64_t{1} << last) - 1;
      for (std::size_t b = 0; b < last; ++b) {
        if ((w >> b) & 1u) out.set_bit(i, 64 * k + b, true);
      }
    }
  }
  return out;
}

/// One macro model as the chip library produced it.
struct LibraryModel {
  cfpm::netlist::Netlist circuit;
  cfpm::power::ModelKind kind;
  std::shared_ptr<const cfpm::power::PowerModel> model;
};

}  // namespace

Outcome run_chip(const Options& options, SpanLog* spans) {
  Outcome out;
  const chip::ChipBuildOptions build_options;  // default per-macro MAX
  const chip::ChipSpec spec = chip::ChipSpec::parse(kSpec);

  // ----- set-up: evaluator pool and a small warm-up chip, repeated -------
  std::unique_ptr<cfpm::ThreadPool> pool;
  std::vector<double> setup_ms;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const std::uint64_t t0 = now_ns();
    pool = std::make_unique<cfpm::ThreadPool>(options.nproc);
    service::ChipRequest warm;
    warm.spec = kWarmSpec;
    warm.vectors = kWarmVectors;
    warm.seed = mix(options.seed + 7);
    service::evaluate_chip(warm, pool.get());
    setup_ms.push_back(ms_since(t0));
  }

  service::ChipRequest request;
  request.spec = kSpec;
  request.vectors = kVectors;
  request.seed = mix(options.seed);

  // ----- timed phase ------------------------------------------------------
  // Untraced runs repeat the facade call. Traced runs alternate it with the
  // same work decomposed into its public layer calls, each under a span:
  // chip::build_chip (macro builds under power.build), the Markov workload,
  // and chip::evaluate_trace of both compositions.
  std::vector<double> facade_ms, traced_ms;
  std::optional<service::ChipReply> first;
  Counters first_counters;
  const chip::ModelSource base_source = chip::make_model_source(build_options);
  const chip::ModelSource spanned_source =
      [&](const cfpm::netlist::Netlist& n, cfpm::power::ModelKind kind) {
        ScopedSpan span(spans, "power.build");
        return base_source(n, kind);
      };
  Counters traced_counters;
  const std::uint64_t phase_start = now_ns();
  for (std::size_t i = 0;; ++i) {
    if (i >= 2 && ms_since(phase_start) >= options.seconds * 1000.0) break;
    const bool traced = spans && i % 2 == 1;
    const Counters before = work_counters_now();
    service::ChipReply reply;
    const std::uint64_t t0 = now_ns();
    if (!traced) {
      reply = service::evaluate_chip(request, pool.get());
      facade_ms.push_back(ms_since(t0));
    } else {
      cfpm::trace::set_enabled(true);
      {
        ScopedSpan request_span(spans, "chip.request");
        std::optional<chip::Chip> c;
        {
          ScopedSpan span(spans, "chip.build");
          c.emplace(chip::build_chip(spec, spanned_source));
        }
        std::optional<cfpm::sim::InputSequence> trace;
        {
          ScopedSpan span(spans, "stats.generate");
          cfpm::stats::MarkovSequenceGenerator gen(request.statistics,
                                                   request.seed);
          trace.emplace(gen.generate(c->bus_width(), request.vectors));
        }
        chip::ChipTraceResult avg, bound;
        {
          ScopedSpan span(spans, "chip.evaluate");
          avg = chip::evaluate_trace(c->avg_design(), *trace, pool.get());
          bound = chip::evaluate_trace(c->bound_design(), *trace, pool.get());
        }
        reply.status = c->degraded() ? service::StatusCode::kDegraded
                                     : service::StatusCode::kOk;
        reply.transitions = avg.transitions;
        reply.total_ff = avg.total_ff;
        reply.peak_ff = avg.peak_ff;
        reply.bound_total_ff = bound.total_ff;
        reply.bound_peak_ff = bound.peak_ff;
        reply.worst_case_sum_ff = c->sum_of_worst_cases_ff();
      }
      traced_ms.push_back(ms_since(t0));
      cfpm::trace::set_enabled(false);
      spans->import_program_trace();
    }
    const Counters delta = counter_delta(work_counters_now(), before);

    // Every repetition (facade or decomposed) must reproduce the first
    // reply bit for bit, and facade repetitions the same work counters.
    bool ok = reply.status == service::StatusCode::kOk &&
              reply.transitions == kVectors - 1;
    if (!first) {
      first = reply;
      first_counters = delta;
    } else {
      ok = ok && same_reply(reply, *first);
      if (!traced) {
        out.check(delta == first_counters, "chip work counters repeat");
      }
    }
    if (traced) traced_counters = delta;
    out.op(ok);
  }

  // ----- untimed checks ----------------------------------------------------
  // Rebuild the chip once through a capturing source, then: totals are
  // bit-identical between 1 lane and nproc lanes on a prefix of the
  // workload; upper-bound leaves never read below the golden simulator;
  // average leaves are scored for accuracy.
  std::vector<LibraryModel> library;
  const chip::Chip checked = chip::build_chip(
      spec, [&](const cfpm::netlist::Netlist& n, cfpm::power::ModelKind kind) {
        chip::SourcedModel m = base_source(n, kind);
        library.push_back({n, kind, m.model});
        return m;
      });
  {
    cfpm::stats::MarkovSequenceGenerator gen(request.statistics, request.seed);
    const cfpm::sim::InputSequence head =
        prefix(gen.generate(checked.bus_width(), request.vectors),
               kPrefixVectors);
    cfpm::ThreadPool serial(1);
    for (const cfpm::power::RtlDesign* design :
         {&checked.avg_design(), &checked.bound_design()}) {
      out.check(same_result(chip::evaluate_trace(*design, head, &serial),
                            chip::evaluate_trace(*design, head, pool.get())),
                "chip totals identical at 1 and " +
                    std::to_string(options.nproc) + " lanes");
    }
  }
  const cfpm::netlist::GateLibrary& gates = build_options.library;
  double are_sum = 0.0;
  std::size_t avg_models = 0, bound_violations = 0, bound_checked = 0;
  for (std::size_t k = 0; k < library.size(); ++k) {
    const LibraryModel& m = library[k];
    if (m.kind == cfpm::power::ModelKind::kAddUpperBound) {
      bound_violations +=
          upper_bound_violations(*m.model, m.circuit, gates,
                                 kBoundCheckTransitions, mix(options.seed + k));
      bound_checked += kBoundCheckTransitions;
    } else {
      are_sum += model_are_pct(
          *m.model, golden_reference(m.circuit, gates, kAccuracyVectors,
                                     mix(options.seed + 100 + k)));
      ++avg_models;
    }
  }
  out.check(bound_violations == 0,
            "upper-bound leaves never below golden (" +
                std::to_string(bound_violations) + " of " +
                std::to_string(bound_checked) + " transitions)");
  out.counters = first_counters;

  const double tightness =
      first ? first->bound_peak_ff / first->worst_case_sum_ff : 0.0;
  out.note("chip: " + std::to_string(facade_ms.size() + traced_ms.size()) +
           " cold evaluations of " + kSpec + " at " +
           std::to_string(kVectors) + " vectors on " +
           std::to_string(options.nproc) + " lanes; tightness " +
           format_number(tightness) + "; " + std::to_string(library.size()) +
           " macro models checked");

  if (!spans) {
    double total_ms = 0.0;
    for (double ms : facade_ms) total_ms += ms;
    const Tail t = tail(facade_ms);
    out.note("chip: op_tail_ms is the " + t.label + " of " +
             std::to_string(facade_ms.size()) + " evaluations");
    out.metric("setup_s", median(setup_ms) / 1000.0, "s");
    out.metric("peak_rss_mb", self_peak_rss_mb(), "MiB");
    out.metric("op_p50_ms", median(facade_ms), "ms");
    out.metric("op_tail_ms", t.value, "ms");
    out.metric("ops_per_s",
               static_cast<double>(facade_ms.size()) / (total_ms / 1000.0),
               "1/s");
    out.metric("model_are_pct",
               avg_models ? are_sum / static_cast<double>(avg_models) : 0.0,
               "%");
    return out;
  }

  const double ops = static_cast<double>(traced_ms.size());
  out.metric("power.build_ms", spans->self_ms("power.build", false, "dd.") / ops, "ms");
  out.metric("dd.sift_ms", spans->total_ms("dd.sift", true) / ops, "ms");
  out.metric("dd.approx_ms", spans->total_ms("dd.approx", true) / ops, "ms");
  for (const char* name :
       {"dd.reorder.swap", "dd.node.alloc", "dd.gc.run", "dd.approx.round"}) {
    out.metric(name, static_cast<double>(counter(traced_counters, name)),
               "count");
  }
  const double hits =
      static_cast<double>(counter(traced_counters, "dd.cache.hit"));
  const double misses =
      static_cast<double>(counter(traced_counters, "dd.cache.miss"));
  out.metric("dd.cache.hit_ratio",
             hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  std::size_t nodes = 0;
  for (const chip::MacroBuildReport& m : checked.library()) {
    nodes += m.avg_nodes + m.bound_nodes;
  }
  out.metric("dd.model_nodes", static_cast<double>(nodes), "count");
  const double generate_ms = spans->total_ms("stats.generate", false) / ops;
  out.metric("stats.generate_ms", generate_ms, "ms");
  out.metric("stats.ns_per_bit",
             generate_ms * 1e6 /
                 (static_cast<double>(spec.bus_width()) * kVectors),
             "ns");
  out.metric("chip.build_ms", spans->total_ms("chip.build", false) / ops, "ms");
  out.metric("chip.evaluate_ms", spans->total_ms("chip.evaluate", false) / ops,
             "ms");
  out.metric("chip.tightness", tightness, "ratio");
  out.metric("trace.overhead_pct",
             100.0 * (median(traced_ms) / median(facade_ms) - 1.0), "%");
  return out;
}

}  // namespace perfbench
