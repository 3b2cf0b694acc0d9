// cfpm — command-line front end for the characterization-free power
// modeling library. Every command and flag is one row of kCommands and
// kFlags below; the parser, the usage text and the exit-2 messages all
// read those two tables. Run `cfpm` without arguments for the synopsis.
//
// <circuit> is a .bench file, a .blif file, or "gen:<name>" for a built-in
// generator (any Table-1 name, or c17).
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "eval/experiment.hpp"
#include "eval/table.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/blif_io.hpp"
#include "netlist/generators.hpp"
#include "netlist/transform.hpp"
#include "netlist/verify.hpp"
#include "power/add_model.hpp"
#include "power/factory.hpp"
#include "power/rtl_io.hpp"
#include "chip/chip.hpp"
#include "chip/evaluator.hpp"
#include "chip/trace_text.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "sim/simulator.hpp"
#include "sim/trace_io.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/governor.hpp"
#include "support/io.hpp"
#include "support/metrics.hpp"
#include "support/parse.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"
#include "verify/corpus.hpp"
#include "verify/fuzzer.hpp"
#include "verify/oracle.hpp"

namespace {

using namespace cfpm;

// Exit codes: distinguishable failure classes for scripts and CI. The
// numeric taxonomy is defined once, by service::StatusCode (the same codes
// travel in daemon error payloads); these aliases keep command code
// readable. 6 (Server::kExitSignal) is the daemon's signal-initiated clean
// drain.
//  0 clean, 1 runtime error (cfpm::Error), 2 usage, 3 completed but
//  degraded (build walked the degradation ladder), 4 out of memory,
//  5 internal error (unexpected std::exception), 6 daemon stopped by
//  SIGINT/SIGTERM after a clean drain.
constexpr int kExitOk = service::exit_code(service::StatusCode::kOk);
constexpr int kExitError = service::exit_code(service::StatusCode::kError);
constexpr int kExitUsage = service::exit_code(service::StatusCode::kUsage);
constexpr int kExitDegraded =
    service::exit_code(service::StatusCode::kDegraded);

netlist::Netlist load_circuit(const std::string& spec) {
  if (spec.rfind("gen:", 0) == 0) {
    const std::string name = spec.substr(4);
    if (name == "c17") return netlist::gen::c17();
    return netlist::gen::mcnc_like(name);
  }
  if (spec.size() > 6 && spec.substr(spec.size() - 6) == ".bench") {
    return netlist::read_bench_file(spec);
  }
  if (spec.size() > 5 && spec.substr(spec.size() - 5) == ".blif") {
    return netlist::read_blif_file(spec);
  }
  throw Error("cannot infer circuit format of '" + spec +
              "' (expect .bench, .blif or gen:<name>)");
}

/// Every value a command line can set; kFlags documents each one.
struct Args {
  std::vector<std::string> positional;
  std::optional<std::size_t> max_nodes;  // unset: the facade's default
  bool bound = false;
  std::string output;
  double sp = 0.5;
  double st = 0.5;
  std::size_t vectors = 10000;
  double vdd = 3.3;
  std::size_t threads = 1;  // eval pool lanes; 0 = hardware concurrency
  std::string chip_spec = "2x3x12";  // CxBxM topology
  std::string chip_trace;            // explicit trace file (text bit matrix)
  std::optional<std::size_t> deadline_ms;  // wall-clock build budget
  bool degrade = true;
  std::string metrics_json;  // write metrics snapshot here on exit
  std::string trace_json;    // record spans; write Chrome trace here on exit
  std::string socket;        // Unix-domain socket path of the daemon
  std::string persist_dir;   // registry warm-start directory (serve)

  // fuzz
  std::uint64_t seed = 1;
  std::size_t runs = 100;
  std::size_t fuzz_max_gates = 64;
  std::size_t patterns = 128;
  std::string checks;  // comma-separated, or "list"
  std::string corpus_dir = "fuzz/corpus";
  std::string replay;        // .repro file to re-run
  bool fuzz_faults = false;  // fault-injection campaign mode

  /// The build knobs in the facade's wire-shape form — what `build`,
  /// `accuracy` and every `query` send through cfpm::service, so the
  /// one-shot and daemon paths compute identical content ids and models.
  service::BuildOptions service_options() const {
    service::BuildOptions o;
    o.kind = bound ? power::ModelKind::kAddUpperBound
                   : power::ModelKind::kAddAverage;
    if (max_nodes) o.max_nodes = *max_nodes;
    o.degrade = degrade;
    o.deadline_ms = deadline_ms;
    return o;
  }

  service::EvalRequest eval_request() const {
    service::EvalRequest r;
    r.statistics = {sp, st};
    r.vectors = vectors;
    return r;
  }

  /// The chip request both `cfpm chip` and `cfpm query chip` send, so the
  /// one-shot and daemon paths are bit-identical. Without an explicit -m
  /// the per-macro budget stays at the ChipRequest default (exact for the
  /// generated library) rather than the build commands' 1000.
  service::ChipRequest chip_request() const {
    service::ChipRequest r;
    r.spec = chip_spec;
    if (max_nodes) r.max_nodes = *max_nodes;
    r.degrade = degrade;
    r.deadline_ms = deadline_ms;
    r.statistics = {sp, st};
    r.vectors = vectors;
    return r;
  }

  /// "workload: sp=.. st=.. (N vectors)", the line every generated-workload
  /// command prints before its results.
  std::string workload_line() const {
    std::ostringstream os;
    os << "workload: sp=" << sp << " st=" << st << " (" << vectors
       << " vectors)\n";
    return os.str();
  }
};

const netlist::GateLibrary kLib = netlist::GateLibrary::standard();

int cmd_info(const Args& a) {
  const netlist::Netlist n = load_circuit(a.positional[0]);
  std::cout << "circuit : " << n.name() << "\n";
  std::cout << "inputs  : " << n.num_inputs() << "\n";
  std::cout << "outputs : " << n.outputs().size() << "\n";
  std::cout << "gates   : " << n.num_gates() << "\n";
  const auto hist = netlist::gate_histogram(n);
  std::cout << "by type :";
  for (std::size_t i = 0; i < netlist::kNumGateTypes; ++i) {
    if (hist[i] == 0) continue;
    std::cout << " " << netlist::gate_type_name(static_cast<netlist::GateType>(i))
              << "=" << hist[i];
  }
  std::cout << "\n";
  const auto loads = n.annotate_loads(kLib);
  double total = 0.0;
  for (netlist::SignalId s = 0; s < n.num_signals(); ++s) {
    if (!n.signal(s).is_input) total += loads[s];
  }
  std::cout << "total gate load: " << total << " fF (standard library)\n";
  return 0;
}

/// Prints the degradation rungs a build took (if any) and maps the outcome
/// to an exit code: a degraded/fallback model is usable but must be
/// distinguishable from a clean one by scripts.
int report_build_outcome(const power::AddModelBuildInfo& info) {
  if (info.outcome == power::BuildOutcome::kClean) return kExitOk;
  std::cout << "DEGRADED: "
            << (info.outcome == power::BuildOutcome::kFallback
                    ? "constant fallback estimator"
                    : "built via degradation ladder")
            << " (" << info.attempts << " attempts)\n";
  for (const auto& rung : info.rungs) {
    std::cout << "  rung  : " << rung.action;
    if (rung.max_nodes != 0) std::cout << " (MAX " << rung.max_nodes << ")";
    std::cout << " after: " << rung.reason << "\n";
  }
  const metrics::Snapshot snap = metrics::snapshot();
  if (metrics::compiled_in()) {
    std::cout << "  spent : " << snap.counter("dd.node.alloc")
              << " node allocs, " << snap.counter("governor.poll.tick")
              << " governor polls, " << snap.counter("governor.checkpoint.hit")
              << " checkpoints, " << snap.counter("dd.gc.reclaimed")
              << " nodes reclaimed\n";
  }
  return kExitDegraded;
}

int cmd_build(const Args& a) {
  const netlist::Netlist n = load_circuit(a.positional[0]);
  // Through the service facade: the same BuildRequest path the daemon
  // executes, so the printed content id addresses the identical model in a
  // `cfpm serve` registry.
  const service::BuildOptions options = a.service_options();
  const service::BuildReply reply =
      service::build({service::kApiVersion, n, options});
  std::cout << "model   : " << reply.model_nodes << " nodes ("
            << (a.bound ? "upper bound" : "average") << " mode, MAX "
            << options.max_nodes << ")\n";
  std::cout << "id      : " << reply.id.to_hex() << "\n";
  std::cout << "built in " << reply.build_info.build_seconds << " s, "
            << reply.build_info.approximations << " approximations, "
            << reply.build_info.reorder_runs << " reorder runs\n";
  const int outcome = report_build_outcome(reply.build_info);
  if (!a.output.empty()) {
    const auto* model =
        dynamic_cast<const power::AddPowerModel*>(reply.model.get());
    if (model == nullptr) throw Error("build produced a non-serializable model");
    // Crash-safe: the model appears complete or not at all; a failure
    // mid-save never leaves a truncated file where a previous good model
    // used to be.
    atomic_write_file(a.output, [&](std::ostream& os) { model->save(os); });
    std::cout << "saved   : " << a.output << "\n";
  }
  return outcome;
}

power::AddPowerModel load_model(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open model file: " + path);
  return power::AddPowerModel::load(in);
}

/// The workload, average, peak and `exact` lines of an eval reply. The
/// exact line (shortest-round-trip doubles) is spelled identically by
/// `estimate` and `query eval|trace`: the serve-smoke job diffs the two
/// byte-for-byte.
void print_eval_reply(const Args& a, const service::EvalReply& r,
                      std::string_view peak_note) {
  const power::SupplyConfig supply{a.vdd};
  std::cout << a.workload_line();
  std::cout << "average : " << r.average_ff << " fF/cycle = "
            << supply.energy_fj(r.average_ff) << " fJ/cycle @ " << a.vdd
            << " V\n";
  std::cout << "peak    : " << r.peak_ff << " fF" << peak_note << "\n";
  std::cout << "exact   : total=" << format_double(r.total_ff)
            << " average=" << format_double(r.average_ff)
            << " peak=" << format_double(r.peak_ff) << "\n";
}

int cmd_estimate(const Args& a) {
  const auto model = load_model(a.positional[0]);
  // The daemon's eval entry point: bit-identical to a `query eval` with
  // the same parameters, and for every --threads value.
  cfpm::ThreadPool pool(a.threads);
  print_eval_reply(a, service::evaluate(model, a.eval_request(), &pool),
                   model.is_upper_bound() ? " (conservative bound)"
                                          : " (estimate)");
  return 0;
}

int cmd_worst(const Args& a) {
  const auto model = load_model(a.positional[0]);
  const auto t = model.worst_case_transition();
  std::cout << "worst case: " << model.worst_case_ff() << " fF\n";
  auto bits = [](const std::vector<std::uint8_t>& v) {
    std::string s;
    for (auto b : v) s += b ? '1' : '0';
    return s;
  };
  std::cout << "witness   : x_i=" << bits(t.xi) << " -> x_f=" << bits(t.xf)
            << "\n";
  return 0;
}

int cmd_accuracy(const Args& a) {
  const netlist::Netlist n = load_circuit(a.positional[0]);
  const sim::GateLevelSimulator golden(n, kLib);

  service::BuildOptions build = a.service_options();
  build.characterization_vectors = a.vectors;
  build.characterization_seed = service::kWorkloadSeed;
  const power::ModelOptions options = service::to_model_options(build, kLib);
  // Through the service facade (rich in-process overload): same factory
  // path as before, with the degradation report delivered in the reply
  // instead of via dynamic_cast.
  const auto con = service::build(n, power::ModelKind::kConstant, options);
  const auto lin = service::build(n, power::ModelKind::kLinear, options);
  const auto add = service::build(n, build.kind, options);

  eval::EvalOptions eval_options;
  eval_options.run.vectors_per_run = a.vectors;
  const auto grid = stats::evaluation_grid();
  const power::PowerModel* models[] = {con.model.get(), lin.model.get(),
                                       add.model.get()};
  const auto reports = eval::evaluate(models, golden, grid, eval_options);
  eval::TextTable table({"model", "ARE(%)"});
  table.add_row({"Con (characterized)", eval::TextTable::num(100 * reports[0].are, 1)});
  table.add_row({"Lin (characterized)", eval::TextTable::num(100 * reports[1].are, 1)});
  table.add_row({"ADD (analytical)", eval::TextTable::num(100 * reports[2].are, 1)});
  table.print(std::cout);
  return report_build_outcome(add.build_info);
}

int cmd_trace(const Args& a) {
  const netlist::Netlist n = load_circuit(a.positional[0]);
  const auto seq = service::workload({a.sp, a.st}, n.num_inputs(), a.vectors);
  const sim::GateLevelSimulator simulator(n, kLib);
  atomic_write_file(a.output, [&](std::ostream& os) {
    sim::write_vcd(os, n, seq, &simulator);
  });
  const auto energy = simulator.simulate(seq);
  std::cout << "wrote " << a.output << " (" << a.vectors << " vectors, "
            << n.num_signals() << " signals)\n";
  std::cout << "average " << energy.average_ff() << " fF/cycle, peak "
            << energy.peak_ff << " fF\n";
  return 0;
}

int cmd_sensitivity(const Args& a) {
  const auto model = load_model(a.positional[0]);
  const auto s = model.input_sensitivity_ff();
  eval::TextTable table({"input", "sensitivity (fF)", ""});
  double max_s = 0.0;
  for (double v : s) max_s = std::max(max_s, std::abs(v));
  for (std::size_t k = 0; k < s.size(); ++k) {
    const auto width =
        max_s > 0.0 ? static_cast<std::size_t>(20.0 * std::abs(s[k]) / max_s)
                    : 0;
    std::string input = "x";
    input += std::to_string(k);
    table.add_row({std::move(input), eval::TextTable::num(s[k], 2),
                   std::string(width, '#')});
  }
  table.print(std::cout);
  std::cout << "\nsensitivity[k] = E[C | input k toggles] - E[C | stable],\n"
            << "computed symbolically from the model (no simulation).\n";
  return 0;
}

int cmd_equiv(const Args& a) {
  const netlist::Netlist golden = load_circuit(a.positional[0]);
  const netlist::Netlist candidate = load_circuit(a.positional[1]);
  const auto r = netlist::check_equivalence(golden, candidate);
  if (r.equivalent) {
    std::cout << "EQUIVALENT: all " << golden.outputs().size()
              << " outputs proven equal (BDD comparison)\n";
    return 0;
  }
  std::cout << "NOT EQUIVALENT: output '" << r.differing_output
            << "' differs.\ncounterexample:";
  for (std::size_t i = 0; i < r.counterexample.size(); ++i) {
    std::cout << " " << golden.signal(golden.inputs()[i]).name << "="
              << int{r.counterexample[i]};
  }
  std::cout << "\n";
  return 1;
}

int cmd_rtl(const Args& a) {
  const power::RtlDescription d =
      power::read_rtl_design_file(a.positional[0], kLib);
  const auto trace =
      service::workload({a.sp, a.st}, d.design.bus_width(), a.vectors);

  const chip::ChipTraceResult r = chip::evaluate_trace(d.design, trace);
  const double cycles = static_cast<double>(r.transitions);
  const power::SupplyConfig supply{a.vdd};

  std::cout << "design  : " << d.name << " (" << d.design.num_instances()
            << " instances, " << d.design.bus_width() << "-bit bus)\n";
  std::cout << a.workload_line();
  std::cout << "average : " << r.average_ff() << " fF/cycle = "
            << supply.power_uw(r.average_ff(), 10.0) << " uW @ 100 MHz, "
            << a.vdd << " V\n";
  std::cout << "peak    : " << r.peak_ff << " fF"
            << (d.design.is_upper_bound() ? " (conservative bound)" : "")
            << "\n";
  eval::TextTable table({"instance", "macro", "fF/cycle", "share(%)"});
  for (std::size_t i = 0; i < r.per_instance_ff.size(); ++i) {
    const double v = r.per_instance_ff[i];
    table.add_row({d.design.instance_name(i), d.instance_macros[i],
                   eval::TextTable::num(v / cycles, 2),
                   eval::TextTable::num(100.0 * v / r.total_ff, 1)});
  }
  table.print(std::cout);
  return 0;
}

const char* outcome_name(power::BuildOutcome outcome) {
  switch (outcome) {
    case power::BuildOutcome::kClean:
      return "clean";
    case power::BuildOutcome::kDegraded:
      return "degraded";
    case power::BuildOutcome::kFallback:
      return "fallback";
  }
  return "?";
}

/// Prints a chip reply: library table, per-block and per-instance
/// breakdowns, composed bound vs sum-of-worst-cases tightness, and a
/// machine-diffable `exact` line (shortest-round-trip doubles — the
/// chip-smoke CI job diffs whole outputs across --shards, and the exact
/// line across the one-shot/daemon boundary). Deliberately prints no
/// wall-clock numbers so outputs are byte-stable. Returns the exit code.
int print_chip_reply(const Args& a, const service::ChipReply& r,
                     const std::string& workload_line, bool show_cache) {
  const power::SupplyConfig supply{a.vdd};
  std::cout << "chip    : " << r.spec << " (" << r.macros << " macros in "
            << r.blocks.size() << " blocks, " << r.bus_bits << "-bit bus, "
            << r.components << " composite nodes)\n";
  eval::TextTable lib({"macro", "inst", "inputs", "avg-nodes", "bound-nodes",
                       "build"});
  for (const service::ChipMacroSummary& m : r.library) {
    std::string build = outcome_name(m.avg_outcome);
    if (m.bound_outcome != m.avg_outcome) {
      build += std::string("/") + outcome_name(m.bound_outcome);
    }
    if (m.cache_hit) build += " (cached)";
    lib.add_row({m.name, std::to_string(m.instances), std::to_string(m.inputs),
                 std::to_string(m.avg_nodes), std::to_string(m.bound_nodes),
                 build});
  }
  lib.print(std::cout);
  std::cout << workload_line;
  const double cycles =
      r.transitions > 0 ? static_cast<double>(r.transitions) : 1.0;
  std::cout << "average : " << r.average_ff << " fF/cycle = "
            << supply.energy_fj(r.average_ff) << " fJ/cycle @ " << a.vdd
            << " V\n";
  std::cout << "peak    : " << r.peak_ff << " fF (observed)\n";
  std::cout << "bound   : " << r.bound_peak_ff
            << " fF (composed per-cycle bound)\n";
  std::cout << "worst   : " << r.worst_case_sum_ff
            << " fF (sum of leaf worst cases)\n";
  if (r.worst_case_sum_ff > 0.0) {
    std::cout << "tightness: composed bound is "
              << format_double(r.bound_peak_ff / r.worst_case_sum_ff)
              << " of the worst-case sum\n";
  }
  const auto print_totals =
      [&](const char* component,
          const std::vector<service::ChipComponentTotal>& totals) {
        eval::TextTable table({component, "fF/cycle", "share(%)"});
        for (const service::ChipComponentTotal& t : totals) {
          const double share =
              r.total_ff > 0.0 ? 100.0 * t.total_ff / r.total_ff : 0.0;
          table.add_row({t.name, eval::TextTable::num(t.total_ff / cycles, 2),
                         eval::TextTable::num(share, 1)});
        }
        table.print(std::cout);
      };
  print_totals("block", r.blocks);
  print_totals("instance", r.instances);
  std::cout << "exact   : total=" << format_double(r.total_ff)
            << " average=" << format_double(r.average_ff)
            << " peak=" << format_double(r.peak_ff)
            << " bound-peak=" << format_double(r.bound_peak_ff)
            << " worst-sum=" << format_double(r.worst_case_sum_ff) << "\n";
  if (show_cache) {
    std::cout << "cache   : " << r.cache_hits << " of "
              << 2 * r.library.size() << " macro models from registry\n";
  }
  if (r.status == service::StatusCode::kDegraded) {
    std::cout << "DEGRADED: at least one macro built via the degradation "
                 "ladder (see build column)\n";
    return kExitDegraded;
  }
  return kExitOk;
}

int cmd_chip(const Args& a) {
  cfpm::ThreadPool pool(a.threads);
  if (!a.chip_trace.empty()) {
    // Explicit trace: width and length are validated by the facade.
    const sim::InputSequence trace =
        cfpm::chip::read_trace_text(a.chip_trace, /*min_width=*/1);
    return print_chip_reply(
        a, service::evaluate_chip_trace(a.chip_request(), trace, &pool),
        "trace   : " + a.chip_trace + " (" + std::to_string(trace.length()) +
            " vectors)\n",
        /*show_cache=*/false);
  }
  return print_chip_reply(a, service::evaluate_chip(a.chip_request(), &pool),
                          a.workload_line(), /*show_cache=*/false);
}

int cmd_fuzz(const Args& a) {
  if (a.checks == "list") {
    for (const verify::Check& c : verify::all_checks()) {
      std::cout << c.name << "\n    " << c.invariant << "\n";
    }
    return 0;
  }

  if (!a.replay.empty()) {
    const verify::Repro repro = verify::read_repro_file(a.replay);
    std::cout << "replay  : " << a.replay << " (check " << repro.check
              << ", seed " << repro.seed << ", "
              << repro.netlist.num_gates() << " gates)\n";
    if (!repro.note.empty()) std::cout << "note    : " << repro.note << "\n";
    const verify::CheckResult r = verify::replay(repro);
    if (r.ok) {
      std::cout << "PASS: the failure no longer reproduces\n";
      return 0;
    }
    std::cout << "FAIL: " << r.detail << "\n";
    return kExitError;
  }

  if (a.patterns == 0) throw Error("fuzz: --patterns must be >= 1");
  verify::FuzzOptions opt;
  opt.seed = a.seed;
  opt.runs = a.runs;
  opt.max_gates = a.fuzz_max_gates;
  opt.patterns = a.patterns;
  opt.corpus_dir = a.corpus_dir;
  opt.faults = a.fuzz_faults;
  opt.log = &std::cout;
  for (std::size_t pos = 0; pos < a.checks.size();) {
    const auto comma = a.checks.find(',', pos);
    const auto end = comma == std::string::npos ? a.checks.size() : comma;
    if (end > pos) opt.checks.push_back(a.checks.substr(pos, end - pos));
    pos = end + 1;
  }
  if (a.deadline_ms) {
    opt.governor = std::make_shared<Governor>();
    opt.governor->set_deadline(std::chrono::milliseconds(*a.deadline_ms));
  }

  const verify::FuzzReport report = verify::run_fuzz(opt);
  std::cout << "fuzz    : " << report.iterations << " iteration(s), "
            << report.checks_run << " check run(s), " << report.failures.size()
            << " failure(s)"
            << (report.deadline_hit ? " [stopped: deadline]" : "") << "\n";
  if (a.fuzz_faults) {
    std::cout << "faults  : " << report.faults_fired << " fired, "
              << report.fault_recoveries << " typed-failure recover(ies)\n";
  }
  if (!report.failures.empty()) {
    std::cout << "replay with: cfpm fuzz --replay <file.repro>\n";
    return kExitError;
  }
  return kExitOk;
}

int cmd_serve(const Args& a) {
  serve::ServerOptions options;
  options.socket_path = a.socket;
  options.persist_dir = a.persist_dir;
  options.eval_threads = a.threads;
  options.default_deadline_ms = a.deadline_ms.value_or(0);
  options.log = &std::cerr;
  serve::Server server(std::move(options));
  return serve::run_with_signal_handling(server);
}

/// `query eval`/`query trace` address a model either by the 32-hex content
/// id a build printed, or by circuit spec — in which case the id is
/// computed locally from the netlist and the current option flags, exactly
/// as the daemon computes it.
service::ModelId query_model_id(const Args& a, const std::string& target) {
  if (const auto id = service::ModelId::from_hex(target)) return *id;
  return service::model_id(load_circuit(target), a.service_options());
}

void print_query_eval_reply(const Args& a, const service::EvalReply& r) {
  print_eval_reply(a, r, "");
  std::cout << "cache   : " << (r.cache_hit ? "hit" : "miss") << "\n";
}

int query_ping(const Args& a) {
  std::cout << serve::Client(a.socket).ping();
  return kExitOk;
}

int query_shutdown(const Args& a) {
  serve::Client(a.socket).shutdown_server();
  std::cout << "server draining\n";
  return kExitOk;
}

int query_stats(const Args& a) {
  const serve::wire::StatsReply s = serve::Client(a.socket).stats();
  std::cout << "models  : " << s.models << "\n"
            << "hits    : " << s.hits << "\n"
            << "misses  : " << s.misses << "\n"
            << "builds  : " << s.builds << "\n";
  for (const std::string& line : s.model_lines) {
    std::cout << "  " << line << "\n";
  }
  return kExitOk;
}

int query_build(const Args& a) {
  serve::Client client(a.socket);
  const netlist::Netlist n = load_circuit(a.positional[0]);
  const service::BuildReply reply =
      client.build({service::kApiVersion, n, a.service_options()});
  std::cout << "id      : " << reply.id.to_hex() << "\n"
            << "model   : " << reply.model_nodes << " nodes\n"
            << "cache   : " << (reply.cache_hit ? "hit" : "miss") << "\n";
  return reply.status == service::StatusCode::kDegraded ? kExitDegraded
                                                        : kExitOk;
}

int query_eval(const Args& a) {
  serve::Client client(a.socket);
  print_query_eval_reply(
      a, client.evaluate(query_model_id(a, a.positional[0]), a.eval_request()));
  return kExitOk;
}

/// Remote chip query: the daemon builds the macro library through its
/// registry (second identical query: all cache hits, zero construction)
/// and evaluates on its eval pool. The exact line matches `cfpm chip` with
/// the same parameters byte-for-byte.
int query_chip(const Args& a) {
  serve::Client client(a.socket);
  return print_chip_reply(a, client.chip(a.chip_request()), a.workload_line(),
                          /*show_cache=*/true);
}

/// Explicit-trace query: the vectors are generated client-side (same
/// seeded Markov recipe) and shipped over the wire, exercising the
/// daemon's batched trace path. Needs the circuit spec for the input
/// count; results match an eval query with the same parameters exactly.
int query_trace(const Args& a) {
  serve::Client client(a.socket);
  const netlist::Netlist n = load_circuit(a.positional[0]);
  const auto seq = service::workload({a.sp, a.st}, n.num_inputs(), a.vectors);
  print_query_eval_reply(
      a, client.evaluate_trace(service::model_id(n, a.service_options()), seq));
  return kExitOk;
}

// ---------------------------------------------------------------------------
// The command line as data
// ---------------------------------------------------------------------------

using Text = const std::string&;

struct Flag {
  const char* name;     // spelling synopses show
  const char* alias;    // second accepted spelling, or nullptr
  const char* metavar;  // value placeholder; nullptr = boolean, no value
  /// Applies the value (empty for a boolean) to Args; `flag` is the
  /// spelling typed, which errors name. Throws service::UsageError.
  void (*set)(Args& a, Text flag, Text value);
  const char* help;
};

/// Numeric values go through parse_number (std::from_chars: full match,
/// range-checked, locale-free), so `--threads abc`, `--vectors -1` and
/// `--sp 0.5x` are usage errors naming the flag.
template <class T>
T number(Text flag, Text text) {
  const std::optional<T> v = parse_number<T>(text);
  if (!v) {
    throw service::UsageError("invalid value for " + flag + ": '" + text +
                              "'");
  }
  return *v;
}

[[noreturn]] void out_of_range(Text flag, const char* range, double got) {
  std::ostringstream msg;
  msg << "value of " << flag << " must be " << range << ", got " << got;
  throw service::UsageError(msg.str());
}

double probability(Text flag, Text text) {
  const double p = number<double>(flag, text);
  if (!(p >= 0.0 && p <= 1.0)) out_of_range(flag, "in [0, 1]", p);
  return p;
}

void arm_failpoints(Args&, Text flag, Text spec) {
  // Applied immediately: the registry is process-global state, and
  // arm_from_spec doubles as the validator (same grammar as the
  // CFPM_FAILPOINTS environment variable).
  try {
    failpoint::arm_from_spec(spec);
  } catch (const Error& e) {
    throw service::UsageError("invalid value for " + flag + ": " + e.what());
  }
  if (!failpoint::compiled_in()) {
    std::cerr << "warning: --failpoints ignored (built with "
                 "CFPM_NO_FAILPOINTS)\n";
  }
}

// Setters for the common shapes: a count, a text, a boolean.
template <auto field>
void set_count(Args& a, Text flag, Text v) {
  a.*field = number<std::size_t>(flag, v);
}
template <auto field>
void set_text(Args& a, Text, Text v) {
  a.*field = v;
}
template <auto field, bool value>
void set_bool(Args& a, Text, Text) {
  a.*field = value;
}

const Flag kFlags[] = {
    {"-m", "--max-nodes", "MAX", set_count<&Args::max_nodes>,
     "node budget, 0 = exact (default 1000; chip: 4000)"},
    {"--bound", nullptr, nullptr, set_bool<&Args::bound, true>,
     "build the conservative upper-bound model"},
    {"-o", "--output", "FILE", set_text<&Args::output>,
     "output file: the model (build) or the VCD (trace)"},
    {"--deadline-ms", nullptr, "N", set_count<&Args::deadline_ms>,
     "wall-clock build budget; on expiry the build degrades (harder "
     "approximation, then a constant bound) and exits 3; fuzz: stops the "
     "campaign"},
    {"--no-degrade", nullptr, nullptr, set_bool<&Args::degrade, false>,
     "fail on an expired deadline instead of degrading"},
    {"--sp", nullptr, "P",
     [](Args& a, Text f, Text v) { a.sp = probability(f, v); },
     "signal probability of the workload (default 0.5)"},
    {"--st", nullptr, "P",
     [](Args& a, Text f, Text v) { a.st = probability(f, v); },
     "transition probability (default 0.5); needs st <= 2*min(sp, 1-sp)"},
    {"--vectors", nullptr, "N",
     [](Args& a, Text f, Text v) {
       a.vectors = number<std::size_t>(f, v);
       if (a.vectors < 2) {
         out_of_range(f, ">= 2 (a workload needs at least one transition)",
                      static_cast<double>(a.vectors));
       }
     },
     "workload length, >= 2 (default 10000)"},
    {"--vdd", nullptr, "V",
     [](Args& a, Text f, Text v) {
       a.vdd = number<double>(f, v);
       if (!(a.vdd > 0.0 && a.vdd < 1e3)) {
         out_of_range(f, "in (0, 1000) volts", a.vdd);
       }
     },
     "supply voltage in volts (default 3.3)"},
    {"--threads", "--shards", "N", set_count<&Args::threads>,
     "eval pool lanes, 0 = all hardware threads (default 1); results are "
     "bit-identical for any N"},
    {"--spec", nullptr, "CxBxM", set_text<&Args::chip_spec>,
     "chip of C blocks of B macros, M bus bits per block (default 2x3x12)"},
    {"--trace", nullptr, "FILE", set_text<&Args::chip_trace>,
     "text 0/1 trace to evaluate, one row per vector"},
    {"--socket", nullptr, "PATH", set_text<&Args::socket>,
     "Unix socket of the daemon"},
    {"--persist", nullptr, "DIR", set_text<&Args::persist_dir>,
     "registry directory to warm-start from and save to"},
    {"--build-threads", nullptr, "N",
     [](Args&, Text f, Text v) { (void)number<std::size_t>(f, v); },
     "ignored (builds run on the requesting connection)"},
    {"--runs", nullptr, "N", set_count<&Args::runs>,
     "fuzz iterations (default 100)"},
    {"--seed", nullptr, "S", set_count<&Args::seed>,
     "fuzz campaign seed (default 1)"},
    {"--max-gates", nullptr, "N", set_count<&Args::fuzz_max_gates>,
     "largest random circuit (default 64)"},
    {"--patterns", nullptr, "N", set_count<&Args::patterns>,
     "simulation patterns per check (default 128)"},
    {"--checks", nullptr, "a,b|list", set_text<&Args::checks>,
     "run only these checks; list prints the invariants"},
    {"--corpus-dir", nullptr, "DIR", set_text<&Args::corpus_dir>,
     "where failures go as .repro (default fuzz/corpus)"},
    {"--faults", nullptr, nullptr, set_bool<&Args::fuzz_faults, true>,
     "arm a seed-derived failpoint spec per check: faults may fail typed, "
     "a clean rerun must pass, values must never corrupt"},
    {"--replay", nullptr, "FILE", set_text<&Args::replay>,
     "re-run one .repro file"},
    {"--failpoints", nullptr, "SPEC", arm_failpoints,
     "arm fault-injection points: name=action[:count][,...], action one "
     "of throw_bad_alloc, throw_deadline, throw_resource, delay_ms(N), "
     "fail_io (count 0 = forever; default once)"},
    {"--metrics-json", nullptr, "PATH", set_text<&Args::metrics_json>,
     "write the metrics snapshot as JSON on exit"},
    {"--trace-json", nullptr, "PATH", set_text<&Args::trace_json>,
     "record spans; write Chrome trace JSON on exit"},
};

/// Flags every command accepts.
constexpr std::string_view kCommonFlags[] = {"--failpoints", "--metrics-json",
                                             "--trace-json"};

struct Command {
  std::string_view name;      // argv[1], or "query <verb>"
  std::string_view operands;  // positional synopsis; each <..> is one operand
  int (*run)(const Args&);
  std::string_view required;  // flag that must be given, or empty
  std::vector<std::string_view> flags;  // accepted besides kCommonFlags

  std::size_t arity() const {
    return static_cast<std::size_t>(
        std::count(operands.begin(), operands.end(), '<'));
  }
  bool accepts(const Flag& f) const {
    const auto in = [&](const auto& names) {
      return std::find(std::begin(names), std::end(names), f.name) !=
             std::end(names);
    };
    return f.name == required || in(flags) || in(kCommonFlags);
  }
};

const std::vector<Command> kCommands = {
    {"info", "<circuit>", cmd_info, "", {}},
    {"build", "<circuit>", cmd_build, "",
     {"-m", "--bound", "-o", "--deadline-ms", "--no-degrade"}},
    {"estimate", "<model.cfpm>", cmd_estimate, "",
     {"--sp", "--st", "--vectors", "--vdd", "--threads"}},
    {"worst", "<model.cfpm>", cmd_worst, "", {}},
    {"accuracy", "<circuit>", cmd_accuracy, "",
     {"-m", "--bound", "--vectors", "--deadline-ms", "--no-degrade"}},
    {"trace", "<circuit>", cmd_trace, "-o", {"--sp", "--st", "--vectors"}},
    {"rtl", "<design.rtl>", cmd_rtl, "", {"--sp", "--st", "--vectors", "--vdd"}},
    {"chip", "", cmd_chip, "",
     {"--spec", "--trace", "--threads", "--sp", "--st", "--vectors", "-m",
      "--deadline-ms", "--no-degrade", "--vdd"}},
    {"sensitivity", "<model.cfpm>", cmd_sensitivity, "", {}},
    {"equiv", "<golden> <candidate>", cmd_equiv, "", {}},
    {"fuzz", "", cmd_fuzz, "",
     {"--runs", "--seed", "--max-gates", "--patterns", "--checks",
      "--corpus-dir", "--deadline-ms", "--faults", "--replay"}},
    {"serve", "", cmd_serve, "--socket",
     {"--persist", "--threads", "--build-threads", "--deadline-ms"}},
    {"query build", "<circuit>", query_build, "--socket",
     {"-m", "--bound", "--deadline-ms", "--no-degrade"}},
    {"query eval", "<circuit|model-id>", query_eval, "--socket",
     {"-m", "--bound", "--sp", "--st", "--vectors", "--vdd"}},
    {"query trace", "<circuit>", query_trace, "--socket",
     {"-m", "--bound", "--sp", "--st", "--vectors", "--vdd"}},
    {"query chip", "", query_chip, "--socket",
     {"--spec", "--sp", "--st", "--vectors", "-m", "--deadline-ms",
      "--no-degrade", "--vdd"}},
    {"query stats", "", query_stats, "--socket", {}},
    {"query ping", "", query_ping, "--socket", {}},
    {"query shutdown", "", query_shutdown, "--socket", {}},
};

const Flag* find_flag(std::string_view spelling) {
  for (const Flag& f : kFlags) {
    if (spelling == f.name || (f.alias != nullptr && spelling == f.alias)) {
      return &f;
    }
  }
  return nullptr;
}

/// "[-m MAX]" (or "-m MAX" when `optional` is false).
std::string flag_synopsis(const Flag& f, bool optional) {
  std::string s = f.name;
  if (f.metavar != nullptr) s += std::string(" ") + f.metavar;
  return optional ? "[" + s + "]" : s;
}

/// Writes `line` followed by `words`, breaking before column 79 and
/// indenting continuation lines by `indent`.
void print_wrapped(std::string line, const std::vector<std::string>& words,
                   std::size_t indent) {
  for (const std::string& w : words) {
    if (line.size() + 1 + w.size() > 78 && line.size() > indent) {
      std::cerr << line << "\n";
      line.assign(indent, ' ');
    } else if (!line.empty() && line.back() != ' ') {
      line += ' ';
    }
    line += w;
  }
  std::cerr << line << "\n";
}

std::vector<std::string> split_words(std::string_view text) {
  std::vector<std::string> words;
  std::istringstream is{std::string(text)};
  for (std::string w; is >> w;) words.push_back(w);
  return words;
}

int usage() {
  std::cerr << "usage:\n";
  for (const Command& c : kCommands) {
    std::string head = "  cfpm " + std::string(c.name);
    std::vector<std::string> words = split_words(c.operands);
    if (!c.required.empty()) {
      words.push_back(flag_synopsis(*find_flag(c.required), false));
    }
    for (std::string_view name : c.flags) {
      words.push_back(flag_synopsis(*find_flag(name), true));
    }
    print_wrapped(head, words, head.size() + 1);
  }
  std::cerr << "\noptions (every command takes --failpoints, "
               "--metrics-json, --trace-json):\n";
  for (const Flag& f : kFlags) {
    std::string head = std::string("  ") + f.name;
    if (f.alias != nullptr) head += std::string(", ") + f.alias;
    if (f.metavar != nullptr) head += std::string(" ") + f.metavar;
    head.resize(std::max<std::size_t>(head.size() + 1, 26), ' ');
    print_wrapped(head, split_words(f.help), 26);
  }
  std::cerr <<
      "\n"
      "<circuit>: path to a .bench or .blif file, or gen:<name> with <name>\n"
      "one of c17, alu2, alu4, cmb, cm150, cm85, comp, decod, k2, mux,\n"
      "parity, pcle, x1, x2. <model-id>: the 32-hex id a build printed.\n"
      "CFPM_SIMD=auto|scalar|avx2|avx512 caps the evaluation kernel tier\n"
      "(all tiers are bit-identical); CFPM_FAILPOINTS takes the\n"
      "--failpoints grammar.\n"
      "exit codes: 0 ok, 1 error, 2 usage, 3 degraded result, 4 out of\n"
      "memory, 5 internal error, 6 daemon stopped by SIGINT/SIGTERM after\n"
      "a clean drain.\n";
  return kExitUsage;
}

/// Parses argv[2..] against kFlags: `--flag value` and `--flag=value`.
/// Reports the first bad token on stderr and returns nullopt; appends each
/// flag given (as typed) to `given`.
std::optional<Args> parse(
    int argc, char** argv,
    std::vector<std::pair<std::string, const Flag*>>& given) {
  Args a;
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag.empty() || flag[0] != '-') {
      a.positional.push_back(flag);
      continue;
    }
    std::optional<std::string> value;
    if (flag.rfind("--", 0) == 0) {
      if (const auto eq = flag.find('='); eq != std::string::npos) {
        value = flag.substr(eq + 1);
        flag.resize(eq);
      }
    }
    const Flag* f = find_flag(flag);
    if (f == nullptr) {
      std::cerr << "unknown option: " << flag << "\n";
      return std::nullopt;
    }
    if (f->metavar == nullptr && value) {
      // "--bound=yes" is a usage error, not a silently ignored suffix.
      std::cerr << flag << " does not take a value\n";
      return std::nullopt;
    }
    if (f->metavar != nullptr && !value) {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << flag << "\n";
        return std::nullopt;
      }
      value = argv[++i];
    }
    try {
      f->set(a, flag, value.value_or(""));
    } catch (const service::UsageError& e) {
      std::cerr << e.what() << "\n";
      return std::nullopt;
    }
    given.emplace_back(flag, f);
  }
  return a;
}

/// The command argv[1] names; for `query`, the verb (first operand) is
/// consumed from `a` and selects the row.
const Command* find_command(const std::string& name, Args& a) {
  std::string key = name;
  std::string verb;
  if (name == "query" && !a.positional.empty()) {
    verb = a.positional.front();
    a.positional.erase(a.positional.begin());
    key += " " + verb;
  }
  for (const Command& c : kCommands) {
    if (c.name == key) return &c;
  }
  if (name == "query") {
    std::cerr << (verb.empty() ? "missing query verb"
                               : "unknown query verb: " + verb)
              << "\n";
  } else {
    std::cerr << "unknown command: " << name << "\n";
  }
  return nullptr;
}

/// Writes the metrics snapshot and/or Chrome trace wherever --metrics-json /
/// --trace-json asked for them. Runs on every exit path — a degraded or
/// failed run is exactly when the numbers matter most — and never changes
/// the command's exit code (an unwritable path only warns).
void write_observability(const Args& args) {
  const auto write = [](const char* what, const std::string& path,
                        void (*body)(std::ostream&)) {
    if (path.empty()) return;
    try {
      atomic_write_file(path, body);
    } catch (const std::exception& e) {
      std::cerr << "warning: cannot write " << what << " to " << path << ": "
                << e.what() << "\n";
    }
  };
  write("metrics", args.metrics_json,
        [](std::ostream& os) { metrics::snapshot().write_json(os); });
  write("trace", args.trace_json,
        [](std::ostream& os) { trace::write_chrome_json(os); });
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::vector<std::pair<std::string, const Flag*>> given;
  auto args = parse(argc, argv, given);
  if (!args) return usage();
  const Command* cmd = find_command(argv[1], *args);
  if (cmd == nullptr) return usage();
  bool has_required = cmd->required.empty();
  for (const auto& [spelling, flag] : given) {
    if (!cmd->accepts(*flag)) {
      std::cerr << spelling << " is not an option of cfpm " << cmd->name
                << "\n";
      return usage();
    }
    has_required = has_required || flag->name == cmd->required;
  }
  if (!has_required) {
    std::cerr << "cfpm " << cmd->name << " needs " << cmd->required << "\n";
    return usage();
  }
  if (args->positional.size() != cmd->arity()) return usage();
  if (!args->trace_json.empty()) trace::set_enabled(true);
  int code;
  try {
    CFPM_TRACE_SPAN("cli");
    code = cmd->run(*args);
  } catch (...) {
    // One classifier defines the whole exit-code taxonomy (service layer);
    // daemon error payloads and local exceptions take the same path. An
    // out-of-memory failure stays distinct so callers can react (retry
    // with a smaller budget, reschedule on a bigger host, ...).
    const service::ErrorPayload err =
        service::classify(std::current_exception());
    std::cerr << (err.code == service::StatusCode::kInternal ? "internal error: "
                                                             : "error: ")
              << err.message << "\n";
    code = service::exit_code(err.code);
  }
  write_observability(*args);
  return code;
}
