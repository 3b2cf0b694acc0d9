// Shared machinery of the benchmark program: run options, the result record
// every workload fills, order statistics, deterministic work counters,
// benchmark-side spans (plus the program's own trace spans attached to
// them), the benchmark's own input generator, and model-accuracy scoring.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "netlist/library.hpp"
#include "netlist/netlist.hpp"
#include "power/power_model.hpp"
#include "sim/sequence.hpp"
#include "support/metrics.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Run options and result
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed phase
  bool trace = false;     ///< traced run: per-layer metrics instead of e2e
  std::string cfpm;       ///< path of the `cfpm` executable (serve workloads)
  std::string out_dir;    ///< per-run artifacts: spans, daemon logs, models
  std::string revision;   ///< source revision stamp supplied by run.py
  unsigned nproc = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

using Counters = std::map<std::string, std::uint64_t>;

/// What one workload run reports. `attempted`/`failed` count the timed
/// operations (builds, chip evaluations, requests); a failed check on an
/// operation's output counts that operation as failed. Checks that are not
/// tied to one operation only clear `correct`.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable detail lines
  Counters counters;               ///< deterministic work counters

  void metric(const std::string& name, double value, const std::string& unit);
  void note(const std::string& line);
  /// Records a check; a failure clears `correct` and is noted.
  void check(bool ok, const std::string& what);
  /// Counts one operation; `ok == false` counts it as failed.
  void op(bool ok);
};

// ---------------------------------------------------------------------------
// Time and order statistics
// ---------------------------------------------------------------------------

std::uint64_t now_ns();
double ms_since(std::uint64_t start_ns);

double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> values, double q);

/// The highest of the 99th / 90th / 50th percentiles, no higher than
/// `max_q`, that has at least ten samples beyond it; with fewer than twenty
/// samples, the maximum.
struct Tail {
  double value = 0.0;
  std::string label;  ///< "p99", "p90", "p50" or "max"
};
Tail tail(const std::vector<double>& values, double max_q = 0.99);

/// Peak resident set of this process, MiB.
double self_peak_rss_mb();
/// Peak resident set (VmHWM) of another process, MiB; 0 when unreadable.
double process_peak_rss_mb(int pid);

// ---------------------------------------------------------------------------
// Deterministic work counters
// ---------------------------------------------------------------------------

/// The counters whose values depend only on the work done, never on
/// timing: dd.*, power.build.*, service.*.count and serve.* request and
/// cache counters.
bool is_work_counter(const std::string& name);
Counters work_counters(const cfpm::metrics::Snapshot& snapshot);
Counters work_counters_now();
Counters counter_delta(const Counters& after, const Counters& before);
/// FNV-1a digest of a counter set, for comparing runs at a glance.
std::string counter_digest(const Counters& counters);
std::uint64_t counter(const Counters& counters, const std::string& name);

/// Counters and histogram (count, sum) pairs of a `--metrics-json` file.
struct DaemonMetrics {
  Counters counters;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> histograms;
  double histogram_mean(const std::string& name) const;
};
DaemonMetrics read_metrics_json(const std::string& path);

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Benchmark-side span log. A span records its name, interval, the span
/// that caused it (the enclosing span on the same thread) and the id of the
/// request it belongs to. Program spans (the `CFPM_TRACE_SPAN`s already in
/// the code) are imported after each traced operation and attached to the
/// innermost benchmark span whose interval contains them.
class SpanLog {
 public:
  struct Record {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   ///< 0 = root
    std::uint64_t request = 0;  ///< shared by every span of one request
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    bool program = false;  ///< recorded by the program, not the benchmark
    double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
  };

  std::uint64_t next_id();
  void add(Record record);
  /// Moves the program's recorded trace events into this log and clears
  /// the program's trace buffer.
  void import_program_trace();

  /// Sum of durations of spans named `name`, ms.
  double total_ms(const std::string& name, bool program) const;
  /// Sum of self times, ms: each span's duration minus the union of its
  /// child spans whose names start with `child_prefix` ("" = all children).
  double self_ms(const std::string& name, bool program,
                 const std::string& child_prefix = "") const;
  std::vector<double> durations_ms(const std::string& name,
                                   bool program) const;

  /// Chrome trace_event document with id/parent/request in `args`.
  void write_chrome_json(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Record> records_;
  std::uint64_t next_id_ = 1;
};

/// RAII benchmark span; inert when `log` is null. A span opened with
/// `request == 0` inherits the request of its enclosing span, or starts a
/// new request (its own id) when it has none.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  SpanLog::Record record_;
};

// ---------------------------------------------------------------------------
// Inputs and accuracy
// ---------------------------------------------------------------------------

/// SplitMix64 mixing step; the benchmark's own seed derivation.
std::uint64_t mix(std::uint64_t x);

/// The benchmark's own Markov workload: one two-state chain per input with
/// stationary P(1) = sp and toggle probability st. Independent of
/// stats::MarkovSequenceGenerator, so a rewrite of that generator cannot
/// move accuracy scores computed from these sequences.
cfpm::sim::InputSequence markov_sequence(std::size_t inputs,
                                         std::size_t length, double sp,
                                         double st, std::uint64_t seed);

/// (sp, st) points held out from stats::evaluation_grid().
std::vector<std::pair<double, double>> held_out_grid();

/// Golden reference for accuracy scoring: one benchmark-generated sequence
/// per held_out_grid() point and the gate-level golden simulator's average
/// switched capacitance on it.
struct Reference {
  std::vector<cfpm::sim::InputSequence> sequences;
  std::vector<double> golden_ff;
};
Reference golden_reference(const cfpm::netlist::Netlist& circuit,
                           const cfpm::netlist::GateLibrary& library,
                           std::size_t vectors, std::uint64_t seed);

/// Mean relative error (%) of a model's average estimate against the
/// reference over every grid point.
double model_are_pct(const cfpm::power::PowerModel& model,
                     const Reference& reference);

/// Checks estimate_ff >= golden on `transitions` transitions of a seeded
/// workload; returns the number of transitions that read below golden.
std::size_t upper_bound_violations(const cfpm::power::PowerModel& model,
                                   const cfpm::netlist::Netlist& circuit,
                                   const cfpm::netlist::GateLibrary& library,
                                   std::size_t transitions,
                                   std::uint64_t seed);

/// Environment stamp: nproc, SIMD tier, build type, compiler, revision.
std::string environment_json(const Options& options);

/// Shortest round-trip decimal spelling of a double.
std::string format_number(double value);

}  // namespace perfbench
