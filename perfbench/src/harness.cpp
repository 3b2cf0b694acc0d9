#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "dd/simd.hpp"
#include "sim/simulator.hpp"
#include "support/trace.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Outcome
// ---------------------------------------------------------------------------

void Outcome::metric(const std::string& name, double value,
                     const std::string& unit) {
  metrics.push_back({name, value, unit});
}

void Outcome::note(const std::string& line) { notes.push_back(line); }

void Outcome::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  notes.push_back("CHECK FAILED: " + what);
}

void Outcome::op(bool ok) {
  ++attempted;
  if (!ok) ++failed;
}

// ---------------------------------------------------------------------------
// Time and order statistics
// ---------------------------------------------------------------------------

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double ms_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e6;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

Tail tail(const std::vector<double>& values, double max_q) {
  const double n = static_cast<double>(values.size());
  for (const auto& [q, label] :
       {std::pair{0.99, "p99"}, std::pair{0.90, "p90"}}) {
    if (q <= max_q && n * (1.0 - q) >= 10.0) {
      return {quantile(values, q), label};
    }
  }
  if (values.size() >= 20) return {quantile(values, 0.5), "p50"};
  return {values.empty() ? 0.0 : *std::max_element(values.begin(), values.end()),
          "max"};
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double process_peak_rss_mb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Work counters
// ---------------------------------------------------------------------------

bool is_work_counter(const std::string& name) {
  const auto starts = [&](const char* p) { return name.rfind(p, 0) == 0; };
  const auto ends = [&](const char* s) {
    const std::string suffix(s);
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  if (starts("dd.") || starts("power.build.")) return true;
  if (starts("service.") && ends(".count")) return true;
  return starts("serve.request.") || starts("serve.cache.") ||
         starts("serve.build.count");
}

Counters work_counters(const cfpm::metrics::Snapshot& snapshot) {
  Counters out;
  for (const auto& c : snapshot.counters) {
    if (is_work_counter(c.name)) out[c.name] = c.value;
  }
  return out;
}

Counters work_counters_now() {
  return work_counters(cfpm::metrics::snapshot());
}

Counters counter_delta(const Counters& after, const Counters& before) {
  Counters out;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    const std::uint64_t base = it == before.end() ? 0 : it->second;
    if (value != base) out[name] = value - base;
  }
  return out;
}

std::string counter_digest(const Counters& counters) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto feed = [&](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& [name, value] : counters) {
    feed(name);
    feed("=" + std::to_string(value) + ";");
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::uint64_t counter(const Counters& counters, const std::string& name) {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

double DaemonMetrics::histogram_mean(const std::string& name) const {
  const auto it = histograms.find(name);
  if (it == histograms.end() || it->second.first == 0) return 0.0;
  return static_cast<double>(it->second.second) /
         static_cast<double>(it->second.first);
}

DaemonMetrics read_metrics_json(const std::string& path) {
  // The snapshot writer puts one metric per line; that layout is all this
  // reader relies on.
  DaemonMetrics out;
  std::ifstream in(path);
  std::string line;
  enum { kNone, kCounters, kGauges, kHistograms } section = kNone;
  while (std::getline(in, line)) {
    if (line.find("\"counters\"") != std::string::npos) {
      section = kCounters;
      continue;
    }
    if (line.find("\"gauges\"") != std::string::npos) {
      section = kGauges;
      continue;
    }
    if (line.find("\"histograms\"") != std::string::npos) {
      section = kHistograms;
      continue;
    }
    const std::size_t q1 = line.find('"');
    const std::size_t q2 = q1 == std::string::npos ? q1 : line.find('"', q1 + 1);
    if (q2 == std::string::npos) continue;
    const std::string name = line.substr(q1 + 1, q2 - q1 - 1);
    const std::string rest = line.substr(q2 + 1);
    if (section == kCounters) {
      out.counters[name] = std::strtoull(rest.c_str() + rest.find(':') + 1,
                                         nullptr, 10);
    } else if (section == kHistograms) {
      const std::size_t c = rest.find("\"count\":");
      const std::size_t s = rest.find("\"sum\":");
      if (c == std::string::npos || s == std::string::npos) continue;
      out.histograms[name] = {
          std::strtoull(rest.c_str() + c + 8, nullptr, 10),
          std::strtoull(rest.c_str() + s + 6, nullptr, 10)};
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

namespace {

struct OpenSpan {
  std::uint64_t id;
  std::uint64_t request;
};
thread_local std::vector<OpenSpan> t_open;

/// Length of the union of [start, end) intervals clipped to [lo, hi).
std::uint64_t covered(std::vector<std::pair<std::uint64_t, std::uint64_t>> iv,
                      std::uint64_t lo, std::uint64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::uint64_t total = 0;
  std::uint64_t cursor = lo;
  for (auto [s, e] : iv) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e > s) {
      total += e - s;
      cursor = e;
    }
  }
  return total;
}

}  // namespace

std::uint64_t SpanLog::next_id() {
  std::lock_guard lock(mutex_);
  return next_id_++;
}

void SpanLog::add(Record record) {
  std::lock_guard lock(mutex_);
  records_.push_back(std::move(record));
}

void SpanLog::import_program_trace() {
  std::ostringstream os;
  cfpm::trace::write_chrome_json(os);
  cfpm::trace::clear();
  std::istringstream in(os.str());
  std::string line;
  std::lock_guard lock(mutex_);
  const std::size_t bench_spans = records_.size();
  while (std::getline(in, line)) {
    const std::size_t n = line.find("\"name\": \"");
    const std::size_t ts = line.find("\"ts\": ");
    const std::size_t dur = line.find("\"dur\": ");
    if (n == std::string::npos || ts == std::string::npos ||
        dur == std::string::npos) {
      continue;
    }
    Record r;
    r.name = line.substr(n + 9, line.find('"', n + 9) - (n + 9));
    r.start_ns = std::strtoull(line.c_str() + ts + 6, nullptr, 10) * 1000;
    r.end_ns = r.start_ns +
               std::strtoull(line.c_str() + dur + 7, nullptr, 10) * 1000;
    r.program = true;
    r.id = next_id_++;
    // Program timestamps are truncated to microseconds; allow that slack.
    const Record* best = nullptr;
    for (std::size_t i = 0; i < bench_spans; ++i) {
      const Record& b = records_[i];
      if (b.program || b.start_ns > r.start_ns + 1000 ||
          b.end_ns + 1000 < r.end_ns) {
        continue;
      }
      if (!best || b.end_ns - b.start_ns < best->end_ns - best->start_ns) {
        best = &b;
      }
    }
    if (best) {
      r.parent = best->id;
      r.request = best->request;
    }
    records_.push_back(std::move(r));
  }
}

double SpanLog::total_ms(const std::string& name, bool program) const {
  double total = 0.0;
  for (double d : durations_ms(name, program)) total += d;
  return total;
}

std::vector<double> SpanLog::durations_ms(const std::string& name,
                                          bool program) const {
  std::lock_guard lock(mutex_);
  std::vector<double> out;
  for (const Record& r : records_) {
    if (r.program == program && r.name == name) out.push_back(r.ms());
  }
  return out;
}

double SpanLog::self_ms(const std::string& name, bool program,
                        const std::string& child_prefix) const {
  std::lock_guard lock(mutex_);
  std::map<std::uint64_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      children;
  for (const Record& r : records_) {
    if (r.parent != 0 && r.name.rfind(child_prefix, 0) == 0) {
      children[r.parent].push_back({r.start_ns, r.end_ns});
    }
  }
  std::uint64_t total = 0;
  for (const Record& r : records_) {
    if (r.program != program || r.name != name) continue;
    const auto it = children.find(r.id);
    const std::uint64_t busy =
        it == children.end() ? 0 : covered(it->second, r.start_ns, r.end_ns);
    total += (r.end_ns - r.start_ns) - std::min(busy, r.end_ns - r.start_ns);
  }
  return static_cast<double>(total) / 1e6;
}

void SpanLog::write_chrome_json(const std::string& path) const {
  std::lock_guard lock(mutex_);
  std::ofstream os(path);
  os << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    os << (i ? ",\n" : "\n") << "{\"name\": \"" << r.name
       << "\", \"cat\": \"" << (r.program ? "program" : "bench")
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << r.request
       << ", \"ts\": " << r.start_ns / 1000.0
       << ", \"dur\": " << (r.end_ns - r.start_ns) / 1000.0
       << ", \"args\": {\"id\": " << r.id << ", \"parent\": " << r.parent
       << ", \"request\": " << r.request << "}}";
  }
  os << "\n]}\n";
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, std::uint64_t request)
    : log_(log) {
  if (!log_) return;
  record_.id = log_->next_id();
  record_.name = name;
  if (!t_open.empty()) {
    record_.parent = t_open.back().id;
    if (request == 0) request = t_open.back().request;
  }
  record_.request = request != 0 ? request : record_.id;
  t_open.push_back({record_.id, record_.request});
  record_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!log_) return;
  record_.end_ns = now_ns();
  t_open.pop_back();
  log_->add(std::move(record_));
}

// ---------------------------------------------------------------------------
// Inputs and accuracy
// ---------------------------------------------------------------------------

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

cfpm::sim::InputSequence markov_sequence(std::size_t inputs,
                                         std::size_t length, double sp,
                                         double st, std::uint64_t seed) {
  cfpm::sim::InputSequence seq(inputs, length);
  const double p01 = sp < 1.0 ? std::min(1.0, st / (2.0 * (1.0 - sp))) : 0.0;
  const double p10 = sp > 0.0 ? std::min(1.0, st / (2.0 * sp)) : 0.0;
  std::uint64_t state = seed;
  const auto uniform = [&] {
    state = mix(state);
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  };
  for (std::size_t i = 0; i < inputs; ++i) {
    bool v = uniform() < sp;
    for (std::size_t t = 0; t < length; ++t) {
      if (t > 0 && uniform() < (v ? p10 : p01)) v = !v;
      if (v) seq.set_bit(i, t, true);
    }
  }
  return seq;
}

std::vector<std::pair<double, double>> held_out_grid() {
  std::vector<std::pair<double, double>> grid;
  for (double sp : {0.3, 0.45, 0.6, 0.75}) {
    for (double st : {0.15, 0.35, 0.55}) {
      if (st <= 2.0 * std::min(sp, 1.0 - sp)) grid.push_back({sp, st});
    }
  }
  return grid;
}

Reference golden_reference(const cfpm::netlist::Netlist& circuit,
                           const cfpm::netlist::GateLibrary& library,
                           std::size_t vectors, std::uint64_t seed) {
  const cfpm::sim::GateLevelSimulator golden(circuit, library);
  Reference ref;
  for (const auto& [sp, st] : held_out_grid()) {
    ref.sequences.push_back(markov_sequence(circuit.num_inputs(), vectors, sp,
                                            st, mix(seed + ref.golden_ff.size())));
    ref.golden_ff.push_back(golden.simulate(ref.sequences.back()).average_ff());
  }
  return ref;
}

double model_are_pct(const cfpm::power::PowerModel& model,
                     const Reference& reference) {
  double sum = 0.0;
  std::size_t points = 0;
  for (std::size_t k = 0; k < reference.sequences.size(); ++k) {
    const double golden = reference.golden_ff[k];
    if (golden <= 0.0) continue;
    const double est = model.estimate_trace(reference.sequences[k]).average_ff();
    sum += std::fabs(est - golden) / golden;
    ++points;
  }
  return points == 0 ? 0.0 : 100.0 * sum / static_cast<double>(points);
}

std::size_t upper_bound_violations(const cfpm::power::PowerModel& model,
                                   const cfpm::netlist::Netlist& circuit,
                                   const cfpm::netlist::GateLibrary& library,
                                   std::size_t transitions,
                                   std::uint64_t seed) {
  const cfpm::sim::GateLevelSimulator golden(circuit, library);
  const std::size_t n = circuit.num_inputs();
  const auto seq = markov_sequence(n, transitions + 1, 0.5, 0.5, seed);
  const auto ref = golden.simulate(seq);
  std::vector<std::uint8_t> xi(n), xf(n);
  std::size_t violations = 0;
  seq.vector_at(0, xf);
  for (std::size_t t = 0; t < transitions; ++t) {
    xi.swap(xf);
    seq.vector_at(t + 1, xf);
    if (model.estimate_ff(xi, xf) < ref.per_transition_ff[t]) ++violations;
  }
  return violations;
}

std::string environment_json(const Options& options) {
  namespace simd = cfpm::dd::simd;
  std::ostringstream os;
  os << "{\"nproc\": " << options.nproc << ", \"simd_tier\": \""
     << simd::simd_tier_name(simd::active_simd_tier())
     << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"compiler\": \"" << PERFBENCH_COMPILER
     << "\", \"revision\": \"" << options.revision << "\"}";
  return os.str();
}

std::string format_number(double value) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, r.ptr);
}

}  // namespace perfbench
