// Workload `serve-eval`: a live `cfpm serve --threads 2 --build-threads 1`
// daemon whose registry is warmed with cmb, mux and x1, queried through
// serve::Client by one closed-loop connection sending 200k-vector (sp, st)
// evaluations. Markov synthesis and the compiled kernel dominate; no dd
// build runs in the timed phase.
//
// Traced runs add a fixed-count probe against a second daemon warmed with
// small models (c17, decod, x2, cm85): short evals, explicit traces shipped
// on the wire, build hits and build misses. It gives the serve layer's
// per-verb round trips and wire-codec costs.
//
// Every eval and trace reply is checked bit for bit against the in-process
// service facade on locally built models, every build reply against the
// locally computed content id.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>

#include "netlist/generators.hpp"
#include "serve/client.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "stats/markov.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace service = cfpm::service;
namespace wire = cfpm::serve::wire;
using cfpm::netlist::Netlist;

struct ModelSpec {
  const char* name;
  std::size_t max_nodes;
};
constexpr ModelSpec kEvalModels[] = {{"cmb", 200}, {"mux", 1000}, {"x1", 1000}};
constexpr ModelSpec kProbeModels[] = {
    {"c17", 300}, {"decod", 200}, {"x2", 200}, {"cm85", 500}};
/// Build-miss circuits; each miss asks for a MAX never used before (above
/// every warm model's), so it is a new content id and an exact build.
constexpr const char* kMissCircuits[] = {"c17", "decod", "x2"};
constexpr std::size_t kMissBaseMax = 301;

/// The daemon's eval pool is shared by its connection threads, and two
/// multi-chunk evals entering ThreadPool::run_indexed at once race on its
/// batch state and can hang the daemon (see README.md), so the timed phase
/// uses one connection.
constexpr std::size_t kDaemonEvalThreads = 2;
constexpr std::size_t kEvalVectors = 200'000;
/// Set-ups per run: the first daemon is stopped right after set-up, and its
/// metrics are the run's deterministic set-up counters.
constexpr std::size_t kSetupReps = 2;
constexpr std::size_t kAccuracyVectors = 20'000;
/// Traced runs: the probe's request count and the build misses among them
/// (each admitted model stays resident in the daemon).
constexpr std::size_t kProbeRequests = 600;
constexpr std::size_t kProbeMisses = 8;
/// A request outstanding this long after the timed phase ends means the
/// daemon is wedged: it is killed so the run fails instead of hanging.
constexpr auto kWatchdogGrace = std::chrono::seconds(30);

enum class Verb { kEval, kTrace, kBuildHit, kBuildMiss };
constexpr const char* kVerbSpan[] = {"serve.eval", "serve.trace",
                                     "serve.build_hit", "serve.build_miss"};
constexpr const char* kVerbMetric[] = {
    "serve.rtt_us.eval", "serve.rtt_us.trace", "serve.rtt_us.build_hit",
    "serve.rtt_us.build_miss"};

/// One request: what was asked (enough to regenerate it), how long the
/// round trip took, and what came back.
struct Request {
  Verb verb = Verb::kEval;
  std::size_t model = 0;  ///< warm-model index, or miss-circuit index
  double sp = 0.5, st = 0.5;
  std::size_t vectors = 0;  ///< eval vectors / trace length / miss MAX
  std::uint64_t seed = 0;
  bool traced = false;
  bool ok = false;  ///< call returned and the inline checks passed
  double rtt_us = 0.0;
  service::EvalReply eval;
  service::ModelId id;
  std::string error;  ///< exception text of a failed call
};

// ---------------------------------------------------------------------------
// Daemon process
// ---------------------------------------------------------------------------

/// A `cfpm serve` child process. The destructor stops and reaps it on every
/// path: a shutdown request first, then SIGTERM, then SIGKILL.
class Daemon {
 public:
  Daemon(const std::string& cfpm, const std::string& dir, std::size_t index)
      : socket_(dir + "/d" + std::to_string(index) + ".sock"),
        metrics_(dir + "/d" + std::to_string(index) + "-metrics.json") {
    const std::string log = dir + "/d" + std::to_string(index) + ".log";
    std::filesystem::remove(socket_);
    std::filesystem::remove(metrics_);
    std::vector<std::string> args = {
        cfpm,        "serve",
        "--socket",  socket_,
        "--threads", std::to_string(kDaemonEvalThreads),
        "--build-threads", "1",
        "--metrics-json", metrics_};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_ = fork();
    if (pid_ < 0) throw cfpm::Error("perfbench: fork failed");
    if (pid_ == 0) {
      // Never outlive the benchmark, however it ends.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        dup2(fd, STDOUT_FILENO);
        dup2(fd, STDERR_FILENO);
        close(fd);
      }
      execv(argv[0], argv.data());
      _exit(127);
    }
    // Ready when a ping round-trips; give up if the child exits first.
    const std::uint64_t start = now_ns();
    while (true) {
      try {
        cfpm::serve::Client client(socket_);
        client.ping();
        return;
      } catch (const std::exception&) {
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw cfpm::Error("perfbench: daemon exited during start-up (see " +
                          log + ")");
      }
      if (ms_since(start) > 60'000) {
        stop();
        throw cfpm::Error("perfbench: daemon did not answer ping");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }

  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket() const { return socket_; }
  int pid() const { return pid_; }

  /// Kills the daemon outright (the watchdog's last resort).
  void kill_now() {
    if (pid_ > 0) kill(pid_, SIGKILL);
  }

  /// Client-requested shutdown. Returns the daemon's exit metrics, or
  /// nullopt when it did not exit cleanly.
  std::optional<DaemonMetrics> shutdown() {
    if (pid_ < 0) return std::nullopt;
    try {
      cfpm::serve::Client client(socket_);
      client.shutdown_server();
    } catch (const std::exception&) {
    }
    const int status = wait_for(10'000);
    if (status < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      return std::nullopt;
    }
    return read_metrics_json(metrics_);
  }

 private:
  /// Waits up to `ms` for the child; returns its status, or -1 if it had to
  /// be killed.
  int wait_for(int ms) {
    const std::uint64_t start = now_ns();
    while (pid_ >= 0) {
      int status = 0;
      const pid_t r = waitpid(pid_, &status, WNOHANG);
      if (r != 0) {  // exited, or no longer our child
        pid_ = -1;
        return r > 0 ? status : -1;
      }
      if (ms_since(start) > ms) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (pid_ >= 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    return -1;
  }

  void stop() {
    if (pid_ < 0 || shutdown()) return;
    if (pid_ >= 0) {
      kill(pid_, SIGTERM);
      wait_for(5'000);
    }
  }

  pid_t pid_ = -1;
  std::string socket_;
  std::string metrics_;
};

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Deterministic request stream.
class Stream {
 public:
  explicit Stream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() { return state_ = mix(state_); }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// The `gen:<name>` circuits of the CLI: c17 is built in code, the rest
/// are the Table-1 stand-ins.
Netlist generate(const char* name) {
  return std::string_view(name) == "c17" ? cfpm::netlist::gen::c17()
                                         : cfpm::netlist::gen::mcnc_like(name);
}

service::BuildOptions build_options(std::size_t max_nodes) {
  service::BuildOptions o;
  o.max_nodes = max_nodes;
  return o;
}

bool same_eval(const service::EvalReply& a, const service::EvalReply& b) {
  return a.total_ff == b.total_ff && a.average_ff == b.average_ff &&
         a.peak_ff == b.peak_ff && a.transitions == b.transitions;
}

/// A daemon with its registry warmed, and what the benchmark knows of it.
struct Served {
  std::vector<ModelSpec> models;
  std::vector<Netlist> circuits;       ///< warm models' netlists
  std::vector<Netlist> miss_circuits;  ///< probe only
  std::vector<service::ModelId> ids;   ///< warm models' content ids
  std::unique_ptr<Daemon> daemon;
};

/// Set-up: netlist generation, daemon spawn to first ping, and one build
/// per model.
Served start(const Options& options, std::size_t index,
             const std::vector<ModelSpec>& models, bool with_misses,
             SpanLog* spans, Outcome& out) {
  Served s;
  s.models = models;
  for (const ModelSpec& m : models) {
    ScopedSpan span(spans, "netlist.generate");
    s.circuits.push_back(generate(m.name));
  }
  if (with_misses) {
    for (const char* name : kMissCircuits) {
      s.miss_circuits.push_back(generate(name));
    }
  }
  s.daemon = std::make_unique<Daemon>(options.cfpm, options.out_dir, index);
  cfpm::serve::Client client(s.daemon->socket());
  for (std::size_t m = 0; m < models.size(); ++m) {
    const service::BuildReply reply = client.build(
        {service::kApiVersion, s.circuits[m], build_options(models[m].max_nodes)});
    out.check(!reply.cache_hit && reply.status == service::StatusCode::kOk,
              std::string("warm build of ") + models[m].name);
    s.ids.push_back(reply.id);
  }
  return s;
}

/// Sends `r` on `conn` and times the round trip. Inputs are made before
/// the clock starts.
void send(cfpm::serve::Client& conn, const Served& s, Request& r,
          SpanLog* spans) {
  std::optional<cfpm::sim::InputSequence> trace;
  service::BuildRequest build{service::kApiVersion, {}, {}};
  if (r.verb == Verb::kTrace) {
    trace.emplace(markov_sequence(s.circuits[r.model].num_inputs(), r.vectors,
                                  r.sp, r.st, r.seed));
  } else if (r.verb == Verb::kBuildHit) {
    build.netlist = s.circuits[r.model];
    build.options = build_options(s.models[r.model].max_nodes);
  } else if (r.verb == Verb::kBuildMiss) {
    build.netlist = s.miss_circuits[r.model];
    build.options = build_options(r.vectors);
  }
  service::EvalRequest eval;
  eval.statistics = {r.sp, r.st};
  eval.vectors = r.vectors;
  eval.seed = r.seed;

  const std::uint64_t t0 = now_ns();
  try {
    ScopedSpan span(r.traced ? spans : nullptr,
                    kVerbSpan[static_cast<int>(r.verb)]);
    switch (r.verb) {
      case Verb::kEval:
        r.eval = conn.evaluate(s.ids[r.model], eval);
        r.ok = r.eval.cache_hit;
        break;
      case Verb::kTrace:
        r.eval = conn.evaluate_trace(s.ids[r.model], *trace);
        r.ok = r.eval.cache_hit;
        break;
      case Verb::kBuildHit:
      case Verb::kBuildMiss: {
        const service::BuildReply reply = conn.build(build);
        r.id = reply.id;
        r.ok = reply.status == service::StatusCode::kOk &&
               reply.cache_hit == (r.verb == Verb::kBuildHit);
        break;
      }
    }
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  r.rtt_us = static_cast<double>(now_ns() - t0) / 1e3;
}

/// The in-process facade's answer for an eval or trace request.
service::EvalReply expected(const cfpm::power::PowerModel& model,
                            const Request& r) {
  if (r.verb == Verb::kTrace) {
    return service::evaluate_trace(
        model, markov_sequence(model.num_inputs(), r.vectors, r.sp, r.st,
                               r.seed));
  }
  service::EvalRequest e;
  e.statistics = {r.sp, r.st};
  e.vectors = r.vectors;
  e.seed = r.seed;
  return service::evaluate(model, e);
}

/// Builds the served models in-process with the daemon's options.
std::vector<std::shared_ptr<const cfpm::power::PowerModel>> build_local(
    const Served& s, Outcome& out, std::size_t* nodes) {
  std::vector<std::shared_ptr<const cfpm::power::PowerModel>> local;
  for (std::size_t m = 0; m < s.models.size(); ++m) {
    const service::BuildReply reply = service::build(
        {service::kApiVersion, s.circuits[m], build_options(s.models[m].max_nodes)});
    out.check(reply.id == s.ids[m],
              std::string("local content id of ") + s.models[m].name);
    local.push_back(reply.model);
    if (nodes) *nodes += reply.model_nodes;
  }
  return local;
}

Counters only_work_counters(const Counters& all) {
  Counters out;
  for (const auto& [name, value] : all) {
    if (is_work_counter(name)) out[name] = value;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Traced-run layer measurements
// ---------------------------------------------------------------------------

/// In-process replay of an eval: the facade's recipe split into its two
/// layer calls, each under a span. Returns the replayed reply.
service::EvalReply replay_eval(const cfpm::power::PowerModel& model,
                               const Request& r, cfpm::ThreadPool& pool,
                               SpanLog* spans) {
  ScopedSpan root(spans, "serve.replay");
  std::optional<cfpm::sim::InputSequence> seq;
  {
    ScopedSpan span(spans, "stats.generate");
    cfpm::stats::MarkovSequenceGenerator gen({r.sp, r.st}, r.seed);
    seq.emplace(gen.generate(model.num_inputs(), r.vectors));
  }
  ScopedSpan span(spans, "power.estimate_trace");
  const cfpm::power::TraceEstimate est = model.estimate_trace(*seq, &pool);
  service::EvalReply reply;
  reply.total_ff = est.total_ff;
  reply.average_ff = est.average_ff();
  reply.peak_ff = est.peak_ff;
  reply.transitions = est.transitions;
  return reply;
}

struct WireCost {
  double encode_us = 0.0, decode_us = 0.0, bytes = 0.0;
  std::size_t messages = 0;
};

/// Re-encodes and decodes a completed request and its reply with the wire
/// codecs, timing each side.
void wire_sample(const Served& s, const Request& r, WireCost& cost) {
  std::string request_payload, reply_payload;
  std::uint64_t enc = 0, dec = 0;
  const auto time = [](std::uint64_t& acc, const auto& fn) {
    const std::uint64_t t0 = now_ns();
    fn();
    acc += now_ns() - t0;
  };
  switch (r.verb) {
    case Verb::kEval: {
      wire::EvalQuery q;
      q.id = s.ids[r.model];
      q.request.statistics = {r.sp, r.st};
      q.request.vectors = r.vectors;
      q.request.seed = r.seed;
      time(enc, [&] { request_payload = wire::encode_eval_query(q); });
      time(dec, [&] { (void)wire::decode_eval_query(request_payload); });
      break;
    }
    case Verb::kTrace: {
      wire::TraceQuery q;
      q.id = s.ids[r.model];
      q.trace = markov_sequence(s.circuits[r.model].num_inputs(), r.vectors,
                                r.sp, r.st, r.seed);
      time(enc, [&] { request_payload = wire::encode_trace_query(q); });
      time(dec, [&] { (void)wire::decode_trace_query(request_payload); });
      break;
    }
    case Verb::kBuildHit:
    case Verb::kBuildMiss: {
      const bool hit = r.verb == Verb::kBuildHit;
      const service::BuildRequest b{
          service::kApiVersion,
          hit ? s.circuits[r.model] : s.miss_circuits[r.model],
          build_options(hit ? s.models[r.model].max_nodes : r.vectors)};
      service::BuildReply reply;
      reply.id = r.id;
      reply.cache_hit = hit;
      time(enc, [&] {
        request_payload = wire::encode_build_request(b);
        reply_payload = wire::encode_build_reply(reply);
      });
      time(dec, [&] {
        (void)wire::decode_build_request(request_payload);
        (void)wire::decode_build_reply(reply_payload);
      });
      break;
    }
  }
  if (r.verb == Verb::kEval || r.verb == Verb::kTrace) {
    time(enc, [&] { reply_payload = wire::encode_eval_reply(r.eval); });
    time(dec, [&] { (void)wire::decode_eval_reply(reply_payload); });
  }
  cost.encode_us += static_cast<double>(enc) / 1e3;
  cost.decode_us += static_cast<double>(dec) / 1e3;
  cost.bytes +=
      static_cast<double>(request_payload.size() + reply_payload.size());
  ++cost.messages;
}

/// Traced runs: a fixed, seeded sequence of short evals, explicit traces,
/// build hits and build misses against a daemon warmed with small models;
/// per-verb round trips, wire costs and the daemon's admission figures.
void small_probe(const Options& options, SpanLog* spans, Outcome& out) {
  Served s = start(options, kSetupReps,
                   {std::begin(kProbeModels), std::end(kProbeModels)}, true,
                   nullptr, out);
  std::vector<Request> done;
  {
    cfpm::serve::Client conn(s.daemon->socket());
    Stream stream(mix(options.seed * 1000 + 17));
    const auto grid = cfpm::stats::evaluation_grid();
    constexpr std::size_t kMissEvery = kProbeRequests / kProbeMisses;
    for (std::size_t i = 0; i < kProbeRequests; ++i) {
      Request r;
      const double u = stream.unit();
      const auto& point = grid[stream.below(grid.size())];
      r.sp = point.sp;
      r.st = point.st;
      r.seed = stream.next();
      r.traced = true;
      if (i % kMissEvery == kMissEvery - 1) {
        r.verb = Verb::kBuildMiss;
        r.model = stream.below(std::size(kMissCircuits));
        r.vectors = kMissBaseMax + i / kMissEvery;
      } else if (u < 0.40) {
        r.verb = Verb::kEval;
        r.model = stream.below(s.models.size());
        r.vectors = 1000 + stream.below(3001);
      } else if (u < 0.75) {
        r.verb = Verb::kTrace;
        r.model = stream.below(s.models.size());
        r.vectors = 2000 + stream.below(2001);
      } else {
        r.verb = Verb::kBuildHit;
        r.model = stream.below(s.models.size());
      }
      send(conn, s, r, spans);
      done.push_back(std::move(r));
    }
  }
  const std::optional<DaemonMetrics> metrics = s.daemon->shutdown();
  out.check(metrics.has_value(), "probe daemon exits cleanly");

  const auto local = build_local(s, out, nullptr);
  WireCost cost;
  std::size_t bad = 0;
  for (const Request& r : done) {
    bool ok = r.ok;
    if (ok && (r.verb == Verb::kEval || r.verb == Verb::kTrace)) {
      ok = same_eval(expected(*local[r.model], r), r.eval);
    } else if (ok && r.verb == Verb::kBuildHit) {
      ok = r.id == s.ids[r.model];
    } else if (ok && r.verb == Verb::kBuildMiss) {
      ok = r.id == service::model_id(s.miss_circuits[r.model],
                                     build_options(r.vectors));
    }
    if (ok) {
      wire_sample(s, r, cost);
    } else {
      ++bad;
    }
  }
  out.check(bad == 0, "probe replies (" + std::to_string(bad) + " of " +
                          std::to_string(done.size()) + " wrong)");
  for (int v = 1; v < 4; ++v) {
    const auto d = spans->durations_ms(kVerbSpan[v], false);
    out.metric(kVerbMetric[v], d.empty() ? 0.0 : median(d) * 1e3, "us");
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, cost.messages));
  out.metric("serve.wire.encode_us", cost.encode_us / n, "us");
  out.metric("serve.wire.decode_us", cost.decode_us / n, "us");
  out.metric("serve.wire.bytes", cost.bytes / n, "B");
  if (metrics) {
    out.metric("serve.queue.wait_us",
               metrics->histogram_mean("serve.queue.wait_us"), "us");
    out.metric("serve.build.latency_us",
               metrics->histogram_mean("serve.build.latency_us"), "us");
  }
}

}  // namespace

Outcome run_serve_eval(const Options& options, SpanLog* spans) {
  Outcome out;
  if (options.cfpm.empty()) throw cfpm::Error("perfbench: --cfpm is required");
  const std::vector<ModelSpec> models(std::begin(kEvalModels),
                                      std::end(kEvalModels));

  // ----- set-up, twice: the first daemon stops right after it --------------
  std::vector<double> setup_ms;
  Counters setup_counters;
  Served s;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const std::uint64_t t0 = now_ns();
    s = start(options, rep, models, false, spans, out);
    setup_ms.push_back(ms_since(t0));
    if (rep + 1 < kSetupReps) {
      const std::optional<DaemonMetrics> m = s.daemon->shutdown();
      out.check(m.has_value(), "set-up daemon exits cleanly");
      if (m) setup_counters = only_work_counters(m->counters);
    }
  }

  // ----- timed phase: one closed-loop connection ---------------------------
  // Models in turn, each walking the whole evaluation grid from a seeded
  // offset: the Markov generator's cost depends on (sp, st), so every run
  // sends the same spread of points. One seed per (model, point), so a
  // repeated request repeats exactly and is checked once.
  const auto grid = cfpm::stats::evaluation_grid();
  const std::size_t grid_offset = mix(options.seed * 104729) % grid.size();
  std::vector<Request> done;
  const std::uint64_t phase_start = now_ns();
  const std::uint64_t stop_at =
      phase_start + static_cast<std::uint64_t>(options.seconds * 1e9);
  {
    std::mutex mutex;
    std::condition_variable cv;
    bool finished = false;
    std::thread watchdog([&] {
      std::unique_lock lock(mutex);
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(options.seconds) + kWatchdogGrace);
      if (!cv.wait_until(lock, deadline, [&] { return finished; })) {
        s.daemon->kill_now();
      }
    });
    try {
      cfpm::serve::Client conn(s.daemon->socket());
      for (std::size_t i = 0; now_ns() < stop_at; ++i) {
        Request r;
        r.model = i % models.size();
        const std::size_t g = (grid_offset + i / models.size()) % grid.size();
        r.sp = grid[g].sp;
        r.st = grid[g].st;
        r.vectors = kEvalVectors;
        r.seed = mix(options.seed * 7919 + r.model * 131 + g);
        r.traced = spans && i % 2 == 1;
        send(conn, s, r, spans);
        done.push_back(std::move(r));
      }
    } catch (const std::exception& e) {
      out.check(false, std::string("client connection: ") + e.what());
    }
    {
      std::lock_guard lock(mutex);
      finished = true;
    }
    cv.notify_all();
    watchdog.join();
  }
  const double phase_s = static_cast<double>(now_ns() - phase_start) / 1e9;
  const double daemon_rss = process_peak_rss_mb(s.daemon->pid());
  const std::optional<DaemonMetrics> live = s.daemon->shutdown();
  out.check(live.has_value(), "live daemon exits cleanly");

  // ----- untimed checks ------------------------------------------------------
  // Local models built in-process with the daemon's options; their work
  // counters must equal the set-up daemon's (same builds, other process).
  std::size_t model_nodes = 0;
  const Counters before = work_counters_now();
  const auto local = build_local(s, out, &model_nodes);
  const Counters local_counters = counter_delta(work_counters_now(), before);
  for (const auto& [name, value] : local_counters) {
    out.check(counter(setup_counters, name) == value,
              "daemon set-up counter " + name + " equals in-process build");
  }
  out.counters = setup_counters;

  // Each distinct request is evaluated once in-process; every reply must
  // match it bit for bit.
  std::map<std::pair<std::size_t, std::uint64_t>, std::size_t> slot;
  std::vector<const Request*> distinct;
  std::vector<double> weight;
  for (const Request& r : done) {
    if (!r.ok) continue;
    const auto [it, fresh] =
        slot.emplace(std::pair{r.model, r.seed}, distinct.size());
    if (fresh) {
      distinct.push_back(&r);
      weight.push_back(0.0);
    }
    weight[it->second] += 1.0;
  }
  std::vector<service::EvalReply> expect(distinct.size());
  cfpm::ThreadPool checkers(options.nproc);
  checkers.run_indexed(distinct.size(), [&](std::size_t k) {
    expect[k] = expected(*local[distinct[k]->model], *distinct[k]);
  });
  std::vector<double> latency_ms;
  for (const Request& r : done) {
    const bool ok =
        r.ok && same_eval(expect[slot.at({r.model, r.seed})], r.eval);
    out.op(ok);
    if (!ok && out.failed <= 5) {
      out.note("failed eval of model " + std::to_string(r.model) +
               (r.ok ? " (reply mismatch)" : "") +
               (r.error.empty() ? "" : ": " + r.error));
    }
    // A failed request misses any latency target: it counts as taking the
    // whole phase.
    latency_ms.push_back(ok ? r.rtt_us / 1e3 : phase_s * 1e3);
  }
  out.note("serve-eval: " + std::to_string(done.size()) + " requests (" +
           std::to_string(distinct.size()) + " distinct) in " +
           format_number(phase_s) + " s over one connection");

  if (!spans) {
    const Tail t = tail(latency_ms, 0.9);
    out.note("op_tail_ms is the " + t.label + " of " +
             std::to_string(latency_ms.size()) + " round trips");
    double are_sum = 0.0;
    for (std::size_t m = 0; m < models.size(); ++m) {
      are_sum += model_are_pct(
          *local[m],
          golden_reference(s.circuits[m], cfpm::netlist::GateLibrary::standard(),
                           kAccuracyVectors, mix(options.seed + 2000 + m)));
    }
    out.metric("setup_s", median(setup_ms) / 1000.0, "s");
    out.metric("peak_rss_mb", daemon_rss, "MiB");
    out.metric("op_p50_ms", median(latency_ms), "ms");
    out.metric("op_tail_ms", t.value, "ms");
    out.metric("ops_per_s", static_cast<double>(done.size()) / phase_s, "1/s");
    out.metric("model_are_pct", are_sum / static_cast<double>(models.size()),
               "%");
    return out;
  }

  // ----- traced run: per-layer numbers --------------------------------------
  // Each distinct request is replayed in-process split into its layer calls
  // (same pool size as the daemon); its layer times are weighted by how
  // often it was sent.
  cfpm::ThreadPool pool(kDaemonEvalThreads);
  for (std::size_t k = 0; k < distinct.size(); ++k) {
    out.check(same_eval(replay_eval(*local[distinct[k]->model], *distinct[k],
                                    pool, spans),
                        expect[k]),
              "layer replay equals the facade");
  }
  const auto gen = spans->durations_ms("stats.generate", false);
  const auto est = spans->durations_ms("power.estimate_trace", false);
  double w_total = 0.0, g_sum = 0.0, e_sum = 0.0, bits = 0.0;
  for (std::size_t k = 0; k < distinct.size(); ++k) {
    w_total += weight[k];
    g_sum += weight[k] * gen[k];
    e_sum += weight[k] * est[k];
    bits += weight[k] *
            static_cast<double>(s.circuits[distinct[k]->model].num_inputs()) *
            static_cast<double>(kEvalVectors);
  }
  if (w_total > 0.0) {
    out.metric("stats.generate_ms", g_sum / w_total, "ms");
    out.metric("stats.ns_per_bit", g_sum * 1e6 / bits, "ns");
    out.metric("power.estimate_trace_ms", e_sum / w_total, "ms");
    out.metric("power.patterns_per_s",
               w_total * static_cast<double>(kEvalVectors - 1) / (e_sum / 1e3),
               "1/s");
  }

  out.metric("netlist.generate_ms",
             spans->total_ms("netlist.generate", false) / kSetupReps, "ms");
  out.metric("dd.model_nodes", static_cast<double>(model_nodes), "count");
  std::vector<double> traced_rtt, untraced_rtt;
  double rtt_sum = 0.0;
  for (const Request& r : done) {
    if (!r.ok) continue;
    (r.traced ? traced_rtt : untraced_rtt).push_back(r.rtt_us);
    rtt_sum += r.rtt_us;
  }
  const auto eval_spans = spans->durations_ms(kVerbSpan[0], false);
  out.metric(kVerbMetric[0],
             eval_spans.empty() ? 0.0 : median(eval_spans) * 1e3, "us");
  if (live) {
    const double handler_us = live->histogram_mean("serve.eval.latency_us");
    const double answered =
        static_cast<double>(traced_rtt.size() + untraced_rtt.size());
    out.metric("serve.handler_us", handler_us, "us");
    out.metric("serve.transport_us",
               answered > 0 ? rtt_sum / answered - handler_us : 0.0, "us");
    // Daemon work during the timed phase: the live daemon's counters minus
    // the set-up daemon's (identical set-up work), per request.
    const Counters timed = counter_delta(live->counters, setup_counters);
    const double requests =
        static_cast<double>(std::max<std::size_t>(1, done.size()));
    for (const char* name :
         {"dd.reorder.swap", "dd.node.alloc", "dd.gc.run", "dd.approx.round"}) {
      out.metric(name, static_cast<double>(counter(timed, name)) / requests,
                 "count");
    }
    const double hits =
        static_cast<double>(counter(live->counters, "serve.cache.hit"));
    const double misses =
        static_cast<double>(counter(live->counters, "serve.cache.miss"));
    out.metric("serve.cache.hit_ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    const double dd_hits = static_cast<double>(counter(timed, "dd.cache.hit"));
    const double dd_misses =
        static_cast<double>(counter(timed, "dd.cache.miss"));
    out.metric("dd.cache.hit_ratio",
               dd_hits + dd_misses > 0 ? dd_hits / (dd_hits + dd_misses) : 0.0,
               "ratio");
    out.metric("serve.request.count",
               static_cast<double>(counter(live->counters, "serve.request.count")),
               "count");
  }
  out.metric("trace.overhead_pct",
             traced_rtt.empty() || untraced_rtt.empty()
                 ? 0.0
                 : 100.0 * (median(traced_rtt) / median(untraced_rtt) - 1.0),
             "%");
  small_probe(options, spans, out);
  return out;
}

}  // namespace perfbench
