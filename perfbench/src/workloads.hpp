// The benchmark workloads. Each runs its set-up, a timed phase of
// `options.seconds`, and then untimed output checks, and returns the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run,
// `spans` non-null).
#pragma once

#include "harness.hpp"

namespace perfbench {

Outcome run_build(const Options& options, SpanLog* spans);
Outcome run_chip(const Options& options, SpanLog* spans);

Outcome run_serve_eval(const Options& options, SpanLog* spans);

}  // namespace perfbench
