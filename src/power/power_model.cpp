#include "power/power_model.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "support/assert.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace cfpm::power {

void PowerModel::estimate_block(const sim::InputSequence& seq,
                                std::span<const std::size_t> inputs,
                                std::size_t t0, std::size_t m, double* values,
                                std::vector<std::uint64_t>& scratch) const {
  // Byte gather into the caller's scratch words (x^i then x^f, one byte
  // per input; std::uint8_t may alias them); x^f of transition t is x^i of
  // transition t+1.
  const std::size_t n = inputs.size();
  if (scratch.size() * sizeof(std::uint64_t) < 2 * n) {
    scratch.resize((2 * n + sizeof(std::uint64_t) - 1) /
                   sizeof(std::uint64_t));
  }
  auto* bytes = reinterpret_cast<std::uint8_t*>(scratch.data());
  std::span<std::uint8_t> xi(bytes, n), xf(bytes + n, n);
  for (std::size_t k = 0; k < n; ++k) xi[k] = seq.bit(inputs[k], t0);
  for (std::size_t t = 0; t < m; ++t) {
    for (std::size_t k = 0; k < n; ++k) xf[k] = seq.bit(inputs[k], t0 + t + 1);
    values[t] = estimate_ff(xi, xf);
    std::swap(xi, xf);
  }
}

TraceEstimate PowerModel::estimate_trace(const sim::InputSequence& seq,
                                         ThreadPool* pool) const {
  CFPM_REQUIRE(seq.num_inputs() == num_inputs());
  TraceEstimate est;
  const std::size_t transitions = seq.num_transitions();
  est.transitions = transitions;
  if (transitions == 0) return est;

  // Metered per call, not per chunk: the per-chunk work must stay
  // metric-free to keep the packed-eval throughput contract (< 2%
  // overhead).
  CFPM_TRACE_SPAN("power.trace");
  static const metrics::Counter c_call("power.trace.call");
  static const metrics::Counter c_chunk("power.trace.chunk");
  static const metrics::Counter c_pattern("power.trace.pattern");
  static const metrics::Histogram h_us("power.trace.us");
  const metrics::ScopedTimer timer(h_us);

  const std::size_t chunks = (transitions + kTraceChunk - 1) / kTraceChunk;
  c_call.add();
  c_chunk.add(chunks);
  c_pattern.add(transitions);
  std::vector<std::size_t> identity(num_inputs());
  std::iota(identity.begin(), identity.end(), std::size_t{0});
  std::vector<double> totals(chunks, 0.0);
  std::vector<double> peaks(chunks, 0.0);
  const auto run_chunk = [&](std::size_t c,
                             std::vector<std::uint64_t>& scratch) {
    const std::size_t end = std::min((c + 1) * kTraceChunk, transitions);
    double values[kBlock];
    double total = 0.0;
    double peak = 0.0;
    for (std::size_t t0 = c * kTraceChunk; t0 < end; t0 += kBlock) {
      const std::size_t m = std::min(kBlock, end - t0);
      estimate_block(seq, identity, t0, m, values, scratch);
      for (std::size_t t = 0; t < m; ++t) {
        total += values[t];
        peak = std::max(peak, values[t]);
      }
    }
    totals[c] = total;
    peaks[c] = peak;
  };
  run_indexed_with_scratch<std::vector<std::uint64_t>>(pool, chunks,
                                                       run_chunk);
  // Ordered reduction: identical association regardless of thread count.
  for (std::size_t c = 0; c < chunks; ++c) {
    est.total_ff += totals[c];
    est.peak_ff = std::max(est.peak_ff, peaks[c]);
  }
  return est;
}

}  // namespace cfpm::power
