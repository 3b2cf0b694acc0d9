#include "chip/evaluator.hpp"

#include <algorithm>

#include "support/assert.hpp"
#include "support/metrics.hpp"

namespace cfpm::chip {

ChipTraceResult evaluate_trace(const power::RtlDesign& design,
                               const sim::InputSequence& trace,
                               ThreadPool* pool) {
  CFPM_REQUIRE(trace.num_inputs() >= design.bus_width());
  static const metrics::Counter c_eval("chip.eval.count");
  static const metrics::Counter c_transitions("chip.eval.transitions");
  static const metrics::Histogram h_latency("chip.eval.latency_us");
  const metrics::ScopedTimer timer(h_latency);
  c_eval.add();

  const std::size_t transitions = trace.num_transitions();
  c_transitions.add(transitions);
  ChipTraceResult result;
  result.transitions = transitions;
  result.per_instance_ff.assign(design.num_instances(), 0.0);
  if (transitions == 0 || design.num_instances() == 0) return result;

  const std::size_t chunks = (transitions + kTraceChunk - 1) / kTraceChunk;
  constexpr std::size_t kBlock = power::PowerModel::kBlock;
  struct Slot {
    std::vector<double> per_instance;
    double peak = 0.0;
  };
  std::vector<Slot> slots(chunks);
  const auto run_chunk = [&](std::size_t c,
                             std::vector<std::uint64_t>& scratch) {
    const std::size_t begin = c * kTraceChunk;
    const std::size_t end = std::min(begin + kTraceChunk, transitions);
    Slot& slot = slots[c];
    slot.per_instance.assign(design.num_instances(), 0.0);
    // cycle[t - begin]: the composed estimate of transition t, summed in
    // instance order; each instance's total is summed t-ascending.
    double cycle[kTraceChunk] = {};
    double values[kBlock];
    for (std::size_t i = 0; i < design.num_instances(); ++i) {
      const power::PowerModel& model = design.instance_model(i);
      const std::vector<std::size_t>& inputs = design.instance_input_map(i);
      double& total = slot.per_instance[i];
      for (std::size_t t0 = begin; t0 < end; t0 += kBlock) {
        const std::size_t m = std::min(kBlock, end - t0);
        model.estimate_block(trace, inputs, t0, m, values, scratch);
        for (std::size_t t = 0; t < m; ++t) {
          total += values[t];
          cycle[t0 - begin + t] += values[t];
        }
      }
    }
    for (std::size_t t = 0; t < end - begin; ++t) {
      slot.peak = std::max(slot.peak, cycle[t]);
    }
  };
  run_indexed_with_scratch<std::vector<std::uint64_t>>(pool, chunks,
                                                       run_chunk);

  // Ordered reduction: chunk order per instance, then instance order for
  // the total. Peak is a max, so reduction order cannot change it.
  for (const Slot& slot : slots) {
    for (std::size_t i = 0; i < result.per_instance_ff.size(); ++i) {
      result.per_instance_ff[i] += slot.per_instance[i];
    }
    result.peak_ff = std::max(result.peak_ff, slot.peak);
  }
  for (const double v : result.per_instance_ff) result.total_ff += v;
  return result;
}

}  // namespace cfpm::chip
