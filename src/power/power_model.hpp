// RTL power-model interface.
//
// A model maps an input transition (x^i -> x^f) of a combinational macro to
// an estimate of the switched capacitance in fF (energy = Vdd^2 * C, Eq. 1).
// Pattern-independent models simply ignore the patterns.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dd/compiled.hpp"
#include "sim/sequence.hpp"
#include "support/thread_pool.hpp"

namespace cfpm::power {

/// One-pass summary of a model evaluated over every transition of a
/// sequence (the per-cycle RTL simulation loop, batched).
struct TraceEstimate {
  double total_ff = 0.0;        ///< sum of per-transition estimates
  double peak_ff = 0.0;         ///< maximum estimate (0 for empty traces)
  std::size_t transitions = 0;  ///< transitions evaluated

  double average_ff() const {
    return transitions == 0 ? 0.0
                            : total_ff / static_cast<double>(transitions);
  }
};

class PowerModel {
 public:
  virtual ~PowerModel() = default;

  virtual std::string name() const = 0;

  /// Estimated switching capacitance (fF) for one transition.
  virtual double estimate_ff(std::span<const std::uint8_t> xi,
                             std::span<const std::uint8_t> xf) const = 0;

  /// True when estimate_ff is guaranteed >= the golden model's value for
  /// every transition (conservative upper bound).
  virtual bool is_upper_bound() const { return false; }

  /// Number of macro inputs the model expects.
  virtual std::size_t num_inputs() const = 0;

  /// Largest estimate the model can produce over any transition (the
  /// pattern-independent worst case of this estimator).
  virtual double worst_case_ff() const = 0;

  // ----- sequence-level evaluation (RTL simulation loop) -------------------

  /// Most transitions one estimate_block call evaluates: one full wide
  /// sweep of the compiled kernel.
  static constexpr std::size_t kBlock = 64 * dd::CompiledDd::kPackedGroups;

  /// The one trace-evaluation entry: writes the estimates of transitions
  /// t0 .. t0+m of `seq` to values[0..m), where input k of the model is
  /// stream inputs[k] of `seq`. Each value is bit-identical to estimate_ff
  /// on the gathered transition. Preconditions, validated once per trace by
  /// the callers (estimate_trace, chip::evaluate_trace) rather than per
  /// block: inputs.size() == num_inputs(), every inputs[k] <
  /// seq.num_inputs(), 1 <= m <= kBlock and t0 + m <= seq.num_transitions().
  /// `scratch` belongs to the caller and is reused across calls on one
  /// thread; once it has grown for the widest model it sees, no block
  /// allocates. The default gathers bytes and loops estimate_ff; the
  /// library models override it with word-parallel paths.
  virtual void estimate_block(const sim::InputSequence& seq,
                              std::span<const std::size_t> inputs,
                              std::size_t t0, std::size_t m, double* values,
                              std::vector<std::uint64_t>& scratch) const;

  /// Transitions per work chunk of estimate_trace. Chunk boundaries depend
  /// only on the sequence (never on the thread count) and chunk partials
  /// are reduced in chunk order, so estimate_trace is bit-identical for
  /// any pool size — including no pool at all.
  static constexpr std::size_t kTraceChunk = 4096;

  /// Evaluates every transition of `seq` in one pass, sharding fixed
  /// kTraceChunk-sized chunks across `pool` when one is given. Each chunk
  /// calls estimate_block once per kBlock transitions with the identity
  /// input map and folds the values t-ascending into its total and peak.
  TraceEstimate estimate_trace(const sim::InputSequence& seq,
                               ThreadPool* pool = nullptr) const;

  /// Average estimated capacitance per transition over a sequence.
  double average_over(const sim::InputSequence& seq) const {
    return estimate_trace(seq).average_ff();
  }

  /// Maximum estimated capacitance over the transitions of a sequence.
  double peak_over(const sim::InputSequence& seq) const {
    return estimate_trace(seq).peak_ff;
  }
};

/// Supply voltage context to convert capacitance to energy/power.
struct SupplyConfig {
  double vdd_volts = 3.3;
  /// Energy (fJ) for a switched capacitance in fF.
  double energy_fj(double cap_ff) const { return vdd_volts * vdd_volts * cap_ff; }
  /// Average power (uW) given fF per transition and a clock period in ns.
  double power_uw(double cap_ff_per_cycle, double period_ns) const {
    return energy_fj(cap_ff_per_cycle) / period_ns;  // fJ/ns == uW
  }
};

}  // namespace cfpm::power
