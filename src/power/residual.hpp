// Structural model + characterized residual (Section 2 of the paper).
//
// "Our modeling approach is not in contrast with characterization
//  methodologies. On the contrary, it leads to a useful partitioning of
//  the modeling task. [...] Once a robust RTL model has been analytically
//  constructed for the structural power, characterizing parasitic
//  phenomena is much simpler than characterizing the entire power
//  consumption as a whole."
//
// ResidualCalibratedModel implements that partitioning: a
// characterization-free structural model (typically the ADD model of the
// zero-delay switching capacitance) plus a small linear model fitted to
// the *residual* between a richer reference (e.g. the glitch-aware
// UnitDelaySimulator) and the structural estimate.
#pragma once

#include <memory>
#include <vector>

#include "power/baselines.hpp"
#include "power/power_model.hpp"
#include "sim/sequence.hpp"

namespace cfpm::power {

class ResidualCalibratedModel final : public PowerModel {
 public:
  /// `structural` provides the pattern-dependent backbone; `residual`
  /// captures the parasitic surplus. Estimates are clamped at >= 0.
  ResidualCalibratedModel(std::shared_ptr<const PowerModel> structural,
                          LinearModel residual);

  std::string name() const override;
  double estimate_ff(std::span<const std::uint8_t> xi,
                     std::span<const std::uint8_t> xf) const override;
  std::size_t num_inputs() const override { return structural_->num_inputs(); }
  double worst_case_ff() const override {
    return structural_->worst_case_ff() + residual_.worst_case_ff();
  }
  /// The structural block plus the residual block, clamped like
  /// estimate_ff.
  void estimate_block(const sim::InputSequence& seq,
                      std::span<const std::size_t> inputs, std::size_t t0,
                      std::size_t m, double* values,
                      std::vector<std::uint64_t>& scratch) const override;

  const PowerModel& structural() const { return *structural_; }
  const LinearModel& residual() const { return residual_; }

 private:
  std::shared_ptr<const PowerModel> structural_;
  LinearModel residual_;
};

/// Fits the residual of `structural` against reference per-transition data
/// (same layout as sim::SequenceEnergy::per_transition_ff for `seq`) and
/// returns the combined model. This is the only characterized component;
/// the structural part stays characterization-free.
ResidualCalibratedModel calibrate_residual(
    std::shared_ptr<const PowerModel> structural, const sim::InputSequence& seq,
    std::span<const double> reference_per_transition_ff);

}  // namespace cfpm::power
