#include "power/residual.hpp"

#include <algorithm>

#include "support/assert.hpp"
#include "support/linear.hpp"

namespace cfpm::power {

ResidualCalibratedModel::ResidualCalibratedModel(
    std::shared_ptr<const PowerModel> structural, LinearModel residual)
    : structural_(std::move(structural)), residual_(std::move(residual)) {
  CFPM_REQUIRE(structural_ != nullptr);
  CFPM_REQUIRE(residual_.num_inputs() == structural_->num_inputs());
}

std::string ResidualCalibratedModel::name() const {
  return structural_->name() + "+residual";
}

double ResidualCalibratedModel::estimate_ff(
    std::span<const std::uint8_t> xi, std::span<const std::uint8_t> xf) const {
  const double est =
      structural_->estimate_ff(xi, xf) + residual_.estimate_ff(xi, xf);
  return std::max(est, 0.0);
}

void ResidualCalibratedModel::estimate_block(
    const sim::InputSequence& seq, std::span<const std::size_t> inputs,
    std::size_t t0, std::size_t m, double* values,
    std::vector<std::uint64_t>& scratch) const {
  double residual[kBlock];
  structural_->estimate_block(seq, inputs, t0, m, values, scratch);
  residual_.estimate_block(seq, inputs, t0, m, residual, scratch);
  for (std::size_t t = 0; t < m; ++t) {
    values[t] = std::max(values[t] + residual[t], 0.0);
  }
}

ResidualCalibratedModel calibrate_residual(
    std::shared_ptr<const PowerModel> structural, const sim::InputSequence& seq,
    std::span<const double> reference_per_transition_ff) {
  CFPM_REQUIRE(structural != nullptr);
  CFPM_REQUIRE(seq.num_inputs() == structural->num_inputs());
  const std::size_t m = seq.num_transitions();
  CFPM_REQUIRE(reference_per_transition_ff.size() == m);
  CFPM_REQUIRE(m >= 2);

  const std::size_t n = seq.num_inputs();
  Matrix x(m, n + 1);
  std::vector<double> y(m);
  std::vector<std::uint8_t> xi(n), xf(n);
  seq.vector_at(0, xi);
  for (std::size_t t = 0; t < m; ++t) {
    seq.vector_at(t + 1, xf);
    x(t, 0) = 1.0;
    for (std::size_t j = 0; j < n; ++j) {
      x(t, j + 1) = (xi[j] != xf[j]) ? 1.0 : 0.0;
    }
    y[t] = reference_per_transition_ff[t] - structural->estimate_ff(xi, xf);
    xi.swap(xf);
  }
  LinearModel residual(least_squares(x, y));
  return ResidualCalibratedModel(std::move(structural), std::move(residual));
}

}  // namespace cfpm::power
