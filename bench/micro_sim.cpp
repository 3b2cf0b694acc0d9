// Micro-benchmarks of the bit-parallel zero-delay simulator.
#include <benchmark/benchmark.h>

#include <chrono>

#include "netlist/generators.hpp"
#include "sim/simulator.hpp"
#include "stats/markov.hpp"

namespace {

using namespace cfpm;

void bench_circuit(benchmark::State& state, const netlist::Netlist& n) {
  const netlist::GateLibrary lib = netlist::GateLibrary::standard();
  const sim::GateLevelSimulator simulator(n, lib);
  stats::MarkovSequenceGenerator gen({0.5, 0.5}, 1);
  const sim::InputSequence seq = gen.generate(n.num_inputs(), 4096);
  for (auto _ : state) {
    const auto energy = simulator.simulate(seq);
    benchmark::DoNotOptimize(energy.total_ff);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(seq.num_transitions()));
  state.counters["gates"] = static_cast<double>(n.num_gates());
}

void BM_SimulateAdder16(benchmark::State& state) {
  bench_circuit(state, netlist::gen::ripple_carry_adder(16));
}
BENCHMARK(BM_SimulateAdder16);

void BM_SimulateComp(benchmark::State& state) {
  bench_circuit(state, netlist::gen::mcnc_like("comp"));
}
BENCHMARK(BM_SimulateComp);

void BM_SimulateK2(benchmark::State& state) {
  bench_circuit(state, netlist::gen::mcnc_like("k2"));
}
BENCHMARK(BM_SimulateK2);

void BM_ScalarVsParallel(benchmark::State& state) {
  // Scalar path: one pair at a time (the ablation baseline for the
  // 64-lane kernel; compare items/s against BM_SimulateAdder16).
  const netlist::Netlist n = netlist::gen::ripple_carry_adder(16);
  const netlist::GateLibrary lib = netlist::GateLibrary::standard();
  const sim::GateLevelSimulator simulator(n, lib);
  stats::MarkovSequenceGenerator gen({0.5, 0.5}, 1);
  const sim::InputSequence seq = gen.generate(n.num_inputs(), 257);
  std::vector<std::uint8_t> xi(n.num_inputs()), xf(n.num_inputs());
  for (auto _ : state) {
    double total = 0.0;
    for (std::size_t t = 0; t + 1 < seq.length(); ++t) {
      seq.vector_at(t, xi);
      seq.vector_at(t + 1, xf);
      total += simulator.switching_capacitance_ff(xi, xf);
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(seq.num_transitions()));
}
BENCHMARK(BM_ScalarVsParallel);

void BM_MarkovGenerate(benchmark::State& state) {
  // Workload synthesis alone, the layer under every seeded eval: one
  // Markov chain per input, 200k vectors. ns_per_bit is wall time per
  // generated bit; it should not depend on (sp, st).
  static constexpr stats::InputStatistics kPoints[] = {
      {0.5, 0.05}, {0.35, 0.3}, {0.5, 0.5}};
  const std::size_t inputs = static_cast<std::size_t>(state.range(0));
  const stats::InputStatistics point = kPoints[state.range(1)];
  constexpr std::size_t kVectors = 200000;
  stats::MarkovSequenceGenerator gen(point, 1);
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    const sim::InputSequence seq = gen.generate(inputs, kVectors);
    benchmark::DoNotOptimize(seq.word(0, 0));
  }
  const double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  const double bits = static_cast<double>(state.iterations()) *
                      static_cast<double>(inputs * kVectors);
  state.SetItemsProcessed(static_cast<std::int64_t>(bits));
  state.counters["ns_per_bit"] = ns / bits;
  state.counters["sp"] = point.sp;
  state.counters["st"] = point.st;
}
BENCHMARK(BM_MarkovGenerate)
    ->ArgNames({"inputs", "point"})
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({16, 2})
    ->Args({49, 0})
    ->Args({49, 1})
    ->Args({49, 2})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
