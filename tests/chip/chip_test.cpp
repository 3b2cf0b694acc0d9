// Chip composition tests: spec parsing, tree topology, sibling bus-bit
// sharing, bitwise agreement between composed node totals and the sharded
// evaluator, conservative-bound tightness, shard-count determinism, §9
// ladder surfacing, and the service facade's chip entry points.
#include "chip/chip.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "chip/evaluator.hpp"
#include "netlist/generators.hpp"
#include "power/add_model.hpp"
#include "power/baselines.hpp"
#include "power/residual.hpp"
#include "serve/service.hpp"
#include "stats/markov.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace cfpm::chip {
namespace {

/// The shared demo chip (2 blocks x 3 macros x 8 bus bits): small enough
/// to build exactly in milliseconds, rich enough to exercise overlap,
/// aliasing and the full tree shape. Built once for the whole binary.
const Chip& demo_chip() {
  static const Chip c = build_chip(ChipSpec::parse("2x3x8"));
  return c;
}

sim::InputSequence demo_trace(std::size_t vectors = 512) {
  stats::MarkovSequenceGenerator gen({0.5, 0.5}, 0x1234);
  return gen.generate(demo_chip().bus_width(), vectors);
}

TEST(ChipSpec, ParsesAndRoundTrips) {
  const ChipSpec spec = ChipSpec::parse("4x6x16");
  EXPECT_EQ(spec.blocks, 4u);
  EXPECT_EQ(spec.macros_per_block, 6u);
  EXPECT_EQ(spec.block_bus_bits, 16u);
  EXPECT_EQ(spec.num_macros(), 24u);
  EXPECT_EQ(spec.bus_width(), 64u);
  EXPECT_EQ(spec.to_string(), "4x6x16");
  EXPECT_EQ(ChipSpec::parse(spec.to_string()).to_string(), spec.to_string());
}

TEST(ChipSpec, RejectsMalformedText) {
  EXPECT_THROW(ChipSpec::parse(""), Error);
  EXPECT_THROW(ChipSpec::parse("4x6"), Error);
  EXPECT_THROW(ChipSpec::parse("4x6x16x2"), Error);
  EXPECT_THROW(ChipSpec::parse("axbxc"), Error);
  EXPECT_THROW(ChipSpec::parse("0x6x16"), Error);
  EXPECT_THROW(ChipSpec::parse("4x0x16"), Error);
  EXPECT_THROW(ChipSpec::parse("4x6x0"), Error);
  // The narrowest library macro needs 4 bits per block.
  EXPECT_THROW(ChipSpec::parse("4x6x3"), Error);
}

TEST(ChipTree, TopologyMatchesSpec) {
  const Chip& c = demo_chip();
  EXPECT_EQ(c.num_macros(), 6u);
  EXPECT_EQ(c.bus_width(), 16u);
  EXPECT_EQ(c.num_components(), 3u);  // chip root + 2 blocks
  EXPECT_EQ(c.depth(), 3u);
  ASSERT_EQ(c.nodes().size(), 9u);  // 1 root + 2 blocks + 6 leaves

  const Chip::Node& root = c.root();
  EXPECT_EQ(root.parent, Chip::kNoParent);
  EXPECT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.num_leaves, 6u);
  EXPECT_FALSE(root.is_leaf());

  // Every block owns a contiguous leaf range; leaf k of the tree is
  // instance k of both designs (same name, DFS order).
  std::size_t next_leaf = 0;
  for (const std::size_t b : root.children) {
    const Chip::Node& block = c.nodes()[b];
    EXPECT_EQ(block.parent, 0u);
    EXPECT_EQ(block.first_leaf, next_leaf);
    EXPECT_EQ(block.num_leaves, 3u);
    for (const std::size_t l : block.children) {
      const Chip::Node& leaf = c.nodes()[l];
      EXPECT_TRUE(leaf.is_leaf());
      EXPECT_EQ(leaf.parent, b);
      EXPECT_EQ(leaf.num_leaves, 1u);
      EXPECT_EQ(leaf.first_leaf, next_leaf);
      EXPECT_EQ(leaf.name, c.avg_design().instance_name(next_leaf));
      EXPECT_EQ(leaf.name, c.bound_design().instance_name(next_leaf));
      ASSERT_LT(leaf.macro, c.library().size());
      ++next_leaf;
    }
  }
  EXPECT_EQ(next_leaf, 6u);

  // Library: each distinct macro built once, instance counts covering all
  // six leaves, everything clean under the exact default budget.
  std::size_t instances = 0;
  for (const MacroBuildReport& m : c.library()) {
    instances += m.instances;
    EXPECT_FALSE(m.degraded());
    EXPECT_GT(m.avg_nodes, 0u);
    EXPECT_GT(m.bound_nodes, 0u);
  }
  EXPECT_EQ(instances, 6u);
  EXPECT_FALSE(c.degraded());
}

TEST(ChipTree, SiblingMacrosShareBlockBusBits) {
  const Chip& c = demo_chip();
  const std::size_t M = c.spec().block_bus_bits;
  for (std::size_t b = 0; b < c.spec().blocks; ++b) {
    std::vector<std::set<std::size_t>> maps;
    for (std::size_t j = 0; j < c.spec().macros_per_block; ++j) {
      const auto& map =
          c.avg_design().instance_input_map(b * c.spec().macros_per_block + j);
      // Every bound bit lies inside this block's bus segment.
      for (const std::size_t bit : map) {
        EXPECT_GE(bit, b * M);
        EXPECT_LT(bit, (b + 1) * M);
      }
      maps.emplace_back(map.begin(), map.end());
    }
    // Overlapping windows: consecutive siblings share at least one bus
    // bit, which both sample from the same stream of the chip trace.
    for (std::size_t j = 1; j < maps.size(); ++j) {
      std::vector<std::size_t> shared;
      std::set_intersection(maps[j - 1].begin(), maps[j - 1].end(),
                            maps[j].begin(), maps[j].end(),
                            std::back_inserter(shared));
      EXPECT_FALSE(shared.empty())
          << "block " << b << " slots " << j - 1 << "," << j;
    }
  }
}

TEST(ChipEvaluator, ComposedNodeTotalsEqualEvaluatorBitwise) {
  const Chip& c = demo_chip();
  const sim::InputSequence trace = demo_trace();
  const ChipTraceResult r = evaluate_trace(c.avg_design(), trace);
  ASSERT_EQ(r.per_instance_ff.size(), c.num_macros());
  EXPECT_EQ(r.transitions, trace.num_transitions());

  // The chip total is defined as the left-fold of the per-leaf totals in
  // leaf order — exactly what subtree_total computes, so root composition
  // reproduces the evaluator's total bitwise, not approximately.
  EXPECT_EQ(c.subtree_total(c.root(), r.per_instance_ff), r.total_ff);

  // Each block's composed total is the same fold over its leaf range.
  for (const std::size_t b : c.root().children) {
    const Chip::Node& block = c.nodes()[b];
    double fold = 0.0;
    for (std::size_t i = 0; i < block.num_leaves; ++i) {
      fold += r.per_instance_ff[block.first_leaf + i];
    }
    EXPECT_EQ(c.subtree_total(block, r.per_instance_ff), fold);
  }
}

TEST(ChipEvaluator, BoundCompositionTighterThanWorstCaseSum) {
  const Chip& c = demo_chip();
  ASSERT_TRUE(c.bound_design().is_upper_bound());
  const sim::InputSequence trace = demo_trace();
  const ChipTraceResult avg = evaluate_trace(c.avg_design(), trace);
  const ChipTraceResult bound = evaluate_trace(c.bound_design(), trace);

  // Conservative per cycle: the composed bound dominates the average
  // composition on the same trace...
  EXPECT_GE(bound.total_ff, avg.total_ff);
  EXPECT_GE(bound.peak_ff, avg.peak_ff);
  // ...yet stays strictly below the loose sum-of-global-worst-cases bound
  // the paper argues against (Section 1.2).
  EXPECT_LT(bound.peak_ff, c.sum_of_worst_cases_ff());
}

TEST(ChipEvaluator, ShardCountNeverChangesTheBits) {
  const Chip& c = demo_chip();
  // Long enough to cross several kTraceChunk boundaries.
  const sim::InputSequence trace = demo_trace(3 * kTraceChunk + 17);
  const ChipTraceResult serial = evaluate_trace(c.avg_design(), trace);
  for (const std::size_t shards : {2u, 3u, 8u}) {
    ThreadPool pool(shards);
    const ChipTraceResult sharded =
        evaluate_trace(c.avg_design(), trace, &pool);
    EXPECT_EQ(sharded.total_ff, serial.total_ff) << shards << " shards";
    EXPECT_EQ(sharded.peak_ff, serial.peak_ff) << shards << " shards";
    EXPECT_EQ(sharded.transitions, serial.transitions);
    ASSERT_EQ(sharded.per_instance_ff.size(), serial.per_instance_ff.size());
    for (std::size_t i = 0; i < serial.per_instance_ff.size(); ++i) {
      EXPECT_EQ(sharded.per_instance_ff[i], serial.per_instance_ff[i]);
    }
  }
}

/// The evaluator's documented association, spelled out on the
/// per-transition reference: per-instance sums t-ascending within each
/// kTraceChunk chunk and then in chunk order, the total as the left-fold of
/// those in instance order, and the peak as the max of the instance-order
/// cycle sums.
ChipTraceResult reference_fold(const power::RtlDesign& design,
                               const sim::InputSequence& trace) {
  ChipTraceResult r;
  r.transitions = trace.num_transitions();
  r.per_instance_ff.assign(design.num_instances(), 0.0);
  std::vector<std::uint8_t> xi(trace.num_inputs()), xf(trace.num_inputs());
  for (std::size_t begin = 0; begin < r.transitions; begin += kTraceChunk) {
    const std::size_t end = std::min(begin + kTraceChunk, r.transitions);
    std::vector<double> chunk(design.num_instances(), 0.0);
    for (std::size_t t = begin; t < end; ++t) {
      trace.vector_at(t, xi);
      trace.vector_at(t + 1, xf);
      const std::vector<double> b = design.estimate_breakdown_ff(xi, xf);
      double cycle = 0.0;
      for (std::size_t i = 0; i < b.size(); ++i) {
        chunk[i] += b[i];
        cycle += b[i];
      }
      r.peak_ff = std::max(r.peak_ff, cycle);
    }
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      r.per_instance_ff[i] += chunk[i];
    }
  }
  for (const double v : r.per_instance_ff) r.total_ff += v;
  return r;
}

/// Every model kind on one bus, with overlapping, aliased and scattered
/// input maps: ADD (twice, one shared model), Con, ConBound, Lin with
/// negative coefficients, and ADD+residual whose clamp at 0 fires.
power::RtlDesign mixed_design() {
  const netlist::GateLibrary lib = netlist::GateLibrary::standard();
  power::AddModelOptions opt;
  opt.max_nodes = 0;
  auto adder = std::make_shared<power::AddPowerModel>(power::AddPowerModel::build(
      netlist::gen::ripple_carry_adder(2), lib, opt));  // 5 inputs
  auto cmp = std::make_shared<power::AddPowerModel>(power::AddPowerModel::build(
      netlist::gen::magnitude_comparator(2), lib, opt));  // 4 inputs
  power::RtlDesign d;
  d.add_instance("add0", adder, {0, 1, 2, 3, 4});
  d.add_instance("con", std::make_shared<power::ConstantModel>(12.5, 4),
                 {3, 4, 5, 6});
  d.add_instance("lin",
                 std::make_shared<power::LinearModel>(
                     std::vector<double>{1.25, 3.0, -2.5, 0.75, 4.0, -1.0}),
                 {5, 6, 7, 8, 9});
  d.add_instance("res",
                 std::make_shared<power::ResidualCalibratedModel>(
                     cmp, power::LinearModel({-9.0, 2.0, -6.5, 1.5, -4.0})),
                 {8, 9, 10, 11});
  d.add_instance("bound", std::make_shared<power::ConstantBoundModel>(40.0, 3),
                 {11, 0, 6});
  d.add_instance("add1", adder, {11, 2, 7, 0, 9});
  return d;
}

TEST(ChipEvaluator, MatchesPerTransitionReferenceFold) {
  const Chip& c = demo_chip();
  const power::RtlDesign mixed = mixed_design();
  ThreadPool pool(3);
  for (const power::RtlDesign* d :
       {&c.avg_design(), &c.bound_design(), &mixed}) {
    stats::MarkovSequenceGenerator gen({0.5, 0.4}, 0x5eed);
    const sim::InputSequence trace =
        gen.generate(d->bus_width(), 3 * kTraceChunk + 17);
    const ChipTraceResult want = reference_fold(*d, trace);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      const ChipTraceResult got = evaluate_trace(*d, trace, p);
      EXPECT_EQ(got.transitions, want.transitions);
      EXPECT_EQ(got.total_ff, want.total_ff);
      EXPECT_EQ(got.peak_ff, want.peak_ff);
      ASSERT_EQ(got.per_instance_ff.size(), want.per_instance_ff.size());
      for (std::size_t i = 0; i < want.per_instance_ff.size(); ++i) {
        EXPECT_EQ(got.per_instance_ff[i], want.per_instance_ff[i])
            << d->instance_name(i);
      }
    }
  }
}

TEST(ChipBuild, ExpiredDeadlineSurfacesLadderDegradation) {
  ChipBuildOptions options;
  options.deadline_ms = 0;  // already expired: every macro rides the ladder
  const Chip c = build_chip(ChipSpec::parse("2x2x8"), options);
  EXPECT_TRUE(c.degraded());
  for (const MacroBuildReport& m : c.library()) {
    EXPECT_TRUE(m.degraded()) << m.name;
    EXPECT_NE(m.avg_info.outcome, power::BuildOutcome::kClean) << m.name;
  }
  // The degraded chip still evaluates (fallback models are models too).
  stats::MarkovSequenceGenerator gen({0.5, 0.5}, 0x9);
  const sim::InputSequence trace = gen.generate(c.bus_width(), 64);
  const ChipTraceResult r = evaluate_trace(c.avg_design(), trace);
  EXPECT_EQ(r.transitions, 63u);
}

// ---------------------------------------------------------------------------
// Service facade
// ---------------------------------------------------------------------------

service::ChipRequest demo_request() {
  service::ChipRequest request;
  request.spec = "2x3x8";
  request.vectors = 512;
  return request;
}

TEST(ChipService, ReplyMatchesDirectEvaluationBitwise) {
  const service::ChipRequest request = demo_request();
  const service::ChipReply reply = service::evaluate_chip(request);
  EXPECT_EQ(reply.status, service::StatusCode::kOk);
  EXPECT_EQ(reply.spec, "2x3x8");
  EXPECT_EQ(reply.macros, 6u);
  EXPECT_EQ(reply.components, 3u);
  EXPECT_EQ(reply.bus_bits, 16u);
  EXPECT_EQ(reply.transitions, 511u);
  EXPECT_EQ(reply.cache_hits, 0u);
  ASSERT_EQ(reply.blocks.size(), 2u);
  ASSERT_EQ(reply.instances.size(), 6u);

  // The facade is the same recipe as doing it by hand: build the chip,
  // generate the seeded workload at bus width, evaluate both compositions.
  const Chip c = build_chip(ChipSpec::parse(request.spec),
                            service::to_chip_build_options(request));
  stats::MarkovSequenceGenerator gen(request.statistics, request.seed);
  const sim::InputSequence trace = gen.generate(c.bus_width(), request.vectors);
  const ChipTraceResult avg = evaluate_trace(c.avg_design(), trace);
  const ChipTraceResult bound = evaluate_trace(c.bound_design(), trace);
  EXPECT_EQ(reply.total_ff, avg.total_ff);
  EXPECT_EQ(reply.peak_ff, avg.peak_ff);
  EXPECT_EQ(reply.bound_total_ff, bound.total_ff);
  EXPECT_EQ(reply.bound_peak_ff, bound.peak_ff);
  EXPECT_EQ(reply.worst_case_sum_ff, c.sum_of_worst_cases_ff());
  EXPECT_LT(reply.bound_peak_ff, reply.worst_case_sum_ff);

  // Breakdown rows compose back to the totals bitwise (left-fold order).
  double fold = 0.0;
  for (const service::ChipComponentTotal& inst : reply.instances) {
    fold += inst.total_ff;
  }
  EXPECT_EQ(fold, reply.total_ff);
}

TEST(ChipService, ShardingNeverChangesReplyBits) {
  const service::ChipRequest request = demo_request();
  const service::ChipReply serial = service::evaluate_chip(request);
  ThreadPool pool(4);
  const service::ChipReply sharded = service::evaluate_chip(request, &pool);
  EXPECT_EQ(sharded.total_ff, serial.total_ff);
  EXPECT_EQ(sharded.peak_ff, serial.peak_ff);
  EXPECT_EQ(sharded.bound_total_ff, serial.bound_total_ff);
  EXPECT_EQ(sharded.bound_peak_ff, serial.bound_peak_ff);
  ASSERT_EQ(sharded.instances.size(), serial.instances.size());
  for (std::size_t i = 0; i < serial.instances.size(); ++i) {
    EXPECT_EQ(sharded.instances[i].total_ff, serial.instances[i].total_ff);
  }
}

TEST(ChipService, RejectsBadVersionSpecAndWorkload) {
  service::ChipRequest bad_version = demo_request();
  bad_version.api_version = 7;
  EXPECT_THROW(service::evaluate_chip(bad_version), service::UsageError);

  service::ChipRequest bad_spec = demo_request();
  bad_spec.spec = "not-a-spec";
  EXPECT_THROW(service::evaluate_chip(bad_spec), service::UsageError);

  // Infeasible Markov statistics: same typed error as service::evaluate.
  service::ChipRequest bad_stats = demo_request();
  bad_stats.statistics = {0.1, 0.9};  // st > 2*min(sp, 1-sp)
  EXPECT_THROW(service::evaluate_chip(bad_stats), Error);
}

TEST(ChipService, ExplicitTraceMustSpanTheBus) {
  const service::ChipRequest request = demo_request();
  stats::MarkovSequenceGenerator gen({0.5, 0.5}, 0x5);
  const sim::InputSequence narrow = gen.generate(15, 32);  // bus is 16
  EXPECT_THROW(service::evaluate_chip_trace(request, narrow),
               service::UsageError);

  const sim::InputSequence wide = gen.generate(16, 32);
  const service::ChipReply reply =
      service::evaluate_chip_trace(request, wide);
  EXPECT_EQ(reply.status, service::StatusCode::kOk);
  EXPECT_EQ(reply.transitions, 31u);
}

TEST(ChipService, DegradedBuildReportsStatusDegraded) {
  service::ChipRequest request;
  request.spec = "2x2x8";
  request.vectors = 64;
  request.deadline_ms = 0;
  const service::ChipReply reply = service::evaluate_chip(request);
  EXPECT_EQ(reply.status, service::StatusCode::kDegraded);
  ASSERT_FALSE(reply.library.empty());
  for (const service::ChipMacroSummary& m : reply.library) {
    EXPECT_NE(m.avg_outcome, power::BuildOutcome::kClean) << m.name;
  }
}

}  // namespace
}  // namespace cfpm::chip
