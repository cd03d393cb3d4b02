// The n-ary generalization of Appendix A: three queues in series implement
// a (3N+2)-element queue, proved by the Composition Theorem with four
// components (G plus the three stages) under one environment assumption.

#include <gtest/gtest.h>

#include "opentla/ag/composition_theorem.hpp"
#include "opentla/check/invariant.hpp"
#include "opentla/compose/compose.hpp"
#include "opentla/queue/double_queue.hpp"
#include "replay.hpp"

namespace opentla {
namespace {

class TripleQueueTest : public ::testing::Test {
 protected:
  TripleQueueTest() : sys(make_triple_queue(/*capacity=*/1, /*num_values=*/2)) {}

  CompositionOptions options(bool interleaved_optimization = true) {
    CompositionOptions opts;
    opts.goal_witness = {{"q", sys.qbar}};
    if (interleaved_optimization) {
      // Sound here because G3 is among the components.
      opts.env_outputs = {sys.i.sig, sys.i.val, sys.o.ack};
      opts.component_outputs = {{},  // G3
                                {sys.z1.sig, sys.z1.val, sys.i.ack},
                                {sys.z2.sig, sys.z2.val, sys.z1.ack},
                                {sys.o.sig, sys.o.val, sys.z2.ack}};
    }
    return opts;
  }

  TripleQueueSystem sys;
};

TEST_F(TripleQueueTest, CompositionTheoremProvesTheChain) {
  ProofReport report =
      verify_composition(sys.vars, sys.components(), sys.goal(), options());
  EXPECT_TRUE(report.all_discharged()) << report.to_string();
  // All three component assumptions appear as H1 obligations.
  int h1_count = 0;
  for (const Obligation& ob : report.obligations) {
    if (ob.id.rfind("H1[QE", 0) == 0) ++h1_count;
  }
  EXPECT_EQ(h1_count, 3);
}

TEST_F(TripleQueueTest, WithoutGTheChainFails) {
  std::vector<AGSpec> components = {{sys.qe1, sys.qm1}, {sys.qe2, sys.qm2},
                                    {sys.qe3, sys.qm3}};
  // No G conjunct: the interleaving optimization would be unsound, so the
  // exhaustive exploration is used.
  ProofReport report = verify_composition(sys.vars, components, sys.goal(),
                                          options(/*interleaved_optimization=*/false));
  EXPECT_FALSE(report.all_discharged());
  // Each product-inclusion refutation is a real one.
  std::size_t replayed = 0;
  EXPECT_TRUE(
      replay::replays_inclusion_refutations(sys.vars, components, sys.goal(), report, replayed));
  EXPECT_EQ(replayed, 4u);  // H1 for all three stages and H2a
}

TEST_F(TripleQueueTest, InterleavingOptimizationPreservesTheProof) {
  // The optimized and exhaustive explorations must agree: same verdict and
  // the same product sizes in every obligation's statistics.
  ProofReport fast = verify_composition(sys.vars, sys.components(), sys.goal(), options());
  ProofReport slow = verify_composition(sys.vars, sys.components(), sys.goal(),
                                        options(/*interleaved_optimization=*/false));
  EXPECT_TRUE(fast.all_discharged());
  EXPECT_TRUE(slow.all_discharged());
  ASSERT_EQ(fast.obligations.size(), slow.obligations.size());
  for (std::size_t i = 0; i < fast.obligations.size(); ++i) {
    EXPECT_EQ(fast.obligations[i].discharged, slow.obligations[i].discharged);
    // Node/edge statistics (when present) must coincide.
    auto stats = [](const std::string& detail) {
      return detail.substr(0, detail.find('\n'));
    };
    EXPECT_EQ(stats(fast.obligations[i].detail), stats(slow.obligations[i].detail))
        << fast.obligations[i].id;
  }
}

TEST_F(TripleQueueTest, CapacityBoundIsExactlyThreeNPlusTwo) {
  // Explore the closed chain and check |qbar| <= 3N+2 and that the bound
  // is attained.
  std::vector<CompositePart> parts = {
      {sys.big.env, true},        {sys.qm1.unhidden(), true},
      {sys.qm2.unhidden(), true}, {sys.qm3.unhidden(), true},
      {sys.g, false},             {make_pin(sys.vars, {sys.q}, "PinQ"), false}};
  StateGraph low =
      build_composite_graph(sys.vars, parts, /*free_tuples=*/{}, /*pinned=*/{sys.q});
  const int cap = 3 * sys.capacity + 2;
  EXPECT_TRUE(check_invariant(low, ex::le(ex::len(sys.qbar), ex::integer(cap))).holds);
  EXPECT_FALSE(check_invariant(low, ex::lt(ex::len(sys.qbar), ex::integer(cap))).holds);
}

}  // namespace
}  // namespace opentla
