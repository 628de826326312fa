// Tests for the seeded fault-injection substrate: schedule determinism
// (same seed => identical fault schedule, any query order), crash
// permanence, straggler slowdown bounds, link-loss determinism, exact
// attacker counts, and option validation.

#include "qens/sim/fault_injection.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

namespace qens::sim {
namespace {

FaultPlanOptions BusyOptions(uint64_t seed = 42) {
  FaultPlanOptions o;
  o.seed = seed;
  o.crash_rate = 0.3;
  o.crash_horizon = 10;
  o.dropout_rate = 0.2;
  o.straggler_rate = 0.4;
  o.straggler_slowdown_min = 2.0;
  o.straggler_slowdown_max = 6.0;
  o.message_loss_rate = 0.25;
  return o;
}

TEST(FaultPlanTest, SameSeedSameSchedule) {
  const FaultPlanOptions options = BusyOptions();
  auto a = FaultPlan::Create(16, options);
  auto b = FaultPlan::Create(16, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->num_nodes(), b->num_nodes());
  for (size_t i = 0; i < a->num_nodes(); ++i) {
    EXPECT_EQ(a->node(i).crashes, b->node(i).crashes) << "node " << i;
    EXPECT_EQ(a->node(i).crash_round, b->node(i).crash_round) << "node " << i;
    EXPECT_EQ(a->node(i).straggler, b->node(i).straggler) << "node " << i;
    EXPECT_DOUBLE_EQ(a->node(i).slowdown, b->node(i).slowdown) << "node " << i;
  }
}

TEST(FaultPlanTest, DifferentSeedsDiverge) {
  auto a = FaultPlan::Create(64, BusyOptions(1));
  auto b = FaultPlan::Create(64, BusyOptions(2));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  size_t differing = 0;
  for (size_t i = 0; i < a->num_nodes(); ++i) {
    if (a->node(i).crashes != b->node(i).crashes ||
        a->node(i).straggler != b->node(i).straggler ||
        a->node(i).slowdown != b->node(i).slowdown) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0u);
}

TEST(FaultPlanTest, ZeroRatesMeanNoFaults) {
  FaultPlanOptions options;
  options.seed = 7;
  auto plan = FaultPlan::Create(32, options);
  ASSERT_TRUE(plan.ok());
  for (const NodeFaultProfile& p : plan->profiles()) {
    EXPECT_FALSE(p.crashes);
    EXPECT_FALSE(p.straggler);
    EXPECT_DOUBLE_EQ(p.slowdown, 1.0);
  }
  FaultInjector injector(std::move(plan).value());
  for (size_t node = 0; node < 32; ++node) {
    for (size_t round = 0; round < 5; ++round) {
      EXPECT_TRUE(injector.IsAvailable(node, round));
      EXPECT_FALSE(injector.LoseMessage(0, node, round, 0));
    }
  }
}

TEST(FaultPlanTest, CrashRateOneCrashesEveryoneWithinHorizon) {
  FaultPlanOptions options;
  options.seed = 5;
  options.crash_rate = 1.0;
  options.crash_horizon = 8;
  auto plan = FaultPlan::Create(20, options);
  ASSERT_TRUE(plan.ok());
  for (const NodeFaultProfile& p : plan->profiles()) {
    EXPECT_TRUE(p.crashes);
    EXPECT_LT(p.crash_round, 8u);
  }
}

TEST(FaultPlanTest, StragglerSlowdownWithinConfiguredRange) {
  FaultPlanOptions options = BusyOptions();
  options.straggler_rate = 1.0;
  auto plan = FaultPlan::Create(50, options);
  ASSERT_TRUE(plan.ok());
  for (const NodeFaultProfile& p : plan->profiles()) {
    ASSERT_TRUE(p.straggler);
    EXPECT_GE(p.slowdown, options.straggler_slowdown_min);
    EXPECT_LE(p.slowdown, options.straggler_slowdown_max);
  }
}

/// The plan's attacker set as a per-node mask.
std::vector<bool> AttackerMask(const FaultPlan& plan) {
  std::vector<bool> mask;
  for (const NodeFaultProfile& p : plan.profiles()) mask.push_back(p.byzantine);
  return mask;
}

FaultPlanOptions AttackOptions(uint64_t seed, double corruption_rate) {
  FaultPlanOptions options;
  options.seed = seed;
  options.corruption_rate = corruption_rate;
  options.corruption_kinds = {CorruptionKind::kNanUpdate,
                              CorruptionKind::kSignFlip};
  return options;
}

TEST(FaultPlanTest, MarksExactlyCeilRateTimesNodesAttackers) {
  // Each rate as the fraction num/den, so the expected count is integer
  // arithmetic: ceil(num * n / den).
  struct Rate {
    double value;
    size_t num;
    size_t den;
  };
  const Rate kRates[] = {
      {0.05, 1, 20}, {0.1, 1, 10}, {0.3, 3, 10}, {0.5, 1, 2}, {1.0, 1, 1}};
  for (const Rate& rate : kRates) {
    for (size_t n = 1; n <= 64; ++n) {
      const FaultPlanOptions options = AttackOptions(100 + n, rate.value);
      auto a = FaultPlan::Create(n, options);
      auto b = FaultPlan::Create(n, options);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      size_t attackers = 0;
      for (const NodeFaultProfile& p : a->profiles()) {
        if (p.byzantine) ++attackers;
        EXPECT_EQ(p.byzantine, p.corruption != CorruptionKind::kNone);
      }
      EXPECT_EQ(attackers, (rate.num * n + rate.den - 1) / rate.den)
          << "rate " << rate.value << ", " << n << " nodes";
      // The same seed marks the same set with the same modes.
      EXPECT_EQ(AttackerMask(*a), AttackerMask(*b));
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(a->node(i).corruption, b->node(i).corruption);
      }
    }
  }
  // 0.07 * 100 is 7.000000000000001 in binary64; seven attackers are meant.
  auto seven = FaultPlan::Create(100, AttackOptions(5, 0.07));
  ASSERT_TRUE(seven.ok());
  const std::vector<bool> mask = AttackerMask(*seven);
  EXPECT_EQ(std::count(mask.begin(), mask.end(), true), 7);
  // No corruption, no attacker.
  auto none = FaultPlan::Create(16, BusyOptions());
  ASSERT_TRUE(none.ok());
  for (const NodeFaultProfile& p : none->profiles()) EXPECT_FALSE(p.byzantine);
}

TEST(FaultPlanTest, AttackerSetDependsOnTheSeed) {
  // A keyed permutation, not the lowest ids: two seeds pick different sets
  // of the same size.
  auto a = FaultPlan::Create(64, AttackOptions(1, 0.3));
  auto b = FaultPlan::Create(64, AttackOptions(2, 0.3));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(AttackerMask(*a), AttackerMask(*b));
}

TEST(FaultPlanTest, DescribeMentionsFaults) {
  FaultPlanOptions options = BusyOptions();
  options.crash_rate = 1.0;
  auto plan = FaultPlan::Create(4, options);
  ASSERT_TRUE(plan.ok());
  const std::string text = plan->Describe();
  EXPECT_NE(text.find("crash"), std::string::npos) << text;
}

TEST(FaultPlanTest, ValidatesOptions) {
  FaultPlanOptions bad;
  bad.crash_rate = -0.1;
  EXPECT_FALSE(FaultPlan::Create(4, bad).ok());
  bad = FaultPlanOptions();
  bad.dropout_rate = 1.5;
  EXPECT_FALSE(FaultPlan::Create(4, bad).ok());
  bad = FaultPlanOptions();
  bad.message_loss_rate = 2.0;
  EXPECT_FALSE(FaultPlan::Create(4, bad).ok());
  bad = FaultPlanOptions();
  bad.straggler_rate = 0.5;
  bad.straggler_slowdown_min = 0.5;  // Below 1: would speed nodes up.
  EXPECT_FALSE(FaultPlan::Create(4, bad).ok());
  bad = FaultPlanOptions();
  bad.straggler_rate = 0.5;
  bad.straggler_slowdown_min = 4.0;
  bad.straggler_slowdown_max = 2.0;  // Inverted range.
  EXPECT_FALSE(FaultPlan::Create(4, bad).ok());
  bad = FaultPlanOptions();
  bad.crash_rate = 0.5;
  bad.crash_horizon = 0;
  EXPECT_FALSE(FaultPlan::Create(4, bad).ok());
}

TEST(FaultInjectorTest, CrashesArePermanent) {
  FaultPlanOptions options;
  options.seed = 11;
  options.crash_rate = 1.0;
  options.crash_horizon = 6;
  auto plan = FaultPlan::Create(10, options);
  ASSERT_TRUE(plan.ok());
  FaultInjector injector(std::move(plan).value());
  for (size_t node = 0; node < 10; ++node) {
    const size_t crash = injector.plan().node(node).crash_round;
    for (size_t round = 0; round < 20; ++round) {
      EXPECT_EQ(injector.IsCrashed(node, round), round >= crash)
          << "node " << node << " round " << round;
    }
  }
}

TEST(FaultInjectorTest, DropoutIsTransient) {
  FaultPlanOptions options;
  options.seed = 13;
  options.dropout_rate = 0.5;
  auto plan = FaultPlan::Create(8, options);
  ASSERT_TRUE(plan.ok());
  FaultInjector injector(std::move(plan).value());
  // With p = 0.5 over 8 nodes x 40 rounds, both outcomes must occur, and a
  // dropped round must not imply the next round is dropped for every node
  // (transience: some node recovers).
  size_t dropped = 0, up = 0, recovered = 0;
  for (size_t node = 0; node < 8; ++node) {
    for (size_t round = 0; round < 40; ++round) {
      if (injector.IsDroppedOut(node, round)) {
        ++dropped;
        if (round + 1 < 40 && !injector.IsDroppedOut(node, round + 1)) {
          ++recovered;
        }
      } else {
        ++up;
      }
    }
  }
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(up, 0u);
  EXPECT_GT(recovered, 0u);
}

TEST(FaultInjectorTest, AnswersAreQueryOrderIndependent) {
  const FaultPlanOptions options = BusyOptions(1234);
  auto plan_a = FaultPlan::Create(6, options);
  auto plan_b = FaultPlan::Create(6, options);
  ASSERT_TRUE(plan_a.ok());
  ASSERT_TRUE(plan_b.ok());
  FaultInjector a(std::move(plan_a).value());
  FaultInjector b(std::move(plan_b).value());
  // Query `a` forward and `b` backward: every answer must agree, because
  // each one is a pure function of its coordinates.
  struct Answer {
    bool available;
    bool lost;
    double slowdown;
  };
  std::vector<Answer> forward, backward;
  for (size_t node = 0; node < 6; ++node) {
    for (size_t round = 0; round < 10; ++round) {
      forward.push_back({a.IsAvailable(node, round),
                         a.LoseMessage(node, 0, round, 1),
                         a.SlowdownFactor(node, round)});
    }
  }
  for (size_t node = 6; node-- > 0;) {
    for (size_t round = 10; round-- > 0;) {
      backward.push_back({b.IsAvailable(node, round),
                          b.LoseMessage(node, 0, round, 1),
                          b.SlowdownFactor(node, round)});
    }
  }
  ASSERT_EQ(forward.size(), backward.size());
  for (size_t i = 0; i < forward.size(); ++i) {
    const Answer& f = forward[i];
    const Answer& r = backward[backward.size() - 1 - i];
    EXPECT_EQ(f.available, r.available);
    EXPECT_EQ(f.lost, r.lost);
    EXPECT_DOUBLE_EQ(f.slowdown, r.slowdown);
  }
}

TEST(FaultInjectorTest, MessageLossIsPerAttemptAndDeterministic) {
  FaultPlanOptions options;
  options.seed = 21;
  options.message_loss_rate = 0.5;
  auto plan = FaultPlan::Create(4, options);
  ASSERT_TRUE(plan.ok());
  FaultInjector injector(std::move(plan).value());
  size_t lost = 0, delivered = 0;
  for (size_t from = 0; from < 4; ++from) {
    for (size_t to = 0; to < 4; ++to) {
      for (size_t round = 0; round < 10; ++round) {
        for (size_t attempt = 0; attempt < 3; ++attempt) {
          const bool l1 = injector.LoseMessage(from, to, round, attempt);
          const bool l2 = injector.LoseMessage(from, to, round, attempt);
          EXPECT_EQ(l1, l2);  // Re-asking never flips the answer.
          l1 ? ++lost : ++delivered;
        }
      }
    }
  }
  EXPECT_GT(lost, 0u);
  EXPECT_GT(delivered, 0u);
}

TEST(FaultInjectorTest, LinkDirectionMatters) {
  FaultPlanOptions options;
  options.seed = 33;
  options.message_loss_rate = 0.5;
  auto plan = FaultPlan::Create(12, options);
  ASSERT_TRUE(plan.ok());
  FaultInjector injector(std::move(plan).value());
  // (from, to) and (to, from) are distinct links: over many samples the
  // two directions must disagree at least once.
  bool any_asymmetry = false;
  for (size_t a = 0; a < 12 && !any_asymmetry; ++a) {
    for (size_t b = a + 1; b < 12 && !any_asymmetry; ++b) {
      for (size_t round = 0; round < 10; ++round) {
        if (injector.LoseMessage(a, b, round, 0) !=
            injector.LoseMessage(b, a, round, 0)) {
          any_asymmetry = true;
          break;
        }
      }
    }
  }
  EXPECT_TRUE(any_asymmetry);
}

TEST(FaultInjectorTest, SlowdownIsAtLeastOne) {
  auto plan = FaultPlan::Create(30, BusyOptions(77));
  ASSERT_TRUE(plan.ok());
  FaultInjector injector(std::move(plan).value());
  for (size_t node = 0; node < 30; ++node) {
    for (size_t round = 0; round < 5; ++round) {
      EXPECT_GE(injector.SlowdownFactor(node, round), 1.0);
    }
  }
}

}  // namespace
}  // namespace qens::sim
