// BatchFormer / SchedulerConfig unit and property tests (DESIGN.md
// §13). The former is deterministic and clock-free, so every test
// drives it with synthetic clocks — no sleeps, no wall time.
#include "core/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "util/knobs.h"

namespace mvtee::core {
namespace {

SchedEntry Entry(uint64_t id, const std::string& tenant,
                 int64_t deadline_abs_us = 0, int32_t priority = 0,
                 int64_t enqueue_us = 0) {
  SchedEntry e;
  e.id = id;
  e.tenant = tenant;
  e.priority = priority;
  e.deadline_abs_us = deadline_abs_us;
  e.enqueue_us = enqueue_us;
  return e;
}

// No batch window: everything dispatchable immediately.
SchedulerConfig Immediate(size_t max_batch = 8) {
  return SchedulerConfig::Builder()
      .MaxBatch(max_batch)
      .BatchWindowUs(0)
      .Build();
}

TEST(SchedulerConfigTest, BuilderIsFluentAndClamps) {
  const SchedulerConfig cfg = SchedulerConfig::Builder()
                                  .MaxBatch(0)          // clamped to 1
                                  .BatchWindowUs(-5)    // clamped to 0
                                  .TenantQuotaPct(250)  // clamped to 100
                                  .Edf(false)
                                  .TenantWeight("gold", 0)  // clamped to 1
                                  .Build();
  EXPECT_EQ(cfg.max_batch, 1u);
  EXPECT_EQ(cfg.batch_window_us, 0);
  EXPECT_EQ(cfg.tenant_quota_pct, 100);
  EXPECT_FALSE(cfg.edf);
  EXPECT_EQ(cfg.tenant_weights.at("gold"), 1u);
}

TEST(SchedulerConfigTest, DefaultsMatchKnobTable) {
  const SchedulerConfig cfg;
  const util::KnobRegistry& knobs = util::KnobRegistry::Default();
  EXPECT_EQ(static_cast<int64_t>(cfg.max_batch),
            knobs.Find("MVTEE_SCHED_MAX_BATCH")->def);
  EXPECT_EQ(cfg.batch_window_us, knobs.Find("MVTEE_SCHED_WINDOW_US")->def);
  EXPECT_EQ(cfg.edf, knobs.Find("MVTEE_SCHED_EDF")->def != 0);
  EXPECT_EQ(static_cast<int64_t>(cfg.tenant_quota_pct),
            knobs.Find("MVTEE_SCHED_QUOTA_PCT")->def);
}

TEST(BatchFormerTest, EdfOrdersByDeadlineThenPriorityThenArrival) {
  BatchFormer former(Immediate(4));
  // Same tenant; ids are arrival order. Deadlines invert it.
  std::vector<SchedEntry> pending = {
      Entry(1, "t", /*deadline=*/9'000),
      Entry(2, "t", /*deadline=*/3'000),
      Entry(3, "t", /*deadline=*/0),           // no deadline: last
      Entry(4, "t", /*deadline=*/3'000, /*priority=*/5),  // tie: priority
  };
  const BatchPlan plan = former.Form(pending, /*now=*/1'000, 4, {});
  ASSERT_EQ(plan.picks.size(), 4u);
  EXPECT_EQ(pending[plan.picks[0]].id, 4u);  // 3000us deadline, prio 5
  EXPECT_EQ(pending[plan.picks[1]].id, 2u);  // 3000us deadline, prio 0
  EXPECT_EQ(pending[plan.picks[2]].id, 1u);  // 9000us deadline
  EXPECT_EQ(pending[plan.picks[3]].id, 3u);  // deadline-free
  // Picks 4 and 2 overtook entry 1 — wait, 1 was picked too; only
  // entries left waiting count. Nothing waits, so no preemptions.
  EXPECT_EQ(plan.preemptions, 0u);
}

TEST(BatchFormerTest, EdfOffFallsBackToPriorityThenArrival) {
  SchedulerConfig cfg = Immediate(4);
  cfg.edf = false;
  BatchFormer former(cfg);
  std::vector<SchedEntry> pending = {
      Entry(1, "t", /*deadline=*/500),
      Entry(2, "t", /*deadline=*/100),  // tighter deadline, ignored
      Entry(3, "t", 0, /*priority=*/9),
  };
  const BatchPlan plan = former.Form(pending, 0, 4, {});
  ASSERT_EQ(plan.picks.size(), 3u);
  EXPECT_EQ(pending[plan.picks[0]].id, 3u);  // priority
  EXPECT_EQ(pending[plan.picks[1]].id, 1u);  // arrival
  EXPECT_EQ(pending[plan.picks[2]].id, 2u);
}

TEST(BatchFormerTest, PreemptionsCountPicksThatOvertookOlderWaiters) {
  BatchFormer former(Immediate(1));
  std::vector<SchedEntry> pending = {
      Entry(1, "t", /*deadline=*/0),
      Entry(2, "t", /*deadline=*/2'000),
  };
  // One slot: EDF picks id 2 past the older id 1.
  const BatchPlan plan = former.Form(pending, 0, 1, {});
  ASSERT_EQ(plan.picks.size(), 1u);
  EXPECT_EQ(pending[plan.picks[0]].id, 2u);
  EXPECT_EQ(plan.preemptions, 1u);
}

TEST(BatchFormerTest, BatchWindowIsWorkConservingAndReportsRecheck) {
  SchedulerConfig cfg = SchedulerConfig::Builder()
                            .MaxBatch(8)
                            .BatchWindowUs(2'000)
                            .Build();
  BatchFormer former(cfg);
  // A lone deadline-free entry with free slots everywhere dispatches
  // immediately: holding it would idle the pipeline for nothing (the
  // window orders scarce slots, it never throttles admission).
  std::vector<SchedEntry> pending = {Entry(1, "t", 0, 0, /*enqueue=*/100)};
  BatchPlan plan = former.Form(pending, /*now=*/200, 8, {});
  ASSERT_EQ(plan.picks.size(), 1u);
  EXPECT_EQ(plan.recheck_at_us, 0);
  // Scarce slot, competition: the tight-deadline arrival wins the only
  // slot; the fresh slack entries left waiting report when their
  // windows expire so the caller re-forms.
  std::vector<SchedEntry> mixed = {
      Entry(10, "t", /*deadline=*/0, 0, /*enqueue=*/5'000),
      Entry(11, "t", /*deadline=*/0, 0, /*enqueue=*/5'100),
      Entry(12, "t", /*deadline=*/6'500, 0, /*enqueue=*/5'200),
  };
  plan = former.Form(mixed, /*now=*/5'300, /*free=*/1, {});
  ASSERT_EQ(plan.picks.size(), 1u);
  EXPECT_EQ(mixed[plan.picks[0]].id, 12u);
  EXPECT_EQ(plan.recheck_at_us, 5'000 + 2'000);
  // A burst of fresh slack work with free slots available: held status
  // never throttles — the slots fill anyway (work-conserving), and the
  // leftovers report their window expiry.
  std::vector<SchedEntry> burst;
  for (uint64_t i = 0; i < 4; ++i) {
    burst.push_back(Entry(20 + i, "t", 0, 0, /*enqueue=*/9'000));
  }
  plan = former.Form(burst, /*now=*/9'001, /*free=*/2, {});
  EXPECT_EQ(plan.picks.size(), 2u);
  EXPECT_EQ(plan.recheck_at_us, 9'000 + 2'000);
}

TEST(BatchFormerTest, TightDeadlineDispatchesInsideWindow) {
  SchedulerConfig cfg =
      SchedulerConfig::Builder().MaxBatch(8).BatchWindowUs(2'000).Build();
  BatchFormer former(cfg);
  // Scarce slot: the entry whose deadline is inside 2x window outranks
  // the OLDER slack entry still inside its window (EDF jump-ahead, one
  // counted preemption).
  std::vector<SchedEntry> pending = {
      Entry(1, "t", /*deadline=*/0, 0, /*enqueue=*/0),
      Entry(2, "t", /*deadline=*/3'000, 0, /*enqueue=*/0),
  };
  BatchPlan plan = former.Form(pending, /*now=*/10, /*free=*/1, {});
  ASSERT_EQ(plan.picks.size(), 1u);
  EXPECT_EQ(pending[plan.picks[0]].id, 2u);
  EXPECT_EQ(plan.preemptions, 1u);
  // With a second slot free the held slack entry rides along instead of
  // leaving the slot idle.
  BatchFormer former2(cfg);
  plan = former2.Form(pending, /*now=*/10, /*free=*/8, {});
  ASSERT_EQ(plan.picks.size(), 2u);
  EXPECT_EQ(pending[plan.picks[0]].id, 2u);
  EXPECT_EQ(pending[plan.picks[1]].id, 1u);
}

TEST(BatchFormerTest, WfqSplitsSlotsEvenlyAcrossEqualTenants) {
  BatchFormer former(Immediate(8));
  std::vector<SchedEntry> pending;
  for (uint64_t i = 0; i < 8; ++i) pending.push_back(Entry(i, "a"));
  for (uint64_t i = 8; i < 16; ++i) pending.push_back(Entry(i, "b"));
  const BatchPlan plan = former.Form(pending, 0, 8, {});
  ASSERT_EQ(plan.picks.size(), 8u);
  size_t a = 0, b = 0;
  for (size_t i : plan.picks) {
    (pending[i].tenant == "a" ? a : b) += 1;
  }
  EXPECT_EQ(a, 4u);
  EXPECT_EQ(b, 4u);
}

TEST(BatchFormerTest, WeightedTenantGetsProportionalShare) {
  SchedulerConfig cfg = SchedulerConfig::Builder()
                            .MaxBatch(8)
                            .BatchWindowUs(0)
                            .TenantWeight("gold", 3)
                            .Build();
  BatchFormer former(cfg);
  std::vector<SchedEntry> pending;
  for (uint64_t i = 0; i < 8; ++i) pending.push_back(Entry(i, "gold"));
  for (uint64_t i = 8; i < 16; ++i) pending.push_back(Entry(i, "iron"));
  const BatchPlan plan = former.Form(pending, 0, 8, {});
  ASSERT_EQ(plan.picks.size(), 8u);
  size_t gold = 0;
  for (size_t i : plan.picks) {
    if (pending[i].tenant == "gold") ++gold;
  }
  EXPECT_EQ(gold, 6u);  // 3:1 split of 8 slots
}

TEST(BatchFormerTest, QuotaCapsOccupancyUntilWorkConservingTopUp) {
  SchedulerConfig cfg = SchedulerConfig::Builder()
                            .MaxBatch(8)
                            .BatchWindowUs(0)
                            .TenantQuotaPct(25)  // 2 of 8 slots
                            .Build();
  BatchFormer former(cfg);
  std::vector<SchedEntry> flood;
  for (uint64_t i = 0; i < 16; ++i) flood.push_back(Entry(i, "flood"));
  flood.push_back(Entry(100, "quiet"));
  // Contended: flood is quota-capped at 2, quiet takes 1, and the
  // work-conserving top-up hands flood the 5 leftover slots.
  const BatchPlan plan = former.Form(flood, 0, 8, {});
  ASSERT_EQ(plan.picks.size(), 8u);
  size_t quiet = 0;
  for (size_t i : plan.picks) {
    if (flood[i].tenant == "quiet") ++quiet;
  }
  EXPECT_EQ(quiet, 1u);
  // A lone tenant is never capped (work conservation).
  BatchFormer lone(cfg);
  std::vector<SchedEntry> only;
  for (uint64_t i = 0; i < 8; ++i) only.push_back(Entry(i, "flood"));
  EXPECT_EQ(lone.Form(only, 0, 8, {}).picks.size(), 8u);
}

TEST(BatchFormerTest, QuotaCountsInflightOccupancy) {
  SchedulerConfig cfg = SchedulerConfig::Builder()
                            .MaxBatch(4)
                            .BatchWindowUs(0)
                            .TenantQuotaPct(50)  // 2 of 4 slots
                            .Build();
  BatchFormer former(cfg);
  std::vector<SchedEntry> pending = {Entry(1, "a"), Entry(2, "a"),
                                     Entry(3, "b")};
  // Tenant a already occupies 2 slots: its quota is spent, so the
  // contended pass admits only b; the top-up then admits a's backlog
  // into the genuinely free remainder.
  std::map<std::string, size_t> inflight{{"a", 2}};
  const BatchPlan plan = former.Form(pending, 0, /*free=*/2, inflight);
  ASSERT_EQ(plan.picks.size(), 2u);
  EXPECT_EQ(pending[plan.picks[0]].tenant, "b");
}

// Property: under adversarial arrivals (one tenant floods every round),
// a quiet tenant's request is admitted within a bounded number of
// formation rounds — WFQ + quotas bound starvation.
TEST(BatchFormerPropertyTest, QuotasBoundStarvationUnderAdversarialFloods) {
  std::mt19937 rng(0xC0FFEE);
  for (int trial = 0; trial < 20; ++trial) {
    SchedulerConfig cfg = SchedulerConfig::Builder()
                              .MaxBatch(4)
                              .BatchWindowUs(0)
                              .TenantQuotaPct(50)
                              .Build();
    BatchFormer former(cfg);
    uint64_t next_id = 0;
    int64_t now = 0;
    std::vector<SchedEntry> queue;
    // Warm the flood's WFQ history with a few uncontended rounds.
    const int warm_rounds = static_cast<int>(rng() % 4);
    for (int r = 0; r < warm_rounds; ++r) {
      for (int i = 0; i < 4; ++i) queue.push_back(Entry(next_id++, "flood"));
      const BatchPlan plan = former.Form(queue, now, 4, {});
      std::set<size_t> picked(plan.picks.begin(), plan.picks.end());
      std::vector<SchedEntry> rest;
      for (size_t i = 0; i < queue.size(); ++i) {
        if (!picked.count(i)) rest.push_back(queue[i]);
      }
      queue.swap(rest);
      now += 1'000;
    }
    // The quiet tenant arrives; the flood keeps flooding. The quiet
    // request must be picked within 2 rounds (it has the minimal
    // virtual time the moment it becomes backlogged).
    const uint64_t quiet_id = next_id++;
    queue.push_back(Entry(quiet_id, "quiet"));
    int rounds_until_admitted = -1;
    for (int r = 0; r < 6; ++r) {
      const uint64_t burst = rng() % 8;
      for (uint64_t i = 0; i < burst; ++i) {
        queue.push_back(Entry(next_id++, "flood"));
      }
      const BatchPlan plan = former.Form(queue, now, 4, {});
      bool admitted = false;
      for (size_t i : plan.picks) {
        if (queue[i].id == quiet_id) admitted = true;
      }
      if (admitted) {
        rounds_until_admitted = r;
        break;
      }
      std::set<size_t> picked(plan.picks.begin(), plan.picks.end());
      std::vector<SchedEntry> rest;
      for (size_t i = 0; i < queue.size(); ++i) {
        if (!picked.count(i)) rest.push_back(queue[i]);
      }
      queue.swap(rest);
      now += 1'000;
    }
    ASSERT_NE(rounds_until_admitted, -1)
        << "trial " << trial << ": quiet tenant starved";
    EXPECT_LE(rounds_until_admitted, 1)
        << "trial " << trial << ": quiet tenant waited too long";
  }
}

// Property: picks never exceed free slots, never duplicate, and always
// reference valid pending indices — for arbitrary arrival patterns.
TEST(BatchFormerPropertyTest, PlansAreWellFormedUnderRandomArrivals) {
  std::mt19937 rng(1234);
  const std::vector<std::string> tenants = {"a", "b", "c"};
  BatchFormer former(SchedulerConfig::Builder()
                         .MaxBatch(8)
                         .BatchWindowUs(1'000)
                         .TenantQuotaPct(40)
                         .Build());
  int64_t now = 0;
  uint64_t id = 0;
  for (int round = 0; round < 200; ++round) {
    std::vector<SchedEntry> pending;
    const size_t n = rng() % 12;
    for (size_t i = 0; i < n; ++i) {
      const int64_t dl = rng() % 3 == 0 ? now + 1 + (rng() % 5'000) : 0;
      pending.push_back(Entry(id++, tenants[rng() % tenants.size()], dl,
                              static_cast<int32_t>(rng() % 3),
                              now - (rng() % 2'000)));
    }
    const size_t free_slots = rng() % 9;
    const BatchPlan plan = former.Form(pending, now, free_slots, {});
    EXPECT_LE(plan.picks.size(), free_slots);
    std::set<size_t> seen;
    for (size_t i : plan.picks) {
      ASSERT_LT(i, pending.size());
      EXPECT_TRUE(seen.insert(i).second) << "duplicate pick";
    }
    now += 500;
  }
}

TEST(SchedulerConfigTest, FromEnvAppliesOnlyPresentKnobs) {
  // Absent env: base passes through untouched.
  unsetenv("MVTEE_SCHED_MAX_BATCH");
  unsetenv("MVTEE_SCHED_WINDOW_US");
  unsetenv("MVTEE_SCHED_EDF");
  unsetenv("MVTEE_SCHED_QUOTA_PCT");
  SchedulerConfig base = SchedulerConfig::Builder()
                             .MaxBatch(3)
                             .BatchWindowUs(777)
                             .Build();
  SchedulerConfig out = SchedulerConfig::FromEnv(base);
  EXPECT_EQ(out.max_batch, 3u);
  EXPECT_EQ(out.batch_window_us, 777);
  // Present env overrides.
  setenv("MVTEE_SCHED_MAX_BATCH", "16", 1);
  setenv("MVTEE_SCHED_EDF", "0", 1);
  out = SchedulerConfig::FromEnv(base);
  EXPECT_EQ(out.max_batch, 16u);
  EXPECT_FALSE(out.edf);
  EXPECT_EQ(out.batch_window_us, 777);  // still base
  // Garbage falls back to the knob default (strict resolution).
  setenv("MVTEE_SCHED_MAX_BATCH", "lots", 1);
  out = SchedulerConfig::FromEnv(base);
  EXPECT_EQ(static_cast<int64_t>(out.max_batch),
            util::KnobRegistry::Default().Find("MVTEE_SCHED_MAX_BATCH")->def);
  unsetenv("MVTEE_SCHED_MAX_BATCH");
  unsetenv("MVTEE_SCHED_EDF");
}

TEST(KnobRegistryTest, UnknownMvteeVarsAreDetected)
{
  const char* envp[] = {"MVTEE_THERADS=4", "MVTEE_SCHED_EDF=1",
                        "PATH=/bin", "MVTEE_BOGUS=1", nullptr};
  const std::vector<std::string> unknown =
      util::KnobRegistry::Default().UnknownIn(envp);
  ASSERT_EQ(unknown.size(), 2u);
  EXPECT_EQ(unknown[0], "MVTEE_THERADS");
  EXPECT_EQ(unknown[1], "MVTEE_BOGUS");
}

}  // namespace
}  // namespace mvtee::core
