// Batch-formation policy for the monitor's continuous-batching request
// loop (DESIGN.md §13).
//
// PR 6's request loop drained the admission queue one coalesced pass at
// a time: a group was popped, pushed through the MVX pipeline, and only
// when the WHOLE group finished was the next group formed. Under mixed
// open-loop load that full-queue barrier collapses goodput. The
// scheduler replaces it:
//
//   - continuous batching: a request is admitted into the pipeline as
//     soon as a slot frees, up to max_batch concurrent slots — no
//     drain barrier between "groups";
//   - weighted fair queuing across tenants: each slot goes to the
//     backlogged tenant with the lowest virtual time (vtime advances by
//     1/weight per admitted request), so a flooding tenant cannot
//     starve a quiet one — a newly backlogged tenant wins the very
//     next free slot;
//   - per-tenant quotas: at most quota_pct% of the max_batch slots are
//     granted to one tenant while others are backlogged (the fill is
//     work-conserving: leftover slots go to whoever has work);
//   - earliest-deadline-first: within a tenant, requests dispatch in
//     deadline order (ties by priority then arrival), which preempts
//     the ADMISSION QUEUE order only — a running MVX stage is never
//     preempted;
//   - batch window: for up to batch_window_us a fresh deadline-slack
//     request ranks BEHIND tight-deadline or aged work when slots are
//     scarce, so a late tight-deadline arrival can still jump ahead.
//     The window is work-conserving: a held request is still granted
//     any slot that would otherwise idle — it never throttles
//     admission, it only orders it.
//
// BatchFormer is deterministic and clock-free: every decision is a pure
// function of the pending entries, the caller-supplied now_us, and the
// accumulated WFQ virtual times — tests drive it with synthetic clocks.
// The monitor owns queue locking, expiry rejection and the MVX
// pipeline; the former only picks.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mvtee::core {

// Scheduler half of the (split) ServiceConfig. Constructed directly or
// via the fluent Builder:
//
//   auto cfg = SchedulerConfig::Builder()
//                  .MaxBatch(16)
//                  .BatchWindowUs(500)
//                  .TenantQuotaPct(50)
//                  .Edf(true)
//                  .TenantWeight("gold", 3)
//                  .Build();
struct SchedulerConfig {
  // Max requests concurrently in the MVX pipeline (one request = one
  // pipeline slot). Replaces ServiceConfig::max_inflight.
  size_t max_batch = 8;
  // EDF reordering horizon: for this long after arrival a deadline-
  // slack request ranks behind tight-deadline or window-expired work
  // when slots are scarce. Work-conserving — a slot that would
  // otherwise idle is still granted to held work immediately. 0 = pure
  // arrival/EDF ranking.
  int64_t batch_window_us = 2000;
  // Per-tenant share of the max_batch slots while other tenants are
  // backlogged, percent. 100 = uncapped. The fill is work-conserving:
  // slots left over after every backlogged tenant took its share are
  // handed out by WFQ order regardless of quota.
  int tenant_quota_pct = 100;
  // Earliest-deadline-first ordering (false = arrival order within a
  // tenant; cross-tenant WFQ applies either way).
  bool edf = true;
  // WFQ weight per tenant (default 1). A weight-3 tenant receives 3x
  // the slots of a weight-1 tenant under contention.
  std::map<std::string, uint32_t> tenant_weights;

  class Builder;  // fluent construction, defined below

  // Applies the MVTEE_SCHED_* knobs (strict KnobRegistry resolution)
  // on top of `base`.
  static SchedulerConfig FromEnv(SchedulerConfig base);
};

class SchedulerConfig::Builder {
 public:
  Builder& MaxBatch(size_t n);
  Builder& BatchWindowUs(int64_t us);
  Builder& TenantQuotaPct(int pct);
  Builder& Edf(bool on);
  Builder& TenantWeight(const std::string& tenant, uint32_t weight);
  SchedulerConfig Build() const { return config_; }

 private:
  SchedulerConfig config_;
};

// One schedulable request, queue-side view. `id` is a monotone arrival
// ticket: it defines FIFO order and is what EDF "preempts".
struct SchedEntry {
  uint64_t id = 0;
  std::string tenant;           // "" schedules as one shared tenant
  int32_t priority = 0;         // higher dispatches earlier, after EDF
  int64_t deadline_abs_us = 0;  // absolute wall clock; 0 = none
  int64_t enqueue_us = 0;
};

// One formation decision.
struct BatchPlan {
  // Indices into the `pending` span passed to Form, in dispatch order.
  std::vector<size_t> picks;
  // When `picks` was limited by the batch window: the absolute time at
  // which held entries become dispatchable (0 = nothing held).
  int64_t recheck_at_us = 0;
  // Picks that overtook an older (smaller-id) entry left waiting —
  // EDF/priority/WFQ queue-order preemptions, for scheduler.preemptions.
  uint64_t preemptions = 0;
};

class BatchFormer {
 public:
  explicit BatchFormer(SchedulerConfig config);

  const SchedulerConfig& config() const { return config_; }

  // Picks up to free_slots entries from `pending` to admit at now_us.
  // `inflight_per_tenant` holds the pipeline occupancy the quota counts
  // against. Deterministic; no wall-clock reads. Expired entries must
  // be filtered out by the caller beforehand.
  BatchPlan Form(const std::vector<SchedEntry>& pending, int64_t now_us,
                 size_t free_slots,
                 const std::map<std::string, size_t>& inflight_per_tenant);

  // Forgets a tenant's WFQ virtual time (e.g. after it idles away).
  void ResetTenant(const std::string& tenant);

 private:
  double WeightOf(const std::string& tenant) const;

  SchedulerConfig config_;
  // WFQ virtual times: vtime_[t] advances by 1/weight per slot granted
  // to t; the next slot goes to the backlogged tenant with the lowest
  // vtime. vclock_ tracks the service's virtual progress so a newly
  // arrived tenant starts at "now" instead of cashing in idle credit.
  std::map<std::string, double> vtime_;
  double vclock_ = 0.0;
};

}  // namespace mvtee::core
