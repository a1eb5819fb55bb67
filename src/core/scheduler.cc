#include "core/scheduler.h"

#include <algorithm>
#include <cstdlib>

#include "util/knobs.h"

namespace mvtee::core {

SchedulerConfig::Builder& SchedulerConfig::Builder::MaxBatch(size_t n) {
  config_.max_batch = std::max<size_t>(1, n);
  return *this;
}

SchedulerConfig::Builder& SchedulerConfig::Builder::BatchWindowUs(
    int64_t us) {
  config_.batch_window_us = std::max<int64_t>(0, us);
  return *this;
}

SchedulerConfig::Builder& SchedulerConfig::Builder::TenantQuotaPct(int pct) {
  config_.tenant_quota_pct = std::clamp(pct, 1, 100);
  return *this;
}

SchedulerConfig::Builder& SchedulerConfig::Builder::Edf(bool on) {
  config_.edf = on;
  return *this;
}

SchedulerConfig::Builder& SchedulerConfig::Builder::TenantWeight(
    const std::string& tenant, uint32_t weight) {
  config_.tenant_weights[tenant] = std::max<uint32_t>(1, weight);
  return *this;
}

SchedulerConfig SchedulerConfig::FromEnv(SchedulerConfig base) {
  const util::KnobRegistry& knobs = util::KnobRegistry::Default();
  if (std::getenv("MVTEE_SCHED_MAX_BATCH") != nullptr) {
    base.max_batch =
        static_cast<size_t>(knobs.Int("MVTEE_SCHED_MAX_BATCH"));
  }
  if (std::getenv("MVTEE_SCHED_WINDOW_US") != nullptr) {
    base.batch_window_us = knobs.Int("MVTEE_SCHED_WINDOW_US");
  }
  if (std::getenv("MVTEE_SCHED_EDF") != nullptr) {
    base.edf = knobs.Int("MVTEE_SCHED_EDF") != 0;
  }
  if (std::getenv("MVTEE_SCHED_QUOTA_PCT") != nullptr) {
    base.tenant_quota_pct =
        static_cast<int>(knobs.Int("MVTEE_SCHED_QUOTA_PCT"));
  }
  return base;
}

BatchFormer::BatchFormer(SchedulerConfig config)
    : config_(std::move(config)) {}

double BatchFormer::WeightOf(const std::string& tenant) const {
  auto it = config_.tenant_weights.find(tenant);
  if (it == config_.tenant_weights.end()) return 1.0;
  return static_cast<double>(std::max<uint32_t>(1, it->second));
}

void BatchFormer::ResetTenant(const std::string& tenant) {
  vtime_.erase(tenant);
}

BatchPlan BatchFormer::Form(
    const std::vector<SchedEntry>& pending, int64_t now_us,
    size_t free_slots,
    const std::map<std::string, size_t>& inflight_per_tenant) {
  BatchPlan plan;
  if (pending.empty() || free_slots == 0) return plan;

  // Dispatch order within one tenant: EDF (deadlined before
  // deadline-free, earliest first), then priority, then arrival.
  // Without EDF: priority, then arrival.
  auto before = [&](const SchedEntry& a, const SchedEntry& b) {
    if (config_.edf) {
      const bool da = a.deadline_abs_us != 0, db = b.deadline_abs_us != 0;
      if (da != db) return da;
      if (da && a.deadline_abs_us != b.deadline_abs_us) {
        return a.deadline_abs_us < b.deadline_abs_us;
      }
    }
    if (a.priority != b.priority) return a.priority > b.priority;
    return a.id < b.id;
  };

  // Batch window: an entry is "ready" once its window elapsed or its
  // deadline slack is inside the window (a hold could miss it). The
  // window is an ORDERING HORIZON, not a throttle: ready entries
  // outrank window-held ones for scarce slots (so a late tight-deadline
  // arrival jumps ahead of fresh slack work), but held entries still
  // fill any slot that would otherwise idle — holding work while the
  // pipeline has free capacity only burns goodput.
  auto is_ready = [&](const SchedEntry& e) {
    if (config_.batch_window_us == 0) return true;
    if (now_us - e.enqueue_us >= config_.batch_window_us) return true;
    return e.deadline_abs_us != 0 &&
           e.deadline_abs_us - now_us <= 2 * config_.batch_window_us;
  };

  // Per-tenant candidate lists (dispatch order), ready before held.
  std::map<std::string, std::vector<size_t>> ready, held;
  for (size_t i = 0; i < pending.size(); ++i) {
    (is_ready(pending[i]) ? ready : held)[pending[i].tenant].push_back(i);
  }
  auto prep = [&](std::map<std::string, std::vector<size_t>>& group) {
    for (auto& [tenant, idx] : group) {
      std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
        return before(pending[a], pending[b]);
      });
      // A tenant first seen (or seen again after ResetTenant) starts at
      // the current virtual clock — no banked credit from idle time.
      auto [it, inserted] = vtime_.try_emplace(tenant, vclock_);
      if (!inserted && it->second < vclock_) it->second = vclock_;
    }
  };
  prep(ready);
  prep(held);

  // Quota: slots one tenant may OCCUPY (inflight + this plan's picks)
  // while the fill is still contended. Leftover slots are granted
  // quota-free below so a lone tenant can use the whole pipeline.
  const size_t quota_slots = std::max<size_t>(
      1, config_.max_batch * static_cast<size_t>(config_.tenant_quota_pct) /
             100);
  std::map<std::string, size_t> occupancy = inflight_per_tenant;

  // WFQ fill: every slot goes to the lowest-vtime tenant with work
  // (ties: the tenant whose head entry dispatches first, then name —
  // deterministic). Per group, pass 1 respects the quota and pass 2 is
  // the work-conserving top-up; the held group only sees slots the
  // ready group left over.
  auto fill = [&](const std::map<std::string, std::vector<size_t>>& group,
                  std::map<std::string, size_t>& cursor,
                  bool respect_quota) {
    while (plan.picks.size() < free_slots) {
      const std::string* best = nullptr;
      for (const auto& [tenant, idx] : group) {
        if (cursor[tenant] >= idx.size()) continue;
        if (respect_quota && occupancy[tenant] >= quota_slots) continue;
        if (best == nullptr) {
          best = &tenant;
          continue;
        }
        const double vt = vtime_[tenant], vb = vtime_[*best];
        if (vt < vb) {
          best = &tenant;
        } else if (vt == vb) {
          const SchedEntry& ct = pending[idx[cursor[tenant]]];
          const SchedEntry& cb =
              pending[group.at(*best)[cursor[*best]]];
          if (before(ct, cb)) best = &tenant;
        }
      }
      if (best == nullptr) break;
      const std::string tenant = *best;
      plan.picks.push_back(group.at(tenant)[cursor[tenant]++]);
      ++occupancy[tenant];
      vclock_ = std::max(vclock_, vtime_[tenant]);
      vtime_[tenant] += 1.0 / WeightOf(tenant);
    }
  };
  std::map<std::string, size_t> ready_cursor, held_cursor;
  fill(ready, ready_cursor, /*respect_quota=*/true);
  fill(ready, ready_cursor, /*respect_quota=*/false);
  fill(held, held_cursor, /*respect_quota=*/true);
  fill(held, held_cursor, /*respect_quota=*/false);

  std::vector<char> picked(pending.size(), 0);
  for (size_t i : plan.picks) picked[i] = 1;

  // Held entries that did NOT get a leftover slot re-rank when their
  // window expires; tell the caller when to re-form.
  for (const auto& [tenant, idx] : held) {
    for (size_t i : idx) {
      if (picked[i]) continue;
      const int64_t ready_at =
          pending[i].enqueue_us + config_.batch_window_us;
      if (plan.recheck_at_us == 0 || ready_at < plan.recheck_at_us) {
        plan.recheck_at_us = ready_at;
      }
    }
  }

  // Queue-order preemptions: a pick that leaves an older entry waiting
  // jumped the FIFO line (EDF, priority or fairness did it).
  uint64_t oldest_unpicked = UINT64_MAX;
  for (size_t i = 0; i < pending.size(); ++i) {
    if (!picked[i]) oldest_unpicked = std::min(oldest_unpicked, pending[i].id);
  }
  for (size_t i : plan.picks) {
    if (pending[i].id > oldest_unpicked) ++plan.preemptions;
  }
  return plan;
}

}  // namespace mvtee::core
