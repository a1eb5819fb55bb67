#include "obs/watchdog.h"

#include <chrono>
#include <cstdlib>
#include <string>

#include "util/clock.h"
#include "util/knobs.h"
#include "util/logging.h"

namespace mvtee::obs {

WatchdogOptions WatchdogOptions::FromEnv(WatchdogOptions base) {
  base.poll_interval_us =
      util::ResolveKnob("MVTEE_WATCHDOG_POLL_MS",
                        std::getenv("MVTEE_WATCHDOG_POLL_MS"), 1, 60'000,
                        base.poll_interval_us / 1000) *
      1000;
  base.stall_threshold_us =
      util::ResolveKnob("MVTEE_WATCHDOG_STALL_MS",
                        std::getenv("MVTEE_WATCHDOG_STALL_MS"), 1, 3'600'000,
                        base.stall_threshold_us / 1000) *
      1000;
  base.queue_depth_alarm = util::ResolveKnob(
      "MVTEE_WATCHDOG_QUEUE_ALARM", std::getenv("MVTEE_WATCHDOG_QUEUE_ALARM"),
      0, 1'000'000, base.queue_depth_alarm);
  return base;
}

StallWatchdog::StallWatchdog(Registry& registry, WatchdogOptions options,
                             FlightRecorder* recorder)
    : registry_(registry), options_(options), recorder_(recorder) {
  heartbeat_ = &registry_.GetCounter("monitor.loop_heartbeat");
  queue_depth_ = &registry_.GetGauge("service.admission_queue_depth");
  inflight_ = &registry_.GetGauge("service.inflight");
  ticks_ = &registry_.GetCounter("watchdog.ticks_total");
  stall_alarms_ = &registry_.GetCounter("watchdog.stall_alarms_total");
  queue_alarms_ = &registry_.GetCounter("watchdog.queue_alarms_total");
  stall_bundles_ = &registry_.GetCounter("watchdog.stall_bundles_total");
  healthy_gauge_ = &registry_.GetGauge("watchdog.healthy");
  healthy_gauge_->Set(1);
  last_heartbeat_ = heartbeat_->value();
  last_advance_us_ = util::NowMicros();
}

StallWatchdog::~StallWatchdog() { Stop(); }

void StallWatchdog::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  stop_ = false;
  running_ = true;
  thread_ = std::thread(&StallWatchdog::Loop, this);
}

void StallWatchdog::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    running_ = false;
  }
}

void StallWatchdog::Loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock,
                   std::chrono::microseconds(options_.poll_interval_us),
                   [this] { return stop_; });
      if (stop_) return;
    }
    Evaluate(util::NowMicros());
  }
}

StallWatchdog::Health StallWatchdog::health() const {
  std::lock_guard<std::mutex> lock(mu_);
  return health_;
}

void StallWatchdog::Evaluate(int64_t now_us) {
  const uint64_t beat = heartbeat_->value();
  const int64_t queue = queue_depth_->value();
  const int64_t inflight = inflight_->value();

  std::string dump_reason;  // non-empty: dump a stall bundle (outside mu_)
  {
    std::lock_guard<std::mutex> lock(mu_);
    ticks_->Add(1);
    if (beat != last_heartbeat_) {
      last_heartbeat_ = beat;
      last_advance_us_ = now_us;
      // The loop moved again: the episode ends and re-arms the bundle.
      stalled_ = false;
      bundle_dumped_ = false;
    }
    const bool busy = queue > 0 || inflight > 0;
    if (!busy) {
      // Idle silence is healthy: the episode ends and re-arms too, and
      // the silence clock restarts, so it runs only while work is
      // pending.
      last_advance_us_ = now_us;
      stalled_ = false;
      bundle_dumped_ = false;
    }
    const int64_t silent_us = now_us - last_advance_us_;
    const bool stall_now = busy && silent_us >= options_.stall_threshold_us;
    if (stall_now && !stalled_) {
      stalled_ = true;
      stall_alarms_->Add(1);
    }
    const bool queue_now = options_.queue_depth_alarm > 0 &&
                           queue >= options_.queue_depth_alarm;
    if (queue_now && !queue_alarmed_) queue_alarms_->Add(1);
    queue_alarmed_ = queue_now;

    health_.healthy = !stalled_ && !queue_now;
    health_.heartbeat = beat;
    health_.silent_for_us = silent_us;
    health_.queue_depth = queue;
    health_.inflight = inflight;
    health_.stall_alarms = stall_alarms_->value();
    if (health_.healthy) {
      health_.reason.clear();
    } else if (stalled_) {
      health_.reason = "event loop silent for " +
                       std::to_string(silent_us) + "us with " +
                       std::to_string(queue) + " queued / " +
                       std::to_string(inflight) + " inflight";
    } else {
      health_.reason = "admission queue depth " + std::to_string(queue) +
                       " >= alarm " +
                       std::to_string(options_.queue_depth_alarm);
    }
    healthy_gauge_->Set(health_.healthy ? 1 : 0);
    if (stalled_ && !bundle_dumped_) {
      bundle_dumped_ = true;
      dump_reason = health_.reason;
    }
  }
  if (!dump_reason.empty()) {
    // Outside mu_: DumpBundle merges traces and snapshots the registry,
    // which must not serialize against health() readers. The sustained
    // stall leaves the same forensic artifact a divergence would.
    auto dumped = recorder_->DumpBundle("watchdog-stall", /*trace_id=*/0,
                                        dump_reason);
    if (dumped.ok()) {
      stall_bundles_->Add(1);
      MVTEE_WLOG << "watchdog stall bundle: " << *dumped << " ("
                 << dump_reason << ")";
    } else {
      MVTEE_WLOG << "watchdog stall (" << dump_reason
                 << "); no evidence bundle: "
                 << dumped.status().ToString();
    }
  }
}

}  // namespace mvtee::obs
