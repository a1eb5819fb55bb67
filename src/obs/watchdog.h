// Stall watchdog (DESIGN.md §12): a background sentinel over the
// monitor's event-loop heartbeat and the service backpressure gauges.
//
// The monitor bumps `monitor.loop_heartbeat` once per event-loop (and
// request-loop) iteration. The watchdog samples it every
// poll_interval_us together with the admission-queue depth and the
// inflight gauge, and raises two alarm classes:
//
//   stall — the heartbeat has been silent for at least
//           stall_threshold_us while work is pending (queue depth or
//           inflight > 0). Idle silence is healthy: an empty service
//           parks in cv.wait, and an idle sample restarts the silence
//           clock, so the first busy sample after an idle spell is not
//           a stall.
//   queue — admission-queue depth at/above queue_depth_alarm.
//
// Every alarm increments its watchdog.*_total counter on the rising
// edge and holds /healthz unhealthy while active; a *sustained stall*
// additionally dumps a FlightRecorder evidence bundle (trigger
// "watchdog-stall", once per stall episode) so the wedged state leaves
// the same forensic artifact a divergence would. An episode ends, and
// re-arms the bundle, when the heartbeat advances or the service goes
// idle: a request released from a stall can complete within the
// iteration that was stuck, and nothing bumps the heartbeat after it.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace mvtee::obs {

struct WatchdogOptions {
  int64_t poll_interval_us = 20'000;
  // Sustained event-loop silence (with work pending) that flips
  // /healthz and dumps the stall bundle.
  int64_t stall_threshold_us = 2'000'000;
  // Admission-queue depth alarm; 0 disables.
  int64_t queue_depth_alarm = 48;

  // Applies the MVTEE_WATCHDOG_{POLL_MS,STALL_MS,QUEUE_ALARM} env knobs
  // on top of `base`. Values are validated strictly
  // (util::ResolveKnob); an invalid value keeps the base with a logged
  // warning.
  static WatchdogOptions FromEnv(WatchdogOptions base);
  static WatchdogOptions FromEnv() { return FromEnv(WatchdogOptions{}); }
};

class StallWatchdog {
 public:
  // Point-in-time health verdict, served by /healthz.
  struct Health {
    bool healthy = true;
    std::string reason;  // empty when healthy
    uint64_t heartbeat = 0;
    // Since the last heartbeat advance or idle sample: the silence
    // clock runs only while work is pending.
    int64_t silent_for_us = 0;
    int64_t queue_depth = 0;
    int64_t inflight = 0;
    uint64_t stall_alarms = 0;  // episodes since Start
  };

  // Observes `registry` (where the monitor's heartbeat and gauges
  // live); stall bundles go through `recorder`. Does not start the
  // sampling thread — call Start().
  explicit StallWatchdog(Registry& registry,
                         WatchdogOptions options = WatchdogOptions{},
                         FlightRecorder* recorder = &FlightRecorder::Default());
  ~StallWatchdog();

  void Start();
  void Stop();  // joins the sampling thread; idempotent

  Health health() const;

  // Runs one sampling step inline (no thread needed) — test seam, also
  // exercised by the thread loop.
  void Evaluate(int64_t now_us);

 private:
  Registry& registry_;
  WatchdogOptions options_;
  FlightRecorder* recorder_;

  // Sampled instruments (pointer-stable for the registry's lifetime).
  Counter* heartbeat_ = nullptr;          // monitor.loop_heartbeat
  Gauge* queue_depth_ = nullptr;          // service.admission_queue_depth
  Gauge* inflight_ = nullptr;             // service.inflight
  // Published instruments.
  Counter* ticks_ = nullptr;              // watchdog.ticks_total
  Counter* stall_alarms_ = nullptr;       // watchdog.stall_alarms_total
  Counter* queue_alarms_ = nullptr;       // watchdog.queue_alarms_total
  Counter* stall_bundles_ = nullptr;      // watchdog.stall_bundles_total
  Gauge* healthy_gauge_ = nullptr;        // watchdog.healthy (1|0)

  void Loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool running_ = false;
  bool stop_ = false;
  std::thread thread_;

  // Evaluation state (under mu_).
  uint64_t last_heartbeat_ = 0;
  int64_t last_advance_us_ = 0;  // wall time the heartbeat last moved
  bool stalled_ = false;         // inside a stall episode
  bool bundle_dumped_ = false;   // this episode already left evidence
  bool queue_alarmed_ = false;
  Health health_{};
};

}  // namespace mvtee::obs
