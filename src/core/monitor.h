// The MVTEE monitor (paper §4.3, §5.2): security manager and dataflow
// hub of the runtime system.
//
// Responsibilities implemented here:
//  - attestable variant initialization and updates (Fig. 6): attest each
//    init-variant, assign its key + identity, verify the locked
//    second-stage manifest evidence, bind the connection;
//  - input distribution, checkpoint synchronization and output
//    replication across the partition pipeline;
//  - the slow/fast path design (Fig. 7): stages with several active
//    variants take the slow path (checkpoint sync + vote at the
//    monitor); single-variant stages take the fast path, optionally with
//    direct variant-to-variant channels between two single-variant
//    stages that bypass the monitor (`direct_fastpath`);
//  - selective MVX (vertical/horizontal scaling of the MVX config);
//  - sync and asynchronous cross-validation execution modes (Fig. 8);
//  - a long-lived request loop that pipelines admitted requests and
//    cross-checks every async straggler within a bounded lag;
//  - divergence reaction (ReactionPolicy: abort, continue-with-winner,
//    or quarantine + attested re-bootstrap via the lifecycle
//    supervisor) and statistics.
#pragma once

#include <algorithm>
#include <atomic>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/consistency.h"
#include "core/messages.h"
#include "core/offline.h"
#include "core/reaction_policy.h"
#include "core/scheduler.h"
#include "core/supervisor.h"
#include "core/variant_host.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/tensor.h"
#include "transport/msg_channel.h"
#include "util/status.h"

namespace mvtee::core {

enum class ExecMode : uint8_t { kSync = 0, kAsync };

struct MonitorConfig {
  CheckPolicy check = CheckPolicy::Cosine(0.995);
  VotePolicy vote = VotePolicy::kUnanimous;
  ExecMode mode = ExecMode::kSync;
  // How the monitor reacts to divergence and variant failure: abort the
  // run, continue with the winner, or quarantine + re-bootstrap the
  // dissenting variant (full recovery loop — see reaction_policy.h).
  ReactionPolicy reaction = ReactionPolicy::Abort();
  // A fast-path stage streams its outputs to a single-variant next
  // partition over a dedicated secure channel instead of via the
  // monitor. The monitor still feeds every MVX panel.
  bool direct_fastpath = false;
  // Force the slow path on single-variant stages: the monitor suspends
  // at every checkpoint and evaluates the outputs against predefined
  // rules (finiteness / shape sanity) before forwarding. Used by the
  // checkpointing-overhead ablation (Fig. 10); requires monitor-mediated
  // routing (direct_fastpath = false).
  bool verify_fast_path = false;
  int64_t recv_timeout_us = 30'000'000;
  // Fault-injection seam: called once per event-loop iteration, right
  // after the monitor.loop_heartbeat increment. A test hook that blocks
  // here simulates a wedged event loop (the stall the watchdog exists
  // to catch). Null in production.
  std::function<void()> loop_tick_hook;
};

// Which pool variants the monitor activates per stage ("MVX
// configuration": vertical scaling = stages with >1 id, horizontal
// scaling = number of ids per stage).
struct MvxSelection {
  std::vector<std::vector<std::string>> stage_variant_ids;

  // Convenience: first `variants_per_stage` pool variants per stage.
  static MvxSelection Uniform(const OfflineBundle& bundle,
                              int variants_per_stage);
  // `counts[i]` variants for stage i (1 = fast path only).
  static MvxSelection PerStage(const OfflineBundle& bundle,
                               const std::vector<int>& counts);

  // Fluent construction for selective-MVX tuning:
  //
  //   auto sel = MvxSelection::Builder()
  //                  .Uniform(1)                    // default per stage
  //                  .Stage(2, 3)                   // 3-variant panel
  //                  .Stage(0, {"s0.v1", "s0.v3"})  // named variants
  //                  .Build(bundle);
  //
  // Unspecified stages take the Uniform() default (1 when unset);
  // counts are clamped to the pool size like PerStage().
  class Builder {
   public:
    // Explicit variant ids for one stage (overrides any count).
    Builder& Stage(int32_t stage, std::vector<std::string> ids);
    // Panel size for one stage.
    Builder& Stage(int32_t stage, int count);
    // Default panel size for every stage not named explicitly.
    Builder& Uniform(int variants_per_stage);

    MvxSelection Build(const OfflineBundle& bundle) const;

   private:
    int default_count_ = 1;
    std::map<int32_t, std::vector<std::string>> explicit_ids_;
    std::map<int32_t, int> counts_;
  };
};

// Count, sum and range of virtual-time batch latencies.
struct LatencySummary {
  uint64_t count = 0;
  int64_t sum_us = 0;
  int64_t min_us = 0;
  int64_t max_us = 0;

  void Add(int64_t us) {
    min_us = count == 0 ? us : std::min(min_us, us);
    max_us = count == 0 ? us : std::max(max_us, us);
    sum_us += us;
    ++count;
  }
};

struct RunStats {
  int64_t wall_us = 0;
  // Every batch completed since the last consume. A batch's latency is
  // vcomplete - max(admit_vus, previous completion): per-batch latency
  // when batches run one at a time, the inter-completion interval when
  // they are admitted together.
  LatencySummary batch_latency_us;
  uint64_t checkpoints_evaluated = 0;  // slow-path votes
  uint64_t fast_path_forwards = 0;     // unverified stage traversals
  uint64_t divergences = 0;            // dissent observed at a checkpoint
  uint64_t late_divergences = 0;       // async straggler dissent
  uint64_t variant_failures = 0;       // crashed / error results
  uint64_t bytes_sent = 0;             // monitor -> variants (wire)

  double ThroughputPerSec() const {
    if (wall_us <= 0 || batch_latency_us.count == 0) return 0.0;
    return static_cast<double>(batch_latency_us.count) * 1e6 /
           static_cast<double>(wall_us);
  }
  double MeanLatencyUs() const {
    if (batch_latency_us.count == 0) return 0.0;
    return static_cast<double>(batch_latency_us.sum_us) /
           static_cast<double>(batch_latency_us.count);
  }
};

// ---- long-lived request API (service front end, DESIGN.md §11) ----
//
// The monitor's execution engine is driven by a single service loop:
// clients open Sessions and Submit individual requests; the loop admits
// queued requests into free pipeline slots. RunBatches (below) is the
// batch-vector helper tests and benches build on it.

// One inference request: a single model-input batch plus scheduling
// metadata (tenant / priority / model routing) and an optional
// relative wall-clock budget.
struct InferenceRequest {
  std::vector<tensor::Tensor> inputs;
  // Microseconds from submission; 0 = no deadline (end to end: the
  // request is never expired). Negative values are rejected at Submit
  // with kAdmissionRejected — an already-expired deadline must not
  // enter the pipeline. A request whose deadline passes while it waits
  // in the admission queue fails with kDeadlineExceeded; one that
  // completes after its deadline is still answered, but counted in
  // scheduler.deadline_misses_total.
  int64_t deadline_us = 0;
  // Tenant label for fair queuing and per-tenant quotas. A plaintext
  // scheduling hint: it never enters the attested channel's AAD and
  // grants no authority (DESIGN.md §13). "" schedules as one shared
  // tenant.
  std::string tenant = {};
  // Higher dispatches earlier among equal-deadline work.
  int32_t priority = 0;
  // Model-zoo routing key for multi-model front ends
  // (service::Scheduler); ignored by a single-model Monitor.
  std::string model = {};
};

struct InferenceResponse {
  util::Status status;
  std::vector<tensor::Tensor> outputs;
  uint64_t seq = 0;        // the request's position in its session
  int64_t latency_us = 0;  // submission -> completion, wall clock
  // Server-side distributed-trace id of the batch this request rode in
  // (0 when it never reached the pipeline). Not part of the wire reply;
  // the service front end uses it to stamp timelines and logs.
  uint64_t trace_id = 0;
};

// Configuration of the monitor's request loop, split into front-end
// admission settings (here) and the batch-formation policy
// (SchedulerConfig — continuous batching, WFQ/quota fairness, EDF;
// see core/scheduler.h). The former ServiceConfig::max_inflight is
// now SchedulerConfig::max_batch.
struct ServiceConfig {
  // Submissions queued beyond this bound are rejected with
  // kAdmissionRejected (bounded backpressure; counted in
  // service.rejected_total).
  size_t admission_queue_max = 64;
  // Batch formation: max concurrent pipeline slots (also each async
  // panel member's lag budget), batch window, per-tenant quota/weights,
  // EDF.
  SchedulerConfig scheduler;
};

namespace internal {
struct ServiceState;
}  // namespace internal

// A client-facing request handle bound to one session: Submit stamps
// each request with the session's next application-level sequence
// number (the per-session sequence space layered above the secure
// channel's per-record seq||header AAD binding) and returns a future
// that resolves when the request clears the pipeline. A Session is
// driven from one thread at a time; distinct Sessions are independent
// and may submit concurrently.
class Session {
 public:
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Stamps the next sequence number and submits. Fails fast (no future)
  // with kAdmissionRejected when the queue is full, kUnavailable when
  // the service is stopped, kReplayDetected once the session aborted.
  util::Result<std::future<InferenceResponse>> Submit(
      InferenceRequest request);

  // Wire-facing form: the caller (the service front end decoding
  // kSessionSubmit frames) supplies the sequence number. A repeat or
  // gap aborts the whole session with kReplayDetected — a replayed
  // Submit frame must not yield a second execution.
  util::Result<std::future<InferenceResponse>> SubmitSequenced(
      InferenceRequest request, uint64_t seq);

  // Unregisters the session (service.sessions_active drops). Queued
  // requests still complete; further Submits fail. Idempotent.
  void Close();

  uint64_t id() const { return id_; }

 private:
  friend class Monitor;
  Session(std::shared_ptr<internal::ServiceState> state, uint64_t id);

  std::shared_ptr<internal::ServiceState> state_;
  uint64_t id_ = 0;
  uint64_t next_seq_ = 0;
};

class Monitor {
 public:
  // The monitor runs inside its own (small, integrity-protected) TEE.
  static util::Result<std::unique_ptr<Monitor>> Create(
      tee::SimulatedCpu* cpu, MonitorConfig config,
      tee::TeeType tee_type = tee::TeeType::kSgx1);

  ~Monitor();

  // Fig. 6 steps 4-7: spawn, attest, key, bind every selected variant;
  // then configure fast-path routing per MonitorConfig.
  util::Status Initialize(const OfflineBundle& bundle,
                          const MvxSelection& selection, VariantHost& host);

  // Partial update (§4.3): tears down one stage's variants and rebinds a
  // new selection for it; bindings are appended for audit. Not available
  // with direct_fastpath routing (pipes would need re-brokering).
  util::Status UpdateStage(const OfflineBundle& bundle, VariantHost& host,
                           int32_t stage,
                           const std::vector<std::string>& variant_ids);

  // Full update: reinitialize every stage from a (possibly new) bundle.
  util::Status FullUpdate(const OfflineBundle& bundle,
                          const MvxSelection& selection, VariantHost& host);

  // Starts the long-lived request loop (idempotent; requires an
  // initialized monitor). The MVTEE_SCHED_* knobs apply on top of
  // `config.scheduler`.
  util::Status StartService(const ServiceConfig& config = ServiceConfig{});

  // Stops the request loop: still-queued requests fail with
  // kUnavailable, in-flight requests finish, and every report owed by
  // an async panel member is cross-checked (or released once it can no
  // longer arrive, at most recv_timeout_us later); then the loop thread
  // joins. Idempotent; implied by Initialize/UpdateStage/FullUpdate/
  // Shutdown so reconfiguration always sees a quiesced pipeline.
  //
  // StartService/StopService/OpenSession are control-plane calls: drive
  // them from one thread. Session::Submit on open sessions is safe from
  // any thread.
  void StopService();

  // Opens a session against the request loop. Sessions may outlive a
  // stopped service (their Submits then fail with kUnavailable).
  util::Result<std::unique_ptr<Session>> OpenSession();

  util::Status Shutdown();

  // Point-in-time view of the request loop, served read-only by the
  // admin /status endpoint. Safe from any thread; cheap (two brief
  // lock acquisitions, no pipeline interaction).
  struct ServiceStatusSnapshot {
    bool running = false;    // loop thread alive
    bool accepting = false;  // admitting new submits
    size_t queue_depth = 0;  // queued submits
    size_t queue_max = 0;
    // Concurrent pipeline slots (scheduler); also the lag budget: the
    // reports an async panel member may owe before it skips a batch.
    size_t max_batch = 0;
    // Scheduler policy in force (for /status).
    bool edf = false;
    int64_t batch_window_us = 0;
    int tenant_quota_pct = 100;
    struct SessionStatus {
      uint64_t id = 0;
      uint64_t next_seq = 0;  // next expected sequence number
      bool aborted = false;   // condemned by a sequence violation
    };
    std::vector<SessionStatus> sessions;
  };
  ServiceStatusSnapshot ServiceStatus();

  // Snapshot-and-reset of the cumulative run statistics, sourced from
  // the metrics registry (delta since the previous consume), plus the
  // latency summary of every batch completed since then.
  RunStats ConsumeStats();
  // Registry every monitor metric is recorded into (process default).
  obs::Registry& metrics() const { return *metrics_; }
  const MonitorConfig& config() const { return config_; }
  const tee::Enclave& enclave() const { return *enclave_; }

  // Lifecycle supervisor (present only under
  // ReactionKind::kQuarantineAndRestart); per-variant lifecycle state,
  // quarantine/readmission counters. Stable across runs until the next
  // Initialize/UpdateStage.
  const Supervisor* supervisor() const { return supervisor_.get(); }

  // Audit log of variant bindings ("appending-only for auditing").
  struct Binding {
    int32_t stage;
    std::string variant_id;
    uint64_t enclave_report_id;
    bool active;
    // Serialized attestation report captured at binding time (empty on
    // plaintext channels). Served to users via combined attestation.
    util::Bytes report;
  };
  std::vector<Binding> bindings() const;

 private:
  // The serving stream runs on the monitor's state (stream_engine.h).
  friend class StreamEngine;

  Monitor(std::unique_ptr<tee::Enclave> enclave, tee::SimulatedCpu* cpu,
          MonitorConfig config);

  struct VariantConn {
    std::string id;
    std::unique_ptr<transport::MsgChannel> channel;
  };
  // Per-stage observability instruments, resolved once at Initialize so
  // the event loop updates them without registry lookups.
  struct StageMetrics {
    obs::Histogram* verify_us = nullptr;   // checkpoint-verify time
    obs::Histogram* forward_us = nullptr;  // monitor-mediated forward time
    // model.stage{S}.*: analytic charges, not clock readings.
    obs::Counter* wire_us = nullptr;       // modeled wire time, outbound
    obs::Counter* crypto_us = nullptr;     // modeled seal+open time, outbound
    obs::Counter* bytes = nullptr;         // outbound payload bytes
  };
  struct StageState {
    std::vector<VariantConn> variants;
    StageMetrics metrics;
    bool is_mvx() const { return variants.size() > 1; }
  };

  // Monitor-mediated forwarding target: consumer stage + slot map.
  struct ForwardTarget {
    int32_t consumer_stage;
    // (producer output index -> consumer slot)
    std::vector<std::pair<uint32_t, uint32_t>> output_to_slot;
  };

  util::Result<VariantConn> BindVariant(const OfflineBundle& bundle,
                                        VariantHost& host,
                                        const std::string& variant_id);

  util::Status ConfigureRoutes(VariantHost& host);

  // Supervisor-driven repair: re-runs the two-stage attested bootstrap
  // for a quarantined slot against the retained bundle/host (fresh TEE,
  // new session keys, re-verified second-stage manifest). On success
  // the slot enters probation; on failure the supervisor schedules the
  // next backoff step or retires the slot.
  void RebootstrapSlot(size_t stage, size_t vi);

  // Marks the audit-log binding of a quarantined/retired variant
  // inactive (the replacement is appended by BindVariant).
  void DeactivateBinding(int32_t stage, const std::string& variant_id);

  // The request loop body (service thread): runs serving streams
  // (StreamEngine) while work is queued.
  void ServiceLoop();

  // Resolves the monitor-level and per-stage metric instruments.
  void BindMetrics();

  // Current cumulative counter values (no latencies); the baseline that
  // ConsumeStats() subtracts.
  RunStats RegistryBaseline() const;

  std::unique_ptr<tee::Enclave> enclave_;
  tee::SimulatedCpu* cpu_;
  MonitorConfig config_;

  std::vector<StageState> stages_;
  std::vector<std::vector<partition::StageInputSource>> stage_inputs_;
  std::vector<partition::StageInputSource> model_outputs_;
  std::vector<tensor::Shape> model_input_shapes_;
  bool initialized_ = false;
  bool routes_configured_ = false;

  // Derived routing (built by ConfigureRoutes).
  // Per stage: slots fed by model inputs (slot -> model input index).
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> model_input_slots_;
  // Per producer stage: monitor-mediated forwarding targets.
  std::vector<std::vector<ForwardTarget>> monitor_forwards_;
  // Per stage: does the monitor expect kInferResult reports from it?
  std::vector<bool> stage_reports_;
  size_t num_fast_path_stages_ = 0;
  // Per stage: how many distinct input sends (model-input admit + one
  // per producer forward) a batch needs before the stage has all its
  // inputs. Used to tell "variant is owed a report" from "inputs not
  // dispatched yet" when a recv timeout is being classified.
  std::vector<size_t> stage_feed_count_;

  // Recovery loop (ReactionKind::kQuarantineAndRestart): lifecycle
  // state machine plus the provisioning material needed to re-run the
  // two-stage bootstrap mid-run. The host must outlive the monitor
  // while the quarantine reaction is configured.
  std::unique_ptr<Supervisor> supervisor_;
  OfflineBundle lifecycle_bundle_;
  VariantHost* lifecycle_host_ = nullptr;

  // Observability: all monitor counters live in the metrics registry;
  // ConsumeStats() reads them as a delta against `consumed_base_`.
  obs::Registry* metrics_ = &obs::Registry::Default();
  struct MonitorMetrics {
    obs::Counter* checkpoints_evaluated = nullptr;
    obs::Counter* fast_path_forwards = nullptr;
    obs::Counter* divergences = nullptr;
    obs::Counter* late_divergences = nullptr;
    // Owed MVX-panel reports released because they can no longer
    // arrive (member quarantined, retired, or silent for
    // recv_timeout_us; or the stream failed): never cross-checked and
    // never judged as dissent.
    obs::Counter* unchecked_reports = nullptr;
    // Batches a lagging async panel member skipped: it already owed
    // max_batch reports when the batch first reached its stage.
    obs::Counter* unsampled_batches = nullptr;
    obs::Counter* variant_failures = nullptr;
    obs::Counter* bytes_sent = nullptr;
    obs::Counter* wall_us = nullptr;
    obs::Counter* batches_completed = nullptr;
    obs::Histogram* batch_latency_us = nullptr;
    obs::Histogram* attest_us = nullptr;
    // Wall-clock cost of one supervisor-driven attested re-bootstrap
    // (spawn + attest + handshake + identity + manifest evidence).
    obs::Histogram* rebootstrap_us = nullptr;
    // Evented-loop instruments: time spent blocked waiting for events
    // vs. cross-validation work, and digest prefilter effectiveness.
    obs::Histogram* wait_us = nullptr;
    obs::Histogram* verify_job_us = nullptr;
    obs::Counter* prefilter_hits = nullptr;
    obs::Counter* full_checks = nullptr;
    // Lifetime instrument, never reset by ConsumeStats: cumulative
    // divergence count (all classes).
    obs::Counter* divergences_total = nullptr;
    // Liveness beacon: bumped once per request-loop and event-loop
    // iteration. The stall watchdog samples it; sustained silence while
    // work is pending means the loop is wedged.
    obs::Counter* loop_heartbeat = nullptr;
  };
  MonitorMetrics m_{};
  mutable std::mutex stats_mu_;
  // Latencies of batches completed since the last ConsumeStats.
  LatencySummary pending_latency_;
  RunStats consumed_base_;                  // counter values at last consume
  std::atomic<uint64_t> next_batch_id_{0};

  // Readiness set shared by every variant channel and the admission
  // queue; the run loop blocks on it instead of busy-polling.
  std::shared_ptr<transport::WaitSet> wait_set_ =
      std::make_shared<transport::WaitSet>();

  // Virtual-time performance model (see DESIGN.md §2): the monitor's own
  // timeline, advanced by measured thread-CPU work; wire delays come
  // from the host's network cost model captured at Initialize.
  int64_t vclock_us_ = 0;
  transport::NetworkCostModel network_{};
  double crypto_bytes_per_us_ = 0.0;

  mutable std::mutex bindings_mu_;
  std::vector<Binding> bindings_;

  // Request-loop state (shared with Sessions, which may outlive a
  // stopped service) and the loop thread. service_ctl_mu_ guards the
  // start/stop control path so session threads can OpenSession safely.
  std::mutex service_ctl_mu_;
  std::shared_ptr<internal::ServiceState> service_;
  std::thread service_thread_;
  bool service_running_ = false;
  ServiceConfig service_config_;
};

// Runs `batches` through the request loop and returns their outputs in
// order, or the status of the first failed reply. Restarts the service
// with max_batch = pipelined ? batches.size() : 1 (every batch admitted
// at once, or each only after the previous one completed) and
// admission_queue_max = batches.size(), submits everything through one
// session, and stops the service again, so each report owed to these
// batches has been cross-checked or released when it returns. The
// pacing assumes MVTEE_SCHED_MAX_BATCH is unset. A test and bench
// helper; serving code uses sessions directly.
util::Result<std::vector<std::vector<tensor::Tensor>>> RunBatches(
    Monitor& monitor, const std::vector<std::vector<tensor::Tensor>>& batches,
    bool pipelined = false);

}  // namespace mvtee::core
