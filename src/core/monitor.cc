#include "core/monitor.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <set>
#include <thread>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/timeline.h"
#include "util/clock.h"
#include "util/knobs.h"
#include "util/logging.h"

namespace mvtee::core {

using tensor::Tensor;

namespace {
// Whether a request carries exactly the model's inputs, shape for shape.
bool MatchesShapes(const std::vector<Tensor>& inputs,
                   const std::vector<tensor::Shape>& shapes) {
  return std::equal(
      inputs.begin(), inputs.end(), shapes.begin(), shapes.end(),
      [](const Tensor& t, const tensor::Shape& s) { return t.shape() == s; });
}
}  // namespace

namespace internal {

// State shared between the monitor's request loop and every Session
// handle. Sessions hold it by shared_ptr so a handle outliving a
// stopped (or destroyed) monitor degrades to fast-fail Submits instead
// of dangling.
struct ServiceState {
  struct Item {
    uint64_t session_id = 0;
    uint64_t seq = 0;
    // Monotone arrival ticket across all sessions: the scheduler's
    // FIFO reference (what EDF/priority "preempt").
    uint64_t ticket = 0;
    std::vector<Tensor> inputs;
    int64_t deadline_abs_us = 0;  // 0 = unbounded
    int64_t enqueue_us = 0;
    // Scheduling metadata.
    std::string tenant;
    int32_t priority = 0;
    std::string model;
    std::promise<InferenceResponse> response;
  };

  struct SessionInfo {
    uint64_t expected_seq = 0;
    bool aborted = false;  // sequence violation: session is dead
  };

  std::mutex mu;
  std::condition_variable cv;
  std::deque<Item> queue;
  bool accepting = false;
  size_t queue_max = 64;
  uint64_t next_session_id = 1;
  uint64_t next_ticket = 1;
  std::map<uint64_t, SessionInfo> sessions;
  // The monitor's event wait set: enqueues notify it so a serving
  // stream parked in WaitFor wakes for the new work.
  std::shared_ptr<transport::WaitSet> waker;

  // Service instruments (default registry; pointer-stable).
  obs::Gauge* sessions_active = nullptr;
  obs::Gauge* queue_depth = nullptr;
  obs::Gauge* queue_depth_hwm = nullptr;
  obs::Gauge* inflight = nullptr;
  obs::Counter* rejected_total = nullptr;
  obs::Counter* requests_total = nullptr;
  obs::Counter* groups_total = nullptr;
  obs::Histogram* request_latency_us = nullptr;
  // Per-request latency breakdown (DESIGN.md §12): one histogram per
  // lifecycle phase. reply_us is bound here but observed by the service
  // front end (the reply seal happens outside the monitor).
  obs::Histogram* queue_wait_us = nullptr;
  obs::Histogram* coalesce_us = nullptr;
  obs::Histogram* infer_us = nullptr;
  obs::Histogram* verify_us = nullptr;
  obs::Histogram* reply_us = nullptr;
  // Scheduler instruments (DESIGN.md §13): pipeline occupancy at each
  // formation, queue-order preemptions, requests answered after (or
  // expired at) their deadline, and per-tenant goodput (resolved on
  // demand as scheduler.tenant.<name>.goodput_total).
  obs::Registry* registry = nullptr;
  obs::Histogram* sched_occupancy = nullptr;
  obs::Counter* sched_preemptions = nullptr;
  obs::Counter* sched_deadline_misses = nullptr;

  obs::Counter& TenantGoodput(const std::string& tenant) {
    return registry->GetCounter("scheduler.tenant." +
                                (tenant.empty() ? "default" : tenant) +
                                ".goodput_total");
  }

  void BindMetrics(obs::Registry& reg) {
    registry = &reg;
    sched_occupancy = &reg.GetHistogram("scheduler.batch_occupancy");
    sched_preemptions = &reg.GetCounter("scheduler.preemptions_total");
    sched_deadline_misses =
        &reg.GetCounter("scheduler.deadline_misses_total");
    sessions_active = &reg.GetGauge("service.sessions_active");
    queue_depth = &reg.GetGauge("service.admission_queue_depth");
    queue_depth_hwm = &reg.GetGauge("service.admission_queue_depth_hwm");
    inflight = &reg.GetGauge("service.inflight");
    rejected_total = &reg.GetCounter("service.rejected_total");
    requests_total = &reg.GetCounter("service.requests_total");
    groups_total = &reg.GetCounter("service.groups_total");
    request_latency_us = &reg.GetHistogram("service.request_latency_us");
    queue_wait_us = &reg.GetHistogram("service.queue_wait_us");
    coalesce_us = &reg.GetHistogram("service.coalesce_us");
    infer_us = &reg.GetHistogram("service.infer_us");
    verify_us = &reg.GetHistogram("service.verify_us");
    reply_us = &reg.GetHistogram("service.reply_us");
  }
};

}  // namespace internal

Session::Session(std::shared_ptr<internal::ServiceState> state, uint64_t id)
    : state_(std::move(state)), id_(id) {}

Session::~Session() { Close(); }

void Session::Close() {
  if (!state_) return;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (state_->sessions.erase(id_) > 0) state_->sessions_active->Add(-1);
  }
  state_.reset();
}

util::Result<std::future<InferenceResponse>> Session::Submit(
    InferenceRequest request) {
  auto result = SubmitSequenced(std::move(request), next_seq_);
  // Mirror the server-side rule: the sequence number is consumed by any
  // in-order submission, including one rejected at admission or by a
  // stopped service (only sequence violations leave it unconsumed).
  const util::StatusCode code = result.status().code();
  if (result.ok() || code == util::StatusCode::kAdmissionRejected ||
      code == util::StatusCode::kUnavailable) {
    ++next_seq_;
  }
  return result;
}

util::Result<std::future<InferenceResponse>> Session::SubmitSequenced(
    InferenceRequest request, uint64_t seq) {
  if (!state_) return util::FailedPrecondition("session closed");
  internal::ServiceState& st = *state_;
  std::future<InferenceResponse> future;
  {
    std::lock_guard<std::mutex> lock(st.mu);
    auto it = st.sessions.find(id_);
    if (it == st.sessions.end()) {
      return util::FailedPrecondition("session closed");
    }
    if (it->second.aborted) {
      return util::ReplayDetected("session aborted by sequence violation");
    }
    if (seq != it->second.expected_seq) {
      // A replayed (or reordered) Submit must never execute twice;
      // the whole session is condemned, not just the request.
      it->second.aborted = true;
      return util::ReplayDetected(
          "submit sequence " + std::to_string(seq) + " != expected " +
          std::to_string(it->second.expected_seq));
    }
    // Any in-order frame consumes its sequence number, whatever its
    // admission outcome: the client increments on send, before it can
    // know whether the request was admitted, so a rejected request must
    // not desynchronize the session's sequence space.
    it->second.expected_seq = seq + 1;
    if (!st.accepting) return util::Unavailable("service stopped");
    if (request.deadline_us < 0) {
      // End-to-end deadline semantics: 0 means "no deadline"; a
      // negative budget is expired before it starts and must never
      // enter the pipeline (the sequence number above is still
      // consumed, like any other admission rejection).
      st.rejected_total->Add(1);
      st.sched_deadline_misses->Add(1);
      return util::AdmissionRejected(
          "deadline_us " + std::to_string(request.deadline_us) +
          " already expired at submit (0 = no deadline)");
    }
    if (st.queue.size() >= st.queue_max) {
      st.rejected_total->Add(1);
      return util::AdmissionRejected(
          "admission queue full (" + std::to_string(st.queue.size()) +
          " queued, max " + std::to_string(st.queue_max) + ")");
    }

    internal::ServiceState::Item item;
    item.session_id = id_;
    item.seq = seq;
    item.ticket = st.next_ticket++;
    item.enqueue_us = util::NowMicros();
    item.deadline_abs_us = request.deadline_us > 0
                               ? item.enqueue_us + request.deadline_us
                               : 0;
    item.tenant = std::move(request.tenant);
    item.priority = request.priority;
    item.model = std::move(request.model);
    item.inputs = std::move(request.inputs);
    future = item.response.get_future();
    st.queue.push_back(std::move(item));
    const auto depth = static_cast<int64_t>(st.queue.size());
    st.queue_depth->Set(depth);
    if (depth > st.queue_depth_hwm->value()) st.queue_depth_hwm->Set(depth);
    st.requests_total->Add(1);
  }
  st.cv.notify_one();
  // Wake a serving stream parked on the monitor's wait set.
  std::shared_ptr<transport::WaitSet> waker;
  {
    std::lock_guard<std::mutex> lock(st.mu);
    waker = st.waker;
  }
  if (waker) waker->Notify();
  return future;
}

MvxSelection MvxSelection::Uniform(const OfflineBundle& bundle,
                                   int variants_per_stage) {
  MvxSelection sel;
  sel.stage_variant_ids.resize(static_cast<size_t>(bundle.num_stages));
  for (int32_t s = 0; s < bundle.num_stages; ++s) {
    auto ids = bundle.StageVariantIds(s);
    const int take =
        std::min<int>(variants_per_stage, static_cast<int>(ids.size()));
    sel.stage_variant_ids[static_cast<size_t>(s)].assign(
        ids.begin(), ids.begin() + take);
  }
  return sel;
}

MvxSelection MvxSelection::PerStage(const OfflineBundle& bundle,
                                    const std::vector<int>& counts) {
  MvxSelection sel;
  sel.stage_variant_ids.resize(static_cast<size_t>(bundle.num_stages));
  for (int32_t s = 0; s < bundle.num_stages; ++s) {
    auto ids = bundle.StageVariantIds(s);
    int want = s < static_cast<int32_t>(counts.size())
                   ? counts[static_cast<size_t>(s)]
                   : 1;
    const int take = std::min<int>(std::max(want, 1),
                                   static_cast<int>(ids.size()));
    sel.stage_variant_ids[static_cast<size_t>(s)].assign(
        ids.begin(), ids.begin() + take);
  }
  return sel;
}

MvxSelection::Builder& MvxSelection::Builder::Stage(
    int32_t stage, std::vector<std::string> ids) {
  explicit_ids_[stage] = std::move(ids);
  counts_.erase(stage);
  return *this;
}

MvxSelection::Builder& MvxSelection::Builder::Stage(int32_t stage,
                                                    int count) {
  counts_[stage] = count;
  explicit_ids_.erase(stage);
  return *this;
}

MvxSelection::Builder& MvxSelection::Builder::Uniform(
    int variants_per_stage) {
  default_count_ = variants_per_stage;
  return *this;
}

MvxSelection MvxSelection::Builder::Build(const OfflineBundle& bundle) const {
  MvxSelection sel;
  sel.stage_variant_ids.resize(static_cast<size_t>(bundle.num_stages));
  for (int32_t s = 0; s < bundle.num_stages; ++s) {
    auto& out = sel.stage_variant_ids[static_cast<size_t>(s)];
    if (auto it = explicit_ids_.find(s); it != explicit_ids_.end()) {
      out = it->second;
      continue;
    }
    auto ids = bundle.StageVariantIds(s);
    auto cit = counts_.find(s);
    const int want = cit != counts_.end() ? cit->second : default_count_;
    const int take =
        std::min<int>(std::max(want, 1), static_cast<int>(ids.size()));
    out.assign(ids.begin(), ids.begin() + take);
  }
  return sel;
}

Monitor::Monitor(std::unique_ptr<tee::Enclave> enclave,
                 tee::SimulatedCpu* cpu, MonitorConfig config)
    : enclave_(std::move(enclave)), cpu_(cpu), config_(config) {
  BindMetrics();
  // The registry is process-wide and cumulative; remember what was
  // already there so ConsumeStats() only reports this monitor's work.
  consumed_base_ = RegistryBaseline();
  // The monitor records into the (immortal) process-default ring; expose
  // it to the collector as the "monitor" timeline for the merged trace.
  obs::TraceCollector::Default().Register(
      "monitor", std::shared_ptr<obs::TraceBuffer>(
                     &obs::TraceBuffer::Default(), [](obs::TraceBuffer*) {}));
}

void Monitor::BindMetrics() {
  m_.checkpoints_evaluated =
      &metrics_->GetCounter("monitor.checkpoints_evaluated");
  m_.fast_path_forwards = &metrics_->GetCounter("monitor.fast_path_forwards");
  m_.divergences = &metrics_->GetCounter("monitor.divergences");
  m_.late_divergences = &metrics_->GetCounter("monitor.late_divergences");
  m_.unchecked_reports = &metrics_->GetCounter("monitor.unchecked_reports");
  m_.unsampled_batches = &metrics_->GetCounter("monitor.unsampled_batches");
  m_.variant_failures = &metrics_->GetCounter("monitor.variant_failures");
  m_.bytes_sent = &metrics_->GetCounter("monitor.bytes_sent");
  m_.wall_us = &metrics_->GetCounter("monitor.wall_us");
  m_.batches_completed = &metrics_->GetCounter("monitor.batches_completed");
  m_.batch_latency_us = &metrics_->GetHistogram("monitor.batch_latency_us");
  m_.attest_us = &metrics_->GetHistogram("monitor.attest_us");
  m_.rebootstrap_us = &metrics_->GetHistogram("supervisor.rebootstrap_us");
  m_.wait_us = &metrics_->GetHistogram("monitor.wait_us");
  m_.verify_job_us = &metrics_->GetHistogram("monitor.verify_job_us");
  m_.prefilter_hits = &metrics_->GetCounter("monitor.prefilter_hits");
  m_.full_checks = &metrics_->GetCounter("monitor.full_checks");
  m_.divergences_total = &metrics_->GetCounter("monitor.divergences_total");
  m_.loop_heartbeat = &metrics_->GetCounter("monitor.loop_heartbeat");
  for (size_t s = 0; s < stages_.size(); ++s) {
    const std::string stage = "stage" + std::to_string(s) + ".";
    StageMetrics& sm = stages_[s].metrics;
    sm.verify_us = &metrics_->GetHistogram("monitor." + stage + "verify_us");
    sm.forward_us = &metrics_->GetHistogram("monitor." + stage + "forward_us");
    sm.wire_us = &metrics_->GetCounter("model." + stage + "wire_us");
    sm.crypto_us = &metrics_->GetCounter("model." + stage + "crypto_us");
    sm.bytes = &metrics_->GetCounter("monitor." + stage + "bytes");
  }
}

RunStats Monitor::RegistryBaseline() const {
  RunStats s;
  s.wall_us = static_cast<int64_t>(m_.wall_us->value());
  s.checkpoints_evaluated = m_.checkpoints_evaluated->value();
  s.fast_path_forwards = m_.fast_path_forwards->value();
  s.divergences = m_.divergences->value();
  s.late_divergences = m_.late_divergences->value();
  s.variant_failures = m_.variant_failures->value();
  s.bytes_sent = m_.bytes_sent->value();
  return s;
}

Monitor::~Monitor() { (void)Shutdown(); }

util::Result<std::unique_ptr<Monitor>> Monitor::Create(
    tee::SimulatedCpu* cpu, MonitorConfig config, tee::TeeType tee_type) {
  // The monitor is deliberately tiny: it fits the small integrity-
  // protected SGX1 EPC (§6.5 "Monitor security").
  MVTEE_ASSIGN_OR_RETURN(
      auto enclave,
      cpu->LaunchEnclave(tee_type, util::ToBytes("mvtee-monitor-v1"),
                         tee::MonitorManifest(), 256));
  return std::unique_ptr<Monitor>(
      new Monitor(std::move(enclave), cpu, config));
}

util::Result<Monitor::VariantConn> Monitor::BindVariant(
    const OfflineBundle& bundle, VariantHost& host,
    const std::string& variant_id) {
  const OfflineVariantEntry* entry = bundle.FindVariant(variant_id);
  if (entry == nullptr) {
    return util::NotFound("variant '" + variant_id + "' not in bundle");
  }
  obs::ScopedSpan attest_span("monitor/attest",
                              {.stage = entry->stage, .tag = variant_id},
                              &obs::TraceBuffer::Default(), m_.attest_us);
  MVTEE_ASSIGN_OR_RETURN(transport::Endpoint endpoint,
                         host.SpawnVariantTee());

  VariantConn conn;
  conn.id = variant_id;
  uint64_t report_id = 0;
  util::Bytes report_bytes;
  if (host.options().plaintext_channels) {
    conn.channel =
        std::make_unique<transport::PlainMsgChannel>(std::move(endpoint));
  } else {
    // Attest: the spawned TEE must measure as the public init-variant.
    MVTEE_ASSIGN_OR_RETURN(
        auto secure,
        transport::SecureChannel::Handshake(
            std::move(endpoint), transport::SecureChannel::Role::kClient,
            *enclave_,
            transport::ExpectMeasurement(*cpu_,
                                         host.init_variant_measurement()),
            config_.recv_timeout_us));
    report_id = secure->peer_report().enclave_id;
    report_bytes = secure->peer_report().Serialize();
    conn.channel =
        std::make_unique<transport::SecureMsgChannel>(std::move(secure));
  }

  // Key distribution + identity assignment.
  AssignIdentityMsg assign;
  assign.variant_id = variant_id;
  assign.variant_key = entry->variant_key;
  MVTEE_RETURN_IF_ERROR(conn.channel->Send(Encode(assign)));
  MVTEE_ASSIGN_OR_RETURN(util::Bytes frame,
                         conn.channel->Recv(config_.recv_timeout_us));
  MVTEE_ASSIGN_OR_RETURN(IdentityAckMsg ack, Decode<IdentityAckMsg>(frame));
  if (!ack.ok) {
    return util::Internal("variant '" + variant_id +
                          "' failed bootstrap: " + ack.error);
  }
  if (ack.variant_id != variant_id) {
    return util::AttestationFailure("identity mismatch in ack");
  }
  // Evidence check: the locked second-stage manifest must be exactly the
  // one sealed by the offline tool.
  if (!util::ConstantTimeEqual(
          util::ByteSpan(ack.manifest_hash.data(), ack.manifest_hash.size()),
          util::ByteSpan(entry->manifest_hash.data(),
                         entry->manifest_hash.size()))) {
    return util::AttestationFailure("second-stage manifest evidence mismatch");
  }

  {
    std::lock_guard<std::mutex> lock(bindings_mu_);
    bindings_.push_back(
        {entry->stage, variant_id, report_id, true, std::move(report_bytes)});
  }
  return conn;
}

util::Status Monitor::ConfigureRoutes(VariantHost& host) {
  const size_t num_stages = stages_.size();
  // Every variant channel feeds the shared readiness set; the run loop
  // blocks on it instead of spinning over Recv(0).
  for (auto& stage : stages_) {
    for (auto& conn : stage.variants) {
      conn.channel->AttachWaiter(wait_set_);
    }
  }
  model_input_slots_.assign(num_stages, {});
  monitor_forwards_.assign(num_stages, {});
  stage_reports_.assign(num_stages, true);
  stage_feed_count_.assign(num_stages, 0);
  num_fast_path_stages_ = 0;
  for (const auto& stage : stages_) {
    if (!stage.is_mvx()) ++num_fast_path_stages_;
  }

  std::vector<bool> produces_model_output(num_stages, false);
  for (const auto& src : model_outputs_) {
    produces_model_output[static_cast<size_t>(src.stage)] = true;
  }

  // Per-variant routing messages (stage, variant index) -> msg.
  std::map<std::pair<size_t, size_t>, SetupRoutesMsg> route_msgs;

  for (size_t c = 0; c < num_stages; ++c) {
    // Group consumer slots by producer stage.
    std::map<int32_t, std::vector<std::pair<uint32_t, uint32_t>>> from_stage;
    for (size_t j = 0; j < stage_inputs_[c].size(); ++j) {
      const auto& src = stage_inputs_[c][j];
      if (src.stage < 0) {
        model_input_slots_[c].push_back(
            {static_cast<uint32_t>(j), static_cast<uint32_t>(src.index)});
      } else {
        from_stage[src.stage].push_back(
            {static_cast<uint32_t>(src.index), static_cast<uint32_t>(j)});
      }
    }
    for (const auto& [p, mapping] : from_stage) {
      const size_t ps = static_cast<size_t>(p);
      // Pipes connect single-variant stages only: the monitor feeds
      // every panel, so it sees (and can bound) each member's inputs.
      const bool direct = config_.direct_fastpath &&
                          !stages_[ps].is_mvx() && !stages_[c].is_mvx();
      if (!direct) {
        monitor_forwards_[ps].push_back(
            {static_cast<int32_t>(c), mapping});
        continue;
      }
      // One pipe from the producer's variant to the consumer's.
      const uint64_t pipe = host.CreatePipe();
      route_msgs[{ps, 0}].downstream.push_back({pipe, mapping});
      route_msgs[{c, 0}].upstream.push_back({pipe});
    }
  }

  if (config_.direct_fastpath) {
    for (size_t s = 0; s < num_stages; ++s) {
      stage_reports_[s] = stages_[s].is_mvx() || produces_model_output[s] ||
                          !monitor_forwards_[s].empty();
    }
  }

  // Input-send counts per stage (timeout classification): one send for
  // the model-input admit plus one per monitor-mediated producer.
  for (size_t s = 0; s < num_stages; ++s) {
    if (!model_input_slots_[s].empty()) ++stage_feed_count_[s];
    for (const auto& target : monitor_forwards_[s]) {
      ++stage_feed_count_[static_cast<size_t>(target.consumer_stage)];
    }
  }

  // Ensure every variant whose report flag differs from the default, or
  // that has routes, receives a message. Send everything first, then
  // collect acks (avoids handshake ordering deadlocks).
  std::vector<std::pair<size_t, size_t>> sent;
  for (size_t s = 0; s < num_stages; ++s) {
    for (size_t v = 0; v < stages_[s].variants.size(); ++v) {
      auto it = route_msgs.find({s, v});
      const bool has_routes = it != route_msgs.end();
      if (!has_routes && stage_reports_[s]) continue;  // defaults suffice
      SetupRoutesMsg msg = has_routes ? it->second : SetupRoutesMsg{};
      msg.report_to_monitor = stage_reports_[s];
      MVTEE_RETURN_IF_ERROR(
          stages_[s].variants[v].channel->Send(Encode(msg)));
      sent.push_back({s, v});
    }
  }
  for (const auto& [s, v] : sent) {
    MVTEE_ASSIGN_OR_RETURN(
        util::Bytes frame,
        stages_[s].variants[v].channel->Recv(config_.recv_timeout_us));
    MVTEE_ASSIGN_OR_RETURN(RoutesAckMsg ack, Decode<RoutesAckMsg>(frame));
    if (!ack.ok) {
      return util::Internal("route setup failed at " +
                            stages_[s].variants[v].id + ": " + ack.error);
    }
  }
  routes_configured_ = true;
  return util::OkStatus();
}

util::Status Monitor::Initialize(const OfflineBundle& bundle,
                                 const MvxSelection& selection,
                                 VariantHost& host) {
  StopService();  // reconfiguration requires a quiesced request loop
  if (selection.stage_variant_ids.size() !=
      static_cast<size_t>(bundle.num_stages)) {
    return util::InvalidArgument("selection stage count mismatch");
  }
  if (config_.reaction.kind == ReactionKind::kQuarantineAndRestart &&
      config_.direct_fastpath) {
    // Quarantining reroutes a panel mid-run; variant-to-variant pipes
    // cannot be re-brokered without tearing the whole pipeline down.
    return util::InvalidArgument(
        "ReactionPolicy::QuarantineAndRestart requires monitor-mediated "
        "routing (direct_fastpath = false)");
  }
  std::vector<StageState> stages(static_cast<size_t>(bundle.num_stages));
  for (int32_t s = 0; s < bundle.num_stages; ++s) {
    const auto& ids = selection.stage_variant_ids[static_cast<size_t>(s)];
    if (ids.empty()) {
      return util::InvalidArgument("stage " + std::to_string(s) +
                                   " has no variants selected");
    }
    for (const std::string& id : ids) {
      const OfflineVariantEntry* entry = bundle.FindVariant(id);
      if (entry == nullptr || entry->stage != s) {
        return util::InvalidArgument("variant '" + id +
                                     "' does not belong to stage " +
                                     std::to_string(s));
      }
      MVTEE_ASSIGN_OR_RETURN(VariantConn conn,
                             BindVariant(bundle, host, id));
      stages[static_cast<size_t>(s)].variants.push_back(std::move(conn));
    }
  }
  stages_ = std::move(stages);
  stage_inputs_ = bundle.stage_inputs;
  model_outputs_ = bundle.model_outputs;
  model_input_shapes_ = bundle.model_input_shapes;
  network_ = host.options().network;
  crypto_bytes_per_us_ =
      host.options().plaintext_channels ? 0.0
                                        : host.options().crypto_bytes_per_us;
  initialized_ = true;
  if (config_.reaction.kind == ReactionKind::kQuarantineAndRestart) {
    // Retain the provisioning material so the supervisor can re-run the
    // two-stage bootstrap mid-run (bundle copies share the sealed
    // store; the host reference must stay valid while running).
    supervisor_ =
        std::make_unique<Supervisor>(config_.reaction, metrics_);
    supervisor_->Reset(selection.stage_variant_ids);
    lifecycle_bundle_ = bundle;
    lifecycle_host_ = &host;
  } else {
    supervisor_.reset();
    lifecycle_host_ = nullptr;
  }
  BindMetrics();  // resolves the per-stage instruments
  MVTEE_RETURN_IF_ERROR(ConfigureRoutes(host));
  return util::OkStatus();
}

util::Status Monitor::UpdateStage(const OfflineBundle& bundle,
                                  VariantHost& host, int32_t stage,
                                  const std::vector<std::string>& ids) {
  StopService();  // reconfiguration requires a quiesced request loop
  if (!initialized_) return util::FailedPrecondition("not initialized");
  if (config_.direct_fastpath) {
    return util::Unimplemented(
        "partial updates require monitor-mediated routing");
  }
  if (stage < 0 || static_cast<size_t>(stage) >= stages_.size()) {
    return util::InvalidArgument("stage out of range");
  }
  if (ids.empty()) return util::InvalidArgument("empty variant selection");

  // Bind replacements first (never reuse TEEs — §4.3).
  std::vector<VariantConn> fresh;
  for (const std::string& id : ids) {
    const OfflineVariantEntry* entry = bundle.FindVariant(id);
    if (entry == nullptr || entry->stage != stage) {
      return util::InvalidArgument("variant '" + id +
                                   "' does not belong to stage " +
                                   std::to_string(stage));
    }
    MVTEE_ASSIGN_OR_RETURN(VariantConn conn, BindVariant(bundle, host, id));
    fresh.push_back(std::move(conn));
  }
  // Retire the old TEEs.
  StageState& st = stages_[static_cast<size_t>(stage)];
  for (auto& conn : st.variants) {
    (void)conn.channel->Send(Encode(ShutdownMsg{}));
    conn.channel->Close();
    std::lock_guard<std::mutex> lock(bindings_mu_);
    for (auto& b : bindings_) {
      if (b.stage == stage && b.variant_id == conn.id && b.active) {
        b.active = false;
      }
    }
  }
  st.variants = std::move(fresh);
  if (supervisor_ != nullptr) {
    // Partial updates change panel membership: rebuild the lifecycle
    // table from the live selection (all slots restart Healthy).
    std::vector<std::vector<std::string>> current(stages_.size());
    for (size_t s = 0; s < stages_.size(); ++s) {
      for (const auto& conn : stages_[s].variants) {
        current[s].push_back(conn.id);
      }
    }
    supervisor_->Reset(current);
    lifecycle_bundle_ = bundle;
    lifecycle_host_ = &host;
  }
  // Horizontal scaling may change fast/slow classification.
  MVTEE_RETURN_IF_ERROR(ConfigureRoutes(host));
  return util::OkStatus();
}

util::Status Monitor::FullUpdate(const OfflineBundle& bundle,
                                 const MvxSelection& selection,
                                 VariantHost& host) {
  MVTEE_RETURN_IF_ERROR(Shutdown());
  return Initialize(bundle, selection, host);
}

util::Status Monitor::StartService(const ServiceConfig& config) {
  std::lock_guard<std::mutex> lock(service_ctl_mu_);
  if (service_running_) return util::OkStatus();
  if (!initialized_) return util::FailedPrecondition("not initialized");
  util::KnobRegistry::Default().WarnUnknownOnce();
  if (!service_) service_ = std::make_shared<internal::ServiceState>();
  service_->BindMetrics(*metrics_);
  service_config_ = config;
  service_config_.scheduler = SchedulerConfig::FromEnv(config.scheduler);
  {
    std::lock_guard<std::mutex> state_lock(service_->mu);
    service_->accepting = true;
    service_->queue_max = config.admission_queue_max;
    service_->waker = wait_set_;
  }
  service_thread_ = std::thread(&Monitor::ServiceLoop, this);
  service_running_ = true;
  return util::OkStatus();
}

void Monitor::StopService() {
  std::lock_guard<std::mutex> lock(service_ctl_mu_);
  if (!service_running_) return;
  {
    std::lock_guard<std::mutex> state_lock(service_->mu);
    service_->accepting = false;
  }
  service_->cv.notify_all();
  wait_set_->Notify();  // a parked serving stream quiesces promptly
  service_thread_.join();
  service_running_ = false;
}

util::Result<std::unique_ptr<Session>> Monitor::OpenSession() {
  std::shared_ptr<internal::ServiceState> state;
  {
    std::lock_guard<std::mutex> lock(service_ctl_mu_);
    if (!service_running_) {
      return util::FailedPrecondition("service not started");
    }
    state = service_;
  }
  uint64_t id;
  {
    std::lock_guard<std::mutex> state_lock(state->mu);
    id = state->next_session_id++;
    state->sessions[id] = internal::ServiceState::SessionInfo{};
    state->sessions_active->Add(1);
  }
  return std::unique_ptr<Session>(new Session(std::move(state), id));
}

Monitor::ServiceStatusSnapshot Monitor::ServiceStatus() {
  ServiceStatusSnapshot out;
  std::shared_ptr<internal::ServiceState> state;
  {
    std::lock_guard<std::mutex> lock(service_ctl_mu_);
    out.running = service_running_;
    out.max_batch = service_config_.scheduler.max_batch;
    out.edf = service_config_.scheduler.edf;
    out.batch_window_us = service_config_.scheduler.batch_window_us;
    out.tenant_quota_pct = service_config_.scheduler.tenant_quota_pct;
    state = service_;
  }
  if (!state) return out;
  std::lock_guard<std::mutex> state_lock(state->mu);
  out.accepting = state->accepting;
  out.queue_depth = state->queue.size();
  out.queue_max = state->queue_max;
  out.sessions.reserve(state->sessions.size());
  for (const auto& [id, info] : state->sessions) {
    out.sessions.push_back({id, info.expected_seq, info.aborted});
  }
  return out;
}

void Monitor::ServiceLoop() {
  internal::ServiceState& st = *service_;
  // The formation policy lives as long as the loop so WFQ virtual
  // times carry fairness memory across serving streams.
  BatchFormer former(service_config_.scheduler);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(st.mu);
      st.cv.wait(lock, [&] { return !st.queue.empty() || !st.accepting; });
      if (!st.accepting) {
        // Drain: everything still queued fails fast instead of running
        // against a pipeline about to be reconfigured.
        for (auto& item : st.queue) {
          InferenceResponse response;
          response.status = util::Unavailable("service stopped");
          response.seq = item.seq;
          item.response.set_value(std::move(response));
        }
        st.queue.clear();
        st.queue_depth->Set(0);
        return;
      }
    }
    m_.loop_heartbeat->Add(1);
    // Serving stream: the scheduler forms batches and the stream admits
    // them as slots free, until the service stops or the queue runs dry.
    // A stream error fails only that stream's in-flight requests; the
    // loop then starts a fresh stream for whatever is still queued.
    (void)ServeStream(former);
  }
}

util::Status Monitor::ServeStream(BatchFormer& former) {
  internal::ServiceState& st = *service_;
  const SchedulerConfig& sched = service_config_.scheduler;

  // One admitted, not-yet-answered request per pipeline slot.
  struct Pending {
    internal::ServiceState::Item item;
    int64_t admit_us = 0;
  };
  std::map<size_t, Pending> live;  // stream batch index -> request
  std::map<std::string, size_t> inflight_per_tenant;
  size_t next_index = 0;
  int64_t window_recheck_us = 0;

  auto answer = [&](internal::ServiceState::Item& item,
                    InferenceResponse response, int64_t queue_wait,
                    int64_t infer_us, int64_t verify_us, bool ok) {
    st.queue_wait_us->Observe(queue_wait);
    st.coalesce_us->Observe(0);  // formation is per-slot, not per-pass
    st.infer_us->Observe(infer_us);
    st.verify_us->Observe(verify_us);
    obs::RequestTimeline timeline;
    timeline.trace_id = response.trace_id;
    timeline.session_id = item.session_id;
    timeline.seq = item.seq;
    timeline.enqueue_wall_us = item.enqueue_us;
    timeline.queue_wait_us = queue_wait;
    timeline.coalesce_us = 0;
    timeline.infer_us = infer_us;
    timeline.verify_us = verify_us;
    timeline.ok = ok;
    obs::TimelineLog::Default().Note(std::move(timeline));
    item.response.set_value(std::move(response));
  };

  StreamFeed feed;
  feed.max_inflight = std::max<size_t>(1, sched.max_batch);
  feed.quiesce = [&] {
    std::lock_guard<std::mutex> lock(st.mu);
    return !st.accepting || st.queue.empty();
  };
  feed.next_wake_us = [&] { return window_recheck_us; };
  feed.refill = [&](size_t free_slots,
                    std::vector<std::vector<Tensor>>* out) -> size_t {
    window_recheck_us = 0;
    const int64_t now = util::NowMicros();

    // Pull the queued submits; unpicked ones are put back in arrival
    // order below.
    std::vector<internal::ServiceState::Item> window;
    {
      std::lock_guard<std::mutex> lock(st.mu);
      if (!st.accepting) return 0;
      window.assign(std::make_move_iterator(st.queue.begin()),
                    std::make_move_iterator(st.queue.end()));
      st.queue.clear();
    }
    if (window.empty()) return 0;

    // Reject expired / malformed requests before formation: they must
    // never occupy a pipeline slot.
    std::vector<internal::ServiceState::Item> viable;
    for (auto& item : window) {
      if (item.deadline_abs_us != 0 && now >= item.deadline_abs_us) {
        st.sched_deadline_misses->Add(1);
        InferenceResponse response;
        response.status =
            util::DeadlineExceeded("request expired in admission queue");
        response.seq = item.seq;
        response.latency_us = now - item.enqueue_us;
        answer(item, std::move(response), now - item.enqueue_us, 0, 0,
               false);
        continue;
      }
      if (!MatchesShapes(item.inputs, model_input_shapes_)) {
        InferenceResponse response;
        response.status = util::InvalidArgument(
            "request inputs do not match the model's input shapes");
        response.seq = item.seq;
        response.latency_us = now - item.enqueue_us;
        answer(item, std::move(response), now - item.enqueue_us, 0, 0,
               false);
        continue;
      }
      viable.push_back(std::move(item));
    }

    BatchPlan plan;
    if (!viable.empty()) {
      std::vector<SchedEntry> entries;
      entries.reserve(viable.size());
      for (const auto& item : viable) {
        SchedEntry e;
        e.id = item.ticket;
        e.tenant = item.tenant;
        e.priority = item.priority;
        e.deadline_abs_us = item.deadline_abs_us;
        e.enqueue_us = item.enqueue_us;
        entries.push_back(std::move(e));
      }
      plan = former.Form(entries, now, free_slots, inflight_per_tenant);
      window_recheck_us = plan.recheck_at_us;
    }

    std::vector<char> picked(viable.size(), 0);
    for (size_t i : plan.picks) picked[i] = 1;
    for (size_t i : plan.picks) {
      internal::ServiceState::Item& item = viable[i];
      ++inflight_per_tenant[item.tenant];
      out->push_back(std::move(item.inputs));
      live.emplace(next_index++, Pending{std::move(item), now});
    }

    // Put unpicked submits back at the queue head, original order.
    {
      std::lock_guard<std::mutex> lock(st.mu);
      for (size_t i = viable.size(); i-- > 0;) {
        if (!picked[i]) st.queue.push_front(std::move(viable[i]));
      }
      st.queue_depth->Set(static_cast<int64_t>(st.queue.size()));
    }

    if (!plan.picks.empty()) {
      st.groups_total->Add(1);
      st.sched_preemptions->Add(plan.preemptions);
      st.sched_occupancy->Observe(static_cast<int64_t>(live.size()));
      st.inflight->Set(static_cast<int64_t>(live.size()));
    }
    return plan.picks.size();
  };
  feed.deliver = [&](size_t b, std::vector<Tensor> outputs,
                     int64_t verify_us, uint64_t trace_id) {
    auto it = live.find(b);
    if (it == live.end()) return;
    Pending& p = it->second;
    const int64_t done = util::NowMicros();
    InferenceResponse response;
    response.seq = p.item.seq;
    response.latency_us = done - p.item.enqueue_us;
    response.trace_id = trace_id;
    response.outputs = std::move(outputs);
    if (p.item.deadline_abs_us != 0 && done > p.item.deadline_abs_us) {
      // Late success: still answered (the work is done and verified),
      // but it is a scheduler deadline miss — goodput counts it out.
      st.sched_deadline_misses->Add(1);
    }
    st.request_latency_us->Observe(response.latency_us);
    st.TenantGoodput(p.item.tenant).Add(1);
    answer(p.item, std::move(response), p.admit_us - p.item.enqueue_us,
           done - p.admit_us, verify_us, true);
    auto tit = inflight_per_tenant.find(p.item.tenant);
    if (tit != inflight_per_tenant.end() && tit->second > 0) --tit->second;
    live.erase(it);
    st.inflight->Set(static_cast<int64_t>(live.size()));
  };

  util::Status status = RunStream(feed);

  // A stream abort leaves admitted-but-unanswered requests: fail each
  // with the stream error (or its own deadline, when that is the
  // truer story). Requests answered before the abort keep their
  // results — stream failure is not retroactive.
  const int64_t done = util::NowMicros();
  for (auto& [b, p] : live) {
    InferenceResponse response;
    response.seq = p.item.seq;
    response.latency_us = done - p.item.enqueue_us;
    if (!status.ok() && p.item.deadline_abs_us != 0 &&
        done >= p.item.deadline_abs_us) {
      st.sched_deadline_misses->Add(1);
      response.status = util::DeadlineExceeded(
          "request deadline passed: " + status.ToString());
    } else if (!status.ok()) {
      response.status = status;
    } else {
      response.status = util::Unavailable("serving stream ended");
    }
    answer(p.item, std::move(response), p.admit_us - p.item.enqueue_us,
           done - p.admit_us, 0, false);
  }
  live.clear();
  st.inflight->Set(0);
  return status;
}

void Monitor::DeactivateBinding(int32_t stage,
                                const std::string& variant_id) {
  std::lock_guard<std::mutex> lock(bindings_mu_);
  for (auto& b : bindings_) {
    if (b.stage == stage && b.variant_id == variant_id && b.active) {
      b.active = false;
    }
  }
}

void Monitor::RebootstrapSlot(size_t stage, size_t vi) {
  VariantConn& conn = stages_[stage].variants[vi];
  supervisor_->BeginRebootstrap(stage, vi);
  obs::ScopedSpan span("monitor/rebootstrap",
                       {.stage = static_cast<int32_t>(stage),
                        .tag = conn.id},
                       &obs::TraceBuffer::Default(), m_.rebootstrap_us);
  auto fresh = BindVariant(lifecycle_bundle_, *lifecycle_host_, conn.id);
  const bool ok = fresh.ok();
  if (ok) {
    conn.channel = std::move(fresh->channel);
    conn.channel->AttachWaiter(wait_set_);
  }
  supervisor_->FinishRebootstrap(stage, vi, ok, util::NowMicros());
}

util::Status Monitor::RunStream(StreamFeed& feed) {
  if (!initialized_) return util::FailedPrecondition("not initialized");
  const size_t num_stages = stages_.size();
  // Batch ids are allocated one per admitted request; RunStream calls
  // are serialized on the service thread so the ids stay contiguous
  // from `base`.
  const uint64_t base = next_batch_id_.load();
  const int64_t run_vstart = vclock_us_;
  obs::ScopedSpan run_span("monitor/run", {.tag = "stream"});
  auto channel_bytes = [&] {
    uint64_t total = 0;
    for (const auto& stage : stages_) {
      for (const auto& conn : stage.variants) {
        total += conn.channel->bytes_sent();
      }
    }
    return total;
  };
  const uint64_t bytes0 = channel_bytes();
  // Virtual-time model of the monitor: admissions are serialized on the
  // monitor's ingestion clock (vclock_us_), but checkpoint decisions are
  // timed per flow — a decision happens at the latest virtual arrival of
  // the results it used, plus the measured verification cost. This
  // reflects a monitor that serves independent streams concurrently and
  // keeps async cross-validation from being retarded by stragglers.
  int64_t handling_cpu0 = util::ThreadCpuMicros();
  int64_t send_cpu_excluded = 0;
  // Virtual base time of the event being handled (set per event).
  int64_t event_vbase = vclock_us_;
  auto vnow = [&] {
    return event_vbase +
           (util::ThreadCpuMicros() - handling_cpu0 - send_cpu_excluded);
  };
  // Models the stage-boundary crossing cost of one frame and charges it
  // to the destination stage's model.* wire/crypto and bytes instruments.
  auto charge_boundary = [&](size_t dest, size_t bytes) {
    const auto wire =
        static_cast<int64_t>(transport::WireMicros(network_, bytes));
    int64_t crypto = 0;
    if (crypto_bytes_per_us_ > 0) {
      crypto = static_cast<int64_t>(2.0 * static_cast<double>(bytes) /
                                    crypto_bytes_per_us_);
    }
    StageMetrics& sm = stages_[dest].metrics;
    sm.wire_us->Add(static_cast<uint64_t>(wire));
    sm.crypto_us->Add(static_cast<uint64_t>(crypto));
    sm.bytes->Add(bytes);
    return wire + crypto;
  };

  // How many non-reporting fast-path stages each completed batch has
  // silently traversed (direct routing only).
  size_t silent_fast_stages = 0;
  for (size_t s = 0; s < num_stages; ++s) {
    if (!stages_[s].is_mvx() && !stage_reports_[s]) ++silent_fast_stages;
  }

  struct BatchState {
    // Per stage: result per variant (reporting stages only). Slots are
    // written at most once (duplicate frames are dropped).
    std::map<size_t, std::vector<std::optional<InferResultMsg>>> reports;
    // Per stage: digest summary per panel slot (prefilter, computed
    // once on ingestion).
    std::map<size_t, std::vector<OutputsSummary>> summaries;
    std::map<size_t, std::vector<Tensor>> chosen;
    // Lazily cached summary of the chosen outputs (straggler checks).
    std::map<size_t, OutputsSummary> chosen_summary;
    std::map<size_t, int64_t> v_chosen;  // virtual decision time per stage
    std::set<size_t> voted;  // stages whose verdict is final
    bool complete = false;
    int64_t admit_vus = 0;  // virtual admission time
    // Panel membership, frozen per batch at admission: 0 = excluded
    // (quarantined / retired), 1 = voting, 2 = shadow (probation).
    // Mid-batch transitions only affect later batches' masks.
    std::vector<std::vector<char>> masks;
    // Shadow (probation) reports, judged against the accepted outputs
    // once the stage verdict commits — never part of the vote.
    std::map<size_t, std::vector<std::optional<InferResultMsg>>> shadow;
    std::map<size_t, std::vector<OutputsSummary>> shadow_sums;
    // Input sends completed per stage; the idle timeout judges a stage
    // only once feeds_done == stage_feed_count_.
    std::vector<size_t> feeds_done;
    // Per panel stage and member: 1 while a report is owed (inputs
    // sent, no report yet). The batch is kept until `owed` is 0.
    std::vector<std::vector<char>> owes;
    size_t owed = 0;
    // The batch's distributed trace (DESIGN.md §8): the monitor's
    // admit/forward/verify spans and — via the authenticated channel
    // headers — every variant-side span share it.
    uint64_t trace_id = 0;
    // Cross-validation CPU spent on this batch (the per-request verify
    // phase of the latency breakdown).
    int64_t verify_us = 0;
  };
  // Stream index -> state. Map nodes are pointer-stable, so a handler
  // keeps its BatchState& across nested ones, and any finished batch
  // can be reclaimed on its own.
  std::map<size_t, BatchState> bs;
  auto bat = [&](size_t b) -> BatchState& { return bs.at(b); };
  // The newest admission: attributes events that belong to no batch.
  uint64_t last_trace_id = 0;
  auto trace_of = [&](size_t b) {
    const auto it = bs.find(b);
    return it != bs.end() ? it->second.trace_id : last_trace_id;
  };
  // Flight recorder (DESIGN.md §8): every committed verdict is noted
  // into the bounded ring; on divergence / auth failure / abort the
  // retained ring plus the affected batch's trace slice is dumped as a
  // self-contained evidence bundle ($MVTEE_EVIDENCE_DIR).
  obs::FlightRecorder& recorder = obs::FlightRecorder::Default();
  bool evidence_dumped = false;
  // Records one checkpoint verdict. `fast` supplies the report on the
  // fast path (k == 1), where the panel-report map is never populated.
  auto note_checkpoint = [&](size_t s, size_t b, std::string verdict,
                             int64_t v_decide,
                             const std::vector<int>& dissenters = {},
                             const InferResultMsg* fast = nullptr) {
    BatchState& state = bat(b);
    obs::CheckpointEvidence ev;
    ev.trace_id = state.trace_id;
    ev.batch = base + b;
    ev.stage = static_cast<int32_t>(s);
    ev.verdict = std::move(verdict);
    ev.v_decide_us = v_decide;
    const size_t k = stages_[s].variants.size();
    const auto rit = state.reports.find(s);
    const auto sit = state.summaries.find(s);
    for (size_t i = 0; i < k; ++i) {
      obs::VariantEvidence ve;
      ve.variant_id = stages_[s].variants[i].id;
      if (fast != nullptr && k == 1) {
        ve.ok = fast->ok;
        ve.vtime_us = fast->vtime_us;
      } else if (rit != state.reports.end() && i < rit->second.size() &&
                 rit->second[i].has_value()) {
        ve.ok = rit->second[i]->ok;
        ve.vtime_us = rit->second[i]->vtime_us;
      }
      if (sit != state.summaries.end() && i < sit->second.size()) {
        ve.digest = sit->second[i].digest;
        ve.nonfinite = sit->second[i].nonfinite;
      }
      for (int d : dissenters) {
        if (d == static_cast<int>(i)) ve.dissent = true;
      }
      ev.variants.push_back(std::move(ve));
    }
    recorder.Note(std::move(ev));
  };
  // First incident wins; later failures in the same stream ride along
  // in the already-written ring.
  auto dump_evidence = [&](const std::string& trigger, uint64_t trace_id,
                           const std::string& detail) {
    if (evidence_dumped) return;
    evidence_dumped = true;
    (void)recorder.DumpBundle(trigger, trace_id, detail);
  };

  // --- lifecycle supervision (ReactionKind::kQuarantineAndRestart) ---
  const bool supervised = supervisor_ != nullptr;
  bool lifecycle_events = false;        // any transition this stream
  uint64_t lifecycle_trigger_trace = 0;  // first affected batch (evidence)
  // Settles a departed slot's owed reports as failures so waiting votes
  // proceed without the recv timeout. Assigned after handle_result
  // (mutual recursion: quarantine -> settle -> handle_result).
  std::function<void(size_t, size_t, const char*)> settle_owed;

  // Lifecycle verdict record ("quarantine" / "rebootstrap" / "readmit" /
  // "retired") on the affected batch's trace.
  auto note_lifecycle = [&](size_t s, size_t vi, const char* verdict,
                            size_t b, const std::string& why) {
    obs::CheckpointEvidence ev;
    ev.trace_id = trace_of(b);
    ev.batch = base + b;
    ev.stage = static_cast<int32_t>(s);
    ev.verdict = verdict;
    ev.v_decide_us = vclock_us_;
    (void)why;  // reaches the trace via the rebootstrap/verify spans
    obs::VariantEvidence ve;
    ve.variant_id = stages_[s].variants[vi].id;
    ve.ok = std::string_view(verdict) == "readmit" ||
            std::string_view(verdict) == "rebootstrap";
    ve.dissent = !ve.ok;
    ev.variants.push_back(std::move(ve));
    if (!lifecycle_events) lifecycle_trigger_trace = ev.trace_id;
    lifecycle_events = true;
    recorder.Note(std::move(ev));
  };

  // Channel teardown + audit for a slot that just left the panel.
  auto detach_slot = [&](size_t s, size_t vi) {
    stages_[s].variants[vi].channel->Close();
    DeactivateBinding(static_cast<int32_t>(s), stages_[s].variants[vi].id);
  };

  auto on_quarantined = [&](size_t s, size_t vi, size_t b,
                            const std::string& why) {
    detach_slot(s, vi);
    note_lifecycle(s, vi, "quarantine", b, why);
    if (settle_owed) settle_owed(s, vi, "quarantined");
  };

  // Hard failure: quarantine when the supervisor allows the shrink.
  // Returns false when unsupervised, at the panel floor, or on a
  // fast-path (k == 1) stage — callers keep their old error handling.
  auto lifecycle_failure = [&](size_t s, size_t vi, size_t b,
                               FailureKind kind) {
    if (!supervised || !stages_[s].is_mvx()) return false;
    if (!supervisor_->ReportFailure(s, vi, kind, util::NowMicros())) {
      return false;
    }
    on_quarantined(s, vi, b, std::string(FailureKindName(kind)));
    return true;
  };

  // Checkpoint dissent: Healthy -> Suspect, then Quarantined once
  // ReactionPolicy::dissent_threshold verdicts accumulate.
  auto lifecycle_dissent = [&](size_t s, size_t vi, size_t b) {
    if (!supervised) return;
    if (supervisor_->ReportDissent(s, vi, util::NowMicros())) {
      on_quarantined(s, vi, b, "dissent");
    }
  };

  util::Status run_error = util::OkStatus();
  size_t completed = 0;
  size_t admitted = 0;
  // Virtual time of the latest completion. A batch's latency is
  // vcomplete - max(admit_vus, previous completion): its own span when
  // batches run one at a time, the interval between answers when they
  // are pipelined.
  int64_t last_completion_vus = run_vstart;

  // Async lag bound (DESIGN.md §5): per panel stage and member, the
  // reports owed across every batch of the stream, and since when the
  // member has been silent while owing one. The budget L is max_batch.
  const size_t lag_budget = feed.max_inflight;
  std::vector<std::vector<size_t>> lag(num_stages);
  std::vector<std::vector<int64_t>> silent_since(num_stages);
  for (size_t s = 0; s < num_stages; ++s) {
    lag[s].assign(stages_[s].variants.size(), 0);
    silent_since[s].assign(stages_[s].variants.size(), 0);
  }
  size_t owed_total = 0;
  auto stop_owing = [&](BatchState& state, size_t s, size_t vi) {
    state.owes[s][vi] = 0;
    --state.owed;
    --lag[s][vi];
    --owed_total;
  };
  // An owed report that can no longer arrive: never cross-checked and
  // never judged as dissent.
  auto release_owed = [&](BatchState& state, size_t s, size_t vi) {
    stop_owing(state, s, vi);
    m_.unchecked_reports->Add(1);
  };
  // An owed report nothing waits for any more: a shadow seat, a decided
  // stage or a completed batch. A voting seat of an undecided stage is
  // settled as a failure instead, so its vote can proceed.
  auto releasable = [](const BatchState& state, size_t s, size_t vi) {
    return state.masks[s][vi] != 1 || state.complete ||
           state.voted.count(s) > 0;
  };
  // Runs before the first frame of a batch reaches panel stage s. A
  // member that already owes lag_budget reports skips the batch, as
  // long as a majority of the panel still gets it; so does a member
  // whose channel closed since admission. Every other member owes a
  // report from here on.
  auto begin_feed = [&](BatchState& state, size_t s) {
    if (!stages_[s].is_mvx() || state.feeds_done[s] > 0) return;
    std::vector<char>& mask = state.masks[s];
    const size_t k = mask.size();
    auto voting = static_cast<size_t>(std::count(mask.begin(), mask.end(), 1));
    for (size_t vi = 0; vi < k; ++vi) {
      if (mask[vi] == 0) continue;
      const bool departed = supervised && !supervisor_->ChannelLive(s, vi);
      if (!departed) {
        if (lag[s][vi] < lag_budget) continue;
        if (mask[vi] == 1 && voting <= k / 2 + 1) continue;
        m_.unsampled_batches->Add(1);
      }
      if (mask[vi] == 1) --voting;
      mask[vi] = 0;
    }
    const int64_t now = util::NowMicros();
    for (size_t vi = 0; vi < k; ++vi) {
      if (mask[vi] == 0) continue;
      if (lag[s][vi]++ == 0) silent_since[s][vi] = now;
      state.owes[s][vi] = 1;
      ++state.owed;
      ++owed_total;
    }
  };

  auto admit = [&](const std::vector<Tensor>& inputs) {
    const size_t b = admitted;
    (void)next_batch_id_.fetch_add(1);  // == base + b
    BatchState& bstate = bs[b];
    bstate.trace_id = obs::NewTraceId();
    last_trace_id = bstate.trace_id;
    // Root of batch b's distributed trace; the span's context rides to
    // every variant in the sends' authenticated plaintext headers.
    obs::TraceContextScope troot(bstate.trace_id, 0);
    obs::ScopedSpan span("monitor/admit",
                         {.batch = static_cast<int64_t>(base + b), .tag = {}});
    const util::Bytes tctx = EncodeTraceContext(span.context());
    // Admission is its own virtual-time event: save/restore the bases
    // so a caller mid-event (defensive; the loop only admits top-level)
    // keeps its own timeline intact.
    const int64_t saved_vbase = event_vbase;
    const int64_t saved_cpu0 = handling_cpu0;
    const int64_t saved_excluded = send_cpu_excluded;
    event_vbase = vclock_us_;
    handling_cpu0 = util::ThreadCpuMicros();
    send_cpu_excluded = 0;
    bstate.admit_vus = vnow();
    // Freeze panel membership for this batch: quarantined slots get no
    // inputs, probation slots shadow-execute.
    bstate.masks.resize(num_stages);
    bstate.owes.resize(num_stages);
    bstate.feeds_done.assign(num_stages, 0);
    for (size_t s = 0; s < num_stages; ++s) {
      bstate.masks[s].assign(stages_[s].variants.size(), 1);
      bstate.owes[s].assign(stages_[s].variants.size(), 0);
      if (!supervised) continue;
      for (size_t vi = 0; vi < stages_[s].variants.size(); ++vi) {
        if (supervisor_->Voting(s, vi)) {
          bstate.masks[s][vi] = 1;
        } else if (supervisor_->Shadow(s, vi)) {
          bstate.masks[s][vi] = 2;
        } else {
          bstate.masks[s][vi] = 0;
        }
      }
    }
    for (size_t s = 0; s < num_stages; ++s) {
      if (model_input_slots_[s].empty()) continue;
      InferMsg msg;
      msg.batch_id = base + b;
      for (const auto& [slot, input_idx] : model_input_slots_[s]) {
        msg.slots.push_back(slot);
        msg.inputs.push_back(inputs[input_idx]);
      }
      // Encoded straight into each variant's pooled wire buffer; the
      // vtime stamp depends only on the (identical) frame size, so it
      // is set per variant before the single-pass encode.
      const size_t frame_size = EncodedSize(msg);
      begin_feed(bstate, s);
      for (size_t vi = 0; vi < stages_[s].variants.size(); ++vi) {
        if (bstate.masks[s][vi] == 0) continue;
        auto& conn = stages_[s].variants[vi];
        msg.vtime_us = static_cast<uint64_t>(
            vnow() + charge_boundary(s, frame_size));
        const int64_t send_cpu0 = util::ThreadCpuMicros();
        util::Status st = SendFrame(*conn.channel, msg, tctx);
        send_cpu_excluded += util::ThreadCpuMicros() - send_cpu0;
        if (!st.ok() && run_error.ok()) run_error = st;
      }
      ++bstate.feeds_done[s];
    }
    vclock_us_ = vnow();  // the monitor's ingestion path is serial
    ++admitted;
    event_vbase = saved_vbase;
    handling_cpu0 = saved_cpu0;
    send_cpu_excluded = saved_excluded;
  };

  auto batch_complete = [&](const BatchState& state) {
    for (const auto& src : model_outputs_) {
      if (!state.chosen.count(static_cast<size_t>(src.stage))) return false;
    }
    return true;
  };

  // Judges any shadow reports buffered while stage s's verdict was
  // pending. Assigned after dissents_from_chosen (definition order).
  std::function<void(size_t, size_t)> judge_pending_shadows;

  // Forward declaration pattern via std::function is avoided: forwarding
  // never recurses (targets are plain sends).
  auto on_chosen = [&](size_t s, size_t b) {
    BatchState& state = bat(b);
    event_vbase = state.v_chosen.count(s) ? state.v_chosen[s] : vnow();
    if (supervised && judge_pending_shadows) judge_pending_shadows(s, b);
    if (!monitor_forwards_[s].empty()) {
      obs::TraceContextScope troot(state.trace_id, 0);
      obs::ScopedSpan span("monitor/forward",
                           {.stage = static_cast<int32_t>(s),
                            .batch = static_cast<int64_t>(base + b),
                            .tag = {}},
                           &obs::TraceBuffer::Default(),
                           stages_[s].metrics.forward_us);
      const util::Bytes tctx = EncodeTraceContext(span.context());
      for (const auto& target : monitor_forwards_[s]) {
        InferMsg msg;
        msg.batch_id = base + b;
        const auto& outputs = state.chosen[s];
        for (const auto& [out_idx, slot] : target.output_to_slot) {
          msg.slots.push_back(slot);
          msg.inputs.push_back(outputs[out_idx]);
        }
        const size_t frame_size = EncodedSize(msg);
        const auto consumer = static_cast<size_t>(target.consumer_stage);
        begin_feed(state, consumer);
        for (size_t vi = 0; vi < stages_[consumer].variants.size(); ++vi) {
          if (state.masks[consumer][vi] == 0) continue;
          // A panel member of this batch may have been quarantined
          // since admission: its channel is closed, skip quietly.
          if (supervised && !supervisor_->ChannelLive(consumer, vi)) {
            continue;
          }
          auto& conn = stages_[consumer].variants[vi];
          msg.vtime_us = static_cast<uint64_t>(
              vnow() + charge_boundary(consumer, frame_size));
          const int64_t send_cpu0 = util::ThreadCpuMicros();
          util::Status st = SendFrame(*conn.channel, msg, tctx);
          send_cpu_excluded += util::ThreadCpuMicros() - send_cpu0;
          if (!st.ok() && run_error.ok()) run_error = st;
        }
        ++state.feeds_done[consumer];
      }
    }
    if (!state.complete && batch_complete(state)) {
      state.complete = true;
      ++completed;
      // Completion in virtual time: the latest per-stage decision among
      // the stages producing model outputs.
      int64_t vcomplete = 0;
      for (const auto& src : model_outputs_) {
        auto it = state.v_chosen.find(static_cast<size_t>(src.stage));
        if (it != state.v_chosen.end()) {
          vcomplete = std::max(vcomplete, it->second);
        }
      }
      if (vcomplete == 0) vcomplete = vnow();
      const int64_t latency = std::max<int64_t>(
          0, vcomplete - std::max(state.admit_vus, last_completion_vus));
      last_completion_vus = std::max(last_completion_vus, vcomplete);
      m_.fast_path_forwards->Add(silent_fast_stages);
      m_.batches_completed->Add(1);
      m_.batch_latency_us->Observe(latency);
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        pending_latency_.Add(latency);
      }
      // The requester gets its answer the moment its batch completes —
      // in-flight neighbors keep running.
      std::vector<Tensor> outs;
      for (const auto& src : model_outputs_) {
        outs.push_back(state.chosen[static_cast<size_t>(src.stage)]
                                   [static_cast<size_t>(src.index)]);
      }
      feed.deliver(b, std::move(outs), state.verify_us, state.trace_id);
      // The next admission can only happen after this completion is
      // observed. It is deferred to the event loop (its own top-level
      // event) — calling admit() here would clobber the virtual-time
      // bases of the result event still being handled.
      vclock_us_ = std::max(vclock_us_, vcomplete);
    }
  };

  // Aggregate prefilter/verify-cost bookkeeping. The verification CPU
  // is attributed to its batch for the per-request latency breakdown.
  auto note_verify_job = [&](BatchState& state, int64_t verify_cpu,
                             const CheckStats& cstats) {
    m_.verify_job_us->Observe(verify_cpu);
    m_.prefilter_hits->Add(cstats.prefilter_hits);
    m_.full_checks->Add(cstats.full_checks);
    state.verify_us += verify_cpu;
  };

  // The decision verdict is its own virtual-time event, parallel to
  // ingestion: it lands at the latest virtual arrival of the reports it
  // used plus the verification CPU it took.
  auto begin_decision_event = [&](BatchState& state, size_t s,
                                  int64_t verify_cpu) {
    int64_t v_decide = 0;
    for (const auto& r : state.reports[s]) {
      if (r.has_value()) {
        v_decide = std::max(v_decide, static_cast<int64_t>(r->vtime_us));
      }
    }
    state.v_chosen[s] = v_decide + verify_cpu;
    event_vbase = state.v_chosen[s];
    handling_cpu0 = util::ThreadCpuMicros();
    send_cpu_excluded = 0;
  };

  // Inline straggler/backfill consistency check against the accepted
  // outputs (prefiltered; cheap enough for the ingestion thread).
  auto dissents_from_chosen = [&](BatchState& state, size_t s,
                                  const InferResultMsg& r,
                                  const OutputsSummary& rsum) {
    if (!r.ok) return true;
    if (!state.chosen.count(s)) return false;
    if (!config_.digest_prefilter) {
      return !OutputsConsistent(r.outputs, state.chosen[s], config_.check);
    }
    auto it = state.chosen_summary.find(s);
    if (it == state.chosen_summary.end() || !it->second.valid) {
      it = state.chosen_summary
               .insert_or_assign(s, SummarizeOutputs(state.chosen[s]))
               .first;
    }
    CheckStats cstats;
    const bool ok = OutputsConsistent(r.outputs, rsum, state.chosen[s],
                                      it->second, config_.check, &cstats);
    m_.prefilter_hits->Add(cstats.prefilter_hits);
    m_.full_checks->Add(cstats.full_checks);
    return !ok;
  };

  // Probation verdict: a shadow report either agrees with the accepted
  // outputs (one step closer to readmission) or dissents (back to
  // quarantine, or retired once the retry budget is spent).
  auto judge_shadow_slot = [&](size_t s, size_t b, size_t vi) {
    BatchState& state = bat(b);
    auto shit = state.shadow.find(s);
    if (shit == state.shadow.end() || !shit->second[vi].has_value()) return;
    InferResultMsg r = std::move(*shit->second[vi]);
    shit->second[vi].reset();  // judged exactly once
    const OutputsSummary rsum = state.shadow_sums[s][vi];
    const bool agreed = r.ok && !dissents_from_chosen(state, s, r, rsum);
    switch (supervisor_->ReportProbation(s, vi, agreed, util::NowMicros())) {
      case Supervisor::ProbationOutcome::kReadmitted:
        note_lifecycle(s, vi, "readmit", b, "probation complete");
        break;
      case Supervisor::ProbationOutcome::kRequarantined:
        detach_slot(s, vi);
        note_lifecycle(s, vi, "quarantine", b, "probation dissent");
        settle_owed(s, vi, "quarantined");
        break;
      case Supervisor::ProbationOutcome::kRetired:
        detach_slot(s, vi);
        note_lifecycle(s, vi, "retired", b, "retry budget exhausted");
        settle_owed(s, vi, "retired");
        break;
      case Supervisor::ProbationOutcome::kNone:
        break;
    }
  };
  judge_pending_shadows = [&](size_t s, size_t b) {
    BatchState& state = bat(b);
    auto shit = state.shadow.find(s);
    if (shit == state.shadow.end()) return;
    for (size_t vi = 0; vi < shit->second.size(); ++vi) {
      if (shit->second[vi].has_value()) judge_shadow_slot(s, b, vi);
    }
  };

  // Finalizes an MVX stage verdict from a full panel: the O(k²) Vote
  // runs on the monitor thread and its verdict commits at once.
  auto full_vote = [&](size_t s, size_t b) {
    BatchState& state = bat(b);
    const size_t k = stages_[s].variants.size();
    // Participating slots (batch mask == 1). Under supervision, failed
    // and missing members are excluded from the vote list and recorded
    // as automatic dissenters: acceptance is decided over the live
    // panel, so a degraded stage still reaches quorum (dMVX-style).
    std::vector<size_t> vmap;       // vote-list position -> panel index
    std::vector<int> auto_dissent;  // participating, excluded from list
    std::vector<std::vector<Tensor>> list;
    std::vector<OutputsSummary> sums;
    for (size_t i = 0; i < k; ++i) {
      if (state.masks[s][i] != 1) continue;
      const auto& r = state.reports[s][i];
      if (supervised && (!r.has_value() || !r->ok)) {
        auto_dissent.push_back(static_cast<int>(i));
        continue;
      }
      vmap.push_back(i);
      list.push_back(r.has_value() && r->ok ? r->outputs
                                            : std::vector<Tensor>{});
      sums.push_back(state.summaries[s][i]);
    }
    VotePolicy vote_policy = config_.vote;
    if (supervised && config_.reaction.degrade_to_majority) {
      // The quarantine reaction accepts on majority (the batch serves
      // from the winning bloc); dissent still drives quarantine.
      vote_policy = VotePolicy::kMajority;
    }
    const int64_t cpu0 = util::ThreadCpuMicros();
    VoteResult vote;
    CheckStats cstats;
    {
      obs::TraceContextScope troot(state.trace_id, 0);
      obs::ScopedSpan span("monitor/verify",
                           {.stage = static_cast<int32_t>(s),
                            .batch = static_cast<int64_t>(base + b),
                            .tag = "vote"},
                           &obs::TraceBuffer::Default(),
                           stages_[s].metrics.verify_us);
      vote = config_.digest_prefilter
                 ? Vote(list, sums, config_.check, vote_policy, &cstats)
                 : Vote(list, config_.check, vote_policy);
    }
    const int64_t verify_cpu = util::ThreadCpuMicros() - cpu0;
    state.voted.insert(s);
    note_verify_job(state, verify_cpu, cstats);
    begin_decision_event(state, s, verify_cpu);
    m_.checkpoints_evaluated->Add(1);
    // Dissenters in panel coordinates: the vote's dissenters mapped back
    // through vmap plus the auto-excluded failures.
    std::vector<int> dissent_idx = auto_dissent;
    for (int d : vote.dissenters) {
      dissent_idx.push_back(static_cast<int>(vmap[static_cast<size_t>(d)]));
    }
    std::sort(dissent_idx.begin(), dissent_idx.end());
    m_.divergences->Add(dissent_idx.size());
    m_.divergences_total->Add(dissent_idx.size());
    note_checkpoint(s, b, dissent_idx.empty() ? "accepted" : "divergence",
                    state.v_chosen[s], dissent_idx);
    if (!vote.accepted || vote.winner < 0 ||
        (config_.reaction.kind == ReactionKind::kAbort &&
         !dissent_idx.empty())) {
      if (run_error.ok()) {
        run_error = util::DivergenceDetected(
            "stage " + std::to_string(s) + " batch " + std::to_string(b) +
            ": " + std::to_string(dissent_idx.size()) + "/" +
            std::to_string(k) + " variants dissent");
      }
      dump_evidence("vote-divergence", state.trace_id, run_error.message());
      return;
    }
    state.chosen[s] = std::move(list[static_cast<size_t>(vote.winner)]);
    state.chosen_summary[s] = sums[static_cast<size_t>(vote.winner)];
    for (int d : dissent_idx) {
      lifecycle_dissent(s, static_cast<size_t>(d), b);
    }
    on_chosen(s, b);
  };

  // Async quorum attempt over the reports received so far (Fig. 8): the
  // largest consistent bloc decides once it holds a majority of the
  // batch-frozen panel, not of the configured k, so a degraded panel
  // keeps making progress. Without one, the full vote decides once the
  // whole panel answered.
  auto try_quorum = [&](size_t s, size_t b) {
    BatchState& state = bat(b);
    const size_t k = stages_[s].variants.size();
    const auto& panel = state.reports[s];
    const auto& sums = state.summaries[s];
    std::vector<size_t> healthy;  // panel indices of settled ok reports
    size_t settled = 0;
    size_t voting = 0;
    for (size_t i = 0; i < k; ++i) {
      if (state.masks[s][i] != 1) continue;
      ++voting;
      if (!panel[i].has_value()) continue;
      ++settled;
      if (panel[i]->ok) healthy.push_back(i);
    }
    const int64_t cpu0 = util::ThreadCpuMicros();
    CheckStats cstats;
    size_t best = 0, best_size = 0;
    std::vector<char> best_bloc;  // per healthy report: in the bloc
    {
      obs::TraceContextScope troot(state.trace_id, 0);
      obs::ScopedSpan span("monitor/verify",
                           {.stage = static_cast<int32_t>(s),
                            .batch = static_cast<int64_t>(base + b),
                            .tag = "quorum"},
                           &obs::TraceBuffer::Default(),
                           stages_[s].metrics.verify_us);
      for (size_t rp = 0; rp < healthy.size(); ++rp) {
        const size_t ri = healthy[rp];
        size_t size = 0;
        std::vector<char> bloc(healthy.size(), 0);
        for (size_t o = 0; o < healthy.size(); ++o) {
          const size_t oi = healthy[o];
          const bool consistent =
              config_.digest_prefilter
                  ? OutputsConsistent(panel[oi]->outputs, sums[oi],
                                      panel[ri]->outputs, sums[ri],
                                      config_.check, &cstats)
                  : OutputsConsistent(panel[oi]->outputs, panel[ri]->outputs,
                                      config_.check);
          if (consistent) {
            bloc[o] = 1;
            ++size;
          }
        }
        if (size > best_size) {
          best_size = size;
          best = ri;
          best_bloc = std::move(bloc);
        }
      }
    }
    const int64_t verify_cpu = util::ThreadCpuMicros() - cpu0;
    note_verify_job(state, verify_cpu, cstats);
    if (best_size < voting / 2 + 1) {
      if (settled == voting) full_vote(s, b);
      return;
    }
    state.voted.insert(s);
    begin_decision_event(state, s, verify_cpu);
    state.chosen[s] = panel[best]->outputs;
    state.chosen_summary[s] = sums[best];
    // Dissenting panel indices: settled slots outside the winning bloc
    // (failed slots always dissent).
    std::vector<int> dissent_idx;
    for (size_t i = 0, o = 0; i < k; ++i) {
      if (state.masks[s][i] != 1 || !panel[i].has_value()) continue;
      if (!panel[i]->ok) {
        dissent_idx.push_back(static_cast<int>(i));
      } else if (!best_bloc[o++]) {
        dissent_idx.push_back(static_cast<int>(i));
      }
    }
    m_.checkpoints_evaluated->Add(1);
    m_.divergences->Add(dissent_idx.size());
    m_.divergences_total->Add(dissent_idx.size());
    note_checkpoint(s, b, dissent_idx.empty() ? "accepted" : "divergence",
                    state.v_chosen[s], dissent_idx);
    if (!dissent_idx.empty() &&
        config_.reaction.kind == ReactionKind::kAbort) {
      if (run_error.ok()) {
        run_error = util::DivergenceDetected(
            "stage " + std::to_string(s) + " batch " + std::to_string(b) +
            ": dissent under async quorum");
      }
      dump_evidence("vote-divergence", state.trace_id, run_error.message());
      return;
    }
    for (int d : dissent_idx) {
      lifecycle_dissent(s, static_cast<size_t>(d), b);
    }
    on_chosen(s, b);
  };

  auto handle_result = [&](size_t s, size_t vi, InferResultMsg&& msg) {
    // Frames of an earlier stream, or of a reclaimed batch (which owed
    // nothing any more), are dropped.
    if (msg.batch_id < base || msg.batch_id >= base + admitted) return;
    const size_t b = static_cast<size_t>(msg.batch_id - base);
    const auto it = bs.find(b);
    if (it == bs.end()) return;
    BatchState& state = it->second;
    const size_t k = stages_[s].variants.size();
    // A panel report counts once, and only while it is owed: duplicates
    // and reports already released are dropped.
    if (k > 1) {
      if (!state.owes[s][vi]) return;
      stop_owing(state, s, vi);
      silent_since[s][vi] = util::NowMicros();
    }

    if (!msg.ok) m_.variant_failures->Add(1);

    // Fast path: single variant — forwarded unverified, unless the
    // slow path is forced (checkpoint rule evaluation, Fig. 10).
    if (k == 1) {
      if (!msg.ok) {
        note_checkpoint(s, b, "variant-failure",
                        static_cast<int64_t>(msg.vtime_us), {0}, &msg);
        if (run_error.ok()) {
          run_error = util::Aborted("stage " + std::to_string(s) +
                                    " variant failed: " + msg.error);
        }
        dump_evidence("run-abort", state.trace_id, run_error.message());
        return;
      }
      state.v_chosen[s] = static_cast<int64_t>(msg.vtime_us);
      if (config_.verify_fast_path) {
        bool rule_violation = false;
        {
          obs::TraceContextScope troot(state.trace_id, 0);
          obs::ScopedSpan span("monitor/verify",
                               {.stage = static_cast<int32_t>(s),
                                .batch = static_cast<int64_t>(msg.batch_id),
                                .tag = "rule"},
                               &obs::TraceBuffer::Default(),
                               stages_[s].metrics.verify_us);
          for (const auto& t : msg.outputs) {
            if (tensor::HasNonFinite(t)) rule_violation = true;
          }
        }
        m_.checkpoints_evaluated->Add(1);
        note_checkpoint(s, b,
                        rule_violation ? "rule-violation" : "accepted",
                        state.v_chosen[s],
                        rule_violation ? std::vector<int>{0}
                                       : std::vector<int>{},
                        &msg);
        if (rule_violation) {
          m_.divergences->Add(1);
          m_.divergences_total->Add(1);
          if (run_error.ok()) {
            run_error = util::DivergenceDetected(
                "stage " + std::to_string(s) + " batch " +
                std::to_string(b) + ": checkpoint rule violation");
          }
          dump_evidence("vote-divergence", state.trace_id,
                        run_error.message());
          return;
        }
      } else {
        m_.fast_path_forwards->Add(1);
      }
      state.v_chosen[s] += util::ThreadCpuMicros() - handling_cpu0 -
                           send_cpu_excluded;
      state.chosen[s] = std::move(msg.outputs);
      on_chosen(s, b);
      return;
    }

    // Slow path (MVX panel).
    if (state.masks[s][vi] == 2) {
      // Probation shadow: buffered out of the vote entirely; judged
      // against the committed verdict (immediately when this stage has
      // already decided, else when on_chosen drains pending shadows).
      auto& sh = state.shadow[s];
      auto& shs = state.shadow_sums[s];
      if (sh.empty()) {
        sh.resize(k);
        shs.resize(k);
      }
      if (config_.digest_prefilter && msg.ok) {
        shs[vi] = SummarizeOutputs(msg.outputs);
      }
      sh[vi] = std::move(msg);
      if (state.voted.count(s)) judge_shadow_slot(s, b, vi);
      return;
    }
    auto& panel = state.reports[s];
    auto& sums = state.summaries[s];
    if (panel.empty()) {
      panel.resize(k);
      sums.resize(k);
    }
    if (config_.digest_prefilter && msg.ok) {
      // One hashing pass per report; equal digests short-circuit the
      // pairwise element-wise checks downstream.
      sums[vi] = SummarizeOutputs(msg.outputs);
    }
    panel[vi] = std::move(msg);
    if (supervised && !panel[vi]->ok) {
      // Hard failure report: quarantine now (panel permitting) instead
      // of waiting for the vote to count the slot as a dissenter.
      const FailureKind kind =
          panel[vi]->error.rfind("recv timeout", 0) == 0
              ? FailureKind::kTimeout
              : FailureKind::kCrash;
      lifecycle_failure(s, vi, b, kind);
    }

    if (state.voted.count(s)) {
      // Async straggler: cross-validate against the accepted value.
      if (dissents_from_chosen(state, s, *panel[vi], sums[vi])) {
        m_.late_divergences->Add(1);
        m_.divergences_total->Add(1);
        note_checkpoint(s, b, "late-divergence",
                        static_cast<int64_t>(panel[vi]->vtime_us),
                        {static_cast<int>(vi)});
        lifecycle_dissent(s, vi, b);
      }
      return;
    }

    size_t received = 0, voting = 0;
    for (size_t i = 0; i < k; ++i) {
      if (state.masks[s][i] != 1) continue;
      ++voting;
      if (panel[i].has_value()) ++received;
    }

    if (config_.mode == ExecMode::kSync) {
      if (received == voting) full_vote(s, b);
      return;
    }

    // Async cross-validation: proceed at majority consensus among the
    // results received so far (Fig. 8).
    if (received >= voting / 2 + 1) try_quorum(s, b);
  };

  // A departed slot (quarantined or retired) can no longer send what it
  // owes. Reports nothing waits for are released; a voting seat of an
  // undecided stage whose inputs were all dispatched is settled as a
  // synthesized failure, so that vote proceeds now instead of waiting
  // out recv_timeout.
  settle_owed = [&](size_t s, size_t vi, const char* why) {
    if (!stages_[s].is_mvx()) return;
    for (auto& [b, state] : bs) {
      if (!state.owes[s][vi]) continue;
      if (releasable(state, s, vi)) {
        release_owed(state, s, vi);
        continue;
      }
      if (state.feeds_done[s] < stage_feed_count_[s]) continue;
      InferResultMsg fail;
      fail.batch_id = base + b;
      fail.vtime_us = static_cast<uint64_t>(vclock_us_);
      fail.ok = false;
      fail.error = why;
      handle_result(s, vi, std::move(fail));
    }
  };

  // Releases what members silent for recv_timeout_us owe where nothing
  // waits for it (undecided votes are left to the idle timeout below).
  auto release_silent = [&](int64_t now) {
    bool released = false;
    for (size_t s = 0; s < num_stages; ++s) {
      for (size_t vi = 0; vi < lag[s].size(); ++vi) {
        if (lag[s][vi] == 0 ||
            now - silent_since[s][vi] <= config_.recv_timeout_us) {
          continue;
        }
        for (auto& [b, state] : bs) {
          if (state.owes[s][vi] && releasable(state, s, vi)) {
            release_owed(state, s, vi);
            released = true;
          }
        }
      }
    }
    return released;
  };

  // Evented loop: reclaim finished batches, refill free pipeline slots
  // from the feed, poll every variant channel without blocking, then —
  // only if nothing happened — block on the shared wait set until a
  // frame lands or work is submitted. Each report is cross-validated
  // as it is handled. The stream ends once the feed quiesces with
  // nothing in flight and no report owed.
  int64_t idle_deadline = util::NowMicros() + config_.recv_timeout_us;
  auto work_remains = [&] {
    return completed < admitted || owed_total > 0 || !feed.quiesce();
  };
  while (work_remains() && run_error.ok()) {
    // Liveness beacon for the stall watchdog: the loop either makes
    // progress below or parks in a bounded (≤100ms) WaitFor, so a
    // healthy loop beats continuously while work is pending.
    m_.loop_heartbeat->Add(1);
    if (config_.loop_tick_hook) config_.loop_tick_hook();
    // Epoch snapshot BEFORE polling: an event landing after the
    // snapshot advances the epoch, so the wait below returns
    // immediately instead of losing the wakeup.
    const uint64_t epoch = wait_set_->Epoch();
    bool progressed = false;

    // 1) Reclaim every completed batch that owes no report.
    std::erase_if(bs, [](const auto& entry) {
      return entry.second.complete && entry.second.owed == 0;
    });

    // 2) Refill: pull scheduler-formed work into every free pipeline
    //    slot (each admission its own top-level virtual-time event).
    if (run_error.ok()) {
      const size_t inflight = admitted - completed;
      if (inflight < feed.max_inflight) {
        std::vector<std::vector<Tensor>> fresh;
        feed.refill(feed.max_inflight - inflight, &fresh);
        for (const auto& inputs : fresh) {
          admit(inputs);
          progressed = true;
        }
      }
    }

    // 2b) Lifecycle: re-run the two-stage bootstrap for quarantined
    //     slots whose backoff expired (inline — the handshake shares
    //     the monitor's enclave context).
    if (supervised && run_error.ok()) {
      for (const auto& [qs, qvi] :
           supervisor_->DueForRebootstrap(util::NowMicros())) {
        RebootstrapSlot(qs, qvi);
        const size_t evb = admitted > 0 ? admitted - 1 : 0;
        const VariantLifecycle after = supervisor_->state(qs, qvi);
        if (after == VariantLifecycle::kRetired) {
          note_lifecycle(qs, qvi, "retired", evb,
                         "bootstrap retry budget exhausted");
        } else if (after == VariantLifecycle::kProbation) {
          note_lifecycle(qs, qvi, "rebootstrap", evb,
                         "re-attested; entering probation");
        }
        progressed = true;
      }
    }

    // 3) Frames.
    for (size_t s = 0; s < num_stages && run_error.ok(); ++s) {
      for (size_t vi = 0; vi < stages_[s].variants.size(); ++vi) {
        if (supervised && !supervisor_->ChannelLive(s, vi)) continue;
        auto frame = stages_[s].variants[vi].channel->RecvPooled(0);
        if (!frame.ok()) {
          const auto code = frame.status().code();
          if (code == util::StatusCode::kDeadlineExceeded) {
            continue;  // no frame pending — the only benign case
          }
          // Channel death on a supervised MVX panel is a lifecycle
          // event, not a run error, while the panel floor allows the
          // shrink. Tampered/replayed frames kill the CHANNEL's trust
          // (the variant is quarantined and re-attested from scratch);
          // without a supervisor they abort the run as before.
          if (lifecycle_failure(s, vi, admitted > 0 ? admitted - 1 : 0,
                                FailureKind::kChannel)) {
            progressed = true;
            continue;
          }
          if (run_error.ok()) {
            if (code == util::StatusCode::kUnavailable) {
              run_error = util::Unavailable("variant " +
                                            stages_[s].variants[vi].id +
                                            " disconnected");
            } else {
              // Security taxonomy (DESIGN.md): authentication /
              // replay / decode failures on a variant channel abort
              // the run — a tampered or replayed frame must never be
              // treated as "no frame arrived".
              run_error = util::Status(
                  frame.status().code(),
                  "variant " + stages_[s].variants[vi].id + ": " +
                      frame.status().message());
            }
          }
          continue;
        }
        progressed = true;
        auto type = PeekType(frame->span());
        if (!type.ok() || *type != MsgType::kInferResult) continue;
        handling_cpu0 = util::ThreadCpuMicros();
        send_cpu_excluded = 0;
        auto msg = Decode<InferResultMsg>(*frame);
        if (!msg.ok()) {
          if (run_error.ok()) run_error = msg.status();
          continue;
        }
        event_vbase = static_cast<int64_t>(msg->vtime_us);
        handle_result(s, vi, std::move(*msg));
      }
    }

    // 4) Idle: block until the wait set's epoch moves on.
    if (progressed) {
      idle_deadline = util::NowMicros() + config_.recv_timeout_us;
    } else if (run_error.ok()) {
      const int64_t now = util::NowMicros();
      if (release_silent(now)) {
        idle_deadline = now + config_.recv_timeout_us;
        continue;
      }
      if (completed == admitted && owed_total == 0) {
        // An idle stream owes nothing: waiting for work is not a
        // variant stall.
        idle_deadline = now + config_.recv_timeout_us;
      }
      if (now > idle_deadline) {
        // A silent variant must not fail the whole batch while the
        // remaining panel can still satisfy the vote policy: classify
        // the expiry as per-slot variant failures on every owed voting
        // slot of a dispatched MVX stage, and let the verdict machinery
        // (and the supervisor, if any) take it from there. Fast-path
        // stages have no panel to absorb the loss — they still abort.
        // Only members silent for recv_timeout_us are classified: a
        // failure synthesized here can decide a stage and feed the next
        // one within this pass, and that stage's members just got their
        // inputs.
        bool classified = false;
        if (config_.reaction.kind != ReactionKind::kAbort) {
          for (auto& [b, state] : bs) {
            if (state.complete) continue;
            for (size_t s = 0; s < num_stages && run_error.ok(); ++s) {
              if (!stages_[s].is_mvx() || state.voted.count(s) ||
                  state.feeds_done[s] < stage_feed_count_[s]) {
                continue;  // decided, or inputs not all dispatched
              }
              for (size_t vi = 0;
                   vi < stages_[s].variants.size() && run_error.ok(); ++vi) {
                if (!state.owes[s][vi] || state.masks[s][vi] != 1 ||
                    now - silent_since[s][vi] <= config_.recv_timeout_us) {
                  continue;
                }
                event_vbase = vclock_us_;
                handling_cpu0 = util::ThreadCpuMicros();
                send_cpu_excluded = 0;
                InferResultMsg fail;
                fail.batch_id = base + b;
                fail.vtime_us = static_cast<uint64_t>(vclock_us_);
                fail.ok = false;
                fail.error = "recv timeout: no report within recv_timeout_us";
                handle_result(s, vi, std::move(fail));
                classified = true;
              }
            }
          }
        }
        if (classified) {
          idle_deadline = util::NowMicros() + config_.recv_timeout_us;
          continue;
        }
        run_error = util::DeadlineExceeded(
            "no variant progress within recv_timeout (" +
            std::to_string(completed) + "/" + std::to_string(admitted) +
            " batches complete)");
        break;
      }
      int64_t slice = idle_deadline - now;
      // Wake early for a batch-window expiry so held admissions are
      // re-examined on time.
      const int64_t wake = feed.next_wake_us();
      if (wake > 0) slice = std::min(slice, wake - now);
      // Bounded so deadline checks stay live even without events.
      slice = std::max<int64_t>(1, std::min<int64_t>(slice, 100'000));
      const int64_t wait0 = util::NowMicros();
      wait_set_->WaitFor(epoch, slice);
      m_.wait_us->Observe(util::NowMicros() - wait0);
    }
  }
  // A failed stream keeps no state: what is still owed can no longer be
  // checked.
  m_.unchecked_reports->Add(owed_total);

  // Incidents that never reached a verdict site (authentication /
  // replay failures, disconnects, deadlines) still leave evidence: one
  // bundle for the stream, attributed to the last admitted batch's
  // trace.
  if (!run_error.ok() && !evidence_dumped) {
    const auto code = run_error.code();
    const char* trigger =
        (code == util::StatusCode::kAuthenticationFailure ||
         code == util::StatusCode::kReplayDetected ||
         code == util::StatusCode::kPermissionDenied)
            ? "auth-failure"
            : "run-abort";
    dump_evidence(trigger, last_trace_id, run_error.message());
  }
  // Streams whose quarantines were absorbed without aborting leave a
  // bundle too: the ring holds the quarantine AND readmit/retire
  // verdicts, attributed to the first affected batch's trace.
  if (lifecycle_events && !evidence_dumped) {
    dump_evidence("quarantine", lifecycle_trigger_trace,
                  "variant lifecycle events (stream completed)");
  }

  m_.wall_us->Add(static_cast<uint64_t>(
      std::max<int64_t>(1, last_completion_vus - run_vstart)));
  m_.bytes_sent->Add(channel_bytes() - bytes0);
  return run_error;
}

util::Status Monitor::Shutdown() {
  StopService();
  if (!initialized_) return util::OkStatus();
  for (auto& stage : stages_) {
    for (auto& conn : stage.variants) {
      (void)conn.channel->Send(Encode(ShutdownMsg{}));
      conn.channel->Close();
    }
  }
  {
    std::lock_guard<std::mutex> lock(bindings_mu_);
    for (auto& b : bindings_) b.active = false;
  }
  stages_.clear();
  initialized_ = false;
  routes_configured_ = false;
  return util::OkStatus();
}

RunStats Monitor::ConsumeStats() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  const RunStats now = RegistryBaseline();
  RunStats out;
  out.wall_us = now.wall_us - consumed_base_.wall_us;
  out.checkpoints_evaluated =
      now.checkpoints_evaluated - consumed_base_.checkpoints_evaluated;
  out.fast_path_forwards =
      now.fast_path_forwards - consumed_base_.fast_path_forwards;
  out.divergences = now.divergences - consumed_base_.divergences;
  out.late_divergences =
      now.late_divergences - consumed_base_.late_divergences;
  out.variant_failures =
      now.variant_failures - consumed_base_.variant_failures;
  out.bytes_sent = now.bytes_sent - consumed_base_.bytes_sent;
  out.batch_latency_us = std::exchange(pending_latency_, {});
  consumed_base_ = now;
  return out;
}

std::vector<Monitor::Binding> Monitor::bindings() const {
  std::lock_guard<std::mutex> lock(bindings_mu_);
  return bindings_;
}

util::Result<std::vector<std::vector<Tensor>>> RunBatches(
    Monitor& monitor, const std::vector<std::vector<Tensor>>& batches,
    bool pipelined) {
  if (batches.empty()) return std::vector<std::vector<Tensor>>{};
  ServiceConfig config;
  config.scheduler.max_batch = pipelined ? batches.size() : 1;
  config.admission_queue_max = batches.size();
  monitor.StopService();
  MVTEE_RETURN_IF_ERROR(monitor.StartService(config));
  util::Status status = util::OkStatus();
  std::vector<std::future<InferenceResponse>> replies;
  if (auto session = monitor.OpenSession(); !session.ok()) {
    status = session.status();
  } else {
    for (const auto& inputs : batches) {
      InferenceRequest request;
      request.inputs = inputs;
      auto reply = (*session)->Submit(std::move(request));
      if (!reply.ok()) {
        status = reply.status();
        break;
      }
      replies.push_back(std::move(*reply));
    }
  }
  std::vector<std::vector<Tensor>> outputs;
  for (auto& reply : replies) {
    InferenceResponse response = reply.get();
    if (status.ok()) status = response.status;
    outputs.push_back(std::move(response.outputs));
  }
  monitor.StopService();
  MVTEE_RETURN_IF_ERROR(status);
  return outputs;
}

}  // namespace mvtee::core
