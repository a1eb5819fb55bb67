#include "core/monitor.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "core/stream_engine.h"
#include "util/clock.h"
#include "util/knobs.h"
#include "util/logging.h"

namespace mvtee::core {

using tensor::Tensor;

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
    (void)StreamEngine(*this, former).Run();
  }
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
