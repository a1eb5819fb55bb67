#include "core/stream_engine.h"

#include <algorithm>
#include <utility>

#include "obs/timeline.h"
#include "util/clock.h"

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

// ------------------------------------------------------------------ VClock

void VClock::Begin(int64_t vbase) {
  vbase_ = vbase;
  cpu0_ = util::ThreadCpuMicros();
  excluded_ = 0;
}

int64_t VClock::Now() const {
  return vbase_ + (util::ThreadCpuMicros() - cpu0_ - excluded_);
}

util::Status VClock::Send(transport::MsgChannel& channel, const InferMsg& msg,
                          const util::Bytes& trace_context) {
  const int64_t cpu0 = util::ThreadCpuMicros();
  util::Status status = SendFrame(channel, msg, trace_context);
  excluded_ += util::ThreadCpuMicros() - cpu0;
  return status;
}

// ------------------------------------------------------------ event loop

StreamEngine::StreamEngine(Monitor& monitor, BatchFormer& former)
    : mon_(monitor),
      config_(monitor.config_),
      m_(monitor.m_),
      stages_(monitor.stages_),
      supervisor_(monitor.supervisor_.get()),
      st_(*monitor.service_),
      former_(former),
      recorder_(obs::FlightRecorder::Default()),
      max_inflight_(
          std::max<size_t>(1, monitor.service_config_.scheduler.max_batch)),
      base_(monitor.next_batch_id_.load()),
      run_vstart_(monitor.vclock_us_),
      last_completion_vus_(monitor.vclock_us_) {
  lag_.resize(stages_.size());
  silent_since_.resize(stages_.size());
  for (size_t s = 0; s < stages_.size(); ++s) {
    lag_[s].assign(stages_[s].variants.size(), 0);
    silent_since_[s].assign(stages_[s].variants.size(), 0);
    if (!stages_[s].is_mvx() && !mon_.stage_reports_[s]) {
      ++silent_fast_stages_;
    }
  }
}

util::Status StreamEngine::Run() {
  if (!mon_.initialized_) return util::FailedPrecondition("not initialized");
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

  // Evented loop: reclaim finished batches, refill free pipeline slots,
  // poll every variant channel without blocking, then — only if nothing
  // happened — block on the shared wait set until a frame lands or work
  // is submitted. Each report is cross-validated as it is handled.
  const int64_t timeout = config_.recv_timeout_us;
  int64_t idle_deadline = util::NowMicros() + timeout;
  while (WorkRemains() && run_error_.ok()) {
    // Liveness beacon for the stall watchdog: the loop either makes
    // progress below or parks in a bounded (≤100ms) WaitFor, so a
    // healthy loop beats continuously while work is pending.
    m_.loop_heartbeat->Add(1);
    if (config_.loop_tick_hook) config_.loop_tick_hook();
    // Epoch snapshot BEFORE polling: an event landing after the
    // snapshot advances the epoch, so the wait below returns
    // immediately instead of losing the wakeup.
    const uint64_t epoch = mon_.wait_set_->Epoch();
    std::erase_if(batches_, [](const auto& entry) {
      return entry.second.complete && entry.second.owed == 0;
    });
    bool progressed = Refill();
    if (supervisor_ != nullptr && run_error_.ok()) progressed |= Rebootstrap();
    if (run_error_.ok()) progressed |= PollFrames();
    if (progressed) {
      idle_deadline = util::NowMicros() + timeout;
      continue;
    }
    if (!run_error_.ok()) break;
    const int64_t now = util::NowMicros();
    if (ReleaseSilent(now)) {
      idle_deadline = now + timeout;
      continue;
    }
    // An idle stream owes nothing: waiting for work is not a stall.
    if (completed_ == admitted_ && owed_total_ == 0) {
      idle_deadline = now + timeout;
    }
    if (now > idle_deadline) {
      if (SettleSilent(now)) {
        idle_deadline = util::NowMicros() + timeout;
        continue;
      }
      Fail(util::DeadlineExceeded(
          "no variant progress within recv_timeout (" +
          std::to_string(completed_) + "/" + std::to_string(admitted_) +
          " batches complete)"));
      break;
    }
    // Bounded so deadline checks stay live even without events; woken
    // early for a batch-window expiry so held admissions are
    // re-examined on time.
    int64_t slice = idle_deadline - now;
    if (window_recheck_us_ > 0) slice = std::min(slice, window_recheck_us_ - now);
    slice = std::max<int64_t>(1, std::min<int64_t>(slice, 100'000));
    const int64_t wait0 = util::NowMicros();
    mon_.wait_set_->WaitFor(epoch, slice);
    m_.wait_us->Observe(util::NowMicros() - wait0);
  }
  // A failed stream keeps no state: what is still owed can no longer be
  // checked.
  m_.unchecked_reports->Add(owed_total_);

  // Incidents that never reached a verdict site (authentication /
  // replay failures, disconnects, deadlines) still leave evidence: one
  // bundle for the stream, attributed to the last admitted batch's
  // trace.
  if (!run_error_.ok()) {
    const auto code = run_error_.code();
    const bool auth = code == util::StatusCode::kAuthenticationFailure ||
                      code == util::StatusCode::kReplayDetected ||
                      code == util::StatusCode::kPermissionDenied;
    DumpEvidence(auth ? "auth-failure" : "run-abort", last_trace_id_,
                 run_error_.message());
  }
  // Streams whose quarantines were absorbed without aborting leave a
  // bundle too: the ring holds the quarantine AND readmit/retire
  // verdicts, attributed to the first affected batch's trace.
  if (lifecycle_events_) {
    DumpEvidence("quarantine", lifecycle_trigger_trace_,
                 "variant lifecycle events (stream completed)");
  }
  m_.wall_us->Add(static_cast<uint64_t>(
      std::max<int64_t>(1, last_completion_vus_ - run_vstart_)));
  m_.bytes_sent->Add(channel_bytes() - bytes0);
  FailUnanswered();
  return run_error_;
}

// ---------------------------------------------------------- request side

bool StreamEngine::WorkRemains() {
  if (completed_ < admitted_ || owed_total_ > 0) return true;
  std::lock_guard<std::mutex> lock(st_.mu);
  return st_.accepting && !st_.queue.empty();
}

// Pulls scheduler-formed work into every free pipeline slot and admits
// it, each admission its own top-level virtual-time event. Expired and
// misshapen requests are answered here and never take a slot. Returns
// whether anything was admitted.
bool StreamEngine::Refill() {
  const size_t inflight = admitted_ - completed_;
  if (!run_error_.ok() || inflight >= max_inflight_) return false;
  window_recheck_us_ = 0;
  const int64_t now = util::NowMicros();

  // Pull the queued submits; unpicked ones are put back in arrival
  // order below.
  std::vector<Item> window;
  {
    std::lock_guard<std::mutex> lock(st_.mu);
    if (!st_.accepting) return false;
    window.assign(std::make_move_iterator(st_.queue.begin()),
                  std::make_move_iterator(st_.queue.end()));
    st_.queue.clear();
  }
  if (window.empty()) return false;

  std::vector<Item> viable;
  for (auto& item : window) {
    InferenceResponse response;
    if (item.deadline_abs_us != 0 && now >= item.deadline_abs_us) {
      st_.sched_deadline_misses->Add(1);
      response.status =
          util::DeadlineExceeded("request expired in admission queue");
    } else if (!MatchesShapes(item.inputs, mon_.model_input_shapes_)) {
      response.status = util::InvalidArgument(
          "request inputs do not match the model's input shapes");
    } else {
      viable.push_back(std::move(item));
      continue;
    }
    response.seq = item.seq;
    response.latency_us = now - item.enqueue_us;
    Answer(item, std::move(response), now - item.enqueue_us, 0, 0, false);
  }

  BatchPlan plan;
  if (!viable.empty()) {
    std::vector<SchedEntry> entries;
    entries.reserve(viable.size());
    for (const auto& item : viable) {
      entries.push_back({.id = item.ticket,
                         .tenant = item.tenant,
                         .priority = item.priority,
                         .deadline_abs_us = item.deadline_abs_us,
                         .enqueue_us = item.enqueue_us});
    }
    plan = former_.Form(entries, now, max_inflight_ - inflight,
                        inflight_per_tenant_);
    window_recheck_us_ = plan.recheck_at_us;
  }

  // Put unpicked submits back at the queue head, original order.
  std::vector<char> picked(viable.size(), 0);
  for (size_t i : plan.picks) picked[i] = 1;
  {
    std::lock_guard<std::mutex> lock(st_.mu);
    for (size_t i = viable.size(); i-- > 0;) {
      if (!picked[i]) st_.queue.push_front(std::move(viable[i]));
    }
    st_.queue_depth->Set(static_cast<int64_t>(st_.queue.size()));
  }
  if (plan.picks.empty()) return false;
  const auto occupancy = static_cast<int64_t>(inflight + plan.picks.size());
  st_.groups_total->Add(1);
  st_.sched_preemptions->Add(plan.preemptions);
  st_.sched_occupancy->Observe(occupancy);
  st_.inflight->Set(occupancy);
  for (size_t i : plan.picks) {
    ++inflight_per_tenant_[viable[i].tenant];
    Admit(std::move(viable[i]), now);
  }
  return true;
}

void StreamEngine::Answer(Item& item, InferenceResponse response,
                          int64_t queue_wait, int64_t infer_us,
                          int64_t verify_us, bool ok) {
  st_.queue_wait_us->Observe(queue_wait);
  st_.coalesce_us->Observe(0);  // formation is per-slot, not per-pass
  st_.infer_us->Observe(infer_us);
  st_.verify_us->Observe(verify_us);
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
}

// Answers a batch's request the moment the batch completes; in-flight
// neighbors keep running.
void StreamEngine::Deliver(BatchState& state, std::vector<Tensor> outputs) {
  Item& item = *state.request;
  const int64_t done = util::NowMicros();
  InferenceResponse response;
  response.seq = item.seq;
  response.latency_us = done - item.enqueue_us;
  response.trace_id = state.trace_id;
  response.outputs = std::move(outputs);
  if (item.deadline_abs_us != 0 && done > item.deadline_abs_us) {
    // Late success: still answered (the work is done and verified),
    // but it is a scheduler deadline miss — goodput counts it out.
    st_.sched_deadline_misses->Add(1);
  }
  st_.request_latency_us->Observe(response.latency_us);
  st_.TenantGoodput(item.tenant).Add(1);
  Answer(item, std::move(response), state.admit_us - item.enqueue_us,
         done - state.admit_us, state.verify_us, true);
  auto tit = inflight_per_tenant_.find(item.tenant);
  if (tit != inflight_per_tenant_.end() && tit->second > 0) --tit->second;
  state.request.reset();
  st_.inflight->Set(static_cast<int64_t>(admitted_ - completed_));
}

// A stream abort leaves admitted-but-unanswered requests: each fails
// with the stream error (or its own deadline, when that is the truer
// story). Requests answered before the abort keep their results —
// stream failure is not retroactive.
void StreamEngine::FailUnanswered() {
  const int64_t done = util::NowMicros();
  for (auto& [b, state] : batches_) {
    if (!state.request) continue;
    Item& item = *state.request;
    InferenceResponse response;
    response.seq = item.seq;
    response.latency_us = done - item.enqueue_us;
    if (!run_error_.ok() && item.deadline_abs_us != 0 &&
        done >= item.deadline_abs_us) {
      st_.sched_deadline_misses->Add(1);
      response.status = util::DeadlineExceeded(
          "request deadline passed: " + run_error_.ToString());
    } else if (!run_error_.ok()) {
      response.status = run_error_;
    } else {
      response.status = util::Unavailable("serving stream ended");
    }
    Answer(item, std::move(response), state.admit_us - item.enqueue_us,
           done - state.admit_us, 0, false);
  }
  st_.inflight->Set(0);
}

// ----------------------------------------------------------- batch table

uint64_t StreamEngine::TraceOf(size_t b) const {
  const auto it = batches_.find(b);
  return it != batches_.end() ? it->second.trace_id : last_trace_id_;
}

void StreamEngine::Admit(Item item, int64_t now) {
  const size_t b = admitted_++;
  (void)mon_.next_batch_id_.fetch_add(1);  // == base_ + b
  BatchState& state = batches_[b];
  const std::vector<Tensor> inputs = std::move(item.inputs);
  state.request = std::move(item);
  state.admit_us = now;
  state.trace_id = obs::NewTraceId();
  last_trace_id_ = state.trace_id;
  // Root of batch b's distributed trace; the span's context rides to
  // every variant in the sends' authenticated plaintext headers.
  obs::TraceContextScope troot(state.trace_id, 0);
  obs::ScopedSpan span("monitor/admit",
                       {.batch = static_cast<int64_t>(base_ + b), .tag = {}});
  const util::Bytes tctx = EncodeTraceContext(span.context());
  clock_.Begin(mon_.vclock_us_);
  state.admit_vus = clock_.Now();
  // Freeze panel membership for this batch: quarantined slots get no
  // inputs, probation slots shadow-execute.
  const size_t num_stages = stages_.size();
  state.masks.resize(num_stages);
  state.owes.resize(num_stages);
  state.feeds_done.assign(num_stages, 0);
  for (size_t s = 0; s < num_stages; ++s) {
    const size_t k = stages_[s].variants.size();
    state.masks[s].assign(k, 1);
    state.owes[s].assign(k, 0);
    for (size_t vi = 0; supervisor_ != nullptr && vi < k; ++vi) {
      state.masks[s][vi] = supervisor_->Voting(s, vi)   ? 1
                           : supervisor_->Shadow(s, vi) ? 2
                                                        : 0;
    }
  }
  for (size_t s = 0; s < num_stages; ++s) {
    if (mon_.model_input_slots_[s].empty()) continue;
    InferMsg msg;
    msg.batch_id = base_ + b;
    for (const auto& [slot, input_idx] : mon_.model_input_slots_[s]) {
      msg.slots.push_back(slot);
      msg.inputs.push_back(inputs[input_idx]);
    }
    Feed(state, s, msg, tctx);
  }
  mon_.vclock_us_ = clock_.Now();  // the monitor's ingestion path is serial
}

// The one send path: one input frame of a batch to every member of
// stage s that the batch's panel includes and whose channel is still
// live, each dated by the modeled boundary crossing. The lag bound sees
// the stage's first feed before any frame leaves.
void StreamEngine::Feed(BatchState& state, size_t s, InferMsg& msg,
                        const util::Bytes& trace_context) {
  // Encoded straight into each variant's pooled wire buffer; the vtime
  // stamp depends only on the (identical) frame size, so it is set per
  // variant before the single-pass encode.
  const size_t frame_size = EncodedSize(msg);
  BeginFeed(state, s);
  for (size_t vi = 0; vi < stages_[s].variants.size(); ++vi) {
    if (state.masks[s][vi] == 0) continue;
    // A panel member may have been quarantined since admission: its
    // channel is closed, skip quietly.
    if (supervisor_ != nullptr && !supervisor_->ChannelLive(s, vi)) continue;
    msg.vtime_us = static_cast<uint64_t>(clock_.Now() +
                                         ChargeBoundary(s, frame_size));
    util::Status status =
        clock_.Send(*stages_[s].variants[vi].channel, msg, trace_context);
    if (!status.ok()) Fail(std::move(status));
  }
  ++state.feeds_done[s];
}

// Models the stage-boundary crossing cost of one frame and charges it to
// the destination stage's model.* wire/crypto and bytes instruments.
int64_t StreamEngine::ChargeBoundary(size_t dest, size_t bytes) {
  const auto wire =
      static_cast<int64_t>(transport::WireMicros(mon_.network_, bytes));
  int64_t crypto = 0;
  if (mon_.crypto_bytes_per_us_ > 0) {
    crypto = static_cast<int64_t>(2.0 * static_cast<double>(bytes) /
                                  mon_.crypto_bytes_per_us_);
  }
  Monitor::StageMetrics& sm = stages_[dest].metrics;
  sm.wire_us->Add(static_cast<uint64_t>(wire));
  sm.crypto_us->Add(static_cast<uint64_t>(crypto));
  sm.bytes->Add(bytes);
  return wire + crypto;
}

// Releases stage s's verdict for batch b: judges the probation shadows,
// then, as the decision's own virtual-time event, feeds the chosen
// outputs to every monitor-mediated consumer, and completes the batch
// once every model output is chosen.
void StreamEngine::Forward(size_t s, size_t b) {
  BatchState& state = Batch(b);
  if (supervisor_ != nullptr) JudgePendingShadows(s, b);
  clock_.Begin(state.v_chosen[s]);
  if (!mon_.monitor_forwards_[s].empty()) {
    obs::TraceContextScope troot(state.trace_id, 0);
    obs::ScopedSpan span("monitor/forward",
                         {.stage = static_cast<int32_t>(s),
                          .batch = static_cast<int64_t>(base_ + b),
                          .tag = {}},
                         &obs::TraceBuffer::Default(),
                         stages_[s].metrics.forward_us);
    const util::Bytes tctx = EncodeTraceContext(span.context());
    const auto& outputs = state.chosen[s];
    for (const auto& target : mon_.monitor_forwards_[s]) {
      InferMsg msg;
      msg.batch_id = base_ + b;
      for (const auto& [out_idx, slot] : target.output_to_slot) {
        msg.slots.push_back(slot);
        msg.inputs.push_back(outputs[out_idx]);
      }
      Feed(state, static_cast<size_t>(target.consumer_stage), msg, tctx);
    }
  }
  const auto& sources = mon_.model_outputs_;
  const bool done = std::all_of(sources.begin(), sources.end(), [&](auto& o) {
    return state.chosen.count(static_cast<size_t>(o.stage)) > 0;
  });
  if (!state.complete && done) Complete(state);
}

void StreamEngine::Complete(BatchState& state) {
  state.complete = true;
  ++completed_;
  // Completion in virtual time: the latest per-stage decision among the
  // stages producing model outputs.
  int64_t vcomplete = 0;
  std::vector<Tensor> outs;
  for (const auto& src : mon_.model_outputs_) {
    const auto stage = static_cast<size_t>(src.stage);
    vcomplete = std::max(vcomplete, state.v_chosen[stage]);
    outs.push_back(state.chosen[stage][static_cast<size_t>(src.index)]);
  }
  if (vcomplete == 0) vcomplete = clock_.Now();
  const int64_t latency = std::max<int64_t>(
      0, vcomplete - std::max(state.admit_vus, last_completion_vus_));
  last_completion_vus_ = std::max(last_completion_vus_, vcomplete);
  m_.fast_path_forwards->Add(silent_fast_stages_);
  m_.batches_completed->Add(1);
  m_.batch_latency_us->Observe(latency);
  {
    std::lock_guard<std::mutex> lock(mon_.stats_mu_);
    mon_.pending_latency_.Add(latency);
  }
  Deliver(state, std::move(outs));
  // The next admission happens only after this completion is observed,
  // as its own top-level event of the loop.
  mon_.vclock_us_ = std::max(mon_.vclock_us_, vcomplete);
}

// ------------------------------------------------------------- decisions

// Reads every pending frame of every live member without blocking and
// handles each report as its own virtual-time event, based at its
// arrival. Returns whether anything happened.
bool StreamEngine::PollFrames() {
  bool progressed = false;
  for (size_t s = 0; s < stages_.size() && run_error_.ok(); ++s) {
    for (size_t vi = 0; vi < stages_[s].variants.size(); ++vi) {
      if (supervisor_ != nullptr && !supervisor_->ChannelLive(s, vi)) continue;
      auto frame = stages_[s].variants[vi].channel->RecvPooled(0);
      if (!frame.ok()) {
        // No frame pending is the only benign case.
        if (frame.status().code() != util::StatusCode::kDeadlineExceeded) {
          progressed |= ChannelFailed(s, vi, frame.status());
        }
        continue;
      }
      progressed = true;
      auto type = PeekType(frame->span());
      if (!type.ok() || *type != MsgType::kInferResult) continue;
      auto msg = Decode<InferResultMsg>(*frame);
      if (!msg.ok()) {
        Fail(msg.status());
        continue;
      }
      clock_.Begin(static_cast<int64_t>(msg->vtime_us));
      HandleResult(s, vi, std::move(*msg));
    }
  }
  return progressed;
}

// Channel death on a supervised MVX panel is a lifecycle event while the
// panel floor allows the shrink: a tampered or replayed frame kills the
// channel's trust, and the member is quarantined and re-attested from
// scratch. Otherwise it ends the stream; per the security taxonomy
// (DESIGN.md) a tampered or replayed frame is never "no frame arrived".
// Returns whether the failure was absorbed.
bool StreamEngine::ChannelFailed(size_t s, size_t vi,
                                 const util::Status& status) {
  if (LifecycleFailure(s, vi, admitted_ > 0 ? admitted_ - 1 : 0,
                       FailureKind::kChannel)) {
    return true;
  }
  const std::string& id = stages_[s].variants[vi].id;
  Fail(status.code() == util::StatusCode::kUnavailable
           ? util::Unavailable("variant " + id + " disconnected")
           : util::Status(status.code(),
                          "variant " + id + ": " + status.message()));
  return false;
}

void StreamEngine::HandleResult(size_t s, size_t vi, InferResultMsg&& msg) {
  // Frames of an earlier stream, or of a reclaimed batch (which owed
  // nothing any more), are dropped.
  if (msg.batch_id < base_ || msg.batch_id >= base_ + admitted_) return;
  const size_t b = static_cast<size_t>(msg.batch_id - base_);
  const auto it = batches_.find(b);
  if (it == batches_.end()) return;
  BatchState& state = it->second;
  const size_t k = stages_[s].variants.size();
  // A panel report counts once, and only while it is owed: duplicates
  // and reports already released are dropped.
  if (k > 1) {
    if (!state.owes[s][vi]) return;
    StopOwing(state, s, vi);
    silent_since_[s][vi] = util::NowMicros();
  }
  if (!msg.ok) m_.variant_failures->Add(1);
  if (k == 1) {
    FastPath(s, b, std::move(msg));
    return;
  }
  // One hashing pass per report; equal digests short-circuit the
  // pairwise element-wise checks downstream.
  Report report{std::move(msg), {}};
  if (report.msg.ok) report.sum = SummarizeOutputs(report.msg.outputs);
  // Probation shadow: buffered out of the vote entirely; judged against
  // the committed verdict (immediately when this stage has already
  // decided, else when Forward drains pending shadows).
  const bool shadow = state.masks[s][vi] == 2;
  Reports& seats = shadow ? state.shadow[s] : state.reports[s];
  seats.resize(k);
  seats[vi] = std::move(report);
  if (shadow) {
    if (state.voted.count(s)) JudgeShadow(s, b, vi);
    return;
  }
  const InferResultMsg& r = seats[vi]->msg;
  if (!r.ok) {
    // Hard failure report: quarantine now (panel permitting) instead of
    // waiting for the vote to count the slot as a dissenter.
    LifecycleFailure(s, vi, b,
                     r.error.rfind("recv timeout", 0) == 0
                         ? FailureKind::kTimeout
                         : FailureKind::kCrash);
  }
  if (state.voted.count(s)) {
    // Async straggler: cross-validate against the accepted value.
    if (DissentsFromChosen(state, s, *seats[vi])) {
      m_.late_divergences->Add(1);
      m_.divergences_total->Add(1);
      NoteCheckpoint(s, b, "late-divergence",
                     static_cast<int64_t>(r.vtime_us),
                     {static_cast<int>(vi)});
      LifecycleDissent(s, vi, b);
    }
    return;
  }
  size_t received = 0, voting = 0;
  for (size_t i = 0; i < k; ++i) {
    if (state.masks[s][i] != 1) continue;
    ++voting;
    if (seats[i].has_value()) ++received;
  }
  // Sync votes once the whole panel answered; async tries a quorum at
  // majority consensus among the reports received so far (Fig. 8).
  if (config_.mode == ExecMode::kSync) {
    if (received == voting) FullVote(s, b);
  } else if (received >= voting / 2 + 1) {
    TryQuorum(s, b);
  }
}

// Single-variant stage: forwarded unverified, unless the slow path is
// forced (checkpoint rule evaluation, Fig. 10). A failure has no panel
// to absorb it and ends the stream.
void StreamEngine::FastPath(size_t s, size_t b, InferResultMsg&& msg) {
  if (!msg.ok) {
    NoteCheckpoint(s, b, "variant-failure",
                   static_cast<int64_t>(msg.vtime_us), {0}, &msg);
    Fail(util::Aborted("stage " + std::to_string(s) +
                       " variant failed: " + msg.error));
    DumpEvidence("run-abort", Batch(b).trace_id, run_error_.message());
    return;
  }
  Decision d;
  d.fast = &msg;
  d.checked = config_.verify_fast_path;
  if (d.checked) {
    obs::TraceContextScope troot(Batch(b).trace_id, 0);
    obs::ScopedSpan span("monitor/verify",
                         {.stage = static_cast<int32_t>(s),
                          .batch = static_cast<int64_t>(msg.batch_id),
                          .tag = "rule"},
                         &obs::TraceBuffer::Default(),
                         stages_[s].metrics.verify_us);
    for (const auto& t : msg.outputs) {
      if (tensor::HasNonFinite(t)) d.accepted = false;
    }
    if (!d.accepted) d.dissent = {0};
  }
  // The report's arrival plus the monitor's handling of it so far.
  d.v_decide = clock_.Now();
  d.outputs = std::move(msg.outputs);
  Commit(s, b, std::move(d));
}

// Async quorum attempt over the reports received so far (Fig. 8): the
// majority vote over every voting seat of the batch-frozen panel, with
// unsettled and failed seats empty, so the bloc must hold more than half
// of the seats and a degraded panel keeps making progress. Without one,
// the full vote decides once the whole panel answered.
void StreamEngine::TryQuorum(size_t s, size_t b) {
  BatchState& state = Batch(b);
  const Reports& panel = state.reports[s];
  std::vector<size_t> seats;  // vote-list position -> panel index
  std::vector<std::vector<Tensor>> list;
  std::vector<OutputsSummary> sums;
  size_t settled = 0;
  for (size_t i = 0; i < panel.size(); ++i) {
    if (state.masks[s][i] != 1) continue;
    const auto& r = panel[i];
    settled += r.has_value() ? 1 : 0;
    seats.push_back(i);
    list.push_back(r && r->msg.ok ? r->msg.outputs : std::vector<Tensor>{});
    sums.push_back(r ? r->sum : OutputsSummary{});
  }
  int64_t verify_cpu = 0;
  const VoteResult vote = RunVote(s, b, "quorum", list, sums,
                                  VotePolicy::kMajority, &verify_cpu);
  if (!vote.accepted) {
    if (settled == seats.size()) FullVote(s, b);
    return;
  }
  // Dated by the winning bloc; only settled seats outside it dissent.
  Decision d;
  std::vector<char> outside(list.size(), 0);
  for (int x : vote.dissenters) outside[static_cast<size_t>(x)] = 1;
  for (size_t j = 0; j < list.size(); ++j) {
    const auto& r = panel[seats[j]];
    if (!outside[j]) {
      d.v_decide = std::max(d.v_decide, static_cast<int64_t>(r->msg.vtime_us));
    } else if (r.has_value()) {
      d.dissent.push_back(static_cast<int>(seats[j]));
    }
  }
  d.v_decide += verify_cpu;
  const auto winner = static_cast<size_t>(vote.winner);
  d.outputs = std::move(list[winner]);
  d.summary = sums[winner];
  Commit(s, b, std::move(d));
}

// Finalizes an MVX stage verdict from a full panel under the configured
// vote policy, dated by the latest report it waited for.
void StreamEngine::FullVote(size_t s, size_t b) {
  BatchState& state = Batch(b);
  const Reports& panel = state.reports[s];
  // Participating slots (batch mask == 1). Under supervision, failed
  // members are excluded from the vote list and recorded as automatic
  // dissenters: acceptance is decided over the live panel, so a
  // degraded stage still reaches quorum (dMVX-style).
  const bool supervised = supervisor_ != nullptr;
  std::vector<size_t> vmap;  // vote-list position -> panel index
  Decision d;
  std::vector<std::vector<Tensor>> list;
  std::vector<OutputsSummary> sums;
  for (size_t i = 0; i < panel.size(); ++i) {
    if (state.masks[s][i] != 1) continue;
    const auto& r = panel[i];
    const bool ok = r.has_value() && r->msg.ok;
    if (r.has_value()) {
      d.v_decide = std::max(d.v_decide, static_cast<int64_t>(r->msg.vtime_us));
    }
    if (supervised && !ok) {
      d.dissent.push_back(static_cast<int>(i));
      continue;
    }
    vmap.push_back(i);
    list.push_back(ok ? r->msg.outputs : std::vector<Tensor>{});
    sums.push_back(r ? r->sum : OutputsSummary{});
  }
  // The quarantine reaction accepts on majority (the batch serves from
  // the winning bloc); dissent still drives quarantine.
  const VotePolicy policy =
      supervised && config_.reaction.degrade_to_majority
          ? VotePolicy::kMajority
          : config_.vote;
  int64_t verify_cpu = 0;
  const VoteResult vote =
      RunVote(s, b, "vote", list, sums, policy, &verify_cpu);
  for (int x : vote.dissenters) {
    d.dissent.push_back(static_cast<int>(vmap[static_cast<size_t>(x)]));
  }
  std::sort(d.dissent.begin(), d.dissent.end());
  d.v_decide += verify_cpu;
  d.accepted = vote.accepted && vote.winner >= 0;
  if (d.accepted) {
    d.outputs = std::move(list[static_cast<size_t>(vote.winner)]);
    d.summary = sums[static_cast<size_t>(vote.winner)];
  }
  Commit(s, b, std::move(d));
}

// Votes on the monitor thread inside the stage's monitor/verify span and
// attributes the verification CPU to the batch.
VoteResult StreamEngine::RunVote(
    size_t s, size_t b, const char* tag,
    const std::vector<std::vector<Tensor>>& list,
    const std::vector<OutputsSummary>& sums, VotePolicy policy,
    int64_t* verify_cpu) {
  BatchState& state = Batch(b);
  const int64_t cpu0 = util::ThreadCpuMicros();
  CheckStats cstats;
  VoteResult vote;
  {
    obs::TraceContextScope troot(state.trace_id, 0);
    obs::ScopedSpan span("monitor/verify",
                         {.stage = static_cast<int32_t>(s),
                          .batch = static_cast<int64_t>(base_ + b),
                          .tag = tag},
                         &obs::TraceBuffer::Default(),
                         stages_[s].metrics.verify_us);
    vote = Vote(list, sums, config_.check, policy, &cstats);
  }
  *verify_cpu = util::ThreadCpuMicros() - cpu0;
  m_.verify_job_us->Observe(*verify_cpu);
  m_.prefilter_hits->Add(cstats.prefilter_hits);
  m_.full_checks->Add(cstats.full_checks);
  state.verify_us += *verify_cpu;
  return vote;
}

// The one commit of a stage verdict: checkpoint accounting and evidence,
// the abort branch, lifecycle dissent, then the forward.
void StreamEngine::Commit(size_t s, size_t b, Decision d) {
  BatchState& state = Batch(b);
  state.voted.insert(s);
  state.v_chosen[s] = d.v_decide;
  if (!d.checked) {
    m_.fast_path_forwards->Add(1);
  } else {
    m_.checkpoints_evaluated->Add(1);
    m_.divergences->Add(d.dissent.size());
    m_.divergences_total->Add(d.dissent.size());
    const char* verdict = d.dissent.empty() ? "accepted"
                          : d.fast != nullptr ? "rule-violation"
                                              : "divergence";
    NoteCheckpoint(s, b, verdict, d.v_decide, d.dissent, d.fast);
    if (!d.accepted || (config_.reaction.kind == ReactionKind::kAbort &&
                        !d.dissent.empty())) {
      Fail(util::DivergenceDetected(
          "stage " + std::to_string(s) + " batch " + std::to_string(b) +
          ": " + verdict + ", " + std::to_string(d.dissent.size()) + "/" +
          std::to_string(stages_[s].variants.size()) + " variants dissent"));
      DumpEvidence("vote-divergence", state.trace_id, run_error_.message());
      return;
    }
  }
  state.chosen[s] = std::move(d.outputs);
  state.chosen_summary[s] = d.summary;
  for (int x : d.dissent) LifecycleDissent(s, static_cast<size_t>(x), b);
  Forward(s, b);
}

// Inline straggler/backfill consistency check against the accepted
// outputs (prefiltered; cheap enough for the ingestion thread).
bool StreamEngine::DissentsFromChosen(BatchState& state, size_t s,
                                      const Report& r) {
  if (!r.msg.ok) return true;
  if (!state.chosen.count(s)) return false;
  OutputsSummary& chosen = state.chosen_summary[s];
  if (!chosen.valid) chosen = SummarizeOutputs(state.chosen[s]);
  CheckStats cstats;
  const bool ok = OutputsConsistent(r.msg.outputs, r.sum, state.chosen[s],
                                    chosen, config_.check, &cstats);
  m_.prefilter_hits->Add(cstats.prefilter_hits);
  m_.full_checks->Add(cstats.full_checks);
  return !ok;
}

// Flight recorder (DESIGN.md §8): every committed verdict is noted into
// the bounded ring. `fast` supplies the report on the fast path (k ==
// 1), where the panel-report map is never populated.
void StreamEngine::NoteCheckpoint(size_t s, size_t b, const char* verdict,
                                  int64_t v_decide,
                                  const std::vector<int>& dissenters,
                                  const InferResultMsg* fast) {
  BatchState& state = Batch(b);
  obs::CheckpointEvidence ev;
  ev.trace_id = state.trace_id;
  ev.batch = base_ + b;
  ev.stage = static_cast<int32_t>(s);
  ev.verdict = verdict;
  ev.v_decide_us = v_decide;
  const size_t k = stages_[s].variants.size();
  const auto rit = state.reports.find(s);
  for (size_t i = 0; i < k; ++i) {
    obs::VariantEvidence ve;
    ve.variant_id = stages_[s].variants[i].id;
    if (fast != nullptr && k == 1) {
      ve.ok = fast->ok;
      ve.vtime_us = fast->vtime_us;
    } else if (rit != state.reports.end() && i < rit->second.size() &&
               rit->second[i].has_value()) {
      const Report& r = *rit->second[i];
      ve.ok = r.msg.ok;
      ve.vtime_us = r.msg.vtime_us;
      ve.digest = r.sum.digest;
      ve.nonfinite = r.sum.nonfinite;
    }
    ve.dissent = std::find(dissenters.begin(), dissenters.end(),
                           static_cast<int>(i)) != dissenters.end();
    ev.variants.push_back(std::move(ve));
  }
  recorder_.Note(std::move(ev));
}

// On divergence / auth failure / abort the retained ring plus the
// affected batch's trace slice is dumped as a self-contained evidence
// bundle ($MVTEE_EVIDENCE_DIR). The first incident wins; later failures
// in the same stream ride along in the already-written ring.
void StreamEngine::DumpEvidence(const char* trigger, uint64_t trace_id,
                                const std::string& detail) {
  if (evidence_dumped_) return;
  evidence_dumped_ = true;
  (void)recorder_.DumpBundle(trigger, trace_id, detail);
}

void StreamEngine::Fail(util::Status status) {
  if (run_error_.ok()) run_error_ = std::move(status);
}

// ------------------------------------------------------------- lag bound

// Runs before the first frame of a batch reaches panel stage s. A member
// that already owes max_inflight_ reports skips the batch, as long as a
// majority of the panel still gets it; so does a member whose channel
// closed since admission. Every other member owes a report from here
// on.
void StreamEngine::BeginFeed(BatchState& state, size_t s) {
  if (!stages_[s].is_mvx() || state.feeds_done[s] > 0) return;
  std::vector<char>& mask = state.masks[s];
  const size_t k = mask.size();
  auto voting = static_cast<size_t>(std::count(mask.begin(), mask.end(), 1));
  for (size_t vi = 0; vi < k; ++vi) {
    if (mask[vi] == 0) continue;
    const bool departed =
        supervisor_ != nullptr && !supervisor_->ChannelLive(s, vi);
    if (!departed) {
      if (lag_[s][vi] < max_inflight_) continue;
      if (mask[vi] == 1 && voting <= k / 2 + 1) continue;
      m_.unsampled_batches->Add(1);
    }
    if (mask[vi] == 1) --voting;
    mask[vi] = 0;
  }
  const int64_t now = util::NowMicros();
  for (size_t vi = 0; vi < k; ++vi) {
    if (mask[vi] == 0) continue;
    if (lag_[s][vi]++ == 0) silent_since_[s][vi] = now;
    state.owes[s][vi] = 1;
    ++state.owed;
    ++owed_total_;
  }
}

void StreamEngine::StopOwing(BatchState& state, size_t s, size_t vi) {
  state.owes[s][vi] = 0;
  --state.owed;
  --lag_[s][vi];
  --owed_total_;
}

// An owed report that can no longer arrive: never cross-checked and
// never judged as dissent.
void StreamEngine::ReleaseOwed(BatchState& state, size_t s, size_t vi) {
  StopOwing(state, s, vi);
  m_.unchecked_reports->Add(1);
}

// An owed report nothing waits for any more: a shadow seat, a decided
// stage or a completed batch. A voting seat of an undecided stage is
// settled as a failure instead, so its vote can proceed.
bool StreamEngine::Releasable(const BatchState& state, size_t s,
                              size_t vi) const {
  return state.masks[s][vi] != 1 || state.complete ||
         state.voted.count(s) > 0;
}

// Whether member vi of stage s owes a report and has been silent for
// more than recv_timeout_us.
bool StreamEngine::Silent(size_t s, size_t vi, int64_t now) const {
  return lag_[s][vi] > 0 &&
         now - silent_since_[s][vi] > config_.recv_timeout_us;
}

// A departed slot (quarantined or retired) can no longer send what it
// owes. Reports nothing waits for are released; a voting seat of an
// undecided stage whose inputs were all dispatched is settled as a
// failure, so that vote proceeds now instead of waiting out
// recv_timeout.
void StreamEngine::SettleOwed(size_t s, size_t vi, const char* why) {
  if (!stages_[s].is_mvx()) return;
  for (auto& [b, state] : batches_) {
    if (!state.owes[s][vi]) continue;
    if (Releasable(state, s, vi)) {
      ReleaseOwed(state, s, vi);
    } else if (state.feeds_done[s] == mon_.stage_feed_count_[s]) {
      FailReport(s, vi, b, why);
    }
  }
}

// Releases what silent members owe where nothing waits for it
// (undecided votes are left to SettleSilent).
bool StreamEngine::ReleaseSilent(int64_t now) {
  bool released = false;
  for (size_t s = 0; s < lag_.size(); ++s) {
    for (size_t vi = 0; vi < lag_[s].size(); ++vi) {
      if (!Silent(s, vi, now)) continue;
      for (auto& [b, state] : batches_) {
        if (state.owes[s][vi] && Releasable(state, s, vi)) {
          ReleaseOwed(state, s, vi);
          released = true;
        }
      }
    }
  }
  return released;
}

// The idle-timeout classifier. A silent variant must not fail the whole
// batch while the remaining panel can still satisfy the vote policy:
// every owed voting seat of an undecided, fully dispatched MVX stage
// whose member has been silent for recv_timeout_us is settled as a
// failure, and the verdict machinery (and the supervisor, if any) takes
// it from there. Only silent members are classified: a failure settled
// here can decide a stage and feed the next one within this pass, and
// that stage's members just got their inputs. Fast-path stages have no
// panel to absorb the loss; the stream still aborts for them. Returns
// whether any seat was settled.
bool StreamEngine::SettleSilent(int64_t now) {
  if (config_.reaction.kind == ReactionKind::kAbort) return false;
  bool settled = false;
  for (auto& [b, state] : batches_) {
    for (size_t s = 0; s < stages_.size() && run_error_.ok(); ++s) {
      if (state.complete || !stages_[s].is_mvx() || state.voted.count(s) ||
          state.feeds_done[s] < mon_.stage_feed_count_[s]) {
        continue;  // decided, or inputs not all dispatched
      }
      for (size_t vi = 0; vi < stages_[s].variants.size(); ++vi) {
        if (!run_error_.ok() || !state.owes[s][vi] ||
            state.masks[s][vi] != 1 || !Silent(s, vi, now)) {
          continue;
        }
        FailReport(s, vi, b, "recv timeout: no report within recv_timeout_us");
        settled = true;
      }
    }
  }
  return settled;
}

// The one failure synthesizer: member vi's report for batch b, which can
// no longer arrive, is handled as a failure dated at the monitor's
// ingestion clock.
void StreamEngine::FailReport(size_t s, size_t vi, size_t b,
                              std::string why) {
  InferResultMsg fail;
  fail.batch_id = base_ + b;
  fail.vtime_us = static_cast<uint64_t>(mon_.vclock_us_);
  fail.ok = false;
  fail.error = std::move(why);
  HandleResult(s, vi, std::move(fail));
}

// ------------------------------------------------------ supervisor hooks
//
// Lifecycle supervision (ReactionKind::kQuarantineAndRestart): every
// transition is noted into the flight recorder on the affected batch's
// trace, and a slot that leaves the panel settles what it owed.

// Lifecycle verdict record ("quarantine" / "rebootstrap" / "readmit" /
// "retired").
void StreamEngine::NoteLifecycle(size_t s, size_t vi, const char* verdict,
                                 size_t b) {
  obs::CheckpointEvidence ev;
  ev.trace_id = TraceOf(b);
  ev.batch = base_ + b;
  ev.stage = static_cast<int32_t>(s);
  ev.verdict = verdict;
  ev.v_decide_us = mon_.vclock_us_;
  obs::VariantEvidence ve;
  ve.variant_id = stages_[s].variants[vi].id;
  ve.ok = std::string_view(verdict) == "readmit" ||
          std::string_view(verdict) == "rebootstrap";
  ve.dissent = !ve.ok;
  ev.variants.push_back(std::move(ve));
  if (!lifecycle_events_) lifecycle_trigger_trace_ = ev.trace_id;
  lifecycle_events_ = true;
  recorder_.Note(std::move(ev));
}

// A slot that just left the panel ("quarantine" / "retired"): channel
// teardown, audit, the lifecycle note, and its owed reports settled.
void StreamEngine::Depart(size_t s, size_t vi, const char* verdict,
                          size_t b) {
  stages_[s].variants[vi].channel->Close();
  mon_.DeactivateBinding(static_cast<int32_t>(s), stages_[s].variants[vi].id);
  NoteLifecycle(s, vi, verdict, b);
  SettleOwed(s, vi, verdict);
}

// Hard failure: quarantine when the supervisor allows the shrink.
// Returns false when unsupervised, at the panel floor, or on a fast-path
// (k == 1) stage — callers keep their old error handling.
bool StreamEngine::LifecycleFailure(size_t s, size_t vi, size_t b,
                                    FailureKind kind) {
  if (supervisor_ == nullptr || !stages_[s].is_mvx() ||
      !supervisor_->ReportFailure(s, vi, kind, util::NowMicros())) {
    return false;
  }
  Depart(s, vi, "quarantine", b);
  return true;
}

// Checkpoint dissent: Healthy -> Suspect, then Quarantined once
// ReactionPolicy::dissent_threshold verdicts accumulate.
void StreamEngine::LifecycleDissent(size_t s, size_t vi, size_t b) {
  if (supervisor_ != nullptr &&
      supervisor_->ReportDissent(s, vi, util::NowMicros())) {
    Depart(s, vi, "quarantine", b);
  }
}

// Probation verdict: a shadow report either agrees with the accepted
// outputs (one step closer to readmission) or dissents (back to
// quarantine, or retired once the retry budget is spent).
void StreamEngine::JudgeShadow(size_t s, size_t b, size_t vi) {
  BatchState& state = Batch(b);
  auto shit = state.shadow.find(s);
  if (shit == state.shadow.end() || !shit->second[vi].has_value()) return;
  const Report r = std::move(*shit->second[vi]);
  shit->second[vi].reset();  // judged exactly once
  const bool agreed = r.msg.ok && !DissentsFromChosen(state, s, r);
  switch (supervisor_->ReportProbation(s, vi, agreed, util::NowMicros())) {
    case Supervisor::ProbationOutcome::kReadmitted:
      NoteLifecycle(s, vi, "readmit", b);
      break;
    case Supervisor::ProbationOutcome::kRequarantined:
      Depart(s, vi, "quarantine", b);
      break;
    case Supervisor::ProbationOutcome::kRetired:
      Depart(s, vi, "retired", b);
      break;
    case Supervisor::ProbationOutcome::kNone:
      break;
  }
}

// Judges any shadow reports buffered while stage s's verdict was
// pending.
void StreamEngine::JudgePendingShadows(size_t s, size_t b) {
  BatchState& state = Batch(b);
  auto shit = state.shadow.find(s);
  if (shit == state.shadow.end()) return;
  for (size_t vi = 0; vi < shit->second.size(); ++vi) {
    if (shit->second[vi].has_value()) JudgeShadow(s, b, vi);
  }
}

// Re-runs the two-stage bootstrap for quarantined slots whose backoff
// expired (inline — the handshake shares the monitor's enclave
// context). Returns whether any ran.
bool StreamEngine::Rebootstrap() {
  bool ran = false;
  for (const auto& [s, vi] :
       supervisor_->DueForRebootstrap(util::NowMicros())) {
    mon_.RebootstrapSlot(s, vi);
    const size_t b = admitted_ > 0 ? admitted_ - 1 : 0;
    const VariantLifecycle after = supervisor_->state(s, vi);
    if (after == VariantLifecycle::kRetired) {
      NoteLifecycle(s, vi, "retired", b);
    } else if (after == VariantLifecycle::kProbation) {
      NoteLifecycle(s, vi, "rebootstrap", b);
    }
    ran = true;
  }
  return ran;
}

}  // namespace mvtee::core
