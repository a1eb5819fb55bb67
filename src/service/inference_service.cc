#include "service/inference_service.h"

#include <algorithm>
#include <utility>

#include "core/messages.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "util/clock.h"

namespace mvtee::service {

InferenceService::InferenceService(core::Monitor& monitor,
                                   transport::Listener& listener,
                                   ServiceOptions options)
    : monitor_(monitor), listener_(listener), options_(options) {
  obs::Registry& reg = monitor.metrics();
  auth_failures_ = &reg.GetCounter("channel.auth_failures");
  handshake_failures_ = &reg.GetCounter("service.handshake_failures");
  reply_us_ = &reg.GetHistogram("service.reply_us");
}

util::Result<std::unique_ptr<InferenceService>> InferenceService::Start(
    core::Monitor& monitor, transport::Listener& listener,
    const ServiceOptions& options) {
  // The request loop must be live before the first session submits.
  MVTEE_RETURN_IF_ERROR(monitor.StartService(options.admission));
  std::unique_ptr<InferenceService> service(
      new InferenceService(monitor, listener, options));
  service->accept_thread_ =
      std::thread(&InferenceService::AcceptLoop, service.get());
  return service;
}

InferenceService::~InferenceService() { Stop(); }

void InferenceService::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  listener_.Close();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Closing the channels unblocks session threads parked in Recv.
    for (auto& channel : channels_) channel->Close();
    channels_.clear();
    threads.swap(session_threads_);
    finished_.clear();
  }
  for (auto& t : threads) t.join();
}

size_t InferenceService::session_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return session_threads_.size();
}

void InferenceService::ReapFinishedSessions() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::thread::id id : finished_) {
      auto it = std::find_if(
          session_threads_.begin(), session_threads_.end(),
          [id](const std::thread& t) { return t.get_id() == id; });
      if (it == session_threads_.end()) continue;
      done.push_back(std::move(*it));
      session_threads_.erase(it);
    }
    finished_.clear();
  }
  for (std::thread& t : done) t.join();
}

void InferenceService::AcceptLoop() {
  for (;;) {
    ReapFinishedSessions();
    auto endpoint = listener_.Accept(200'000);
    if (!endpoint.ok()) {
      if (endpoint.status().code() == util::StatusCode::kUnavailable) return;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopped_) return;
      }
      continue;  // accept timeout: poll the stop flag again
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) {
      endpoint->Close();
      return;
    }
    session_threads_.emplace_back(&InferenceService::ServeSession, this,
                                  std::move(*endpoint));
  }
}

void InferenceService::ServeSession(transport::Endpoint endpoint) {
  std::shared_ptr<transport::SecureMsgChannel> channel;
  RunSession(std::move(endpoint), channel);
  std::lock_guard<std::mutex> lock(mu_);
  if (channel != nullptr) std::erase(channels_, channel);
  finished_.push_back(std::this_thread::get_id());
}

void InferenceService::RunSession(
    transport::Endpoint endpoint,
    std::shared_ptr<transport::SecureMsgChannel>& channel) {
  // RA-TLS handshake: the monitor presents its report (binding its
  // ephemeral key into report_data); clients connect unattested — it is
  // the *client* that must be convinced it talks to the genuine
  // monitor, not vice versa. A failed handshake is a distinct taxonomy
  // event (kHandshakeFailure), counted alongside record-level
  // authentication failures.
  auto handshake = transport::SecureChannel::Handshake(
      std::move(endpoint), transport::SecureChannel::Role::kServer,
      monitor_.enclave(), transport::AllowUnattestedPeer(),
      options_.handshake_timeout_us);
  if (!handshake.ok()) {
    handshake_failures_->Add(1);
    auth_failures_->Add(1);
    return;
  }
  channel = std::make_shared<transport::SecureMsgChannel>(
      std::move(*handshake));
  // A session that ends before delivering a single frame never
  // completed establishment from the client's point of view — the
  // typical cause is a client that rejected our attestation report and
  // hung up. Classify that as a handshake failure too (a clean
  // kShutdown right after connecting is not one).
  bool served_any = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) {
      channel->Close();
      handshake_failures_->Add(1);
      auth_failures_->Add(1);
      return;
    }
    channels_.push_back(channel);
  }

  auto session = monitor_.OpenSession();
  if (!session.ok()) {
    channel->Close();
    return;
  }

  for (;;) {
    auto frame = channel->RecvPooled(options_.idle_timeout_us);
    if (!frame.ok()) {
      // kUnavailable: client (or Stop) closed the channel. A record
      // that fails authentication or replays a sequence number was
      // already counted by the channel; either way the session ends —
      // there is no recovery from a poisoned record stream.
      if (!served_any) {
        handshake_failures_->Add(1);
        auth_failures_->Add(1);
      }
      break;
    }
    served_any = true;
    auto type = core::PeekType(frame->span());
    if (!type.ok() || *type == core::MsgType::kShutdown) break;
    if (*type != core::MsgType::kSessionSubmit) break;

    auto msg = core::Decode<core::SessionSubmitMsg>(*frame);
    if (!msg.ok()) break;

    core::SessionReplyMsg reply;
    reply.seq = msg->seq;
    core::InferenceRequest request;
    request.inputs = std::move(msg->inputs);
    request.deadline_us = msg->deadline_us;
    request.tenant = std::move(msg->tenant);
    request.priority = msg->priority;
    request.model = std::move(msg->model);
    auto submitted = (*session)->SubmitSequenced(std::move(request), msg->seq);
    if (!submitted.ok()) {
      reply.code = static_cast<uint8_t>(submitted.status().code());
      reply.error = submitted.status().message();
      (void)core::SendFrame(*channel, reply);
      if (submitted.status().code() == util::StatusCode::kReplayDetected) {
        break;  // replayed Submit frame: abort the whole session
      }
      continue;  // e.g. admission rejection — the session survives
    }
    core::InferenceResponse response = submitted->get();
    reply.code = static_cast<uint8_t>(response.status.code());
    reply.error = response.status.message();
    reply.latency_us = response.latency_us;
    reply.outputs = std::move(response.outputs);
    // Reply-seal phase of the latency breakdown: encode + AEAD seal +
    // send, patched into the request's retained timeline by trace id.
    const int64_t reply_start = util::NowMicros();
    const bool sent = core::SendFrame(*channel, reply).ok();
    const int64_t reply_elapsed = util::NowMicros() - reply_start;
    reply_us_->Observe(reply_elapsed);
    obs::TimelineLog::Default().NoteReply(response.trace_id, reply_elapsed);
    if (!sent) break;
  }
  channel->Close();
}

util::Result<std::unique_ptr<InferenceClient>> InferenceClient::Connect(
    transport::Listener& listener, const tee::SimulatedCpu& cpu,
    const crypto::Sha256Digest& expected_monitor_measurement,
    int64_t timeout_us) {
  auto handshake = transport::SecureChannel::HandshakeUnattested(
      listener.Connect(), transport::SecureChannel::Role::kClient,
      transport::ExpectMeasurement(cpu, expected_monitor_measurement),
      timeout_us);
  if (!handshake.ok()) {
    // Attestation and transport errors keep their own codes (tests and
    // metrics distinguish them); everything else about a failed session
    // establishment is the taxonomy's kHandshakeFailure.
    const util::StatusCode code = handshake.status().code();
    if (code == util::StatusCode::kAttestationFailure ||
        code == util::StatusCode::kAuthenticationFailure ||
        code == util::StatusCode::kUnavailable) {
      return handshake.status();
    }
    return util::HandshakeFailure(handshake.status().ToString());
  }
  return std::unique_ptr<InferenceClient>(
      new InferenceClient(std::move(*handshake)));
}

util::Result<std::vector<tensor::Tensor>> InferenceClient::Infer(
    std::vector<tensor::Tensor> inputs, int64_t deadline_us,
    int64_t recv_timeout_us) {
  InferOptions options;
  options.deadline_us = deadline_us;
  options.recv_timeout_us = recv_timeout_us;
  return Infer(std::move(inputs), options);
}

util::Result<std::vector<tensor::Tensor>> InferenceClient::Infer(
    std::vector<tensor::Tensor> inputs, const InferOptions& options) {
  if (disconnected_) return util::FailedPrecondition("client disconnected");
  if (options.deadline_us < 0) {
    // Validated before any frame leaves: an already-expired budget must
    // not consume a sequence number or a network round trip.
    return util::AdmissionRejected(
        "deadline_us " + std::to_string(options.deadline_us) +
        " already expired at submit (0 = no deadline)");
  }
  const int64_t deadline_us = options.deadline_us;
  const int64_t recv_timeout_us = options.recv_timeout_us;
  core::SessionSubmitMsg msg;
  msg.seq = next_seq_;
  msg.deadline_us = deadline_us;
  msg.tenant = options.tenant;
  msg.priority = options.priority;
  msg.model = options.model;
  msg.inputs = std::move(inputs);
  MVTEE_RETURN_IF_ERROR(core::SendFrame(channel_, msg));
  next_seq_ += 1;
  MVTEE_ASSIGN_OR_RETURN(transport::InFrame frame,
                         channel_.RecvPooled(recv_timeout_us));
  MVTEE_ASSIGN_OR_RETURN(core::SessionReplyMsg reply,
                         core::Decode<core::SessionReplyMsg>(frame));
  if (reply.seq != msg.seq) {
    return util::ReplayDetected("reply sequence mismatch");
  }
  if (reply.code != static_cast<uint8_t>(util::StatusCode::kOk)) {
    return util::Status(static_cast<util::StatusCode>(reply.code),
                        std::move(reply.error));
  }
  last_latency_us_ = reply.latency_us;
  // The decoded tensors alias the pooled record buffer and pin it via
  // their keepalive — safe to hand out as-is.
  return std::move(reply.outputs);
}

const tee::AttestationReport& InferenceClient::monitor_report() {
  return channel_.secure().peer_report();
}

void InferenceClient::Disconnect() {
  if (disconnected_) return;
  disconnected_ = true;
  (void)channel_.Send(core::Encode(core::ShutdownMsg{}));
  channel_.Close();
}

}  // namespace mvtee::service
