// Confidential inference service front end (DESIGN.md §11).
//
// Modeled on the onnx-server-openenclave request-handler pattern: a
// client fetches the monitor TEE's attestation report — whose
// report_data binds the monitor's ephemeral X25519 public key — over
// the RA-TLS handshake, verifies the measurement, derives per-session
// AEAD keys via ECDH + transcript-bound HKDF, and then submits
// encrypted kSessionSubmit requests. Server-side, each accepted
// connection becomes one monitor Session; requests from concurrent
// sessions interleave through the MVX pipeline via the monitor's
// coalescing admission loop.
//
// Error taxonomy (DESIGN.md §7): a failed handshake is surfaced as
// kHandshakeFailure and counted in channel.auth_failures +
// service.handshake_failures; admission overflow is kAdmissionRejected,
// counted in service.rejected_total (the session survives); a replayed
// or reordered Submit frame is kReplayDetected and aborts the session.
#pragma once

#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/monitor.h"
#include "transport/channel.h"
#include "transport/msg_channel.h"
#include "transport/secure_channel.h"

namespace mvtee::service {

struct ServiceOptions {
  // Monitor-side admission knobs (queue bound, coalescing width).
  core::ServiceConfig admission;
  int64_t handshake_timeout_us = 5'000'000;
  // Per-session idle receive window; a session silent for this long is
  // closed (the client reconnects).
  int64_t idle_timeout_us = 30'000'000;
};

// Server: accepts connections from a transport::Listener, runs the
// attested handshake (monitor attested, clients unattested), and pumps
// each session's Submit frames into the monitor's request loop.
class InferenceService {
 public:
  // Starts the monitor's request loop (with `options.admission`), the
  // accept thread, and per-session service threads. The monitor and
  // listener must outlive the returned service.
  static util::Result<std::unique_ptr<InferenceService>> Start(
      core::Monitor& monitor, transport::Listener& listener,
      const ServiceOptions& options = ServiceOptions{});

  // Closes the listener and every live session channel, then joins all
  // service threads. Does NOT stop the monitor's request loop (other
  // frontends or in-process sessions may still use it). Idempotent.
  void Stop();

  // Session threads not yet joined: live sessions plus any that ended
  // since the accept loop last reaped (it does on every accept and at
  // least every 200 ms).
  size_t session_threads() const;

  ~InferenceService();

 private:
  InferenceService(core::Monitor& monitor, transport::Listener& listener,
                   ServiceOptions options);

  void AcceptLoop();
  // Joins the session threads that have finished.
  void ReapFinishedSessions();
  // Runs one session, then drops its channel from channels_ and queues
  // the thread for reaping.
  void ServeSession(transport::Endpoint endpoint);
  // The session itself; sets `channel` once it is registered.
  void RunSession(transport::Endpoint endpoint,
                  std::shared_ptr<transport::SecureMsgChannel>& channel);

  core::Monitor& monitor_;
  transport::Listener& listener_;
  ServiceOptions options_;

  obs::Counter* auth_failures_ = nullptr;       // channel.auth_failures
  obs::Counter* handshake_failures_ = nullptr;  // service.handshake_failures
  obs::Histogram* reply_us_ = nullptr;          // service.reply_us

  mutable std::mutex mu_;
  bool stopped_ = false;
  std::vector<std::thread> session_threads_;
  // Session threads that have returned and wait for the accept loop to
  // join them.
  std::vector<std::thread::id> finished_;
  // Live session channels, closable from Stop() to unblock their
  // threads; each thread also holds its own reference.
  std::vector<std::shared_ptr<transport::SecureMsgChannel>> channels_;
  std::thread accept_thread_;
};

// Client: one attested session against an InferenceService. Not
// thread-safe — one client per thread (open several sessions for
// concurrency; that is the point of the session API).
class InferenceClient {
 public:
  // Dials `listener`, performs the RA-TLS handshake as an unattested
  // client, and verifies that the service's report is hardware-signed
  // and measures as `expected_monitor_measurement` — rejecting a wrong
  // or stale report, or a report whose report_data does not bind the
  // handshake key. Handshake failures surface as kHandshakeFailure.
  static util::Result<std::unique_ptr<InferenceClient>> Connect(
      transport::Listener& listener, const tee::SimulatedCpu& cpu,
      const crypto::Sha256Digest& expected_monitor_measurement,
      int64_t timeout_us = 5'000'000);

  // Per-request options for Infer.
  struct InferOptions {
    // Relative budget, microseconds; 0 = no deadline. A negative value
    // is rejected client-side with kAdmissionRejected before any frame
    // is sent (no sequence number is consumed).
    int64_t deadline_us = 0;
    // Local wait bound for the reply record.
    int64_t recv_timeout_us = 60'000'000;
    // Scheduling hints for the multi-tenant scheduler (DESIGN.md §13):
    // fairness/ordering labels only, never authenticated inputs.
    std::string tenant;
    int32_t priority = 0;
    std::string model;
  };

  // Submits one encrypted request and blocks for the reply.
  // `deadline_us` is the relative per-request budget (0 = no deadline)
  // enforced at admission; `recv_timeout_us` bounds the local wait for
  // the reply record.
  util::Result<std::vector<tensor::Tensor>> Infer(
      std::vector<tensor::Tensor> inputs, int64_t deadline_us = 0,
      int64_t recv_timeout_us = 60'000'000);
  util::Result<std::vector<tensor::Tensor>> Infer(
      std::vector<tensor::Tensor> inputs, const InferOptions& options);

  // The monitor's attestation report captured during the handshake.
  const tee::AttestationReport& monitor_report();

  // Service-side latency (admission -> completion) of the last
  // successful Infer.
  int64_t last_latency_us() const { return last_latency_us_; }

  // Sends a clean end-of-session marker and closes the channel.
  void Disconnect();
  ~InferenceClient() { Disconnect(); }

  // Testing hook: the untrusted endpoint under the secure channel.
  transport::Endpoint& raw_endpoint() { return channel_.secure().raw_endpoint(); }

 private:
  explicit InferenceClient(std::unique_ptr<transport::SecureChannel> channel)
      : channel_(std::move(channel)) {}

  transport::SecureMsgChannel channel_;
  uint64_t next_seq_ = 0;
  int64_t last_latency_us_ = 0;
  bool disconnected_ = false;
};

}  // namespace mvtee::service
