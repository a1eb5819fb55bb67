#include "core/owner.h"

#include "core/messages.h"
#include "crypto/rand.h"

namespace mvtee::core {

util::Status ModelOwner::ProvisionDeployment(
    transport::Endpoint endpoint, const tee::SimulatedCpu& cpu,
    const crypto::Sha256Digest& expected_monitor_measurement,
    const MvxSelection& selection, int64_t timeout_us) {
  // Fig. 6 step 2: challenge-response attestation of the monitor. The
  // RA-TLS handshake binds the monitor's ephemeral key into its report;
  // the owner itself runs outside TEEs and sends no report.
  MVTEE_ASSIGN_OR_RETURN(
      channel_,
      transport::SecureChannel::HandshakeUnattested(
          std::move(endpoint), transport::SecureChannel::Role::kClient,
          transport::ExpectMeasurement(cpu, expected_monitor_measurement),
          timeout_us));

  // Fig. 6 step 3: provision the MVX configuration with a fresh nonce.
  ProvisionMsg msg;
  msg.nonce = crypto::GlobalRandom().Generate(32);
  msg.bundle_config = bundle_.SerializeConfig();
  msg.stage_variant_ids = selection.stage_variant_ids;
  MVTEE_RETURN_IF_ERROR(channel_->Send(Encode(msg)));

  // Fig. 6 step 8: initialization results bound to the nonce.
  MVTEE_ASSIGN_OR_RETURN(util::Bytes frame, channel_->Recv(timeout_us));
  MVTEE_ASSIGN_OR_RETURN(ProvisionResultMsg result,
                         Decode<ProvisionResultMsg>(frame));
  if (!util::ConstantTimeEqual(result.nonce, msg.nonce)) {
    return util::ReplayDetected("provision result nonce mismatch");
  }
  if (!result.ok) {
    return util::Internal("deployment initialization failed: " +
                          result.error);
  }
  // The bindings must be exactly the requested selection, in order.
  size_t expected = 0;
  for (const auto& stage : selection.stage_variant_ids) {
    expected += stage.size();
  }
  if (result.bound_variant_ids.size() != expected) {
    return util::AttestationFailure("binding count mismatch");
  }
  return util::OkStatus();
}

util::Result<size_t> ModelOwner::VerifyDeployment(
    const tee::SimulatedCpu& cpu,
    const crypto::Sha256Digest& expected_variant_measurement,
    int64_t timeout_us) {
  if (!channel_) return util::FailedPrecondition("not provisioned");
  AttestQueryMsg query;
  query.nonce = crypto::GlobalRandom().Generate(32);
  MVTEE_RETURN_IF_ERROR(channel_->Send(Encode(query)));
  MVTEE_ASSIGN_OR_RETURN(util::Bytes frame, channel_->Recv(timeout_us));
  MVTEE_ASSIGN_OR_RETURN(AttestReplyMsg reply, Decode<AttestReplyMsg>(frame));
  if (!util::ConstantTimeEqual(reply.nonce, query.nonce)) {
    return util::ReplayDetected("attestation reply nonce mismatch");
  }
  size_t verified = 0;
  for (const auto& report_bytes : reply.variant_reports) {
    MVTEE_ASSIGN_OR_RETURN(tee::AttestationReport report,
                           tee::AttestationReport::Deserialize(report_bytes));
    MVTEE_RETURN_IF_ERROR(cpu.VerifyReport(report));
    if (!util::ConstantTimeEqual(
            util::ByteSpan(report.measurement.data(),
                           report.measurement.size()),
            util::ByteSpan(expected_variant_measurement.data(),
                           expected_variant_measurement.size()))) {
      return util::AttestationFailure("variant measurement mismatch");
    }
    ++verified;
  }
  return verified;
}

void ModelOwner::Disconnect() {
  if (!channel_) return;
  (void)channel_->Send(Encode(ShutdownMsg{}));
  channel_->Close();
  channel_.reset();
}

util::Status ServeOwner(Monitor& monitor, VariantHost& host,
                        transport::Endpoint endpoint, int64_t timeout_us) {
  MVTEE_ASSIGN_OR_RETURN(
      auto channel,
      transport::SecureChannel::Handshake(
          std::move(endpoint), transport::SecureChannel::Role::kServer,
          monitor.enclave(), transport::AllowUnattestedPeer(), timeout_us));

  for (;;) {
    auto frame = channel->Recv(timeout_us);
    if (!frame.ok()) {
      // Channel closed or timed out: service ends.
      return frame.status().code() == util::StatusCode::kUnavailable
                 ? util::OkStatus()
                 : frame.status();
    }
    auto type = PeekType(*frame);
    if (!type.ok()) return type.status();

    switch (*type) {
      case MsgType::kProvision: {
        auto msg = Decode<ProvisionMsg>(*frame);
        ProvisionResultMsg result;
        if (!msg.ok()) {
          result.ok = false;
          result.error = msg.status().ToString();
        } else {
          result.nonce = msg->nonce;
          auto bundle = OfflineBundle::DeserializeConfig(msg->bundle_config);
          util::Status status =
              bundle.ok() ? util::OkStatus() : bundle.status();
          if (status.ok()) {
            MvxSelection selection;
            selection.stage_variant_ids = msg->stage_variant_ids;
            status = monitor.Initialize(*bundle, selection, host);
          }
          result.ok = status.ok();
          if (!status.ok()) {
            result.error = status.ToString();
          } else {
            for (const auto& b : monitor.bindings()) {
              if (b.active) result.bound_variant_ids.push_back(b.variant_id);
            }
          }
        }
        MVTEE_RETURN_IF_ERROR(channel->Send(Encode(result)));
        break;
      }
      case MsgType::kAttestQuery: {
        auto msg = Decode<AttestQueryMsg>(*frame);
        if (!msg.ok()) return msg.status();
        AttestReplyMsg reply;
        reply.nonce = msg->nonce;
        for (const auto& b : monitor.bindings()) {
          if (b.active && !b.report.empty()) {
            reply.variant_reports.push_back(b.report);
          }
        }
        MVTEE_RETURN_IF_ERROR(channel->Send(Encode(reply)));
        break;
      }
      case MsgType::kShutdown:
        channel->Close();
        return util::OkStatus();
      default:
        return util::InvalidArgument("unexpected owner message");
    }
  }
}

}  // namespace mvtee::core
