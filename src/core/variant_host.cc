#include "core/variant_host.h"

#include <thread>

#include "core/messages.h"
#include "core/offline.h"
#include "graph/ir.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "transport/msg_channel.h"
#include "util/clock.h"
#include "variant/spec.h"

namespace mvtee::core {

namespace {

constexpr std::string_view kInitVariantCode = "mvtee-init-variant-v1";

// Virtual cost of moving one protected message across a TEE boundary:
// seal + wire + open. Measured software-crypto CPU is excluded from the
// virtual clocks; this analytic charge stands in for the testbed's
// hardware-accelerated record protection.
int64_t BoundaryMicros(const VariantHost::Options& options, size_t bytes) {
  double us = transport::WireMicros(options.network, bytes);
  if (!options.plaintext_channels && options.crypto_bytes_per_us > 0) {
    us += 2.0 * static_cast<double>(bytes) / options.crypto_bytes_per_us;
  }
  return static_cast<int64_t>(us);
}

// Pipeline stage encoded in a pool variant id ("s<N>.v<M>"); -1 when
// the id does not follow that convention.
int32_t StageFromVariantId(const std::string& id) {
  if (id.size() < 3 || id[0] != 's') return -1;
  int32_t stage = 0;
  size_t i = 1;
  for (; i < id.size() && id[i] >= '0' && id[i] <= '9'; ++i) {
    stage = stage * 10 + (id[i] - '0');
  }
  if (i == 1 || i >= id.size() || id[i] != '.') return -1;
  return stage;
}

// In-enclave state of one variant service after identity assignment.
struct VariantState {
  std::string variant_id;
  int32_t stage = -1;  // parsed from variant_id, for metric labels
  tee::FreshnessLedger ledger;
  std::unique_ptr<runtime::Executor> executor;
  size_t total_slots = 0;
  bool report_to_monitor = true;

  // Observability instruments, resolved once at identity assignment.
  obs::Histogram* infer_us = nullptr;        // variant.infer_us
  obs::Histogram* stage_infer_us = nullptr;  // variant.stage<N>.infer_us
  // This TEE's own span ring, registered as "tee/<variant_id>" with the
  // process collector so the merged timeline shows one row per TEE.
  std::shared_ptr<obs::TraceBuffer> trace;

  struct Upstream {
    std::unique_ptr<transport::MsgChannel> channel;
  };
  struct Downstream {
    std::unique_ptr<transport::MsgChannel> channel;
    std::vector<std::pair<uint32_t, uint32_t>> output_to_slot;
  };
  std::vector<Upstream> upstream;
  std::vector<Downstream> downstream;
  // Notified by each frame to the monitor channel or an upstream pipe.
  std::shared_ptr<transport::WaitSet> wake =
      std::make_shared<transport::WaitSet>();

  // Slot assembly per batch.
  struct Assembly {
    std::vector<std::optional<tensor::Tensor>> slots;
    size_t filled = 0;
    int64_t ready_vtime = 0;  // max virtual arrival over contributing msgs
    // Received trace context (authenticated channel header): the remote
    // parent this batch's infer span attaches under.
    obs::TraceContext ctx;
  };
  std::map<uint64_t, Assembly> pending;

  // Virtual-time performance model: this variant's own timeline. Real
  // work is measured with the thread CPU clock and advances the virtual
  // clock, so pipeline overlap across variants is reflected even on a
  // core-limited simulation host (see DESIGN.md §2).
  int64_t vclock_us = 0;
};

// Handles AssignIdentity: installs the key, loads + installs the
// second-stage manifest, decrypts the spec and stage graph, execs into
// the main stage and builds the executor.
util::Status AssumeIdentity(const AssignIdentityMsg& msg,
                            tee::Enclave& enclave,
                            tee::ProtectedStore& store, VariantHost& host,
                            VariantState& state) {
  state.variant_id = msg.variant_id;
  state.stage = StageFromVariantId(msg.variant_id);
  obs::Registry& reg = obs::Registry::Default();
  state.infer_us = &reg.GetHistogram("variant.infer_us");
  if (state.stage >= 0) {
    state.stage_infer_us = &reg.GetHistogram(
        "variant.stage" + std::to_string(state.stage) + ".infer_us");
  }
  state.trace = std::make_shared<obs::TraceBuffer>();
  obs::TraceCollector::Default().Register("tee/" + msg.variant_id,
                                          state.trace);
  obs::ScopedSpan span("variant/bootstrap",
                       {.stage = state.stage, .tag = msg.variant_id},
                       state.trace.get(),
                       &reg.GetHistogram("variant.bootstrap_us"));
  util::Bytes file_key =
      tee::DeriveVariantFileKey(msg.variant_key, msg.variant_id);
  MVTEE_RETURN_IF_ERROR(enclave.InstallProtectedFsKey(file_key));

  MVTEE_ASSIGN_OR_RETURN(
      util::Bytes manifest_bytes,
      store.Get(VariantManifestPath(msg.variant_id), file_key,
                &state.ledger));
  MVTEE_ASSIGN_OR_RETURN(tee::Manifest manifest,
                         tee::Manifest::Deserialize(manifest_bytes));
  MVTEE_RETURN_IF_ERROR(enclave.InstallSecondStageManifest(manifest));

  MVTEE_ASSIGN_OR_RETURN(
      util::Bytes spec_bytes,
      store.Get(VariantSpecPath(msg.variant_id), file_key, &state.ledger));
  MVTEE_ASSIGN_OR_RETURN(variant::VariantSpec spec,
                         variant::VariantSpec::Deserialize(spec_bytes));

  MVTEE_ASSIGN_OR_RETURN(
      util::Bytes graph_bytes,
      store.Get(VariantGraphPath(msg.variant_id), file_key, &state.ledger));
  MVTEE_ASSIGN_OR_RETURN(graph::Graph graph,
                         graph::Graph::Deserialize(graph_bytes));

  // One-way transition into the locked-down main stage.
  MVTEE_RETURN_IF_ERROR(enclave.Exec());

  MVTEE_ASSIGN_OR_RETURN(state.executor,
                         runtime::Executor::Create(graph, spec.exec_config));
  state.executor->SetTraceBuffer(state.trace.get());
  state.total_slots = state.executor->graph().inputs().size();
  // The adversary's fault hook, if the experiment set one for this id.
  if (auto hook = host.LookupFaultHook(msg.variant_id)) {
    state.executor->SetFaultHook(std::move(hook));
  }
  return util::OkStatus();
}

// Builds upstream/downstream channels per the routing message. Server
// handshakes run concurrently (one short-lived thread per pipe) to avoid
// cross-variant ordering deadlocks; client handshakes run inline.
util::Status SetupRoutes(const SetupRoutesMsg& msg, tee::Enclave& enclave,
                         VariantHost& host, tee::SimulatedCpu& cpu,
                         const VariantHost::Options& options,
                         VariantState& state) {
  state.report_to_monitor = msg.report_to_monitor;

  // Upstream: claim consumer ends, handshake as server concurrently.
  struct UpstreamSetup {
    transport::Endpoint endpoint;
    std::unique_ptr<transport::MsgChannel> channel;
    util::Status status = util::OkStatus();
  };
  std::vector<UpstreamSetup> setups(msg.upstream.size());
  for (size_t i = 0; i < msg.upstream.size(); ++i) {
    MVTEE_ASSIGN_OR_RETURN(
        setups[i].endpoint,
        host.ClaimPipeEnd(msg.upstream[i].pipe_id, /*producer_end=*/false));
  }
  if (options.plaintext_channels) {
    for (auto& setup : setups) {
      setup.channel = std::make_unique<transport::PlainMsgChannel>(
          std::move(setup.endpoint));
    }
  } else {
    std::vector<std::thread> handshakers;
    for (auto& setup : setups) {
      handshakers.emplace_back([&setup, &enclave, &cpu, &options] {
        auto secure = transport::SecureChannel::Handshake(
            std::move(setup.endpoint),
            transport::SecureChannel::Role::kServer, enclave,
            transport::AnyAttestedPeer(cpu), options.recv_timeout_us);
        if (!secure.ok()) {
          setup.status = secure.status();
          return;
        }
        setup.channel = std::make_unique<transport::SecureMsgChannel>(
            std::move(*secure));
      });
    }
    for (auto& t : handshakers) t.join();
  }
  for (auto& setup : setups) {
    MVTEE_RETURN_IF_ERROR(setup.status);
    setup.channel->AttachWaiter(state.wake);
    state.upstream.push_back({std::move(setup.channel)});
  }

  // Downstream: claim producer ends, handshake as client inline.
  for (const auto& down : msg.downstream) {
    MVTEE_ASSIGN_OR_RETURN(
        transport::Endpoint endpoint,
        host.ClaimPipeEnd(down.pipe_id, /*producer_end=*/true));
    std::unique_ptr<transport::MsgChannel> channel;
    if (options.plaintext_channels) {
      channel = std::make_unique<transport::PlainMsgChannel>(
          std::move(endpoint));
    } else {
      MVTEE_ASSIGN_OR_RETURN(
          auto secure,
          transport::SecureChannel::Handshake(
              std::move(endpoint), transport::SecureChannel::Role::kClient,
              enclave, transport::AnyAttestedPeer(cpu),
              options.recv_timeout_us));
      channel = std::make_unique<transport::SecureMsgChannel>(
          std::move(secure));
    }
    state.downstream.push_back({std::move(channel), down.output_to_slot});
  }
  return util::OkStatus();
}

// Places slot data into the batch assembly; returns the batch id if it
// became complete.
std::optional<uint64_t> Fill(VariantState& state, uint64_t batch,
                             const std::vector<uint32_t>& slots,
                             std::vector<tensor::Tensor>&& tensors,
                             int64_t arrival_vtime,
                             const obs::TraceContext& ctx) {
  auto& assembly = state.pending[batch];
  if (assembly.slots.empty()) {
    assembly.slots.resize(state.total_slots);
  }
  assembly.ready_vtime = std::max(assembly.ready_vtime, arrival_vtime);
  // All contributors carry the same trace id; keep the latest parent.
  if (ctx.valid()) assembly.ctx = ctx;
  for (size_t i = 0; i < slots.size(); ++i) {
    size_t slot = slots[i];
    if (slot >= assembly.slots.size()) continue;  // malformed; drop
    if (!assembly.slots[slot].has_value()) {
      assembly.slots[slot] = std::move(tensors[i]);
      ++assembly.filled;
    }
  }
  if (assembly.filled == state.total_slots && state.total_slots > 0) {
    return batch;
  }
  return std::nullopt;
}

// Runs a completed batch and distributes the results, advancing the
// variant's virtual clock by the measured CPU cost of inference,
// serialization and record protection, plus the modeled wire time on
// each outgoing message.
void RunAssembledBatch(VariantState& state, uint64_t batch,
                       transport::MsgChannel& monitor_channel,
                       const VariantHost::Options& options) {
  auto it = state.pending.find(batch);
  MVTEE_CHECK(it != state.pending.end());
  std::vector<tensor::Tensor> inputs;
  inputs.reserve(it->second.slots.size());
  for (auto& slot : it->second.slots) inputs.push_back(std::move(*slot));
  const int64_t v_start =
      std::max(state.vclock_us, it->second.ready_vtime);
  const obs::TraceContext remote_ctx = it->second.ctx;
  state.pending.erase(it);

  const int64_t cpu0 = util::ThreadCpuMicros();
  InferResultMsg result;
  result.batch_id = batch;
  // Infer span: parents under the monitor's dispatch span (or the
  // upstream variant's infer span) via the received context; its own
  // context is echoed on everything sent for this batch.
  obs::TraceContext infer_ctx;
  auto outputs = [&] {
    obs::TraceContextScope remote(remote_ctx);
    obs::ScopedSpan span("variant/infer",
                         {.stage = state.stage,
                          .batch = static_cast<int64_t>(batch),
                          .tag = state.variant_id},
                         state.trace ? state.trace.get()
                                     : &obs::TraceBuffer::Default());
    infer_ctx = span.context();
    return state.executor->Run(inputs);
  }();
  const int64_t infer_cpu_us = util::ThreadCpuMicros() - cpu0;
  if (state.infer_us != nullptr) state.infer_us->Observe(infer_cpu_us);
  if (state.stage_infer_us != nullptr) {
    state.stage_infer_us->Observe(infer_cpu_us);
  }
  if (outputs.ok()) {
    result.ok = true;
    result.outputs = std::move(*outputs);
  } else {
    // A trapped exploit / crash inside this variant.
    result.ok = false;
    result.error = outputs.status().ToString();
  }
  // Diversification slowdown scales the variant's virtual compute cost
  // (the executor's real sleep does not show up on the CPU clock).
  const double factor = state.executor->config().slowdown_factor;
  const int64_t v_done =
      v_start + static_cast<int64_t>(
                    static_cast<double>(util::ThreadCpuMicros() - cpu0) *
                    factor);

  const util::Bytes tctx = EncodeTraceContext(infer_ctx);
  if (result.ok) {
    // Direct fast-path forwarding to adjacent partitions (Fig. 7).
    for (auto& down : state.downstream) {
      StageDataMsg data;
      data.batch_id = batch;
      for (const auto& [output, slot] : down.output_to_slot) {
        data.slots.push_back(slot);
        data.tensors.push_back(result.outputs[output]);
      }
      // vtime depends only on the encoded size, so it is stamped before
      // the single-pass encode into the pooled wire buffer.
      data.vtime_us = static_cast<uint64_t>(
          v_done + BoundaryMicros(options, EncodedSize(data)));
      (void)SendFrame(*down.channel, data, tctx);
    }
  }
  // Failures are always surfaced to the monitor; successful outputs only
  // when this variant is on a reporting (slow-path / model-output) role.
  if (state.report_to_monitor || !result.ok) {
    result.vtime_us = static_cast<uint64_t>(
        v_done + BoundaryMicros(options, EncodedSize(result)));
    (void)SendFrame(monitor_channel, result, tctx);
  }
  state.vclock_us = v_done;
}

// Variant service main loop (one per enclave/thread).
void VariantServiceMain(std::unique_ptr<tee::Enclave> enclave,
                        transport::Endpoint endpoint, VariantHost* host,
                        tee::SimulatedCpu* cpu,
                        std::shared_ptr<tee::ProtectedStore> store,
                        VariantHost::Options options) {
  std::unique_ptr<transport::MsgChannel> monitor_channel;
  if (options.plaintext_channels) {
    monitor_channel = std::make_unique<transport::PlainMsgChannel>(
        std::move(endpoint));
  } else {
    auto secure = transport::SecureChannel::Handshake(
        std::move(endpoint), transport::SecureChannel::Role::kServer,
        *enclave, transport::AnyAttestedPeer(*cpu),
        options.recv_timeout_us);
    if (!secure.ok()) {
      cpu->ReleaseEnclave(*enclave);
      return;
    }
    monitor_channel = std::make_unique<transport::SecureMsgChannel>(
        std::move(*secure));
  }

  VariantState state;
  monitor_channel->AttachWaiter(state.wake);
  auto teardown = [&] {
    monitor_channel->Close();
    for (auto& up : state.upstream) up.channel->Close();
    for (auto& down : state.downstream) down.channel->Close();
    cpu->ReleaseEnclave(*enclave);
  };

  // A frame ends the idle wait at once. The bound keeps idle vCPUs
  // ticking under host load (DESIGN.md §7). An idle variant waits for
  // as long as it takes: the monitor ends it with ShutdownMsg, or by
  // dropping its channel end (kUnavailable above).
  const int64_t idle_wait_us = 50;

  for (;;) {
    // Taken before polling, so a frame that lands mid-poll ends the wait.
    const uint64_t epoch = state.wake->Epoch();
    bool progressed = false;

    // 1. Monitor channel (non-blocking poll).
    util::Bytes header;
    auto frame = monitor_channel->RecvPooled(0, &header);
    if (!frame.ok() &&
        frame.status().code() == util::StatusCode::kUnavailable) {
      teardown();
      return;  // monitor closed the channel
    }
    if (frame.ok()) {
      progressed = true;
      auto type = PeekType(frame->span());
      if (!type.ok()) {
        teardown();
        return;
      }
      switch (*type) {
        case MsgType::kAssignIdentity: {
          auto msg = Decode<AssignIdentityMsg>(frame->span());
          IdentityAckMsg ack;
          if (!msg.ok()) {
            ack.ok = false;
            ack.error = msg.status().ToString();
          } else {
            ack.variant_id = msg->variant_id;
            util::Status status =
                AssumeIdentity(*msg, *enclave, *store, *host, state);
            ack.ok = status.ok();
            if (!status.ok()) {
              ack.error = status.ToString();
            } else {
              ack.manifest_hash = enclave->manifest().Hash();
            }
          }
          (void)monitor_channel->Send(Encode(ack));
          break;
        }
        case MsgType::kSetupRoutes: {
          auto msg = Decode<SetupRoutesMsg>(frame->span());
          RoutesAckMsg ack;
          if (!msg.ok()) {
            ack.ok = false;
            ack.error = msg.status().ToString();
          } else {
            util::Status status =
                SetupRoutes(*msg, *enclave, *host, *cpu, options, state);
            ack.ok = status.ok();
            if (!status.ok()) ack.error = status.ToString();
          }
          (void)monitor_channel->Send(Encode(ack));
          break;
        }
        case MsgType::kInfer: {
          auto msg = Decode<InferMsg>(*frame);
          if (msg.ok() && state.executor) {
            state.vclock_us = std::max(
                state.vclock_us, static_cast<int64_t>(msg->vtime_us));
            obs::TraceContext ctx;
            if (auto c = DecodeTraceContext(header); c.ok()) ctx = *c;
            auto done = Fill(state, msg->batch_id, msg->slots,
                             std::move(msg->inputs), state.vclock_us, ctx);
            if (done) {
              RunAssembledBatch(state, *done, *monitor_channel, options);
            }
          } else if (msg.ok()) {
            InferResultMsg err;
            err.batch_id = msg->batch_id;
            err.ok = false;
            err.error = "variant not initialized";
            (void)monitor_channel->Send(Encode(err));
          }
          break;
        }
        case MsgType::kShutdown:
          teardown();
          return;
        default:
          break;  // ignore unexpected types
      }
    }

    // 2. Upstream fast-path pipes (non-blocking poll).
    for (auto& up : state.upstream) {
      util::Bytes up_header;
      auto data_frame = up.channel->RecvPooled(0, &up_header);
      if (!data_frame.ok()) continue;
      progressed = true;
      auto msg = Decode<StageDataMsg>(*data_frame);  // tensors alias the frame
      if (!msg.ok() || !state.executor) continue;
      state.vclock_us =
          std::max(state.vclock_us, static_cast<int64_t>(msg->vtime_us));
      obs::TraceContext ctx;
      if (auto c = DecodeTraceContext(up_header); c.ok()) ctx = *c;
      auto done = Fill(state, msg->batch_id, msg->slots,
                       std::move(msg->tensors), state.vclock_us, ctx);
      if (done) {
        RunAssembledBatch(state, *done, *monitor_channel, options);
      }
    }

    if (!progressed) state.wake->WaitFor(epoch, idle_wait_us);
  }
}

}  // namespace

VariantHost::VariantHost(tee::SimulatedCpu* cpu,
                         std::shared_ptr<tee::ProtectedStore> store,
                         Options options)
    : cpu_(cpu), store_(std::move(store)), options_(options) {}

VariantHost::~VariantHost() { JoinAll(); }

util::Result<transport::Endpoint> VariantHost::SpawnVariantTee(
    tee::TeeType type) {
  obs::ScopedSpan span(
      "host/spawn", {},
      &obs::TraceBuffer::Default(),
      &obs::Registry::Default().GetHistogram("host.spawn_us"));
  MVTEE_ASSIGN_OR_RETURN(
      auto enclave,
      cpu_->LaunchEnclave(type, util::ToBytes(std::string(kInitVariantCode)),
                          tee::InitVariantManifest(),
                          options_.variant_epc_pages));
  // Real channels carry no sleep cost — options_.network is applied as
  // *virtual* wire time by the performance model.
  auto [monitor_side, variant_side] =
      transport::CreateChannel(transport::NetworkCostModel::Free());
  if (options_.tamper_variant_tx) {
    variant_side.SetInterceptor(options_.tamper_variant_tx);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.emplace_back(VariantServiceMain, std::move(enclave),
                          std::move(variant_side), this, cpu_, store_,
                          options_);
    ++spawned_total_;
  }
  return monitor_side;
}

size_t VariantHost::spawned_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spawned_total_;
}

crypto::Sha256Digest VariantHost::init_variant_measurement() const {
  crypto::Sha256 hasher;
  hasher.Update(util::ToBytes(std::string(kInitVariantCode)));
  auto mhash = tee::InitVariantManifest().Hash();
  hasher.Update(util::ByteSpan(mhash.data(), mhash.size()));
  return hasher.Finish();
}

void VariantHost::SetFaultHook(const std::string& variant_id,
                               std::shared_ptr<runtime::FaultHook> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  fault_hooks_[variant_id] = std::move(hook);
}

std::shared_ptr<runtime::FaultHook> VariantHost::LookupFaultHook(
    const std::string& variant_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = fault_hooks_.find(variant_id);
  return it == fault_hooks_.end() ? nullptr : it->second;
}

uint64_t VariantHost::CreatePipe() {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t id = next_pipe_id_++;
  auto [producer_end, consumer_end] =
      transport::CreateChannel(transport::NetworkCostModel::Free());
  pipes_[id] = {std::move(producer_end), std::move(consumer_end)};
  return id;
}

util::Result<transport::Endpoint> VariantHost::ClaimPipeEnd(
    uint64_t pipe_id, bool producer_end) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pipes_.find(pipe_id);
  if (it == pipes_.end()) {
    return util::NotFound("pipe " + std::to_string(pipe_id));
  }
  auto& slot = producer_end ? it->second.producer : it->second.consumer;
  if (!slot.has_value()) {
    return util::FailedPrecondition("pipe end already claimed");
  }
  transport::Endpoint endpoint = std::move(*slot);
  slot.reset();
  if (!it->second.producer.has_value() && !it->second.consumer.has_value()) {
    pipes_.erase(it);
  }
  return endpoint;
}

void VariantHost::JoinAll() {
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> lock(mu_);
    to_join.swap(threads_);
  }
  for (auto& t : to_join) {
    if (t.joinable()) t.join();
  }
}

}  // namespace mvtee::core
