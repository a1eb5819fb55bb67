// A cloud secure-inference service walk-through (paper Figure 2 + 6).
//
// Plays all four roles end to end:
//   - the MODEL OWNER runs the offline tool, holds the variant keys, and
//     later orders a partial variant update;
//   - the (untrusted) ORCHESTRATOR places init-variant TEEs and can only
//     see encrypted files;
//   - the MONITOR attests every TEE, distributes keys, interleaves
//     concurrent user sessions through the pipelined partition DAG, and
//     audits bindings;
//   - USERS attest the monitor over the RA-TLS front end and submit
//     encrypted inference requests over per-session AEAD channels.
//
// Build & run:  ./build/examples/secure_inference_service
#include <cstdio>

#include <atomic>
#include <thread>

#include "core/monitor.h"
#include "core/offline.h"
#include "core/owner.h"
#include "core/variant_host.h"
#include "graph/model_zoo.h"
#include "obs/metrics.h"
#include "service/inference_service.h"
#include "transport/channel.h"

using namespace mvtee;

int main() {
  std::printf("=== MVTEE secure inference service ===\n\n");

  // ---------------------------------------------------- offline phase
  std::printf("[owner] building MobileNetV3 and running the offline MVX "
              "tool...\n");
  graph::ZooConfig zoo;
  zoo.input_hw = 32;
  graph::Graph model =
      graph::BuildModel(graph::ModelKind::kMobileNetV3, zoo);

  core::OfflineOptions offline;
  offline.num_partitions = 4;
  offline.pool.variants_per_stage = 4;  // spare capacity for updates
  auto bundle = core::RunOfflineTool(model, offline);
  if (!bundle.ok()) {
    std::printf("offline tool failed: %s\n",
                bundle.status().ToString().c_str());
    return 1;
  }
  std::printf("[owner] partition balance: %.2fx (1.0 = perfect)\n",
              bundle->partition_set.CostImbalance());
  for (const auto& v : bundle->variants) {
    std::printf("[owner]   variant %-8s stage %d runtime %-10s (sealed)\n",
                v.variant_id.c_str(), v.stage, v.runtime_name.c_str());
  }

  // ----------------------------------------------------- online phase
  std::printf("\n[orchestrator] placing TEEs (sees only ciphertext: %zu "
              "protected files)\n",
              bundle->store->size());
  tee::SimulatedCpu cpu;
  core::VariantHost::Options host_options;
  host_options.network = transport::NetworkCostModel::TenGbE();
  core::VariantHost host(&cpu, bundle->store, host_options);

  core::MonitorConfig config;
  config.vote = core::VotePolicy::kMajority;
  config.reaction = core::ReactionPolicy::ContinueWithWinner();
  config.mode = core::ExecMode::kAsync;
  auto monitor = core::Monitor::Create(&cpu, config);
  if (!monitor.ok()) return 1;

  // Fig. 6 steps 1-3, 8: the owner attests the monitor over an RA-TLS
  // handshake (challenge-response on the monitor's hardware-signed
  // report), provisions the MVX configuration + variant keys with a
  // fresh nonce, and receives the nonce-bound initialization evidence.
  std::printf("[owner] attesting the monitor and provisioning 2 variants "
              "per stage...\n");
  auto [owner_endpoint, monitor_endpoint] = transport::CreateChannel();
  std::thread owner_service([&, ep = std::move(monitor_endpoint)]() mutable {
    (void)core::ServeOwner(**monitor, host, std::move(ep));
  });
  core::ModelOwner owner(*bundle);
  auto status = owner.ProvisionDeployment(
      std::move(owner_endpoint), cpu, (*monitor)->enclave().measurement(),
      core::MvxSelection::Uniform(*bundle, 2));
  if (!status.ok()) {
    std::printf("provisioning failed: %s\n", status.ToString().c_str());
    return 1;
  }
  // Combined attestation of every bound variant TEE through the monitor.
  auto verified = owner.VerifyDeployment(cpu, host.init_variant_measurement());
  std::printf("[owner] combined attestation: %zu variant TEEs verified\n",
              verified.ok() ? *verified : 0);
  owner.Disconnect();
  owner_service.join();
  for (const auto& b : (*monitor)->bindings()) {
    std::printf("[monitor]   bound %-8s (stage %d, enclave report #%llu)\n",
                b.variant_id.c_str(), b.stage,
                static_cast<unsigned long long>(b.enclave_report_id));
  }

  // ---------------------------------------- attested service front end
  // The monitor now serves a long-lived request API: a Listener accepts
  // client connections, each client attests the monitor (its RA-TLS
  // report binds the session key into report_data), derives per-session
  // AEAD keys, and submits encrypted requests. Concurrent sessions are
  // coalesced by the admission loop into shared pipelined passes.
  std::printf("\n[service] opening the attested front end; 8 users x 2 "
              "encrypted requests each...\n");
  transport::Listener listener;
  auto service = service::InferenceService::Start(**monitor, listener);
  if (!service.ok()) {
    std::printf("service start failed: %s\n",
                service.status().ToString().c_str());
    return 1;
  }

  std::atomic<int> completed{0};
  std::atomic<int64_t> latency_sum_us{0};
  std::vector<std::thread> users;
  for (int u = 0; u < 8; ++u) {
    users.emplace_back([&, u] {
      // Every user independently verifies the monitor's measurement
      // before trusting it with plaintext inputs.
      auto client = service::InferenceClient::Connect(
          listener, cpu, (*monitor)->enclave().measurement());
      if (!client.ok()) return;
      util::Rng rng(100 + static_cast<uint64_t>(u));
      for (int r = 0; r < 2; ++r) {
        auto result = (*client)->Infer({tensor::Tensor::RandomUniform(
            tensor::Shape({1, 3, zoo.input_hw, zoo.input_hw}), rng)});
        if (result.ok()) {
          completed.fetch_add(1);
          latency_sum_us.fetch_add((*client)->last_latency_us());
        }
      }
      (*client)->Disconnect();
    });
  }
  for (auto& t : users) t.join();
  (*service)->Stop();

  obs::Registry& reg = (*monitor)->metrics();
  std::printf("[service] %d/16 requests served | %.2f ms/request | "
              "%llu admission groups (coalesced from %llu requests) | "
              "%llu rejected\n",
              completed.load(),
              completed.load() > 0
                  ? latency_sum_us.load() / 1000.0 / completed.load()
                  : 0.0,
              static_cast<unsigned long long>(
                  reg.GetCounter("service.groups_total").value()),
              static_cast<unsigned long long>(
                  reg.GetCounter("service.requests_total").value()),
              static_cast<unsigned long long>(
                  reg.GetCounter("service.rejected_total").value()));

  // -------------------------------------------------- partial update
  std::printf("\n[owner] rotating stage 1 to fresh variants (partial "
              "update, no TEE reuse)...\n");
  status = (*monitor)->UpdateStage(*bundle, host, 1, {"s1.v2", "s1.v3"});
  if (!status.ok()) {
    std::printf("update failed: %s\n", status.ToString().c_str());
    return 1;
  }
  // The session API drives the restarted request loop directly.
  util::Rng rng(7);
  std::string post_update = "OK";
  if (auto ok = (*monitor)->StartService(); !ok.ok()) {
    post_update = ok.ToString();
  } else if (auto session = (*monitor)->OpenSession(); !session.ok()) {
    post_update = session.status().ToString();
  } else if (auto pending = (*session)->Submit({{tensor::Tensor::RandomUniform(
                 tensor::Shape({1, 3, zoo.input_hw, zoo.input_hw}), rng)}});
             !pending.ok()) {
    post_update = pending.status().ToString();
  } else if (core::InferenceResponse response = pending->get();
             !response.status.ok()) {
    post_update = response.status.ToString();
  }
  std::printf("[service] post-update inference: %s\n", post_update.c_str());

  int active = 0, retired = 0;
  for (const auto& b : (*monitor)->bindings()) {
    (b.active ? active : retired)++;
  }
  std::printf("[monitor] audit log: %d active bindings, %d retired "
              "(append-only)\n",
              active, retired);

  (void)(*monitor)->Shutdown();
  host.JoinAll();
  std::printf("\n=== service shut down cleanly ===\n");
  // Non-zero unless every request was served, so a smoke run gates.
  return completed.load() == 16 && post_update == "OK" ? 0 : 1;
}
