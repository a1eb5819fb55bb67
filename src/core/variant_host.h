// Variant TEE host: the untrusted orchestrator's role (Fig. 6 step 1).
//
// Spawns variant TEEs as isolated execution domains (one thread per
// enclave, message-passing only) loaded with the public init-variant and
// its first-stage manifest. Everything variant-specific arrives later,
// encrypted, through the monitor's initialization protocol — the host
// never sees plaintext variant content (two-stage bootstrap, §4.3).
//
// The host doubles as the experiment's adversary surface: it can attach
// fault hooks to variants and gets raw access to the shared protected
// store and channels.
#pragma once

#include <map>
#include <optional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/executor.h"
#include "tee/enclave.h"
#include "tee/sealed_fs.h"
#include "transport/channel.h"
#include "util/status.h"

namespace mvtee::core {

class VariantHost {
 public:
  struct Options {
    transport::NetworkCostModel network = transport::NetworkCostModel::Free();
    // Virtual-time cost of AEAD record protection, bytes per microsecond
    // (seal + open are charged once each per boundary message). Default
    // calibrated to AES-NI GCM (~2.3 GB/s), the paper testbed's rate;
    // the simulation host's portable software GCM (~36 MB/s) is excluded
    // from virtual charges. 0 disables the charge.
    double crypto_bytes_per_us = 2300.0;
    // Plaintext channels (encryption-overhead ablation only).
    bool plaintext_channels = false;
    size_t variant_epc_pages = 4096;
    // Bounds each bootstrap handshake (monitor and pipe channels). A
    // running variant has no idle timeout.
    int64_t recv_timeout_us = 30'000'000;
    // Host-attacker hook: installed on every variant-side endpoint's
    // transmit path before the service thread starts (models a
    // compromised host tampering with / dropping frames on the wire).
    // The secure channel layer must surface such tampering as an
    // AuthenticationFailure at the monitor.
    transport::Interceptor tamper_variant_tx;
  };

  VariantHost(tee::SimulatedCpu* cpu,
              std::shared_ptr<tee::ProtectedStore> store)
      : VariantHost(cpu, std::move(store), Options{}) {}
  VariantHost(tee::SimulatedCpu* cpu,
              std::shared_ptr<tee::ProtectedStore> store, Options options);
  ~VariantHost();

  VariantHost(const VariantHost&) = delete;
  VariantHost& operator=(const VariantHost&) = delete;

  // Places one variant TEE (init-variant stage) and returns the
  // monitor-side endpoint of its channel. Also the supervisor's respawn
  // primitive: a quarantined variant's replacement is a brand-new spawn
  // (fresh enclave, fresh session keys) re-bootstrapped through the same
  // two-stage protocol; the retired instance's service thread exits when
  // the monitor closes its channel and is reaped by JoinAll().
  util::Result<transport::Endpoint> SpawnVariantTee(
      tee::TeeType type = tee::TeeType::kSgx2);

  // Total variant TEEs spawned over this host's lifetime (initial panel
  // + lifecycle respawns). Tests assert re-bootstrap actually re-spawned.
  size_t spawned_total() const;

  // Expected init-variant measurement (public: derived from the public
  // init-variant code and manifest).
  crypto::Sha256Digest init_variant_measurement() const;

  const tee::SimulatedCpu& cpu() const { return *cpu_; }
  tee::ProtectedStore& store() { return *store_; }
  const Options& options() const { return options_; }

  // --- fault-injection surface (experiments / tests) ---
  // The hook is attached when a variant service assumes `variant_id`.
  void SetFaultHook(const std::string& variant_id,
                    std::shared_ptr<runtime::FaultHook> hook);
  std::shared_ptr<runtime::FaultHook> LookupFaultHook(
      const std::string& variant_id);

  // --- direct fast-path pipe broker ---
  // In-process stand-in for variants dialing each other's RA-TLS
  // sockets: the monitor requests a pipe, each side claims its end.
  uint64_t CreatePipe();
  util::Result<transport::Endpoint> ClaimPipeEnd(uint64_t pipe_id,
                                                 bool producer_end);

  // Blocks until all spawned variant threads exit (after the monitor
  // sends shutdowns / closes channels).
  void JoinAll();

 private:
  tee::SimulatedCpu* cpu_;
  std::shared_ptr<tee::ProtectedStore> store_;
  Options options_;

  mutable std::mutex mu_;
  std::vector<std::thread> threads_;
  size_t spawned_total_ = 0;
  std::map<std::string, std::shared_ptr<runtime::FaultHook>> fault_hooks_;
  uint64_t next_pipe_id_ = 1;
  struct PipeEnds {
    std::optional<transport::Endpoint> producer;
    std::optional<transport::Endpoint> consumer;
  };
  std::map<uint64_t, PipeEnds> pipes_;
};

}  // namespace mvtee::core
