// Attack-campaign driver: reproduces the security-analysis experiments
// (Table 1 and §6.5) end to end — inject a vulnerability class into the
// variants that use the "vulnerable library", run MVX inference, and
// report whether the attack was detected and whether any wrong output
// escaped to the user.
#pragma once

#include "core/monitor.h"
#include "fault/injectors.h"
#include "graph/ir.h"
#include "util/status.h"

namespace mvtee::fault {

struct CampaignOptions {
  VulnClass cls = VulnClass::kOutOfBounds;
  FaultEffect effect = FaultEffect::kCorruptSilent;  // see DefaultEffect
  // The "vulnerable library": variants whose executor uses this GEMM
  // backend carry the bug (FrameFlip-style library targeting).
  runtime::GemmBackend vulnerable_gemm = runtime::GemmBackend::kBlocked;
  int num_partitions = 3;
  int variants_per_stage = 3;
  int num_batches = 2;
  uint64_t seed = 1;
  core::VotePolicy vote = core::VotePolicy::kMajority;
  core::ReactionPolicy reaction = core::ReactionPolicy::ContinueWithWinner();
};

struct CampaignReport {
  VulnClass cls;
  bool fault_fired = false;        // the injected bug actually executed
  bool detected = false;           // monitor observed divergence/failure
  bool wrong_output_released = false;  // an inconsistent output returned OK
  bool service_survived = false;   // batches still completed
  uint64_t divergences = 0;
  uint64_t variant_failures = 0;
};

util::Result<CampaignReport> RunVulnerabilityCampaign(
    const graph::Graph& model, const CampaignOptions& options);

// Lifecycle campaign (§4.3 reaction loop): one variant carries a
// transient WindowedFault (crash or tamper) that fires early and then
// goes quiet. Under ReactionPolicy::QuarantineAndRestart the run is
// expected to complete every batch with zero aborts, quarantine the
// faulty variant, re-bootstrap it through the attested two-stage
// protocol and re-admit it after probation. A persistent fault
// (`fire_limit < 0`) exercises the retirement path instead.
struct LifecycleCampaignOptions {
  FaultEffect effect = FaultEffect::kCorruptSilent;
  int fire_limit = 1;  // firings before the fault clears; <0 = persistent
  int num_partitions = 2;
  int variants_per_stage = 3;
  int num_batches = 6;
  uint64_t seed = 1;
  // Which slot carries the fault ("s<stage>.v<index>").
  std::string target_variant = "s0.v1";
  core::ReactionPolicy reaction =
      core::ReactionPolicy::Builder()
          .QuarantineAndRestart()
          .DissentThreshold(1)
          .ProbationBatches(2)
          .RetryBudget(2)
          .Backoff(/*initial_us=*/0, /*multiplier=*/2.0, /*max_us=*/1'000)
          .Build();
};

struct LifecycleCampaignReport {
  bool fault_fired = false;
  int completed_batches = 0;
  bool aborted = false;  // any batch returned an error
  std::string abort_message;
  // Supervisor totals after the run.
  uint64_t quarantines = 0;
  uint64_t readmissions = 0;
  uint64_t retirements = 0;
  size_t spawned_total = 0;  // initial panel + lifecycle respawns
  bool wrong_output_released = false;
  std::vector<core::Supervisor::SlotInfo> slots;  // final lifecycle table
};

util::Result<LifecycleCampaignReport> RunLifecycleCampaign(
    const graph::Graph& model, const LifecycleCampaignOptions& options);

}  // namespace mvtee::fault
