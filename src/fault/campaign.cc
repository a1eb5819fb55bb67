#include "fault/campaign.h"

#include "core/offline.h"
#include "core/variant_host.h"
#include "runtime/executor.h"

namespace mvtee::fault {

using core::OfflineBundle;
using core::OfflineOptions;
using tensor::Tensor;

util::Result<CampaignReport> RunVulnerabilityCampaign(
    const graph::Graph& model, const CampaignOptions& options) {
  OfflineOptions offline;
  offline.num_partitions = options.num_partitions;
  offline.partition_seed = options.seed;
  offline.key_seed = options.seed + 1;
  offline.pool.variants_per_stage = options.variants_per_stage;
  offline.pool.seed = options.seed + 2;
  MVTEE_ASSIGN_OR_RETURN(OfflineBundle bundle,
                         core::RunOfflineTool(model, offline));

  tee::SimulatedCpu cpu{
      tee::SimulatedCpu::Options{.hardware_key_seed = options.seed + 3}};
  core::VariantHost host(&cpu, bundle.store);

  // The vulnerability lives in a shared library: every variant gets the
  // hook, but it arms only where the executor config matches the
  // vulnerable implementation.
  std::vector<std::shared_ptr<VulnerabilityFault>> hooks;
  for (const auto& entry : bundle.variants) {
    VulnerabilitySpec spec;
    spec.cls = options.cls;
    spec.effect = options.effect;
    spec.vulnerable_gemm = options.vulnerable_gemm;
    spec.seed = options.seed + 17;
    auto hook = std::make_shared<VulnerabilityFault>(spec);
    hooks.push_back(hook);
    host.SetFaultHook(entry.variant_id, hook);
  }

  core::MonitorConfig config;
  config.vote = options.vote;
  config.reaction = options.reaction;
  MVTEE_ASSIGN_OR_RETURN(auto monitor, core::Monitor::Create(&cpu, config));
  MVTEE_RETURN_IF_ERROR(monitor->Initialize(
      bundle, core::MvxSelection::Uniform(bundle,
                                          options.variants_per_stage),
      host));

  // Reference for ground truth.
  MVTEE_ASSIGN_OR_RETURN(
      auto reference,
      runtime::Executor::Create(model, runtime::ReferenceExecutorConfig()));

  CampaignReport report;
  report.cls = options.cls;

  util::Rng rng(options.seed + 29);
  int completed = 0;
  for (int b = 0; b < options.num_batches; ++b) {
    std::vector<Tensor> inputs;
    for (graph::NodeId in : model.inputs()) {
      inputs.push_back(
          Tensor::RandomUniform(model.input_shape(in), rng, -1.0f, 1.0f));
    }
    auto out = core::RunBatches(*monitor, {inputs});
    if (out.ok()) {
      ++completed;
      MVTEE_ASSIGN_OR_RETURN(auto expected, reference->Run(inputs));
      for (size_t i = 0; i < expected.size(); ++i) {
        if (tensor::CosineSimilarity((*out)[0][i], expected[i]) < 0.99) {
          report.wrong_output_released = true;
        }
      }
    } else if (out.status().code() ==
               util::StatusCode::kDivergenceDetected) {
      report.detected = true;
    } else {
      return out.status();  // infrastructure error, not part of the game
    }
  }

  auto stats = monitor->ConsumeStats();
  report.divergences = stats.divergences;
  report.variant_failures = stats.variant_failures;
  if (stats.divergences > 0 || stats.late_divergences > 0 ||
      stats.variant_failures > 0) {
    report.detected = true;
  }
  report.service_survived = completed == options.num_batches;
  for (const auto& hook : hooks) {
    if (hook->fire_count() > 0) report.fault_fired = true;
  }
  MVTEE_RETURN_IF_ERROR(monitor->Shutdown());
  host.JoinAll();
  return report;
}

util::Result<LifecycleCampaignReport> RunLifecycleCampaign(
    const graph::Graph& model, const LifecycleCampaignOptions& options) {
  OfflineOptions offline;
  offline.num_partitions = options.num_partitions;
  offline.partition_seed = options.seed;
  offline.key_seed = options.seed + 1;
  offline.pool.variants_per_stage = options.variants_per_stage;
  offline.pool.seed = options.seed + 2;
  MVTEE_ASSIGN_OR_RETURN(OfflineBundle bundle,
                         core::RunOfflineTool(model, offline));

  tee::SimulatedCpu cpu{
      tee::SimulatedCpu::Options{.hardware_key_seed = options.seed + 3}};
  core::VariantHost host(&cpu, bundle.store);

  // One compromised slot; the shared hook survives respawn, so its fire
  // budget spans the variant's whole lifecycle.
  WindowedFaultSpec spec;
  spec.effect = options.effect;
  spec.fire_limit = options.fire_limit;
  spec.seed = options.seed + 17;
  auto hook = std::make_shared<WindowedFault>(spec);
  host.SetFaultHook(options.target_variant, hook);

  core::MonitorConfig config;
  config.reaction = options.reaction;
  MVTEE_ASSIGN_OR_RETURN(auto monitor, core::Monitor::Create(&cpu, config));
  MVTEE_RETURN_IF_ERROR(monitor->Initialize(
      bundle,
      core::MvxSelection::Uniform(bundle, options.variants_per_stage),
      host));

  MVTEE_ASSIGN_OR_RETURN(
      auto reference,
      runtime::Executor::Create(model, runtime::ReferenceExecutorConfig()));

  LifecycleCampaignReport report;
  util::Rng rng(options.seed + 29);
  for (int b = 0; b < options.num_batches; ++b) {
    std::vector<Tensor> inputs;
    for (graph::NodeId in : model.inputs()) {
      inputs.push_back(
          Tensor::RandomUniform(model.input_shape(in), rng, -1.0f, 1.0f));
    }
    // One batch per call: the supervisor's quarantine/rebootstrap/
    // probation machinery spans calls (it lives on the monitor), and the
    // per-call verdict tells us exactly which batch aborted, if any.
    auto out = core::RunBatches(*monitor, {inputs});
    if (!out.ok()) {
      report.aborted = true;
      report.abort_message = out.status().ToString();
      continue;
    }
    ++report.completed_batches;
    MVTEE_ASSIGN_OR_RETURN(auto expected, reference->Run(inputs));
    for (size_t i = 0; i < expected.size(); ++i) {
      if (tensor::CosineSimilarity((*out)[0][i], expected[i]) < 0.99) {
        report.wrong_output_released = true;
      }
    }
  }

  if (const core::Supervisor* sup = monitor->supervisor()) {
    report.quarantines = sup->quarantines_total();
    report.readmissions = sup->readmissions_total();
    report.retirements = sup->retirements_total();
    report.slots = sup->Snapshot();
  }
  report.spawned_total = host.spawned_total();
  report.fault_fired = hook->fire_count() > 0;
  MVTEE_RETURN_IF_ERROR(monitor->Shutdown());
  host.JoinAll();
  return report;
}

}  // namespace mvtee::fault
