#include "core/offline.h"

#include "crypto/rand.h"

namespace mvtee::core {

std::string VariantManifestPath(const std::string& variant_id) {
  return "variants/" + variant_id + "/manifest";
}
std::string VariantSpecPath(const std::string& variant_id) {
  return "variants/" + variant_id + "/spec";
}
std::string VariantGraphPath(const std::string& variant_id) {
  return "variants/" + variant_id + "/graph";
}

std::vector<std::string> OfflineBundle::StageVariantIds(int32_t stage) const {
  std::vector<std::string> ids;
  for (const auto& v : variants) {
    if (v.stage == stage) ids.push_back(v.variant_id);
  }
  return ids;
}

const OfflineVariantEntry* OfflineBundle::FindVariant(
    const std::string& id) const {
  for (const auto& v : variants) {
    if (v.variant_id == id) return &v;
  }
  return nullptr;
}

namespace {
void AppendSource(util::Bytes& out, const partition::StageInputSource& src) {
  util::AppendU32(out, static_cast<uint32_t>(src.stage));
  util::AppendU32(out, static_cast<uint32_t>(src.index));
}

bool ReadSource(util::ByteReader& reader, partition::StageInputSource& src) {
  uint32_t stage, index;
  if (!reader.ReadU32(stage) || !reader.ReadU32(index)) return false;
  src.stage = static_cast<int32_t>(stage);
  src.index = static_cast<int32_t>(index);
  return true;
}
}  // namespace

util::Bytes OfflineBundle::SerializeConfig() const {
  util::Bytes out;
  util::AppendU32(out, 0x4d564f43);  // "MVOC"
  util::AppendU32(out, static_cast<uint32_t>(num_stages));
  util::AppendU32(out, static_cast<uint32_t>(model_input_shapes.size()));
  for (const auto& shape : model_input_shapes) {
    util::AppendU32(out, static_cast<uint32_t>(shape.rank()));
    for (int64_t d : shape.dims()) {
      util::AppendU64(out, static_cast<uint64_t>(d));
    }
  }
  util::AppendU32(out, static_cast<uint32_t>(stage_inputs.size()));
  for (const auto& sources : stage_inputs) {
    util::AppendU32(out, static_cast<uint32_t>(sources.size()));
    for (const auto& src : sources) AppendSource(out, src);
  }
  util::AppendU32(out, static_cast<uint32_t>(model_outputs.size()));
  for (const auto& src : model_outputs) AppendSource(out, src);
  util::AppendU32(out, static_cast<uint32_t>(variants.size()));
  for (const auto& v : variants) {
    util::AppendLengthPrefixedStr(out, v.variant_id);
    util::AppendU32(out, static_cast<uint32_t>(v.stage));
    util::AppendLengthPrefixed(out, v.variant_key);
    util::AppendBytes(out, util::ByteSpan(v.manifest_hash.data(),
                                          v.manifest_hash.size()));
    util::AppendLengthPrefixedStr(out, v.runtime_name);
  }
  return out;
}

util::Result<OfflineBundle> OfflineBundle::DeserializeConfig(
    util::ByteSpan data) {
  util::ByteReader reader(data);
  uint32_t magic;
  if (!reader.ReadU32(magic) || magic != 0x4d564f43) {
    return util::InvalidArgument("bad bundle-config magic");
  }
  OfflineBundle bundle;
  uint32_t stages, inputs, stage_input_count;
  if (!reader.ReadU32(stages) || !reader.ReadU32(inputs) || stages > 1024 ||
      inputs > 1024) {
    return util::InvalidArgument("malformed bundle config header");
  }
  bundle.num_stages = stages;
  for (uint32_t i = 0; i < inputs; ++i) {
    uint32_t rank;
    if (!reader.ReadU32(rank) || rank > 8) {
      return util::InvalidArgument("malformed model input shape");
    }
    std::vector<int64_t> dims(rank);
    for (auto& d : dims) {
      uint64_t v;
      if (!reader.ReadU64(v) || v > (1ULL << 32)) {
        return util::InvalidArgument("malformed model input dim");
      }
      d = static_cast<int64_t>(v);
    }
    bundle.model_input_shapes.emplace_back(std::move(dims));
  }
  if (!reader.ReadU32(stage_input_count) || stage_input_count != stages) {
    return util::InvalidArgument("malformed bundle config header");
  }
  for (uint32_t s = 0; s < stages; ++s) {
    uint32_t count;
    if (!reader.ReadU32(count) || count > 4096) {
      return util::InvalidArgument("malformed stage inputs");
    }
    std::vector<partition::StageInputSource> sources(count);
    for (auto& src : sources) {
      if (!ReadSource(reader, src)) {
        return util::InvalidArgument("truncated stage input");
      }
    }
    bundle.stage_inputs.push_back(std::move(sources));
  }
  uint32_t outputs;
  if (!reader.ReadU32(outputs) || outputs > 4096) {
    return util::InvalidArgument("malformed outputs");
  }
  bundle.model_outputs.resize(outputs);
  for (auto& src : bundle.model_outputs) {
    if (!ReadSource(reader, src)) {
      return util::InvalidArgument("truncated output");
    }
  }
  uint32_t variant_count;
  if (!reader.ReadU32(variant_count) || variant_count > 65536) {
    return util::InvalidArgument("malformed variants");
  }
  for (uint32_t i = 0; i < variant_count; ++i) {
    OfflineVariantEntry entry;
    uint32_t stage;
    util::Bytes digest;
    if (!reader.ReadLengthPrefixedStr(entry.variant_id) ||
        !reader.ReadU32(stage) ||
        !reader.ReadLengthPrefixed(entry.variant_key) ||
        !reader.ReadBytes(crypto::kSha256DigestSize, digest) ||
        !reader.ReadLengthPrefixedStr(entry.runtime_name)) {
      return util::InvalidArgument("truncated variant entry");
    }
    entry.stage = static_cast<int32_t>(stage);
    std::copy(digest.begin(), digest.end(), entry.manifest_hash.begin());
    bundle.variants.push_back(std::move(entry));
  }
  if (!reader.done()) return util::InvalidArgument("trailing config bytes");
  return bundle;
}

util::Status OfflineBundle::RotateVariantKey(const std::string& variant_id,
                                             crypto::RandomSource& random) {
  OfflineVariantEntry* entry = nullptr;
  for (auto& v : variants) {
    if (v.variant_id == variant_id) entry = &v;
  }
  if (entry == nullptr) return util::NotFound("variant '" + variant_id + "'");
  if (store == nullptr) {
    return util::FailedPrecondition("bundle has no store attached");
  }
  const util::Bytes old_key =
      tee::DeriveVariantFileKey(entry->variant_key, variant_id);
  const util::Bytes new_variant_key = random.Generate(32);
  const util::Bytes new_key =
      tee::DeriveVariantFileKey(new_variant_key, variant_id);
  for (const std::string& path :
       {VariantManifestPath(variant_id), VariantSpecPath(variant_id),
        VariantGraphPath(variant_id)}) {
    MVTEE_ASSIGN_OR_RETURN(util::Bytes plaintext,
                           store->Get(path, old_key));
    MVTEE_RETURN_IF_ERROR(store->Put(path, plaintext, new_key));
  }
  entry->variant_key = new_variant_key;
  return util::OkStatus();
}

util::Result<OfflineBundle> RunOfflineTool(const graph::Graph& model,
                                           const OfflineOptions& options) {
  // 1. Partition (random-balanced, best-of-N).
  partition::PartitionOptions popts;
  popts.target_partitions = options.num_partitions;
  popts.seed = options.partition_seed;
  MVTEE_ASSIGN_OR_RETURN(
      partition::PartitionSet set,
      partition::BestOfRandomContraction(model, popts,
                                         options.partition_trials));
  MVTEE_ASSIGN_OR_RETURN(partition::PartitionedModel pm,
                         partition::BuildPartitionedModel(model, set));

  // 2. Variant pool with multi-level diversification.
  MVTEE_ASSIGN_OR_RETURN(auto pools,
                         variant::BuildVariantPool(pm, options.pool));

  // 3. Keys + encrypted private files.
  OfflineBundle bundle;
  bundle.num_stages = pm.num_stages();
  for (graph::NodeId id : model.inputs()) {
    bundle.model_input_shapes.push_back(model.input_shape(id));
  }
  bundle.stage_inputs = pm.stage_inputs;
  bundle.model_outputs = pm.model_outputs;
  bundle.partition_set = std::move(set);
  bundle.store = std::make_shared<tee::ProtectedStore>();

  std::unique_ptr<crypto::RandomSource> deterministic;
  crypto::RandomSource* keygen = &crypto::GlobalRandom();
  if (options.key_seed != 0) {
    deterministic =
        std::make_unique<crypto::DeterministicRandom>(options.key_seed);
    keygen = deterministic.get();
  }

  for (size_t si = 0; si < pools.size(); ++si) {
    for (size_t vi = 0; vi < pools[si].variants.size(); ++vi) {
      const variant::VariantBundle& vb = pools[si].variants[vi];
      OfflineVariantEntry entry;
      entry.variant_id =
          "s" + std::to_string(si) + ".v" + std::to_string(vi);
      entry.stage = static_cast<int32_t>(si);
      entry.variant_key = keygen->Generate(32);
      entry.runtime_name = vb.spec.exec_config.name;

      // Second-stage manifest: inference-only surface, private files
      // marked encrypted.
      tee::Manifest manifest = tee::MainVariantManifest();
      manifest.encrypted_files = {VariantManifestPath(entry.variant_id),
                                  VariantSpecPath(entry.variant_id),
                                  VariantGraphPath(entry.variant_id)};
      entry.manifest_hash = manifest.Hash();

      util::Bytes file_key =
          tee::DeriveVariantFileKey(entry.variant_key, entry.variant_id);
      MVTEE_RETURN_IF_ERROR(bundle.store->Put(
          VariantManifestPath(entry.variant_id), manifest.Serialize(),
          file_key));
      MVTEE_RETURN_IF_ERROR(bundle.store->Put(
          VariantSpecPath(entry.variant_id), vb.spec.Serialize(), file_key));
      MVTEE_RETURN_IF_ERROR(bundle.store->Put(
          VariantGraphPath(entry.variant_id), vb.graph.Serialize(),
          file_key));
      bundle.variants.push_back(std::move(entry));
    }
  }
  return bundle;
}

}  // namespace mvtee::core
