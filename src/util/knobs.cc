#include "util/knobs.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "util/logging.h"

extern "C" char** environ;

namespace mvtee::util {

int64_t ResolveKnob(const char* knob, const char* env_value, int64_t min,
                    int64_t max, int64_t fallback) {
  if (env_value == nullptr) return fallback;
  // strtoll accepts leading whitespace, '+'/'-' signs and partial
  // parses; reject all of those explicitly (same seam style as
  // ThreadPool::ResolveThreadCount) so "abc", "-3" or "4q" fall back
  // with a diagnostic instead of silently becoming 0.
  const char* p = env_value;
  if (*p == '\0') {
    MVTEE_WLOG << knob << " is empty; using default " << fallback;
    return fallback;
  }
  for (const char* q = p; *q != '\0'; ++q) {
    if (*q < '0' || *q > '9') {
      MVTEE_WLOG << knob << "='" << env_value
                 << "' is not a non-negative integer; using default "
                 << fallback;
      return fallback;
    }
  }
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(p, &end, 10);
  if (errno == ERANGE || end == nullptr || *end != '\0' || v < min ||
      v > max) {
    MVTEE_WLOG << knob << "='" << env_value << "' out of range [" << min
               << ", " << max << "]; using default " << fallback;
    return fallback;
  }
  return static_cast<int64_t>(v);
}

namespace {

constexpr int64_t kMax64 = INT64_MAX;

std::vector<KnobDesc> BuiltinTable() {
  using Kind = KnobDesc::Kind;
  // Every MVTEE_* variable the runtime reads. Adding a getenv call
  // anywhere else without a row here trips the unknown-knob warning
  // in deployments that set it — keep this table exhaustive.
  return {
      {"MVTEE_THREADS", Kind::kInt, 1, 4096, 0, "auto",
       "worker threads per pool (0/unset = hardware concurrency)"},
      {"MVTEE_SIMD", Kind::kInt, 0, 1, 1, "1",
       "runtime SIMD dispatch (0 forces scalar kernels)"},
      {"MVTEE_PACK_CACHE", Kind::kInt, 0, 1, 1, "1",
       "prepacked constant-weight cache (0 repacks per call)"},
      {"MVTEE_POOL", Kind::kInt, 0, 1, 1, "1",
       "tensor buffer pooling (0 disables retention)"},
      {"MVTEE_POOL_RETAIN_BYTES", Kind::kInt, 0, kMax64, 64ll << 20,
       "67108864", "bytes of freed tensor buffers the pool retains"},
      {"MVTEE_LOG_LEVEL", Kind::kString, 0, 0, 0, "warn",
       "log threshold: error|warn|info|debug"},
      {"MVTEE_WATCHDOG_POLL_MS", Kind::kInt, 1, 60'000, 20, "20",
       "stall-watchdog poll interval"},
      {"MVTEE_WATCHDOG_STALL_MS", Kind::kInt, 1, 3'600'000, 2000, "2000",
       "heartbeat silence before a stall alarm"},
      {"MVTEE_WATCHDOG_QUEUE_ALARM", Kind::kInt, 0, 1'000'000, 48, "48",
       "admission-queue depth that raises an alarm"},
      {"MVTEE_ADMIN_PORT", Kind::kInt, 0, 65'535, -1, "off",
       "loopback TCP port for /healthz /metrics /status (0 = ephemeral)"},
      {"MVTEE_ADMIN_LINGER_MS", Kind::kInt, 0, 3'600'000, 0, "0",
       "keep bench deployments alive for admin scrapes"},
      {"MVTEE_SCHED_WINDOW_US", Kind::kInt, 0, 10'000'000, 2000, "2000",
       "EDF reordering horizon for fresh slack requests (0 = off)"},
      {"MVTEE_SCHED_MAX_BATCH", Kind::kInt, 1, 1024, 8, "8",
       "concurrent pipeline slots; also each async panel member's lag budget"},
      {"MVTEE_SCHED_EDF", Kind::kInt, 0, 1, 1, "1",
       "earliest-deadline-first ordering in the scheduler"},
      {"MVTEE_SCHED_QUOTA_PCT", Kind::kInt, 1, 100, 100, "100",
       "per-tenant share of one batch, percent (100 = uncapped)"},
      {"MVTEE_BENCH_JSON", Kind::kString, 0, 0, 0, "",
       "path for bench JSON summaries"},
      {"MVTEE_METRICS_JSON", Kind::kString, 0, 0, 0, "",
       "path for the metrics JSON export"},
      {"MVTEE_TRACE_JSON", Kind::kString, 0, 0, 0, "",
       "path for the Chrome-trace export"},
      {"MVTEE_PROM_TEXT", Kind::kString, 0, 0, 0, "",
       "path for the Prometheus text export"},
      {"MVTEE_EVIDENCE_DIR", Kind::kString, 0, 0, 0, "",
       "directory for flight-recorder evidence bundles"},
  };
}

}  // namespace

KnobRegistry::KnobRegistry() : table_(BuiltinTable()) {}

KnobRegistry& KnobRegistry::Default() {
  static KnobRegistry* registry = new KnobRegistry();
  return *registry;
}

const KnobDesc* KnobRegistry::Find(const char* name) const {
  for (const KnobDesc& d : table_) {
    if (std::strcmp(d.name, name) == 0) return &d;
  }
  return nullptr;
}

int64_t KnobRegistry::Int(const char* name) const {
  return IntFrom(name, std::getenv(name));
}

int64_t KnobRegistry::IntFrom(const char* name, const char* value) const {
  const KnobDesc* d = Find(name);
  if (d == nullptr || d->kind != KnobDesc::Kind::kInt) {
    MVTEE_WLOG << name << " is not a registered integer knob";
    return 0;
  }
  return ResolveKnob(name, value, d->min, d->max, d->def);
}

const char* KnobRegistry::Raw(const char* name) const {
  if (Find(name) == nullptr) {
    MVTEE_WLOG << name << " is not a registered knob";
    return nullptr;
  }
  return std::getenv(name);
}

std::vector<KnobView> KnobRegistry::Snapshot() const {
  std::vector<KnobView> out;
  out.reserve(table_.size());
  for (const KnobDesc& d : table_) {
    KnobView v;
    v.desc = &d;
    const char* raw = std::getenv(d.name);
    v.set = raw != nullptr;
    if (raw != nullptr) v.raw = raw;
    if (d.kind == KnobDesc::Kind::kInt) {
      v.value = std::to_string(ResolveKnob(d.name, raw, d.min, d.max, d.def));
    } else {
      v.value = raw != nullptr ? raw : d.def_str;
    }
    out.push_back(std::move(v));
  }
  return out;
}

std::vector<std::string> KnobRegistry::UnknownIn(
    const char* const* envp) const {
  std::vector<std::string> unknown;
  if (envp == nullptr) return unknown;
  for (const char* const* e = envp; *e != nullptr; ++e) {
    const char* eq = std::strchr(*e, '=');
    if (eq == nullptr) continue;
    const std::string name(*e, static_cast<size_t>(eq - *e));
    if (name.rfind("MVTEE_", 0) != 0) continue;
    if (Find(name.c_str()) == nullptr) unknown.push_back(name);
  }
  return unknown;
}

void KnobRegistry::WarnUnknownOnce() {
  static std::once_flag once;
  std::call_once(once, [this] {
    for (const std::string& name : UnknownIn(environ)) {
      MVTEE_WLOG << name << " is set but is not a recognized MVTEE knob "
                 << "(see the knob table in README / admin /status)";
    }
  });
}

}  // namespace mvtee::util
