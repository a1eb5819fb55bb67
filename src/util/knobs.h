// One strict surface for every MVTEE_* environment knob.
//
// The runtime grew env switches organically — MVTEE_THREADS in the
// thread pool, MVTEE_SIMD in cpu_features, MVTEE_POOL* in the buffer
// pool, MVTEE_WATCHDOG_* / MVTEE_ADMIN_* in obs/service, plus the
// scheduler knobs added with continuous batching. Each had its own
// getenv + parse. KnobRegistry consolidates them behind a single
// descriptor table:
//
//   - integer knobs resolve through ResolveKnob (strict digits-only
//     parse, range check, warn-and-fallback on anything else);
//   - string knobs (artifact paths, MVTEE_LOG_LEVEL) are registered so
//     they appear in the same table;
//   - the whole table can be dumped (admin /status "knobs" section and
//     the README knob table are generated from it);
//   - MVTEE_* variables in the environment that are NOT in the table
//     log one warning per process, so typos like MVTEE_THERADS fail
//     loudly instead of silently doing nothing.
//
// ResolveKnob itself lives here so layers below obs can use it.
#ifndef MVTEE_UTIL_KNOBS_H_
#define MVTEE_UTIL_KNOBS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace mvtee::util {

// Strictly parses env_value as a non-negative decimal integer in
// [min, max]. Returns fallback — with a one-line warning naming the
// knob — for null/empty strings, any non-digit character (so "-3",
// " 5" and "4q" all fall back) and out-of-range values.
int64_t ResolveKnob(const char* knob, const char* env_value, int64_t min,
                    int64_t max, int64_t fallback);

// One registered environment knob.
struct KnobDesc {
  enum class Kind { kInt, kString };
  const char* name;     // full variable name, e.g. "MVTEE_ADMIN_PORT"
  Kind kind;
  int64_t min = 0;      // kInt only
  int64_t max = 0;      // kInt only
  int64_t def = 0;      // kInt only
  const char* def_str;  // display default ("" for unset strings)
  const char* doc;      // one-line description for /status and README
};

// Effective state of one knob for introspection dumps.
struct KnobView {
  const KnobDesc* desc;
  bool set = false;     // present in the environment
  std::string raw;      // raw env value when set
  std::string value;    // effective value after strict resolution
};

class KnobRegistry {
 public:
  // Process-wide registry over the built-in descriptor table.
  static KnobRegistry& Default();

  // Resolves a registered integer knob from the environment with
  // ResolveKnob semantics (strict parse, range clamp to the
  // descriptor, warn-and-fallback to the descriptor default).
  // Unregistered names are a programming error: warns and returns 0.
  int64_t Int(const char* name) const;
  // Test seam: same resolution against an explicit value.
  int64_t IntFrom(const char* name, const char* value) const;

  // Raw env lookup for registered string knobs (nullptr when unset).
  const char* Raw(const char* name) const;

  const KnobDesc* Find(const char* name) const;
  const std::vector<KnobDesc>& Table() const { return table_; }

  // Effective state of every registered knob, in table order.
  std::vector<KnobView> Snapshot() const;

  // Pure scan: MVTEE_*-prefixed names in envp that are not registered.
  // envp rows are "NAME=value" strings, nullptr-terminated.
  std::vector<std::string> UnknownIn(const char* const* envp) const;

  // Scans the real environment and logs one warning per unknown
  // MVTEE_* variable. Idempotent per process.
  void WarnUnknownOnce();

 private:
  KnobRegistry();
  std::vector<KnobDesc> table_;
};

}  // namespace mvtee::util

#endif  // MVTEE_UTIL_KNOBS_H_
