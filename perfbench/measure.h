// Measurement helpers for the repository benchmark: sample statistics,
// process memory readings, per-phase readings of the library's metrics
// registry, and self times of recorded spans.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/buffer_pool.h"
#include "util/dataplane_stats.h"

namespace perfbench {

// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank > 0) --rank;
  return v[std::min(rank, v.size() - 1)];
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

inline double Max(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

// A "Vm*:" field of /proc/self/status in kB (VmHWM, VmRSS); 0 if absent.
inline double ProcStatusKb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  const size_t len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      kb = std::strtod(line + len + 1, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

// One measurement phase over the process-wide registry. The registry's
// histograms are cumulative and DeltaSince keeps lifetime percentiles,
// so a phase zeroes the registry when it begins and snapshots it when
// it ends; call both at quiescent points (nothing in flight).
//
// pool.misses and dataplane.bytes_copied are process totals kept
// outside the registry, which only mirrors them; a phase reads them
// at both ends and keeps the difference.
class RegistryPhase {
 public:
  void Begin() {
    mvtee::obs::Registry::Default().Reset();
    pool_misses0_ = mvtee::util::BufferPool::Default().stats().misses;
    bytes_copied0_ = mvtee::util::DataPlaneBytesCopied();
  }
  void End() {
    snap_ = mvtee::obs::Registry::Default().Snapshot();
    snap_.counters["pool.misses"] =
        mvtee::util::BufferPool::Default().stats().misses - pool_misses0_;
    snap_.counters["dataplane.bytes_copied"] =
        mvtee::util::DataPlaneBytesCopied() - bytes_copied0_;
  }

  double Counter(const std::string& name) const {
    auto it = snap_.counters.find(name);
    return it == snap_.counters.end() ? 0.0 : static_cast<double>(it->second);
  }
  double Gauge(const std::string& name) const {
    auto it = snap_.gauges.find(name);
    return it == snap_.gauges.end() ? 0.0 : static_cast<double>(it->second);
  }
  // Several phases read as one: counters and histogram counts/sums add
  // up, gauges keep their largest value, and each percentile is the
  // median over the phases that observed any sample.
  static RegistryPhase Merge(const std::vector<RegistryPhase>& parts) {
    RegistryPhase out;
    std::map<std::string, std::vector<mvtee::obs::HistogramStats>> hists;
    for (const RegistryPhase& p : parts) {
      for (const auto& [k, v] : p.snap_.counters) out.snap_.counters[k] += v;
      for (const auto& [k, v] : p.snap_.gauges) {
        auto [it, fresh] = out.snap_.gauges.emplace(k, v);
        if (!fresh) it->second = std::max(it->second, v);
      }
      for (const auto& [k, v] : p.snap_.histograms) {
        if (v.count > 0) hists[k].push_back(v);
      }
    }
    for (const auto& [k, list] : hists) {
      mvtee::obs::HistogramStats m;
      std::vector<double> p50, p95, p99;
      m.min = list.front().min;
      for (const auto& h : list) {
        m.count += h.count;
        m.sum += h.sum;
        m.min = std::min(m.min, h.min);
        m.max = std::max(m.max, h.max);
        p50.push_back(h.p50);
        p95.push_back(h.p95);
        p99.push_back(h.p99);
      }
      m.p50 = Percentile(p50, 0.5);
      m.p95 = Percentile(p95, 0.5);
      m.p99 = Percentile(p99, 0.5);
      out.snap_.histograms[k] = m;
    }
    return out;
  }

  mvtee::obs::HistogramStats Hist(const std::string& name) const {
    auto it = snap_.histograms.find(name);
    return it == snap_.histograms.end() ? mvtee::obs::HistogramStats{}
                                        : it->second;
  }
  // Sum of every histogram whose name starts with `prefix` and ends
  // with `suffix`.
  double HistSum(const std::string& prefix, const std::string& suffix) const {
    double sum = 0.0;
    for (const auto& [name, stats] : snap_.histograms) {
      if (name.size() >= prefix.size() + suffix.size() &&
          name.compare(0, prefix.size(), prefix) == 0 &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        sum += stats.sum;
      }
    }
    return sum;
  }

 private:
  mvtee::obs::RegistrySnapshot snap_;
  uint64_t pool_misses0_ = 0;
  uint64_t bytes_copied0_ = 0;
};

// Per span name: count, mean duration and mean self time (duration
// minus the part of it that child spans cover), in microseconds.
struct SelfTime {
  uint64_t count = 0;
  double mean_us = 0.0;
  double mean_self_us = 0.0;
};

inline std::map<std::string, SelfTime> SelfTimes(
    const std::vector<mvtee::obs::SpanRecord>& spans) {
  std::map<uint64_t, std::vector<const mvtee::obs::SpanRecord*>> children;
  for (const mvtee::obs::SpanRecord& s : spans) {
    if (s.parent_span_id != 0) children[s.parent_span_id].push_back(&s);
  }
  std::map<std::string, SelfTime> out;
  for (const mvtee::obs::SpanRecord& s : spans) {
    const int64_t end_us = s.start_us + s.dur_us;
    std::vector<std::pair<int64_t, int64_t>> cover;
    auto it = children.find(s.span_id);
    if (it != children.end()) {
      for (const mvtee::obs::SpanRecord* c : it->second) {
        const int64_t lo = std::max(c->start_us, s.start_us);
        const int64_t hi = std::min(c->start_us + c->dur_us, end_us);
        if (hi > lo) cover.emplace_back(lo, hi);
      }
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0, reach = s.start_us;
    for (const auto& [lo, hi] : cover) {
      const int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    SelfTime& st = out[s.name];
    st.count++;
    st.mean_us += static_cast<double>(s.dur_us);
    st.mean_self_us += static_cast<double>(s.dur_us - covered);
  }
  for (auto& [name, st] : out) {
    st.mean_us /= static_cast<double>(st.count);
    st.mean_self_us /= static_cast<double>(st.count);
  }
  return out;
}

}  // namespace perfbench
