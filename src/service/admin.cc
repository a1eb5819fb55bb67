#include "service/admin.h"

#include <poll.h>
#include <unistd.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "core/supervisor.h"
#include "crypto/aead.h"
#include "obs/exporters.h"
#include "obs/json.h"
#include "obs/timeline.h"
#include "runtime/gemm.h"
#include "runtime/pack_cache.h"
#include "util/bytes.h"
#include "util/clock.h"
#include "util/cpu_features.h"
#include "util/knobs.h"
#include "util/logging.h"

namespace mvtee::service {

namespace {

const char* StatusText(int code) {
  switch (code) {
    case 200: return "OK";
    case 404: return "Not Found";
    case 503: return "Service Unavailable";
    default: return "Error";
  }
}

// "GET /healthz HTTP/1.1" -> "/healthz"; empty on a malformed line.
std::string ParsePath(const std::string& request_line) {
  if (request_line.rfind("GET ", 0) != 0) return "";
  const size_t start = 4;
  size_t end = request_line.find_first_of(" \r\n", start);
  if (end == std::string::npos) end = request_line.size();
  return request_line.substr(start, end - start);
}

std::string IdString(uint64_t id) { return std::to_string(id); }

}  // namespace

AdminOptions AdminOptions::FromEnv(AdminOptions base) {
  base.watchdog = obs::WatchdogOptions::FromEnv(base.watchdog);
  base.tcp_port = static_cast<int>(util::ResolveKnob(
      "MVTEE_ADMIN_PORT", std::getenv("MVTEE_ADMIN_PORT"), 0, 65'535,
      base.tcp_port));
  return base;
}

AdminServer::AdminServer(core::Monitor& monitor,
                         transport::Listener& listener, AdminOptions options)
    : monitor_(monitor),
      listener_(listener),
      options_(options),
      watchdog_(monitor.metrics(), options.watchdog),
      start_us_(util::NowMicros()) {}

util::Result<std::unique_ptr<AdminServer>> AdminServer::Start(
    core::Monitor& monitor, transport::Listener& listener,
    AdminOptions options) {
  std::unique_ptr<AdminServer> server(
      new AdminServer(monitor, listener, options));
  if (options.tcp_port >= 0) {
    MVTEE_RETURN_IF_ERROR(server->BindTcp(options.tcp_port));
    server->tcp_thread_ = std::thread(&AdminServer::TcpLoop, server.get());
  }
  server->watchdog_.Start();
  server->accept_thread_ = std::thread(&AdminServer::AcceptLoop, server.get());
  return server;
}

AdminServer::~AdminServer() { Stop(); }

void AdminServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  listener_.Close();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (tcp_thread_.joinable()) tcp_thread_.join();
  if (tcp_fd_ >= 0) {
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }
  watchdog_.Stop();
}

std::string AdminServer::RenderHttp(const HttpResponse& r) {
  std::string out = "HTTP/1.0 " + std::to_string(r.code) + " " +
                    StatusText(r.code) + "\r\n";
  out += "Content-Type: " + r.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(r.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += r.body;
  return out;
}

AdminServer::HttpResponse AdminServer::Handle(
    const std::string& request_line) {
  const std::string path = ParsePath(request_line);
  if (path == "/healthz") return Healthz();
  if (path == "/metrics") return Metrics();
  if (path == "/status") return Status();
  HttpResponse r;
  r.code = 404;
  r.content_type = "application/json";
  obs::JsonValue::Object err;
  err.emplace_back("error", "unknown path");
  err.emplace_back("paths",
                   obs::JsonValue::Array{"/healthz", "/metrics", "/status"});
  r.body = obs::JsonValue(std::move(err)).Dump(2) + "\n";
  return r;
}

AdminServer::HttpResponse AdminServer::Healthz() {
  // A probe wants the verdict as of NOW, not as of the last poll tick
  // (Evaluate is thread-safe against the sampling loop).
  watchdog_.Evaluate(util::NowMicros());
  const obs::StallWatchdog::Health h = watchdog_.health();
  obs::JsonValue::Object body;
  body.emplace_back("healthy", h.healthy);
  body.emplace_back("reason", h.reason);
  body.emplace_back("heartbeat", h.heartbeat);
  body.emplace_back("silent_for_us", h.silent_for_us);
  body.emplace_back("queue_depth", h.queue_depth);
  body.emplace_back("inflight", h.inflight);
  body.emplace_back("stall_alarms", h.stall_alarms);
  // Supervisor panel verdict: a retired or quarantined variant is an
  // operator-visible condition, but panel self-healing is the design —
  // only the watchdog verdict decides the status code.
  if (const core::Supervisor* sup = monitor_.supervisor()) {
    obs::JsonValue::Object panel;
    for (const auto& slot : sup->Snapshot()) {
      panel.emplace_back(slot.variant_id,
                         std::string(core::LifecycleName(slot.state)));
    }
    body.emplace_back("variants", std::move(panel));
  }
  HttpResponse r;
  r.code = h.healthy ? 200 : 503;
  r.content_type = "application/json";
  r.body = obs::JsonValue(std::move(body)).Dump(2) + "\n";
  return r;
}

AdminServer::HttpResponse AdminServer::Metrics() {
  HttpResponse r;
  r.content_type = "text/plain; version=0.0.4";
  r.body = obs::PrometheusExporter(&monitor_.metrics()).Export();
  return r;
}

AdminServer::HttpResponse AdminServer::Status() {
  obs::Registry& reg = monitor_.metrics();
  obs::JsonValue::Object body;
  body.emplace_back("uptime_us", util::NowMicros() - start_us_);

  obs::JsonValue::Object build;
  build.emplace_back("cpu_features", util::CpuFeatureString());
  build.emplace_back("simd_enabled", util::SimdEnabled());
  // Structured dispatch provenance: which accelerated tiers actually
  // run on this host right now. AES-GCM names its tier (portable,
  // aesni128 or vaes512, the last on AVX-512); GEMM has no AVX-512 tier
  // yet (ROADMAP), so an avx512f host reports that headroom.
  // avx2_gemm is the FMA-ordered kAvx2 backend; avx2_blocked_gemm is
  // the blocked backend's mul-then-add tier, which needs AVX2 alone. It
  // lives in the elementwise TU and shares its gate, so in any build
  // that carries that TU it reads the same as avx2_elementwise; it is
  // listed so both GEMM tiers are named where operators look for them.
  obs::JsonValue::Object simd;
  simd.emplace_back("avx2_gemm", runtime::GemmAvx2Accelerated());
  simd.emplace_back("avx2_blocked_gemm", runtime::GemmBlockedAccelerated());
  simd.emplace_back("avx2_elementwise", util::UseAvx2Elementwise());
  simd.emplace_back("aes_gcm", crypto::AesGcmAccelerated());
  simd.emplace_back("aes_gcm_tier",
                    crypto::GcmTierName(crypto::SelectedGcmTier()));
  simd.emplace_back("avx512f_unused_by_gemm",
                    util::HostCpuFeatures().avx512f);
  build.emplace_back("simd_dispatch", std::move(simd));
  body.emplace_back("build", std::move(build));

  // Prepacked constant-weight cache (DESIGN.md §14): hits/misses are
  // hot-path lookups, bytes is the storage held by live caches.
  obs::JsonValue::Object pack;
  pack.emplace_back("enabled", runtime::PackCacheEnabled());
  pack.emplace_back("hits", reg.GetCounter("pack.hits").value());
  pack.emplace_back("misses", reg.GetCounter("pack.misses").value());
  pack.emplace_back("bytes", reg.GetGauge("pack.bytes").value());
  body.emplace_back("pack", std::move(pack));

  const core::Monitor::ServiceStatusSnapshot status = monitor_.ServiceStatus();
  obs::JsonValue::Object svc;
  svc.emplace_back("running", status.running);
  svc.emplace_back("accepting", status.accepting);
  svc.emplace_back("queue_depth", static_cast<uint64_t>(status.queue_depth));
  svc.emplace_back("queue_depth_hwm",
                   reg.GetGauge("service.admission_queue_depth_hwm").value());
  svc.emplace_back("queue_max", static_cast<uint64_t>(status.queue_max));
  svc.emplace_back("inflight", reg.GetGauge("service.inflight").value());

  // Scheduler policy in force plus its live counters (DESIGN.md §13).
  obs::JsonValue::Object sched;
  sched.emplace_back("edf", status.edf);
  sched.emplace_back("max_batch", static_cast<uint64_t>(status.max_batch));
  sched.emplace_back("batch_window_us", status.batch_window_us);
  sched.emplace_back("tenant_quota_pct",
                     static_cast<uint64_t>(status.tenant_quota_pct));
  sched.emplace_back("preemptions",
                     reg.GetCounter("scheduler.preemptions_total").value());
  sched.emplace_back(
      "deadline_misses",
      reg.GetCounter("scheduler.deadline_misses_total").value());
  svc.emplace_back("scheduler", std::move(sched));
  // Async cross-check coverage (DESIGN.md §6): a panel member owing
  // lag_budget reports skips the next batch (unsampled_batches); an owed
  // report that can no longer arrive is released unchecked.
  obs::JsonValue::Object cross;
  cross.emplace_back("lag_budget", static_cast<uint64_t>(status.max_batch));
  for (const char* name :
       {"unsampled_batches", "unchecked_reports", "late_divergences"}) {
    cross.emplace_back(name,
                       reg.GetCounter(std::string("monitor.") + name).value());
  }
  svc.emplace_back("cross_check", std::move(cross));
  obs::JsonValue::Array sessions;
  for (const auto& s : status.sessions) {
    obs::JsonValue::Object sess;
    sess.emplace_back("id", IdString(s.id));
    sess.emplace_back("next_seq", s.next_seq);
    sess.emplace_back("aborted", s.aborted);
    sessions.emplace_back(std::move(sess));
  }
  svc.emplace_back("sessions", std::move(sessions));
  body.emplace_back("service", std::move(svc));

  const obs::StallWatchdog::Health h = watchdog_.health();
  obs::JsonValue::Object wd;
  wd.emplace_back("healthy", h.healthy);
  wd.emplace_back("reason", h.reason);
  wd.emplace_back("heartbeat", h.heartbeat);
  wd.emplace_back("silent_for_us", h.silent_for_us);
  wd.emplace_back("stall_alarms", h.stall_alarms);
  body.emplace_back("watchdog", std::move(wd));

  if (const core::Supervisor* sup = monitor_.supervisor()) {
    obs::JsonValue::Array variants;
    for (const auto& slot : sup->Snapshot()) {
      obs::JsonValue::Object v;
      v.emplace_back("variant_id", slot.variant_id);
      v.emplace_back("stage", static_cast<uint64_t>(slot.stage));
      v.emplace_back("state", std::string(core::LifecycleName(slot.state)));
      v.emplace_back("dissents", slot.dissents);
      v.emplace_back("quarantines", slot.quarantines);
      v.emplace_back("readmissions", slot.readmissions);
      variants.emplace_back(std::move(v));
    }
    body.emplace_back("variants", std::move(variants));
  }

  // Every MVTEE_* knob the process honors — one authoritative table
  // (util::KnobRegistry), with the raw and effective values.
  obs::JsonValue::Array knobs;
  for (const auto& view : util::KnobRegistry::Default().Snapshot()) {
    obs::JsonValue::Object k;
    k.emplace_back("name", std::string(view.desc->name));
    k.emplace_back("set", view.set);
    if (view.set) k.emplace_back("raw", view.raw);
    k.emplace_back("value", view.value);
    k.emplace_back("doc", std::string(view.desc->doc));
    knobs.emplace_back(std::move(k));
  }
  body.emplace_back("knobs", std::move(knobs));

  obs::TimelineLog& log = obs::TimelineLog::Default();
  obs::JsonValue::Object timelines;
  timelines.emplace_back("total_noted", log.total_noted());
  obs::JsonValue::Array slowest;
  for (const auto& t : log.SlowestK(8)) {
    slowest.emplace_back(obs::TimelineToJson(t));
  }
  timelines.emplace_back("slowest", std::move(slowest));
  body.emplace_back("timelines", std::move(timelines));

  HttpResponse r;
  r.content_type = "application/json";
  r.body = obs::JsonValue(std::move(body)).Dump(2) + "\n";
  return r;
}

void AdminServer::AcceptLoop() {
  for (;;) {
    auto endpoint = listener_.Accept(200'000);
    if (!endpoint.ok()) {
      if (endpoint.status().code() == util::StatusCode::kUnavailable) return;
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_) return;
      continue;  // accept timeout: poll the stop flag again
    }
    // One request per connection, served inline: the handlers are
    // cheap snapshots and the admin plane has no concurrency SLO.
    auto frame = endpoint->Recv(2'000'000);
    if (frame.ok()) {
      const HttpResponse response = Handle(util::ToString(*frame));
      (void)endpoint->Send(util::ToBytes(RenderHttp(response)));
    }
    endpoint->Close();
  }
}

util::Status AdminServer::BindTcp(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return util::Internal("admin: socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return util::Internal("admin: bind(127.0.0.1:" + std::to_string(port) +
                          ") failed: " + std::strerror(errno));
  }
  if (::listen(fd, 16) != 0) {
    ::close(fd);
    return util::Internal("admin: listen() failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    ::close(fd);
    return util::Internal("admin: getsockname() failed");
  }
  tcp_fd_ = fd;
  tcp_port_ = static_cast<int>(ntohs(bound.sin_port));
  MVTEE_ILOG << "admin: listening on 127.0.0.1:" << tcp_port_;
  return util::OkStatus();
}

void AdminServer::TcpLoop() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_) return;
    }
    pollfd pfd{tcp_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);  // ms; bounds the stop latency
    if (ready <= 0) continue;
    const int conn = ::accept(tcp_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    // Read up to the end of the request line; ignore the header block
    // (every endpoint is a bare GET).
    std::string request;
    char buf[512];
    for (;;) {
      const ssize_t n = ::read(conn, buf, sizeof(buf));
      if (n <= 0) break;
      request.append(buf, static_cast<size_t>(n));
      if (request.find('\n') != std::string::npos) break;
      if (request.size() > 8192) break;  // header flood guard
    }
    const std::string wire = RenderHttp(Handle(request));
    size_t off = 0;
    while (off < wire.size()) {
      const ssize_t n = ::write(conn, wire.data() + off, wire.size() - off);
      if (n <= 0) break;
      off += static_cast<size_t>(n);
    }
    ::close(conn);
  }
}

util::Result<std::string> AdminGet(transport::Listener& listener,
                                   const std::string& path,
                                   int64_t timeout_us) {
  transport::Endpoint endpoint = listener.Connect();
  MVTEE_RETURN_IF_ERROR(endpoint.Send(util::ToBytes("GET " + path)));
  MVTEE_ASSIGN_OR_RETURN(util::Bytes reply, endpoint.Recv(timeout_us));
  endpoint.Close();
  return util::ToString(reply);
}

}  // namespace mvtee::service
