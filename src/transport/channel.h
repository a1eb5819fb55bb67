// In-process duplex message channels.
//
// Substitution note (DESIGN.md §2): stands in for the testbed's TCP/IP
// sockets. A channel is *untrusted*: it models the host network, so it
// supports a per-endpoint interceptor (tamper/drop) and raw injection —
// the attacker surface the secure channel layer must defeat. An optional
// cost model charges per-message latency and per-byte serialization time
// so benchmarks reflect 10 GbE-like transfer costs.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "util/buffer_pool.h"
#include "util/bytes.h"
#include "util/status.h"

namespace mvtee::transport {

// A received frame backed by a refcounted (usually pooled) buffer,
// with [off, off+len) delimiting the interesting region — the whole
// frame for plain channels, the opened plaintext for secure ones.
// Tensor views alias this region and pin it via keepalive().
struct InFrame {
  util::PooledBuffer buf;
  size_t off = 0;
  size_t len = 0;

  util::ByteSpan span() const {
    if (!buf) return util::ByteSpan();
    return util::ByteSpan(buf.data() + off, len);
  }
  std::shared_ptr<const void> keepalive() const { return buf.keepalive(); }

  static InFrame Adopt(util::Bytes frame) {
    InFrame f;
    f.buf = util::PooledBuffer::Adopt(std::move(frame));
    f.len = f.buf.size();
    return f;
  }
};

// Condition-variable-backed poll set: the readiness/wakeup primitive
// behind the evented monitor loop. Producers (message queues, worker
// pools) call Notify() whenever something becomes consumable; a consumer
// snapshots Epoch(), polls its sources, and — if it found nothing —
// blocks in WaitFor() until the epoch advances. An event that lands
// between the snapshot and the wait advances the epoch first, so the
// wait returns immediately instead of losing the wakeup.
class WaitSet {
 public:
  // Current event epoch (bumped by every Notify).
  uint64_t Epoch() const;

  // Bumps the epoch and wakes all waiters.
  void Notify();

  // Blocks until Epoch() != epoch or the timeout elapses. Returns the
  // epoch observed on wakeup (== `epoch` means timeout).
  uint64_t WaitFor(uint64_t epoch, int64_t timeout_us);

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t epoch_ = 0;
};

struct NetworkCostModel {
  double latency_us = 0.0;     // per message
  double bytes_per_us = 0.0;   // serialization rate; 0 = infinite
  // 10 GbE + loopback-ish latency, the paper's testbed fabric.
  static NetworkCostModel TenGbE() { return {30.0, 1250.0}; }
  static NetworkCostModel Free() { return {0.0, 0.0}; }
};

// Modeled wire time for one message of `bytes` (virtual-time model).
inline double WireMicros(const NetworkCostModel& m, size_t bytes) {
  double us = m.latency_us;
  if (m.bytes_per_us > 0) {
    us += static_cast<double>(bytes) / m.bytes_per_us;
  }
  return us;
}

namespace internal {
class MessageQueue {
 public:
  // Queues carry refcounted pooled buffers, so a frame moves from
  // sender to receiver without its bytes being copied.
  void Push(util::PooledBuffer frame);
  // Blocks up to timeout; kDeadlineExceeded on timeout, kUnavailable
  // once closed and drained. A timeout <= 0 polls without waiting.
  util::Result<util::PooledBuffer> Pop(int64_t timeout_us);
  void Close();
  // True if a Pop(0) would yield a frame or an error (closed + drained).
  bool readable();
  // Registers a WaitSet notified on every Push and on Close.
  void SetWaiter(std::shared_ptr<WaitSet> waiter);

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<util::PooledBuffer> frames_;
  bool closed_ = false;
  std::shared_ptr<WaitSet> waiter_;
};
}  // namespace internal

// Interceptor: invoked on every outgoing frame. Return the (possibly
// modified) frame to forward, or nullopt to drop it.
using Interceptor =
    std::function<std::optional<util::Bytes>(const util::Bytes&)>;

// One end of a duplex channel. Move-only: an Endpoint owns its end, and
// destroying (or overwriting) it closes both queues, so the peer reads
// kUnavailable ("peer closed") at once instead of waiting out a timeout.
class Endpoint {
 public:
  Endpoint() = default;
  ~Endpoint() { Close(); }
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;
  Endpoint(Endpoint&&) noexcept = default;
  Endpoint& operator=(Endpoint&& other) noexcept;

  // Sends one frame (applies cost model + interceptor). Copies `frame`
  // into a fresh buffer; the zero-copy path is SendPooled.
  util::Status Send(util::ByteSpan frame);

  // Zero-copy send: moves the buffer into the peer's queue (applies
  // cost model + interceptor; an installed interceptor forces one copy
  // since it works on plain Bytes).
  util::Status SendPooled(util::PooledBuffer frame);

  // Receives one frame; kDeadlineExceeded on timeout, kUnavailable if
  // the peer closed and the queue drained. A timeout <= 0 is a poll: it
  // never parks the calling thread.
  util::Result<util::Bytes> Recv(int64_t timeout_us = 5'000'000);

  // Zero-copy receive: hands back the sender's buffer.
  util::Result<util::PooledBuffer> RecvPooled(int64_t timeout_us = 5'000'000);

  void Close();
  bool valid() const { return tx_ != nullptr; }

  void SetInterceptor(Interceptor interceptor) {
    interceptor_ = std::move(interceptor);
  }

  // Host-attacker primitive: injects a raw frame into the peer's
  // receive queue, bypassing cost model and interceptor.
  void InjectRaw(util::Bytes frame);

  // Evented receive support: the waiter is notified whenever a frame
  // lands in (or the peer closes) this endpoint's receive queue.
  void AttachWaiter(std::shared_ptr<WaitSet> waiter);
  // True if Recv(0) would return a frame or a terminal error.
  bool Readable() const;

  // Total bytes pushed through Send (post-interceptor), for overhead
  // accounting in benchmarks.
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t frames_sent() const { return frames_sent_; }

 private:
  friend std::pair<Endpoint, Endpoint> CreateChannel(
      const NetworkCostModel& cost);

  std::shared_ptr<internal::MessageQueue> tx_;
  std::shared_ptr<internal::MessageQueue> rx_;
  NetworkCostModel cost_;
  Interceptor interceptor_;
  uint64_t bytes_sent_ = 0;
  uint64_t frames_sent_ = 0;
};

// Creates the two ends of a duplex channel.
std::pair<Endpoint, Endpoint> CreateChannel(
    const NetworkCostModel& cost = NetworkCostModel::Free());

// Accept queue for client-facing services: stands in for a listening
// TCP socket. Connect() creates a fresh duplex channel (under the
// listener's cost model), enqueues the server end for Accept(), and
// hands the client end back to the dialer. Like the channels it mints,
// the listener is *untrusted* — anyone can connect; it is the attested
// handshake run over the accepted endpoint that gates service access.
class Listener {
 public:
  explicit Listener(NetworkCostModel cost = NetworkCostModel::Free())
      : cost_(cost) {}

  // Dials the listener: returns the client end of a new channel. The
  // server end becomes visible to Accept(). Dialing a closed listener
  // returns an already-closed endpoint (the RA-TLS handshake over it
  // fails with kUnavailable, like connecting to a dead port).
  Endpoint Connect();

  // Blocks for the next queued connection; kDeadlineExceeded on
  // timeout, kUnavailable once Close()d and drained. A timeout <= 0
  // polls without waiting.
  util::Result<Endpoint> Accept(int64_t timeout_us = 5'000'000);

  void Close();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Endpoint> pending_;
  bool closed_ = false;
  NetworkCostModel cost_;
};

}  // namespace mvtee::transport
