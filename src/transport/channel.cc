#include "transport/channel.h"

#include <chrono>
#include <thread>

#include "util/dataplane_stats.h"

namespace mvtee::transport {

uint64_t WaitSet::Epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

void WaitSet::Notify() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++epoch_;
  }
  cv_.notify_all();
}

uint64_t WaitSet::WaitFor(uint64_t epoch, int64_t timeout_us) {
  std::unique_lock<std::mutex> lock(mu_);
  if (timeout_us > 0) {
    cv_.wait_for(lock, std::chrono::microseconds(timeout_us),
                 [&] { return epoch_ != epoch; });
  }
  return epoch_;
}

namespace internal {

void MessageQueue::Push(util::PooledBuffer frame) {
  std::shared_ptr<WaitSet> waiter;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return;  // silently dropped, like writing to a dead socket
    frames_.push_back(std::move(frame));
    waiter = waiter_;
  }
  cv_.notify_one();
  if (waiter) waiter->Notify();
}

util::Result<util::PooledBuffer> MessageQueue::Pop(int64_t timeout_us) {
  std::unique_lock<std::mutex> lock(mu_);
  // A zero timeout is a poll. Even an already-expired timed wait parks
  // the thread in the kernel for the timer slack (~50 us by default).
  if (timeout_us > 0) {
    cv_.wait_for(lock, std::chrono::microseconds(timeout_us),
                 [&] { return !frames_.empty() || closed_; });
  }
  if (frames_.empty()) {
    if (closed_) return util::Unavailable("peer closed the channel");
    return util::DeadlineExceeded("recv timeout");
  }
  util::PooledBuffer frame = std::move(frames_.front());
  frames_.pop_front();
  return frame;
}

void MessageQueue::Close() {
  std::shared_ptr<WaitSet> waiter;
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    waiter = waiter_;
  }
  cv_.notify_all();
  if (waiter) waiter->Notify();
}

bool MessageQueue::readable() {
  std::lock_guard<std::mutex> lock(mu_);
  return !frames_.empty() || closed_;
}

void MessageQueue::SetWaiter(std::shared_ptr<WaitSet> waiter) {
  std::shared_ptr<WaitSet> notify;
  {
    std::lock_guard<std::mutex> lock(mu_);
    waiter_ = std::move(waiter);
    // If data is already queued (or we're closed), the new waiter must
    // learn about it — it may have snapshotted its epoch before attach.
    if (waiter_ && (!frames_.empty() || closed_)) notify = waiter_;
  }
  if (notify) notify->Notify();
}

}  // namespace internal

util::Status Endpoint::Send(util::ByteSpan frame) {
  if (!valid()) return util::FailedPrecondition("endpoint not connected");
  util::Bytes payload(frame.begin(), frame.end());
  util::CountDataPlaneCopy(payload.size());
  return SendPooled(util::PooledBuffer::Adopt(std::move(payload)));
}

util::Status Endpoint::SendPooled(util::PooledBuffer frame) {
  if (!valid()) return util::FailedPrecondition("endpoint not connected");
  if (interceptor_) {
    // Interceptors (tamper/drop attackers, ablation hooks) operate on
    // plain Bytes; whatever they return is re-wrapped. This copy only
    // exists when an interceptor is installed.
    auto result = interceptor_(frame.bytes());
    if (!result.has_value()) return util::OkStatus();  // dropped on the wire
    util::CountDataPlaneCopy(result->size());
    frame = util::PooledBuffer::Adopt(std::move(*result));
  }
  if (cost_.latency_us > 0 || cost_.bytes_per_us > 0) {
    double us = cost_.latency_us;
    if (cost_.bytes_per_us > 0) {
      us += static_cast<double>(frame.size()) / cost_.bytes_per_us;
    }
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int64_t>(us)));
  }
  bytes_sent_ += frame.size();
  frames_sent_ += 1;
  tx_->Push(std::move(frame));
  return util::OkStatus();
}

util::Result<util::Bytes> Endpoint::Recv(int64_t timeout_us) {
  auto frame = RecvPooled(timeout_us);
  if (!frame.ok()) return frame.status();
  util::Bytes out = frame->TakeBytes();
  // TakeBytes moves when it solely owns a non-pooled buffer and copies
  // otherwise (the handle still holds the storage in that case).
  if (*frame) util::CountDataPlaneCopy(out.size());
  return out;
}

util::Result<util::PooledBuffer> Endpoint::RecvPooled(int64_t timeout_us) {
  if (!valid()) return util::FailedPrecondition("endpoint not connected");
  return rx_->Pop(timeout_us);
}

Endpoint& Endpoint::operator=(Endpoint&& other) noexcept {
  if (this != &other) {
    Close();
    tx_ = std::move(other.tx_);
    rx_ = std::move(other.rx_);
    cost_ = other.cost_;
    interceptor_ = std::move(other.interceptor_);
    bytes_sent_ = other.bytes_sent_;
    frames_sent_ = other.frames_sent_;
  }
  return *this;
}

void Endpoint::Close() {
  if (tx_) tx_->Close();
  if (rx_) rx_->Close();
}

void Endpoint::InjectRaw(util::Bytes frame) {
  if (tx_) tx_->Push(util::PooledBuffer::Adopt(std::move(frame)));
}

void Endpoint::AttachWaiter(std::shared_ptr<WaitSet> waiter) {
  if (rx_) rx_->SetWaiter(std::move(waiter));
}

bool Endpoint::Readable() const {
  return rx_ && rx_->readable();
}

Endpoint Listener::Connect() {
  auto [client, server] = CreateChannel(cost_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      client.Close();
      return std::move(client);
    }
    pending_.push_back(std::move(server));
  }
  cv_.notify_one();
  return std::move(client);
}

util::Result<Endpoint> Listener::Accept(int64_t timeout_us) {
  std::unique_lock<std::mutex> lock(mu_);
  if (timeout_us > 0) {  // a zero timeout polls, as in MessageQueue::Pop
    cv_.wait_for(lock, std::chrono::microseconds(timeout_us),
                 [&] { return !pending_.empty() || closed_; });
  }
  if (!pending_.empty()) {
    Endpoint ep = std::move(pending_.front());
    pending_.pop_front();
    return ep;
  }
  if (closed_) return util::Unavailable("listener closed");
  return util::DeadlineExceeded("accept timeout");
}

void Listener::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    pending_.clear();
  }
  cv_.notify_all();
}

std::pair<Endpoint, Endpoint> CreateChannel(const NetworkCostModel& cost) {
  auto a_to_b = std::make_shared<internal::MessageQueue>();
  auto b_to_a = std::make_shared<internal::MessageQueue>();
  Endpoint a, b;
  a.tx_ = a_to_b;
  a.rx_ = b_to_a;
  a.cost_ = cost;
  b.tx_ = b_to_a;
  b.rx_ = a_to_b;
  b.cost_ = cost;
  return {std::move(a), std::move(b)};
}

}  // namespace mvtee::transport
