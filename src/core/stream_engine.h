// The monitor's serving stream (DESIGN.md §5, §7): one event loop from
// admission to the last cross-checked report, run on the service
// thread. StreamEngine is built from named parts:
//  - the request side: admitted requests, one per pipeline slot, pulled
//    from the admission queue through the scheduler and answered;
//  - the batch table: per-batch state, admission, completion, delivery,
//    and the GC of complete batches that owe nothing;
//  - decisions: one vote rule (core::Vote) and one commit;
//  - the lag bound: the reports async panel members owe;
//  - supervisor hooks: lifecycle notes, quarantine, shadow judging;
//  - VClock: the monitor's virtual-time accounting.
// Internal to mvtee_core: Monitor and Session build on it.
#pragma once

#include <condition_variable>
#include <deque>
#include <map>
#include <set>

#include "core/monitor.h"
#include "obs/flight_recorder.h"

namespace mvtee::core {
namespace internal {

// State shared between the monitor's request loop and every Session
// handle. Sessions hold it by shared_ptr so a handle outliving a
// stopped (or destroyed) monitor degrades to fast-fail Submits instead
// of dangling.
struct ServiceState {
  struct Item {
    uint64_t session_id = 0;
    uint64_t seq = 0;
    // Monotone arrival ticket across all sessions: the scheduler's
    // FIFO reference (what EDF/priority "preempt").
    uint64_t ticket = 0;
    std::vector<tensor::Tensor> inputs;
    int64_t deadline_abs_us = 0;  // 0 = unbounded
    int64_t enqueue_us = 0;
    // Scheduling metadata.
    std::string tenant;
    int32_t priority = 0;
    std::string model;
    std::promise<InferenceResponse> response;
  };

  struct SessionInfo {
    uint64_t expected_seq = 0;
    bool aborted = false;  // sequence violation: session is dead
  };

  std::mutex mu;
  std::condition_variable cv;
  std::deque<Item> queue;
  bool accepting = false;
  size_t queue_max = 64;
  uint64_t next_session_id = 1;
  uint64_t next_ticket = 1;
  std::map<uint64_t, SessionInfo> sessions;
  // The monitor's event wait set: enqueues notify it so a serving
  // stream parked in WaitFor wakes for the new work.
  std::shared_ptr<transport::WaitSet> waker;

  // Service instruments (default registry; pointer-stable).
  obs::Gauge* sessions_active = nullptr;
  obs::Gauge* queue_depth = nullptr;
  obs::Gauge* queue_depth_hwm = nullptr;
  obs::Gauge* inflight = nullptr;
  obs::Counter* rejected_total = nullptr;
  obs::Counter* requests_total = nullptr;
  obs::Counter* groups_total = nullptr;
  obs::Histogram* request_latency_us = nullptr;
  // Per-request latency breakdown (DESIGN.md §12): one histogram per
  // lifecycle phase. reply_us is bound here but observed by the service
  // front end (the reply seal happens outside the monitor).
  obs::Histogram* queue_wait_us = nullptr;
  obs::Histogram* coalesce_us = nullptr;
  obs::Histogram* infer_us = nullptr;
  obs::Histogram* verify_us = nullptr;
  obs::Histogram* reply_us = nullptr;
  // Scheduler instruments (DESIGN.md §13): pipeline occupancy at each
  // formation, queue-order preemptions, requests answered after (or
  // expired at) their deadline, and per-tenant goodput (resolved on
  // demand as scheduler.tenant.<name>.goodput_total).
  obs::Registry* registry = nullptr;
  obs::Histogram* sched_occupancy = nullptr;
  obs::Counter* sched_preemptions = nullptr;
  obs::Counter* sched_deadline_misses = nullptr;

  obs::Counter& TenantGoodput(const std::string& tenant) {
    return registry->GetCounter("scheduler.tenant." +
                                (tenant.empty() ? "default" : tenant) +
                                ".goodput_total");
  }

  void BindMetrics(obs::Registry& reg) {
    registry = &reg;
    sched_occupancy = &reg.GetHistogram("scheduler.batch_occupancy");
    sched_preemptions = &reg.GetCounter("scheduler.preemptions_total");
    sched_deadline_misses =
        &reg.GetCounter("scheduler.deadline_misses_total");
    sessions_active = &reg.GetGauge("service.sessions_active");
    queue_depth = &reg.GetGauge("service.admission_queue_depth");
    queue_depth_hwm = &reg.GetGauge("service.admission_queue_depth_hwm");
    inflight = &reg.GetGauge("service.inflight");
    rejected_total = &reg.GetCounter("service.rejected_total");
    requests_total = &reg.GetCounter("service.requests_total");
    groups_total = &reg.GetCounter("service.groups_total");
    request_latency_us = &reg.GetHistogram("service.request_latency_us");
    queue_wait_us = &reg.GetHistogram("service.queue_wait_us");
    coalesce_us = &reg.GetHistogram("service.coalesce_us");
    infer_us = &reg.GetHistogram("service.infer_us");
    verify_us = &reg.GetHistogram("service.verify_us");
    reply_us = &reg.GetHistogram("service.reply_us");
  }
};

}  // namespace internal

// Virtual time of the event the monitor thread is handling (DESIGN.md
// §2): the event's virtual base plus the thread CPU spent on it since it
// began, minus the CPU of its sends, whose boundary crossing is modeled
// instead.
class VClock {
 public:
  // Begins an event at virtual time `vbase`.
  void Begin(int64_t vbase);
  int64_t Now() const;
  // Sends one frame with its CPU excluded from the event's time.
  util::Status Send(transport::MsgChannel& channel, const InferMsg& msg,
                    const util::Bytes& trace_context);

 private:
  int64_t vbase_ = 0;
  int64_t cpu0_ = 0;
  int64_t excluded_ = 0;
};

class StreamEngine {
 public:
  StreamEngine(Monitor& monitor, BatchFormer& former);

  // Admits scheduler-formed requests until quiesced (service stopping
  // or queue idle) and nothing is in flight or owed, answering each
  // request as its batch completes and failing the unanswered ones if
  // the stream aborts. Returns the stream's terminal status.
  util::Status Run();

 private:
  using Item = internal::ServiceState::Item;
  // A member's report and its digest summary, computed once on
  // ingestion for the prefilter.
  struct Report {
    InferResultMsg msg;
    OutputsSummary sum;
  };
  using Reports = std::vector<std::optional<Report>>;

  struct BatchState {
    // The request the batch answers (taken when answered) and its wall
    // clock admission.
    std::optional<Item> request;
    int64_t admit_us = 0;
    // Per panel stage: report per voting seat. Slots are written at
    // most once (duplicate frames are dropped).
    std::map<size_t, Reports> reports;
    std::map<size_t, std::vector<tensor::Tensor>> chosen;
    // Summary of the chosen outputs (straggler checks); computed on
    // first use when the verdict did not carry one.
    std::map<size_t, OutputsSummary> chosen_summary;
    std::map<size_t, int64_t> v_chosen;  // virtual decision time per stage
    std::set<size_t> voted;  // stages whose verdict is final
    bool complete = false;
    int64_t admit_vus = 0;  // virtual admission time
    // Panel membership, frozen per batch at admission: 0 = excluded
    // (quarantined / retired), 1 = voting, 2 = shadow (probation).
    // Mid-batch transitions only affect later batches' masks.
    std::vector<std::vector<char>> masks;
    // Shadow (probation) reports, judged against the accepted outputs
    // once the stage verdict commits — never part of the vote.
    std::map<size_t, Reports> shadow;
    // Input sends completed per stage; the idle timeout judges a stage
    // only once feeds_done == stage_feed_count_.
    std::vector<size_t> feeds_done;
    // Per panel stage and member: 1 while a report is owed (inputs
    // sent, no report yet). The batch is kept until `owed` is 0.
    std::vector<std::vector<char>> owes;
    size_t owed = 0;
    // The batch's distributed trace (DESIGN.md §8): the monitor's
    // admit/forward/verify spans and — via the authenticated channel
    // headers — every variant-side span share it.
    uint64_t trace_id = 0;
    // Cross-validation CPU spent on this batch (the per-request verify
    // phase of the latency breakdown).
    int64_t verify_us = 0;
  };

  // A stage verdict on its way to the one commit.
  struct Decision {
    bool checked = true;   // false: an unverified fast-path traversal
    bool accepted = true;
    std::vector<int> dissent;  // panel indices, ascending
    int64_t v_decide = 0;
    std::vector<tensor::Tensor> outputs;
    OutputsSummary summary;
    const InferResultMsg* fast = nullptr;  // the k == 1 report
  };

  // --- request side
  bool Refill();
  void Answer(Item& item, InferenceResponse response, int64_t queue_wait,
              int64_t infer_us, int64_t verify_us, bool ok);
  void Deliver(BatchState& state, std::vector<tensor::Tensor> outputs);
  void FailUnanswered();
  bool WorkRemains();

  // --- batch table
  BatchState& Batch(size_t b) { return batches_.at(b); }
  uint64_t TraceOf(size_t b) const;
  void Admit(Item item, int64_t now);
  void Feed(BatchState& state, size_t s, InferMsg& msg,
            const util::Bytes& trace_context);
  int64_t ChargeBoundary(size_t dest, size_t bytes);
  void Forward(size_t s, size_t b);
  void Complete(BatchState& state);

  // --- decisions
  bool PollFrames();
  bool ChannelFailed(size_t s, size_t vi, const util::Status& status);
  void HandleResult(size_t s, size_t vi, InferResultMsg&& msg);
  void FastPath(size_t s, size_t b, InferResultMsg&& msg);
  void TryQuorum(size_t s, size_t b);
  void FullVote(size_t s, size_t b);
  VoteResult RunVote(size_t s, size_t b, const char* tag,
                     const std::vector<std::vector<tensor::Tensor>>& list,
                     const std::vector<OutputsSummary>& sums,
                     VotePolicy policy, int64_t* verify_cpu);
  void Commit(size_t s, size_t b, Decision d);
  bool DissentsFromChosen(BatchState& state, size_t s, const Report& r);
  void NoteCheckpoint(size_t s, size_t b, const char* verdict,
                      int64_t v_decide, const std::vector<int>& dissenters,
                      const InferResultMsg* fast = nullptr);
  void DumpEvidence(const char* trigger, uint64_t trace_id,
                    const std::string& detail);
  void Fail(util::Status status);

  // --- lag bound
  void BeginFeed(BatchState& state, size_t s);
  void StopOwing(BatchState& state, size_t s, size_t vi);
  void ReleaseOwed(BatchState& state, size_t s, size_t vi);
  bool Releasable(const BatchState& state, size_t s, size_t vi) const;
  bool Silent(size_t s, size_t vi, int64_t now) const;
  void SettleOwed(size_t s, size_t vi, const char* why);
  bool ReleaseSilent(int64_t now);
  bool SettleSilent(int64_t now);
  void FailReport(size_t s, size_t vi, size_t b, std::string why);

  // --- supervisor hooks
  void NoteLifecycle(size_t s, size_t vi, const char* verdict, size_t b);
  void Depart(size_t s, size_t vi, const char* verdict, size_t b);
  bool LifecycleFailure(size_t s, size_t vi, size_t b, FailureKind kind);
  void LifecycleDissent(size_t s, size_t vi, size_t b);
  void JudgeShadow(size_t s, size_t b, size_t vi);
  void JudgePendingShadows(size_t s, size_t b);
  bool Rebootstrap();

  Monitor& mon_;
  const MonitorConfig& config_;
  Monitor::MonitorMetrics& m_;
  std::vector<Monitor::StageState>& stages_;
  Supervisor* const supervisor_;  // null unless supervised
  internal::ServiceState& st_;
  BatchFormer& former_;
  obs::FlightRecorder& recorder_;
  VClock clock_;

  // Request side.
  const size_t max_inflight_;  // pipeline slots; also the lag budget L
  std::map<std::string, size_t> inflight_per_tenant_;
  int64_t window_recheck_us_ = 0;

  // Batch table. Batch ids are allocated one per admitted request from
  // `base_`; map nodes are pointer-stable, so a handler keeps its
  // BatchState& across nested ones.
  const uint64_t base_;
  const int64_t run_vstart_;
  std::map<size_t, BatchState> batches_;
  size_t admitted_ = 0;
  size_t completed_ = 0;
  uint64_t last_trace_id_ = 0;  // attributes events of no batch
  // Virtual time of the latest completion. A batch's latency is
  // vcomplete - max(admit_vus, previous completion).
  int64_t last_completion_vus_;
  // Non-reporting fast-path stages each batch traverses silently
  // (direct routing only).
  size_t silent_fast_stages_ = 0;

  // Lag bound (DESIGN.md §5): per panel stage and member, the reports
  // owed across every batch of the stream, and since when the member
  // has been silent while owing one.
  std::vector<std::vector<size_t>> lag_;
  std::vector<std::vector<int64_t>> silent_since_;
  size_t owed_total_ = 0;

  // Incidents: the first failure ends the stream; the first evidence
  // bundle wins, and lifecycle events leave one if nothing else did.
  util::Status run_error_ = util::OkStatus();
  bool evidence_dumped_ = false;
  bool lifecycle_events_ = false;
  uint64_t lifecycle_trigger_trace_ = 0;
};

}  // namespace mvtee::core
