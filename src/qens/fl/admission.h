#ifndef QENS_FL_ADMISSION_H_
#define QENS_FL_ADMISSION_H_

/// \file admission.h
/// Traffic-aware admission control for the serving engine.
///
/// A `QueryRequest` wraps a range query with its traffic metadata: a
/// priority class and a virtual arrival time. An `AdmissionQueue` holds the
/// pending requests of ONE session stream, bounded by capacity and
/// per-class round budgets and deadlines, and hands them out
/// highest-priority-first with deterministic tie-breaks. The default
/// AdmissionOptions sets no gate: everything is admitted, nothing is shed.
///
/// Every admission decision is made in DETERMINISTIC VIRTUAL TIME: the
/// clock the server advances is built from the sim::CostModel seconds each
/// executed query reports (its leader-side critical path), never from the
/// wall clock. Outcomes — including every kRejected / kShedOnDeadline
/// decision — are therefore bit-identical at every worker count, per the
/// standing determinism invariant. Wall time stays a measured-only field.
///
/// See docs/ARCHITECTURE.md "The serving pipeline" for the request
/// lifecycle (admit -> schedule -> rounds -> export).

#include <cstddef>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "qens/common/status.h"
#include "qens/query/range_query.h"

namespace qens::fl {

/// Priority class of one serving request. Lower value = higher priority.
enum class QueryClass {
  kInteractive = 0,  ///< User-facing; scheduled ahead of everything else.
  kStandard = 1,     ///< Default traffic.
  kBatch = 2,        ///< Best-effort backfill; first to starve under load.
};

inline constexpr size_t kNumQueryClasses = 3;

/// Stable wire name ("interactive", "standard", "batch").
const char* QueryClassName(QueryClass query_class);

/// Inverse of QueryClassName; InvalidArgument on an unknown name.
Result<QueryClass> ParseQueryClass(const std::string& name);

/// One serving request: a query plus its traffic metadata. A plain query
/// is `QueryRequest{query}`: standard class, arriving at 0.
struct QueryRequest {
  query::RangeQuery query;
  QueryClass query_class = QueryClass::kStandard;
  /// Virtual arrival time (sim seconds since the session stream started).
  double arrival_s = 0.0;
};

/// Admission-control gates (ServingOptions::admission_options). Every gate
/// defaults to off, so `AdmissionOptions{}` admits everything and sheds
/// nothing (priority ordering still applies).
struct AdmissionOptions {
  /// Pending requests the queue holds across all classes. An arrival that
  /// finds the queue full is kRejected. Default unbounded; 0 admits
  /// nothing (every request is rejected).
  size_t queue_capacity = static_cast<size_t>(-1);
  /// Class relative deadlines (sim seconds after arrival) after which a
  /// queued request is shed instead of run; 0 = no deadline.
  double interactive_deadline_s = 0.0;
  double standard_deadline_s = 0.0;
  double batch_deadline_s = 0.0;
  /// Total federated rounds each class may admit (a request is charged its
  /// spec's rounds-per-query at Offer time); 0 = unlimited.
  size_t interactive_round_budget = 0;
  size_t standard_round_budget = 0;
  size_t batch_round_budget = 0;

  double DeadlineFor(QueryClass query_class) const;
  size_t RoundBudgetFor(QueryClass query_class) const;
};

/// How the pipeline disposed of one request.
enum class AdmissionOutcome {
  kAdmitted = 0,       ///< Accepted (and eventually executed).
  kRejected,           ///< Refused at arrival: queue full or budget spent.
  kShedOnDeadline,     ///< Admitted but its virtual deadline passed queued.
};

/// Stable wire name ("admitted", "rejected", "shed_on_deadline").
const char* AdmissionOutcomeName(AdmissionOutcome outcome);

/// One pending entry: the caller-side request index plus the scheduling
/// metadata the queue orders and sheds by.
struct PendingRequest {
  size_t index = 0;  ///< Index into the caller's request vector.
  QueryClass query_class = QueryClass::kStandard;
  double arrival_s = 0.0;
  /// Absolute virtual shed deadline (arrival + class deadline); 0 = none.
  double deadline_at_s = 0.0;
};

/// Bounded, priority-aware pending queue for one session stream.
///
/// Ordering: strictly by class (interactive before standard before batch),
/// then by Offer order within a class. The server offers requests in
/// arrival order, so within-class ties (equal priority) always resolve to
/// the earlier arrival — deterministically, with no RNG and no clock.
/// Not thread-safe; each session owns its queue (sessions share nothing).
class AdmissionQueue {
 public:
  explicit AdmissionQueue(const AdmissionOptions& options)
      : options_(options) {}

  /// Offer the request at caller index `index`, charging `rounds` federated
  /// rounds against its class budget. Returns kAdmitted and enqueues, or
  /// kRejected when the queue is full / the class round budget is
  /// exhausted (budgets are only charged on admission).
  AdmissionOutcome Offer(const QueryRequest& request, size_t index,
                         size_t rounds);

  /// Pop the next runnable request at virtual time `now`. Entries whose
  /// absolute deadline has passed are shed (appended to `*shed` when
  /// non-null) until a live one is found; returns nullopt when the queue
  /// drains entirely.
  std::optional<PendingRequest> Pop(double now,
                                    std::vector<PendingRequest>* shed);

  size_t pending() const { return pending_count_; }
  bool empty() const { return pending_count_ == 0; }

 private:
  AdmissionOptions options_;
  /// One FIFO per class; Pop scans classes in priority order.
  std::deque<PendingRequest> pending_[kNumQueryClasses];
  size_t pending_count_ = 0;
  size_t rounds_admitted_[kNumQueryClasses] = {0, 0, 0};
};

}  // namespace qens::fl

#endif  // QENS_FL_ADMISSION_H_
