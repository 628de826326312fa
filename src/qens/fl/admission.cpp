#include "qens/fl/admission.h"

#include "qens/obs/metrics.h"

namespace qens::fl {

const char* QueryClassName(QueryClass query_class) {
  switch (query_class) {
    case QueryClass::kInteractive:
      return "interactive";
    case QueryClass::kStandard:
      return "standard";
    case QueryClass::kBatch:
      return "batch";
  }
  return "standard";
}

Result<QueryClass> ParseQueryClass(const std::string& name) {
  if (name == "interactive") return QueryClass::kInteractive;
  if (name == "standard") return QueryClass::kStandard;
  if (name == "batch") return QueryClass::kBatch;
  return Status::InvalidArgument("unknown query class: " + name);
}

const char* AdmissionOutcomeName(AdmissionOutcome outcome) {
  switch (outcome) {
    case AdmissionOutcome::kAdmitted:
      return "admitted";
    case AdmissionOutcome::kRejected:
      return "rejected";
    case AdmissionOutcome::kShedOnDeadline:
      return "shed_on_deadline";
  }
  return "admitted";
}

double AdmissionOptions::DeadlineFor(QueryClass query_class) const {
  switch (query_class) {
    case QueryClass::kInteractive:
      return interactive_deadline_s;
    case QueryClass::kStandard:
      return standard_deadline_s;
    case QueryClass::kBatch:
      return batch_deadline_s;
  }
  return 0.0;
}

size_t AdmissionOptions::RoundBudgetFor(QueryClass query_class) const {
  switch (query_class) {
    case QueryClass::kInteractive:
      return interactive_round_budget;
    case QueryClass::kStandard:
      return standard_round_budget;
    case QueryClass::kBatch:
      return batch_round_budget;
  }
  return standard_round_budget;
}

AdmissionOutcome AdmissionQueue::Offer(const QueryRequest& request,
                                       size_t index, size_t rounds) {
  const size_t cls = static_cast<size_t>(request.query_class);
  const size_t budget = options_.RoundBudgetFor(request.query_class);
  if (pending_count_ >= options_.queue_capacity ||
      (budget > 0 && rounds_admitted_[cls] + rounds > budget)) {
    obs::Count("serving.requests_rejected");
    return AdmissionOutcome::kRejected;
  }
  PendingRequest pending;
  pending.index = index;
  pending.query_class = request.query_class;
  pending.arrival_s = request.arrival_s;
  const double deadline = options_.DeadlineFor(request.query_class);
  pending.deadline_at_s =
      deadline > 0.0 ? request.arrival_s + deadline : 0.0;
  pending_[cls].push_back(pending);
  ++pending_count_;
  rounds_admitted_[cls] += rounds;
  obs::Count("serving.requests_admitted");
  return AdmissionOutcome::kAdmitted;
}

std::optional<PendingRequest> AdmissionQueue::Pop(
    double now, std::vector<PendingRequest>* shed) {
  for (size_t cls = 0; cls < kNumQueryClasses; ++cls) {
    std::deque<PendingRequest>& queue = pending_[cls];
    while (!queue.empty()) {
      PendingRequest front = queue.front();
      queue.pop_front();
      --pending_count_;
      if (front.deadline_at_s > 0.0 && now >= front.deadline_at_s) {
        obs::Count("serving.requests_shed");
        if (shed != nullptr) shed->push_back(front);
        continue;
      }
      return front;
    }
  }
  return std::nullopt;
}

}  // namespace qens::fl
