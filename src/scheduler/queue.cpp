#include "scheduler/queue.h"

#include <algorithm>
#include <stdexcept>

namespace rebooting::sched {

std::string to_string(BackpressurePolicy policy) {
  switch (policy) {
    case BackpressurePolicy::kBlock: return "block";
    case BackpressurePolicy::kReject: return "reject";
    case BackpressurePolicy::kShedOldest: return "shed-oldest";
  }
  return "unknown";
}

BoundedJobQueue::BoundedJobQueue(std::size_t capacity,
                                 BackpressurePolicy policy)
    : capacity_(capacity), policy_(policy) {
  if (capacity_ == 0)
    throw std::invalid_argument("BoundedJobQueue: capacity must be >= 1");
}

BoundedJobQueue::PushStatus BoundedJobQueue::push(
    QueuedJob& item, std::optional<QueuedJob>* shed) {
  std::unique_lock lock(mutex_);
  if (items_.size() >= capacity_ && !closed_) {
    switch (policy_) {
      case BackpressurePolicy::kBlock:
        not_full_.wait(lock, [&] { return items_.size() < capacity_ || closed_; });
        break;
      case BackpressurePolicy::kReject:
        return PushStatus::kRejected;
      case BackpressurePolicy::kShedOldest: {
        // Evict the longest-waiting entry (smallest seq) regardless of its
        // priority: age, not importance, defines "oldest" for shedding.
        auto oldest = std::min_element(
            items_.begin(), items_.end(),
            [](const QueuedJob& a, const QueuedJob& b) { return a.seq < b.seq; });
        auto node = items_.extract(oldest);
        if (shed) *shed = std::move(node.value());
        break;
      }
    }
  }
  if (closed_) return PushStatus::kClosed;
  items_.insert(std::move(item));
  not_empty_.notify_one();
  return PushStatus::kAccepted;
}

std::optional<QueuedJob> BoundedJobQueue::pop(
    std::optional<Clock::time_point> deadline,
    const std::function<bool()>& give_up) {
  std::unique_lock lock(mutex_);
  for (;;) {
    if (closed_) return std::nullopt;  // leftovers are for flush()
    const auto now = Clock::now();
    // The first ready entry in priority order; failing that, sleep until the
    // earliest not-yet-ready one (or the deadline) unless a push wakes us.
    auto wake = deadline.value_or(Clock::time_point::max());
    for (auto it = items_.begin(); it != items_.end(); ++it) {
      if (it->ready_at <= now) {
        auto node = items_.extract(it);
        ++in_flight_;
        not_full_.notify_one();
        return std::move(node.value());
      }
      wake = std::min(wake, it->ready_at);
    }
    if (deadline && now >= *deadline) return std::nullopt;
    if (give_up && give_up()) return std::nullopt;
    if (wake == Clock::time_point::max())
      not_empty_.wait(lock);
    else
      not_empty_.wait_until(lock, wake);
  }
}

void BoundedJobQueue::wake() {
  std::lock_guard lock(mutex_);
  not_empty_.notify_all();
}

bool BoundedJobQueue::requeue(QueuedJob& item) {
  std::lock_guard lock(mutex_);
  if (closed_) return false;
  items_.insert(std::move(item));
  not_empty_.notify_one();
  return true;
}

std::optional<QueuedJob> BoundedJobQueue::try_steal() {
  std::lock_guard lock(mutex_);
  if (closed_) return std::nullopt;
  const auto now = Clock::now();
  const auto it = std::find_if(items_.begin(), items_.end(),
                               [now](const QueuedJob& j) {
                                 return j.opts.stealable && j.ready_at <= now;
                               });
  if (it == items_.end()) return std::nullopt;
  auto node = items_.extract(it);
  ++in_flight_;  // the thief owes this queue a task_done()
  not_full_.notify_one();
  return std::move(node.value());
}

bool BoundedJobQueue::has_higher_priority_queued(int priority) const {
  std::lock_guard lock(mutex_);
  // items_ is priority-ordered: only its outranking prefix can preempt, and
  // only through an entry that is ready.
  for (const auto& job : items_) {
    if (job.opts.priority <= priority) break;
    if (job.ready_at <= Clock::now()) return true;
  }
  return false;
}

bool BoundedJobQueue::closed() const {
  std::lock_guard lock(mutex_);
  return closed_;
}

void BoundedJobQueue::task_done() {
  std::lock_guard lock(mutex_);
  if (in_flight_ == 0)
    throw std::logic_error("BoundedJobQueue::task_done without matching pop");
  --in_flight_;
}

void BoundedJobQueue::close() {
  std::lock_guard lock(mutex_);
  closed_ = true;
  not_empty_.notify_all();
  not_full_.notify_all();
}

std::vector<QueuedJob> BoundedJobQueue::flush() {
  std::lock_guard lock(mutex_);
  std::vector<QueuedJob> out;
  out.reserve(items_.size());
  while (!items_.empty())
    out.push_back(std::move(items_.extract(items_.begin()).value()));
  return out;
}

std::size_t BoundedJobQueue::size() const {
  std::lock_guard lock(mutex_);
  return items_.size();
}

std::size_t BoundedJobQueue::in_flight() const {
  std::lock_guard lock(mutex_);
  return in_flight_;
}

}  // namespace rebooting::sched
