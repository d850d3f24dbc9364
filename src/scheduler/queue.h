// Bounded multi-producer/multi-consumer priority queue — the submission side
// of the async scheduler. One instance backs each per-kind worker pool.
//
// Ordering: strict priority (higher first), FIFO by submission sequence
// within a priority class, among the entries that are ready: an entry whose
// QueuedJob::ready_at lies ahead (a retry waiting out its backoff) stays
// queued but is skipped by pop, try_steal and has_higher_priority_queued
// until then. Capacity is enforced at push() by one of three backpressure
// policies (job.h): block the producer, reject the newcomer, or shed the
// longest-waiting entry; a requeue() bypasses it. The queue counts popped
// but unfinished entries (task_done / in_flight) for PoolStats::in_flight;
// drain() counts at the promise instead (Scheduler::outstanding_).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "scheduler/job.h"

namespace rebooting::sched {

class BoundedJobQueue {
 public:
  enum class PushStatus { kAccepted, kRejected, kClosed };

  BoundedJobQueue(std::size_t capacity, BackpressurePolicy policy);

  /// Enqueues `item` (consumed only on kAccepted). When the queue is full:
  /// kBlock waits for room, kReject returns kRejected leaving `item` intact,
  /// kShedOldest evicts the entry with the smallest seq into `*shed` and
  /// accepts. Returns kClosed (item intact) once close() has been called.
  PushStatus push(QueuedJob& item, std::optional<QueuedJob>* shed);

  /// Blocks until an entry is ready and returns the front of the priority
  /// order among the ready ones, or nullopt once the queue is closed, once
  /// `deadline` (if given) passes, or once `give_up` (if given) returns
  /// true. `give_up` is called under the queue's lock before every wait, and
  /// wake() makes each waiting pop call it again. Work-stealing workers poll
  /// their own queue with a deadline before looking for a victim, or wait
  /// with `give_up` while no victim exists; check closed() to tell the
  /// outcomes apart. A successful pop marks one task in flight; the consumer
  /// must pair it with task_done().
  std::optional<QueuedJob> pop(
      std::optional<Clock::time_point> deadline = std::nullopt,
      const std::function<bool()>& give_up = {});

  /// Wakes every waiting pop() to call its `give_up` again.
  void wake();

  /// Puts back a job a worker popped and did not finish (a retry, a
  /// failover hop or a yield), to be dequeued from `item.ready_at` on.
  /// Bypasses the capacity check: the job was admitted once, at push(), so
  /// its requeue never blocks, sheds or rejects. The entry keeps its seq and
  /// so returns to the front of its priority class. Returns false (item
  /// intact) once close() has been called.
  bool requeue(QueuedJob& item);

  /// Removes the highest-priority ready entry whose JobOptions::stealable
  /// is set, or nullopt when there is none (or the queue is closed). Like
  /// pop(), a successful steal marks one task in flight *on this queue*: the
  /// thief must call this queue's task_done() when it is done with the job.
  std::optional<QueuedJob> try_steal();

  /// True when a ready entry outranks `priority` — the preemption signal a
  /// running low-priority job's YieldProbe polls at checkpoint boundaries.
  bool has_higher_priority_queued(int priority) const;

  /// True once close() has been called.
  bool closed() const;

  /// Marks one popped task finished (see pop).
  void task_done();

  /// Closes the queue: blocked and future push() calls return kClosed,
  /// requeue() returns false, and pop() returns nullopt even while entries
  /// remain queued (they are retrieved with flush()).
  void close();

  /// Removes and returns every still-queued entry, ready or not, in
  /// (priority, seq) order. Meant for the shutdown path, after close().
  std::vector<QueuedJob> flush();

  /// Queued entries, ready or not.
  std::size_t size() const;
  /// Popped-but-not-yet-task_done()'d entries — the pool's running jobs.
  std::size_t in_flight() const;
  std::size_t capacity() const { return capacity_; }
  BackpressurePolicy policy() const { return policy_; }

 private:
  /// Priority order: higher priority first, then FIFO by seq. seq values are
  /// unique per scheduler, so this is a strict total order.
  struct Order {
    bool operator()(const QueuedJob& a, const QueuedJob& b) const {
      if (a.opts.priority != b.opts.priority)
        return a.opts.priority > b.opts.priority;
      return a.seq < b.seq;
    }
  };

  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::set<QueuedJob, Order> items_;
  std::size_t capacity_;
  BackpressurePolicy policy_;
  std::size_t in_flight_ = 0;  ///< popped but not yet task_done()'d
  bool closed_ = false;
};

}  // namespace rebooting::sched
