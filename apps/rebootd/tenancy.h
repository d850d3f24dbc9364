// Per-tenant admission control for rebootd: a token bucket bounds each
// tenant's sustained submit rate (quota), and an in-flight count biases the
// scheduler priority of tenants hogging the pools (fair share).
//
// The two mechanisms answer different abuse shapes. The bucket handles "one
// tenant floods faster than anyone can execute": refills at rate_per_s up to
// burst, and an empty bucket is a typed kQuotaExceeded rejection with a
// retry_after_ms hint — cheap, before any job is built. The priority bias
// handles "one tenant keeps the queues legitimately full": every
// fair_share_stride requests a tenant has in flight cost it one priority
// level (down to -max_priority_penalty), so the scheduler's priority queue
// interleaves a light tenant's work ahead of the heavy tenant's backlog
// without starving either.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace rebooting::rebootd {

using Clock = std::chrono::steady_clock;

/// One tenant's rate limit. rate_per_s == 0 means unlimited (the bucket is
/// bypassed entirely); burst is the bucket capacity, i.e. the largest spike
/// admitted after an idle period.
struct TenantQuota {
  double rate_per_s = 0.0;
  double burst = 0.0;
};

struct TenancyConfig {
  /// Quota applied to tenants without an explicit entry in `quotas`.
  TenantQuota default_quota;
  std::map<std::string, TenantQuota> quotas;
  /// Every `fair_share_stride` in-flight requests cost a tenant one priority
  /// level. 0 disables the bias.
  std::size_t fair_share_stride = 16;
  /// Floor of the bias: a tenant is never pushed more than this many levels
  /// below its requested priority.
  int max_priority_penalty = 8;
};

/// Verdict of TenantGovernor::admit for one request.
struct Admission {
  bool admitted = true;
  /// With admitted == false: when one token will have refilled.
  double retry_after_ms = 0.0;
  /// With admitted == true: add to the request's priority (<= 0).
  int priority_bias = 0;
};

/// Point-in-time view of one tenant, for the `status` method.
struct TenantStats {
  double tokens = 0.0;
  std::size_t in_flight = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
};

/// Mutex-guarded; admit/release are a few map lookups and arithmetic, far
/// off the execution hot path.
class TenantGovernor {
 public:
  explicit TenantGovernor(TenancyConfig config);

  /// Charges one token and one in-flight slot to `tenant`.
  Admission admit(const std::string& tenant, Clock::time_point now);
  /// Returns `tenant`'s in-flight slot; called once per admitted request
  /// when its response is sent (memo riders each hold their own slot).
  void release(const std::string& tenant);

  std::map<std::string, TenantStats> stats() const;

 private:
  struct Bucket {
    double tokens = 0.0;
    Clock::time_point refilled_at{};
    std::size_t in_flight = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
  };

  const TenantQuota& quota_for(const std::string& tenant) const;

  TenancyConfig config_;
  mutable std::mutex mutex_;
  std::map<std::string, Bucket> buckets_;
};

}  // namespace rebooting::rebootd
