// Watchdog — turns a hang into a test failure. A scheduler or server that
// deadlocks cannot be unwound from the test thread, so a test that could
// hang holds a Watchdog for its scope: if the scope outlives `limit`, the
// binary prints what was still running and aborts.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

namespace rebooting::test_support {

class Watchdog {
 public:
  Watchdog(std::chrono::seconds limit, const char* what)
      : thread_([this, limit, what] {
          std::unique_lock lock(mutex_);
          if (!cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::fprintf(stderr, "watchdog: %s still running after %llds\n",
                         what, static_cast<long long>(limit.count()));
            std::abort();
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts once the members it uses exist
};

}  // namespace rebooting::test_support
