#include "core/accelerator.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace rebooting::core {
namespace {

class FakeAccelerator final : public Accelerator {
 public:
  explicit FakeAccelerator(AcceleratorKind kind) : kind_(kind) {}
  std::string name() const override { return "fake-" + to_string(kind_); }
  AcceleratorKind kind() const override { return kind_; }
  std::vector<std::string> stack_layers() const override {
    return {"app", "compiler", "device"};
  }

 private:
  AcceleratorKind kind_;
};

TEST(Accelerator, UtilizationCountersAreThreadSafe) {
  FakeAccelerator accel(AcceleratorKind::kClassicalCpu);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&accel] {
      for (int i = 0; i < kPerThread; ++i) accel.record_completion(0.001);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(accel.jobs_completed(),
            static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_NEAR(accel.busy_seconds(), kThreads * kPerThread * 0.001, 1e-9);
}

TEST(CpuAccelerator, FactoryBuildsIndependentInstances) {
  const auto factory = CpuAccelerator::factory();
  const auto a = factory();
  const auto b = factory();
  ASSERT_TRUE(a && b);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a->kind(), AcceleratorKind::kClassicalCpu);
  a->record_completion(1.0);
  EXPECT_EQ(a->jobs_completed(), 1u);
  EXPECT_EQ(b->jobs_completed(), 0u);
}

TEST(KindNames, AllDistinct) {
  EXPECT_EQ(to_string(AcceleratorKind::kQuantum), "quantum");
  EXPECT_EQ(to_string(AcceleratorKind::kOscillator), "oscillator");
  EXPECT_EQ(to_string(AcceleratorKind::kMemcomputing), "memcomputing");
  EXPECT_EQ(to_string(AcceleratorKind::kClassicalCpu), "classical-cpu");
}

}  // namespace
}  // namespace rebooting::core
