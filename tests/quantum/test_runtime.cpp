#include "quantum/runtime.h"

#include <gtest/gtest.h>

#include "core/cache.h"
#include "quantum/canonical.h"
#include "telemetry/telemetry.h"

namespace rebooting::quantum {
namespace {

/// Pins a test to the pre-cache compile path (original qubit labels) and
/// restores the ambient toggle on exit.
struct ScopedCacheDisable {
  bool previous = core::cache_enabled();
  ScopedCacheDisable() { core::set_cache_enabled(false); }
  ~ScopedCacheDisable() { core::set_cache_enabled(previous); }
};

TEST(Runtime, BellPairOnAllToAll) {
  core::Rng rng(1);
  Circuit bell(2);
  bell.h(0).cx(0, 1);
  QuantumAccelerator acc({.topology = Topology::all_to_all(2)});
  const ExecutionResult r = acc.run(bell, 4000, rng);
  EXPECT_EQ(r.shots, 4000u);
  EXPECT_NEAR(r.frequency(0b00), 0.5, 0.05);
  EXPECT_NEAR(r.frequency(0b11), 0.5, 0.05);
  EXPECT_NEAR(r.frequency(0b01) + r.frequency(0b10), 0.0, 1e-12);
}

TEST(Runtime, RoutingPermutationUndoneInCounts) {
  // Cache disabled: the original-labeled circuit compiles as-is, so the
  // distant pair really costs SWAPs. (With the compile cache on, the
  // canonical relabeling 0,3 -> 0,1 makes the pair adjacent — covered by
  // test_circuit_canonical.cpp.)
  ScopedCacheDisable off;
  core::Rng rng(3);
  // Entangle distant qubits on a line; the result keys must still be the
  // LOGICAL bit patterns 0b0000 / 0b1001.
  Circuit bell(4);
  bell.h(0).cx(0, 3);
  QuantumAccelerator acc({.topology = Topology::line(4)});
  const ExecutionResult r = acc.run(bell, 4000, rng);
  EXPECT_GT(r.compile_report.swaps_inserted, 0u);
  EXPECT_NEAR(r.frequency(0b0000) + r.frequency(0b1001), 1.0, 1e-12);
}

TEST(Runtime, CachedCompilePreservesLogicalCounts) {
  // Same distant-pair circuit with the compile cache live: results must
  // stay logically correct through the canonical relabeling, and a second
  // run of a hash-equal relabeled circuit must reuse the compiled program.
  const auto before = compile_cache().stats();
  core::Rng rng(3);
  Circuit bell(4);
  bell.h(0).cx(0, 3);
  QuantumAccelerator acc({.topology = Topology::line(4)});
  const ExecutionResult r = acc.run(bell, 4000, rng);
  EXPECT_NEAR(r.frequency(0b0000) + r.frequency(0b1001), 1.0, 1e-12);

  Circuit relabeled(4);
  relabeled.h(1).cx(1, 2);  // same canonical form: h(0).cx(0, 1)
  const ExecutionResult r2 = acc.run(relabeled, 4000, rng);
  EXPECT_NEAR(r2.frequency(0b0000) + r2.frequency(0b0110), 1.0, 1e-12);
  const auto after = compile_cache().stats();
  EXPECT_GT(after.hits, before.hits);
}

TEST(Runtime, ExplicitMeasurementsCollapse) {
  core::Rng rng(5);
  Circuit c(2);
  c.h(0).cx(0, 1).measure(0).measure(1);
  QuantumAccelerator acc({.topology = Topology::all_to_all(2)});
  const ExecutionResult r = acc.run(c, 2000, rng);
  EXPECT_NEAR(r.frequency(0b00) + r.frequency(0b11), 1.0, 1e-12);
}

TEST(Runtime, DeviceTimeScalesWithShots) {
  core::Rng rng(7);
  Circuit c(2);
  c.h(0).cx(0, 1);
  QuantumAccelerator acc({.topology = Topology::all_to_all(2)});
  const auto r1 = acc.run(c, 100, rng);
  const auto r2 = acc.run(c, 200, rng);
  EXPECT_NEAR(r2.device_seconds, 2.0 * r1.device_seconds, 1e-12);
}

TEST(Runtime, DepolarizingNoiseDegradesBellFidelity) {
  core::Rng rng(9);
  Circuit bell(2);
  bell.h(0).cx(0, 1);
  QuantumDeviceConfig noisy;
  noisy.topology = Topology::all_to_all(2);
  noisy.noise.depolarizing_1q = 0.02;
  noisy.noise.depolarizing_2q = 0.05;
  QuantumAccelerator acc(noisy);
  const ExecutionResult r = acc.run(bell, 3000, rng);
  const core::Real good = r.frequency(0b00) + r.frequency(0b11);
  EXPECT_LT(good, 0.995);  // errors visible
  EXPECT_GT(good, 0.6);    // but not random
}

TEST(Runtime, ReadoutFlipsScrambleDeterministicOutcome) {
  core::Rng rng(11);
  Circuit c(1);
  c.x(0);
  QuantumDeviceConfig cfg;
  cfg.topology = Topology::all_to_all(1);
  cfg.noise.readout_flip = 0.1;
  QuantumAccelerator acc(cfg);
  const ExecutionResult r = acc.run(c, 5000, rng);
  EXPECT_NEAR(r.frequency(0b0), 0.1, 0.02);
}

/// Three layers of ry rotations and CZ brickwork, closed into a ring by
/// cz(5, 0), which a line(6) device can only reach through SWAPs.
Circuit golden_ring_circuit() {
  Circuit c(6);
  for (std::size_t layer = 0; layer < 3; ++layer) {
    for (std::size_t q = 0; q < 6; ++q)
      c.ry(q, 0.3 + 0.41 * static_cast<core::Real>(q) +
                  0.57 * static_cast<core::Real>(layer));
    for (std::size_t q = layer % 2; q + 1 < 6; q += 2) c.cz(q, q + 1);
  }
  c.cz(5, 0);
  return c;
}

// Seeded counts and the Rng position after the run, pinned before the
// shared-simulation path for readout-only noise existed: every trajectory
// of a readout-only circuit draws one sample and then one readout flip per
// physical qubit, and the shared path must draw exactly that sequence.
TEST(RuntimeGolden, ReadoutOnlyOnRoutedLineIsPinned) {
  core::Rng rng(2024);
  QuantumDeviceConfig cfg;
  cfg.topology = Topology::line(6);
  cfg.noise.readout_flip = 0.03;
  QuantumAccelerator acc(cfg);
  const ExecutionResult r = acc.run(golden_ring_circuit(), 64, rng);
  EXPECT_GT(r.compile_report.swaps_inserted, 0u);
  const std::map<std::uint64_t, std::size_t> expected{
      {1, 3},  {3, 1},  {13, 1}, {15, 4}, {17, 1}, {21, 2}, {22, 1}, {23, 2},
      {32, 1}, {33, 3}, {37, 1}, {48, 3}, {49, 15}, {51, 2}, {52, 1}, {53, 3},
      {54, 3}, {55, 5}, {57, 2}, {59, 1}, {60, 1}, {61, 3}, {63, 5}};
  EXPECT_EQ(r.counts, expected);
  EXPECT_EQ(rng(), 5973182743002871157ull);
}

TEST(RuntimeGolden, DepolarizingTrajectoriesArePinned) {
  core::Rng rng(77);
  Circuit ghz(3);
  ghz.h(0).cx(0, 1).cx(1, 2);
  QuantumDeviceConfig cfg;
  cfg.topology = Topology::line(3);
  cfg.noise.depolarizing_1q = 0.05;
  cfg.noise.depolarizing_2q = 0.1;
  cfg.noise.readout_flip = 0.02;
  QuantumAccelerator acc(cfg);
  const ExecutionResult r = acc.run(ghz, 200, rng);
  const std::map<std::uint64_t, std::size_t> expected{
      {0, 67}, {1, 18}, {2, 11}, {3, 15}, {4, 10}, {5, 11}, {6, 18}, {7, 50}};
  EXPECT_EQ(r.counts, expected);
  EXPECT_EQ(rng(), 2252488859343517403ull);
}

// Gate counts come from one counter per run, not from per-gate spans: a
// shared simulation applies its gates once, a noisy run once per shot.
TEST(RuntimeTelemetry, GatesCountedPerSimulatedTrajectory) {
  auto& telem = telemetry::Telemetry::instance();
  const bool was_enabled = telemetry::Telemetry::enabled();
  telem.reset();
  telemetry::Telemetry::set_enabled(true);
  core::Rng rng(3);
  QuantumDeviceConfig cfg;
  cfg.topology = Topology::line(6);
  cfg.noise.readout_flip = 0.03;
  const ExecutionResult shared =
      QuantumAccelerator(cfg).run(golden_ring_circuit(), 10, rng);
  const auto gates = static_cast<core::Real>(shared.compile_report.optimized_gates);
  const core::Real after_shared = telem.metrics().counter("quantum.gates");
  cfg.noise.depolarizing_1q = 0.01;
  QuantumAccelerator(cfg).run(golden_ring_circuit(), 10, rng);
  const core::Real after_noisy = telem.metrics().counter("quantum.gates");
  const telemetry::SpanNode* run = telem.root().find("quantum.run");
  const telemetry::SpanNode* execute =
      run == nullptr ? nullptr : run->find("quantum.execute");
  const bool leaf = execute != nullptr && execute->children().empty();
  telemetry::Telemetry::set_enabled(was_enabled);
  telem.reset();

  EXPECT_GT(gates, 0.0);
  EXPECT_DOUBLE_EQ(after_shared, gates);
  EXPECT_DOUBLE_EQ(after_noisy - after_shared, 10.0 * gates);
  EXPECT_TRUE(leaf) << "quantum.execute missing or has per-gate child spans";
}

TEST(Runtime, ModeReturnsMostFrequent) {
  core::Rng rng(13);
  Circuit c(2);
  c.x(1);
  QuantumAccelerator acc({.topology = Topology::all_to_all(2)});
  const ExecutionResult r = acc.run(c, 100, rng);
  EXPECT_EQ(r.mode(), 0b10u);
}

TEST(Runtime, ZeroShotsRejected) {
  core::Rng rng(1);
  Circuit c(1);
  c.h(0);
  QuantumAccelerator acc({.topology = Topology::all_to_all(1)});
  EXPECT_THROW(acc.run(c, 0, rng), std::invalid_argument);
}

TEST(Runtime, StackLayersDescribeFigTwo) {
  QuantumAccelerator acc({.topology = Topology::all_to_all(2)});
  const auto layers = acc.stack_layers();
  EXPECT_EQ(layers.size(), 6u);  // the six layers of Fig. 2
  EXPECT_EQ(acc.kind(), core::AcceleratorKind::kQuantum);
}

}  // namespace
}  // namespace rebooting::quantum
