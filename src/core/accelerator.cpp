#include "core/accelerator.h"

namespace rebooting::core {

std::string to_string(AcceleratorKind kind) {
  switch (kind) {
    case AcceleratorKind::kClassicalCpu: return "classical-cpu";
    case AcceleratorKind::kQuantum: return "quantum";
    case AcceleratorKind::kOscillator: return "oscillator";
    case AcceleratorKind::kMemcomputing: return "memcomputing";
  }
  return "unknown";
}

std::optional<AcceleratorKind> kind_from_string(const std::string& name) {
  for (const auto kind :
       {AcceleratorKind::kClassicalCpu, AcceleratorKind::kQuantum,
        AcceleratorKind::kOscillator, AcceleratorKind::kMemcomputing})
    if (to_string(kind) == name) return kind;
  return std::nullopt;
}

std::string to_string(JobDisposition disposition) {
  switch (disposition) {
    case JobDisposition::kExecuted: return "executed";
    case JobDisposition::kRejected: return "rejected";
    case JobDisposition::kShed: return "shed";
    case JobDisposition::kFlushed: return "flushed";
    case JobDisposition::kDeadlineMissed: return "deadline-missed";
    case JobDisposition::kCancelled: return "cancelled";
  }
  return "unknown";
}

AcceleratorFactory CpuAccelerator::factory() {
  return [] { return std::make_shared<CpuAccelerator>(); };
}

}  // namespace rebooting::core
