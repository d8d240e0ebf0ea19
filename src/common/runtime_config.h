#ifndef CAME_COMMON_RUNTIME_CONFIG_H_
#define CAME_COMMON_RUNTIME_CONFIG_H_

#include <cstdint>
#include <functional>

// The knobs' types live with the subsystems that use them; declaring them
// here keeps this header free of those subsystems' headers.
namespace came::tensor::gemm { enum class Kernel; }
namespace came::tensor::qgemm { enum class Kernel; }
namespace came::tensor::pool { enum class Mode; }
namespace came::ag::audit { enum class AuditLevel; }

namespace came {

/// Every CAME_* environment knob of the process, resolved into one typed
/// value. One table in runtime_config.cc gives each knob's accepted
/// spellings and default (README "Runtime configuration" lists them).
/// Spellings match case-insensitively. Unset or empty means the default;
/// any other value logs one warning naming the knob, the value and the
/// accepted set, and means the default too.
struct RuntimeConfig {
  /// Requested kernels; kAuto lets cpuid pick. The GEMM modules fall back
  /// from a kernel this CPU cannot run.
  tensor::gemm::Kernel gemm_kernel;
  tensor::qgemm::Kernel qgemm_kernel;
  /// ParallelFor pool size; 0 means std::thread::hardware_concurrency().
  int num_threads;
  tensor::pool::Mode tensor_pool;
  ag::audit::AuditLevel tape_audit;
  bool score_prune;
  bool deadlock_check;
  /// Multiplies every bench's default dataset scale.
  double bench_scale;
};

/// Value of the environment variable `name`, or nullptr when it is unset.
using EnvLookup = std::function<const char*(const char* name)>;

/// Resolves every knob through `lookup`. Pure apart from the warnings it
/// logs, so tests can drive it with a map instead of the environment.
RuntimeConfig ParseRuntimeConfig(const EnvLookup& lookup);

/// The process environment parsed once, at the first call. Subsystems read
/// their field from here; the in-process setters (SetKernel, SetNumThreads,
/// SetMode, SetTapeAuditLevel, SetDeadlockCheckEnabled) override it.
const RuntimeConfig& GetRuntimeConfig();

}  // namespace came

#endif  // CAME_COMMON_RUNTIME_CONFIG_H_
