#include "common/runtime_config.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "autograd/tape_audit.h"
#include "common/flags.h"
#include "common/logging.h"
#include "tensor/gemm.h"
#include "tensor/qgemm.h"
#include "tensor/storage_pool.h"

namespace came {

namespace {

namespace gemm = tensor::gemm;
namespace qgemm = tensor::qgemm;
namespace pool = tensor::pool;
using ag::audit::AuditLevel;

struct Spelling {
  const char* text;  // lowercase; the value is lowercased before matching
  double value;
};

/// One knob. It accepts either one of `spellings`, each standing for a
/// value, or (when `spellings` is empty) a number in [min, max], which must
/// be an integer when `integer`. Unset, empty or invalid means `fallback`.
struct Knob {
  const char* name;
  std::vector<Spelling> spellings;
  double min, max;
  bool integer;
  double fallback;
  void (*store)(double value, RuntimeConfig* config);
};

template <typename E>
constexpr double V(E e) {
  return static_cast<double>(e);
}

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<Knob> Knobs() {
  const std::vector<Spelling> on_off = {{"on", 1},  {"1", 1}, {"true", 1},
                                        {"off", 0}, {"0", 0}, {"false", 0}};
  return {
      {"CAME_GEMM_KERNEL",
       {{"auto", V(gemm::Kernel::kAuto)},
        {"scalar", V(gemm::Kernel::kScalar)},
        {"avx2", V(gemm::Kernel::kAvx2)},
        {"avx512", V(gemm::Kernel::kAvx512)}},
       0, 0, false, V(gemm::Kernel::kAuto),
       [](double v, RuntimeConfig* c) {
         c->gemm_kernel = static_cast<gemm::Kernel>(v);
       }},
      {"CAME_QGEMM_KERNEL",
       {{"auto", V(qgemm::Kernel::kAuto)},
        {"scalar", V(qgemm::Kernel::kScalar)},
        {"avx2", V(qgemm::Kernel::kAvx2)},
        {"vnni", V(qgemm::Kernel::kVnni)}},
       0, 0, false, V(qgemm::Kernel::kAuto),
       [](double v, RuntimeConfig* c) {
         c->qgemm_kernel = static_cast<qgemm::Kernel>(v);
       }},
      // 0 stands for hardware_concurrency; counts above 256 clamp.
      {"CAME_NUM_THREADS", {}, 1, kInf, true, 0,
       [](double v, RuntimeConfig* c) {
         c->num_threads = static_cast<int>(std::min(v, 256.0));
       }},
      {"CAME_TENSOR_POOL",
       {{"on", V(pool::Mode::kOn)}, {"1", V(pool::Mode::kOn)},
        {"true", V(pool::Mode::kOn)}, {"off", V(pool::Mode::kOff)},
        {"0", V(pool::Mode::kOff)}, {"false", V(pool::Mode::kOff)},
        {"scrub", V(pool::Mode::kScrub)}},
       0, 0, false, V(pool::Mode::kOn),
       [](double v, RuntimeConfig* c) {
         c->tensor_pool = static_cast<pool::Mode>(v);
       }},
      {"CAME_TAPE_AUDIT",
       {{"off", V(AuditLevel::kOff)}, {"0", V(AuditLevel::kOff)},
        {"false", V(AuditLevel::kOff)}, {"shape", V(AuditLevel::kShape)},
        {"full", V(AuditLevel::kFull)}},
       0, 0, false, V(AuditLevel::kOff),
       [](double v, RuntimeConfig* c) {
         c->tape_audit = static_cast<AuditLevel>(v);
       }},
      {"CAME_SCORE_PRUNE", on_off, 0, 0, false, 1,
       [](double v, RuntimeConfig* c) { c->score_prune = v != 0; }},
      {"CAME_DEADLOCK_CHECK", on_off, 0, 0, false, 0,
       [](double v, RuntimeConfig* c) { c->deadlock_check = v != 0; }},
      {"CAME_BENCH_SCALE", {}, 1e-6, 1e6, false, 1,
       [](double v, RuntimeConfig* c) { c->bench_scale = v; }},
  };
}

/// The value `text` names under `knob`, or false when it names none.
bool Resolve(const Knob& knob, const std::string& text, double* value) {
  if (knob.spellings.empty()) {
    if (knob.integer) {
      const Result<int64_t> v = flags::ParseInt(text);
      if (!v.ok()) return false;
      *value = static_cast<double>(v.value());
    } else {
      const Result<double> v = flags::ParseDouble(text);
      if (!v.ok()) return false;
      *value = v.value();
    }
    return *value >= knob.min && *value <= knob.max;
  }
  std::string lower = text;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char ch) { return std::tolower(ch); });
  for (const Spelling& s : knob.spellings) {
    if (lower == s.text) {
      *value = s.value;
      return true;
    }
  }
  return false;
}

std::string AllowedSet(const Knob& knob) {
  std::ostringstream set;
  for (const Spelling& s : knob.spellings) {
    set << (set.tellp() == 0 ? "" : "|") << s.text;
  }
  if (!knob.spellings.empty()) return set.str();
  set << (knob.integer ? "an integer" : "a number");
  if (knob.max == kInf) {
    set << " >= " << knob.min;
  } else {
    set << " in [" << knob.min << ", " << knob.max << "]";
  }
  return set.str();
}

}  // namespace

RuntimeConfig ParseRuntimeConfig(const EnvLookup& lookup) {
  RuntimeConfig config{};
  for (const Knob& knob : Knobs()) {
    const char* text = lookup(knob.name);
    double value = knob.fallback;
    if (text != nullptr && *text != '\0' && !Resolve(knob, text, &value)) {
      CAME_LOG(Warning) << "ignoring invalid " << knob.name << "=\"" << text
                        << "\" (want " << AllowedSet(knob)
                        << "); using the default";
      value = knob.fallback;
    }
    knob.store(value, &config);
  }
  return config;
}

const RuntimeConfig& GetRuntimeConfig() {
  static const RuntimeConfig config =
      ParseRuntimeConfig([](const char* name) { return std::getenv(name); });
  return config;
}

}  // namespace came
