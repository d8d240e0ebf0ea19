// ParseRuntimeConfig driven through a map instead of the environment: every
// knob unset, empty, in each accepted spelling and invalid. Each case list
// starts with the lowercase spellings a deployment may already set, which
// must keep their values; mixed-case and alias spellings follow.

#include "common/runtime_config.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "autograd/tape_audit.h"
#include "tensor/gemm.h"
#include "tensor/qgemm.h"
#include "tensor/storage_pool.h"

namespace came {
namespace {

namespace gemm = tensor::gemm;
namespace qgemm = tensor::qgemm;
namespace pool = tensor::pool;
using ag::audit::AuditLevel;

using Env = std::map<std::string, std::string>;

const char* const kKnobs[] = {
    "CAME_GEMM_KERNEL", "CAME_QGEMM_KERNEL", "CAME_NUM_THREADS",
    "CAME_TENSOR_POOL", "CAME_TAPE_AUDIT",   "CAME_SCORE_PRUNE",
    "CAME_DEADLOCK_CHECK", "CAME_BENCH_SCALE"};

RuntimeConfig Parse(const Env& env) {
  return ParseRuntimeConfig([&env](const char* name) -> const char* {
    const auto it = env.find(name);
    return it == env.end() ? nullptr : it->second.c_str();
  });
}

RuntimeConfig ParseOne(const std::string& knob, const std::string& value) {
  return Parse({{knob, value}});
}

void ExpectDefaults(const RuntimeConfig& c) {
  EXPECT_EQ(c.gemm_kernel, gemm::Kernel::kAuto);
  EXPECT_EQ(c.qgemm_kernel, qgemm::Kernel::kAuto);
  EXPECT_EQ(c.num_threads, 0);  // hardware_concurrency
  EXPECT_EQ(c.tensor_pool, pool::Mode::kOn);
  EXPECT_EQ(c.tape_audit, AuditLevel::kOff);
  EXPECT_TRUE(c.score_prune);
  EXPECT_FALSE(c.deadlock_check);
  EXPECT_EQ(c.bench_scale, 1.0);
}

TEST(RuntimeConfigTest, UnsetAndEmptyMeanTheDefaults) {
  ExpectDefaults(Parse({}));
  Env empty;
  for (const char* knob : kKnobs) empty[knob] = "";
  testing::internal::CaptureStderr();
  ExpectDefaults(Parse(empty));
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(RuntimeConfigTest, GemmKernelSpellings) {
  const std::vector<std::pair<std::string, gemm::Kernel>> cases = {
      {"auto", gemm::Kernel::kAuto},     {"scalar", gemm::Kernel::kScalar},
      {"avx2", gemm::Kernel::kAvx2},     {"avx512", gemm::Kernel::kAvx512},
      {"Scalar", gemm::Kernel::kScalar}, {"AVX512", gemm::Kernel::kAvx512}};
  for (const auto& [text, want] : cases) {
    EXPECT_EQ(ParseOne("CAME_GEMM_KERNEL", text).gemm_kernel, want) << text;
  }
}

TEST(RuntimeConfigTest, QgemmKernelSpellings) {
  const std::vector<std::pair<std::string, qgemm::Kernel>> cases = {
      {"auto", qgemm::Kernel::kAuto},     {"scalar", qgemm::Kernel::kScalar},
      {"avx2", qgemm::Kernel::kAvx2},     {"vnni", qgemm::Kernel::kVnni},
      {"VNNI", qgemm::Kernel::kVnni},     {"Avx2", qgemm::Kernel::kAvx2}};
  for (const auto& [text, want] : cases) {
    EXPECT_EQ(ParseOne("CAME_QGEMM_KERNEL", text).qgemm_kernel, want)
        << text;
  }
}

TEST(RuntimeConfigTest, NumThreadsIsAPositiveIntegerClampedTo256) {
  const std::vector<std::pair<std::string, int>> cases = {
      {"1", 1}, {"4", 4}, {"+3", 3}, {"256", 256}, {"257", 256},
      {"100000", 256}};
  for (const auto& [text, want] : cases) {
    EXPECT_EQ(ParseOne("CAME_NUM_THREADS", text).num_threads, want) << text;
  }
}

TEST(RuntimeConfigTest, TensorPoolSpellings) {
  const std::vector<std::pair<std::string, pool::Mode>> cases = {
      {"on", pool::Mode::kOn},       {"off", pool::Mode::kOff},
      {"scrub", pool::Mode::kScrub}, {"1", pool::Mode::kOn},
      {"true", pool::Mode::kOn},     {"0", pool::Mode::kOff},
      {"false", pool::Mode::kOff},   {"SCRUB", pool::Mode::kScrub}};
  for (const auto& [text, want] : cases) {
    EXPECT_EQ(ParseOne("CAME_TENSOR_POOL", text).tensor_pool, want) << text;
  }
}

TEST(RuntimeConfigTest, TapeAuditSpellings) {
  const std::vector<std::pair<std::string, AuditLevel>> cases = {
      {"off", AuditLevel::kOff},    {"0", AuditLevel::kOff},
      {"shape", AuditLevel::kShape}, {"full", AuditLevel::kFull},
      {"false", AuditLevel::kOff},  {"Full", AuditLevel::kFull}};
  for (const auto& [text, want] : cases) {
    EXPECT_EQ(ParseOne("CAME_TAPE_AUDIT", text).tape_audit, want) << text;
  }
}

TEST(RuntimeConfigTest, ScorePruneParsesOnOffAndDefaultsToOn) {
  for (const char* on : {"on", "1", "true", "ON", "True"}) {
    EXPECT_TRUE(ParseOne("CAME_SCORE_PRUNE", on).score_prune) << on;
  }
  for (const char* off : {"off", "0", "false", "OFF", "False"}) {
    EXPECT_FALSE(ParseOne("CAME_SCORE_PRUNE", off).score_prune) << off;
  }
  EXPECT_TRUE(ParseOne("CAME_SCORE_PRUNE", "bogus").score_prune);
  EXPECT_TRUE(Parse({}).score_prune);
}

TEST(RuntimeConfigTest, DeadlockCheckAcceptsOnAsWellAsOne) {
  for (const char* on : {"1", "on", "true", "ON", "True"}) {
    EXPECT_TRUE(ParseOne("CAME_DEADLOCK_CHECK", on).deadlock_check) << on;
  }
  for (const char* off : {"0", "off", "false", "Off"}) {
    EXPECT_FALSE(ParseOne("CAME_DEADLOCK_CHECK", off).deadlock_check)
        << off;
  }
}

TEST(RuntimeConfigTest, BenchScaleIsANumberInRange) {
  const std::vector<std::pair<std::string, double>> cases = {
      {"1", 1.0}, {"0.5", 0.5}, {"2.5", 2.5}, {"1e-6", 1e-6}, {"1e6", 1e6}};
  for (const auto& [text, want] : cases) {
    EXPECT_EQ(ParseOne("CAME_BENCH_SCALE", text).bench_scale, want) << text;
  }
}

TEST(RuntimeConfigTest, InvalidValueWarnsOnceAndMeansTheDefault) {
  const std::vector<std::tuple<std::string, std::string, std::string>>
      cases = {{"CAME_GEMM_KERNEL", "fast", "auto|scalar|avx2|avx512"},
               {"CAME_QGEMM_KERNEL", "avx512", "auto|scalar|avx2|vnni"},
               {"CAME_NUM_THREADS", "0", "an integer >= 1"},
               {"CAME_NUM_THREADS", "-2", "an integer >= 1"},
               {"CAME_NUM_THREADS", "2.5", "an integer >= 1"},
               {"CAME_NUM_THREADS", "four", "an integer >= 1"},
               {"CAME_TENSOR_POOL", "maybe", "on|1|true|off|0|false|scrub"},
               {"CAME_TAPE_AUDIT", "1", "off|0|false|shape|full"},
               {"CAME_SCORE_PRUNE", "bogus", "on|1|true|off|0|false"},
               {"CAME_DEADLOCK_CHECK", "yes", "on|1|true|off|0|false"},
               {"CAME_BENCH_SCALE", "0", "a number in [1e-06, 1e+06]"},
               {"CAME_BENCH_SCALE", "big", "a number in [1e-06, 1e+06]"}};
  for (const auto& [knob, value, allowed] : cases) {
    testing::internal::CaptureStderr();
    const RuntimeConfig c = ParseOne(knob, value);
    const std::string log = testing::internal::GetCapturedStderr();
    ExpectDefaults(c);
    const std::string want = "ignoring invalid " + knob + "=\"" + value +
                             "\" (want " + allowed + "); using the default";
    EXPECT_NE(log.find(want), std::string::npos) << log;
    EXPECT_EQ(log.find("ignoring invalid"), log.rfind("ignoring invalid"))
        << log;
  }
}

TEST(RuntimeConfigTest, KnobsAreIndependent) {
  const RuntimeConfig c = Parse({{"CAME_GEMM_KERNEL", "scalar"},
                                 {"CAME_QGEMM_KERNEL", "avx2"},
                                 {"CAME_NUM_THREADS", "3"},
                                 {"CAME_TENSOR_POOL", "scrub"},
                                 {"CAME_TAPE_AUDIT", "shape"},
                                 {"CAME_SCORE_PRUNE", "off"},
                                 {"CAME_DEADLOCK_CHECK", "on"},
                                 {"CAME_BENCH_SCALE", "0.25"}});
  EXPECT_EQ(c.gemm_kernel, gemm::Kernel::kScalar);
  EXPECT_EQ(c.qgemm_kernel, qgemm::Kernel::kAvx2);
  EXPECT_EQ(c.num_threads, 3);
  EXPECT_EQ(c.tensor_pool, pool::Mode::kScrub);
  EXPECT_EQ(c.tape_audit, AuditLevel::kShape);
  EXPECT_FALSE(c.score_prune);
  EXPECT_TRUE(c.deadlock_check);
  EXPECT_EQ(c.bench_scale, 0.25);
}

}  // namespace
}  // namespace came
