#ifndef CAME_COMMON_STOPWATCH_H_
#define CAME_COMMON_STOPWATCH_H_

#include <chrono>

namespace came {

/// Wall-clock stopwatch for the convergence (Fig 8) and scalability (Fig 9)
/// experiments and for general timing in benches.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace came

#endif  // CAME_COMMON_STOPWATCH_H_
