#include "infer/no_tape.h"

#include "common/logging.h"

namespace came::infer {

NoTapeGuard::NoTapeGuard()
    : nodes_at_entry_(ag::TapeNodesRecordedThisThread()) {}

NoTapeGuard::~NoTapeGuard() {
  const int64_t recorded =
      ag::TapeNodesRecordedThisThread() - nodes_at_entry_;
  CAME_CHECK_EQ(recorded, 0)
      << "NoTapeGuard: " << recorded
      << " tape node(s) recorded inside a no-tape scope";
}

}  // namespace came::infer
