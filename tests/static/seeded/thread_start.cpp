// Seeded lint violation: scripts/lint_invariants.py --profile thread-start
// must report the thread below (rule thread-start). WILL_FAIL ctest case
// static.lint_seeded_thread_start.
#include <thread>

void seeded_thread_start_violation() {
  std::thread helper([] {});
  helper.join();
}
