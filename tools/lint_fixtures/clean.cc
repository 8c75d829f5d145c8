// medsync-sca fixture: violates nothing. The self-test asserts zero
// findings here even under a src/ masquerade path.
#include <chrono>

int Add(int a, int b) { return a + b; }
// Monotonic time and comment-only mentions of std::thread / rand() / rename
// must not fire.
auto Monotonic() { return std::chrono::steady_clock::now(); }

void GuardedDiscard() {
  int checked_in_assert = Add(1, 2);
  (void)checked_in_assert;
}
