// medsync-sca fixture: violates MS002 (wall clock / libc randomness
// outside common/clock / common/random). Never compiled.
#include <chrono>
#include <cstdlib>
#include <ctime>

// Macro bodies are code too.
#define NOW() time(nullptr)  // MS002

long ReadsWallClock() {
  auto now = std::chrono::system_clock::now();  // MS002
  (void)now;
  int noise = rand();  // MS002
  return noise + time(nullptr);  // MS002
}

// steady_clock is fine: monotonic, not wall time.
auto Monotonic() { return std::chrono::steady_clock::now(); }
// Identifiers merely CONTAINING the banned names must not fire.
int runtime_ = 0;
int duration_rand_bound(int upper) { return upper; }
