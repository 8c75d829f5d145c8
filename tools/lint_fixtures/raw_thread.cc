// medsync-sca fixture: violates MS001 (raw thread spawn outside
// src/common/threading/). Never compiled; scanned by the lint self-test
// under the masquerade path src/chain/raw_thread.cc.
#include <future>
#include <thread>

void SpawnsRawThread() {
  std::thread worker([] {});  // MS001
  worker.join();
  auto pending = std::async([] { return 1; });  // MS001
  pending.get();
}

// A mention of std::thread in a comment or "std::thread" in a string must
// NOT fire — the linter strips comments and literals first.
const char* kDoc = "std::thread is banned here";
