// medsync-sca fixture: a test that spawns a ThreadPool but whose
// CMakeLists (sibling file) gives it no `tsan` label -> MS004.
#include "common/threading/thread_pool.h"

void UsesPool() {
  medsync::threading::ThreadPool pool(2);
  pool.Submit([] {});
}
