// medsync-sca fixture: spawns a pool AND touches the injector, but the
// sibling CMakeLists labels it tsan + fault -> no MS004 finding.
#include "common/fault_injector.h"
#include "common/threading/thread_pool.h"

void CoveredEverywhere() {
  medsync::threading::ThreadPool pool(2);
  medsync::FaultInjector injector;
}
