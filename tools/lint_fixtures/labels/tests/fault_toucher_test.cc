// medsync-sca fixture: a test that arms the FaultInjector but whose
// CMakeLists (sibling file) gives it no `fault` label -> MS004.
#include "common/fault_injector.h"

void UsesInjector() {
  medsync::FaultInjector injector;
  injector.Visit("site");
}
