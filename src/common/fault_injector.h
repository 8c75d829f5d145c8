#ifndef MEDSYNC_COMMON_FAULT_INJECTOR_H_
#define MEDSYNC_COMMON_FAULT_INJECTOR_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/threading/mutex.h"

namespace medsync {

/// A process-wide crash/fault-injection harness for the durability layer.
///
/// Storage code marks its crash windows with named points
/// (`CheckFaultPoint("wal.append.after_write")`); a test installs an
/// injector, arms a point, and the instrumented operation fails exactly
/// there with Status::Unavailable — modelling a process killed mid-step.
/// Because the simulated "kernel" (the file system) has already done
/// everything before the point, re-opening the same directory afterwards
/// exercises the real recovery path.
///
/// Two fault shapes:
///  * Kill(point): the Nth visit of `point` returns an error before the
///    step it guards executes.
///  * TornWrite(point, keep_bytes): the write guarded by `point` persists
///    only the first `keep_bytes` bytes, then fails — a torn/partial write.
///
/// Every visit is recorded (armed or not) so tests can assert ordering
/// invariants, e.g. that the snapshot file is fsync'd BEFORE the rename.
///
/// Thread-safe (a mutex guards all state); with no injector installed the
/// instrumentation is a single relaxed pointer load.
class FaultInjector {
 public:
  /// Installs `injector` as the process-wide instance (nullptr uninstalls).
  /// The injector must outlive its installation. Tests typically hold one
  /// on the stack and uninstall in their teardown.
  static void Install(FaultInjector* injector);
  static FaultInjector* Get();

  /// Arms `point` to fail on its `at_visit`th visit from now (1 = next).
  void Kill(const std::string& point, uint64_t at_visit = 1)
      MEDSYNC_EXCLUDES(mu_);

  /// Arms the torn-write point `point`: the guarded write keeps only the
  /// first `keep_bytes` bytes and then fails, on its `at_visit`th visit.
  void TornWrite(const std::string& point, size_t keep_bytes,
                 uint64_t at_visit = 1) MEDSYNC_EXCLUDES(mu_);

  /// Disarms `point` (visit history is kept).
  void Disarm(const std::string& point) MEDSYNC_EXCLUDES(mu_);

  /// Visit log, in order, of every instrumented point reached while this
  /// injector was installed.
  std::vector<std::string> visits() const MEDSYNC_EXCLUDES(mu_);
  /// Number of faults actually fired.
  uint64_t faults_fired() const MEDSYNC_EXCLUDES(mu_);

  // -- Instrumentation side (called by storage code) -----------------------

  /// Records the visit; returns Unavailable iff the point is armed and this
  /// is the armed visit.
  Status OnPoint(const std::string& point) MEDSYNC_EXCLUDES(mu_);

  /// Records the visit; returns true iff a torn write should be simulated,
  /// in which case `*keep_bytes` receives how many bytes to persist.
  bool OnTornWrite(const std::string& point, size_t* keep_bytes)
      MEDSYNC_EXCLUDES(mu_);

 private:
  struct Armed {
    uint64_t at_visit = 0;   // fires when the visit counter reaches this
    bool torn = false;
    size_t keep_bytes = 0;
  };

  mutable threading::Mutex mu_;
  std::map<std::string, Armed> armed_ MEDSYNC_GUARDED_BY(mu_);
  std::map<std::string, uint64_t> visit_counts_ MEDSYNC_GUARDED_BY(mu_);
  std::vector<std::string> visit_log_ MEDSYNC_GUARDED_BY(mu_);
  uint64_t faults_fired_ MEDSYNC_GUARDED_BY(mu_) = 0;
};

/// Convenience for instrumentation sites: no-op OK when no injector is
/// installed.
Status CheckFaultPoint(const char* point);

/// Torn-write variant: returns false (no truncation) when no injector is
/// installed or the point is not armed.
bool CheckTornWrite(const char* point, size_t* keep_bytes);

}  // namespace medsync

#endif  // MEDSYNC_COMMON_FAULT_INJECTOR_H_
