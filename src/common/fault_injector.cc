#include "common/fault_injector.h"

#include <atomic>

#include "common/strings.h"

namespace medsync {

namespace {
std::atomic<FaultInjector*> g_injector{nullptr};
}  // namespace

void FaultInjector::Install(FaultInjector* injector) {
  g_injector.store(injector, std::memory_order_release);
}

FaultInjector* FaultInjector::Get() {
  return g_injector.load(std::memory_order_acquire);
}

void FaultInjector::Kill(const std::string& point, uint64_t at_visit) {
  threading::MutexLock lock(mu_);
  Armed armed;
  armed.at_visit = visit_counts_[point] + at_visit;
  armed_[point] = armed;
}

void FaultInjector::TornWrite(const std::string& point, size_t keep_bytes,
                              uint64_t at_visit) {
  threading::MutexLock lock(mu_);
  Armed armed;
  armed.at_visit = visit_counts_[point] + at_visit;
  armed.torn = true;
  armed.keep_bytes = keep_bytes;
  armed_[point] = armed;
}

void FaultInjector::Disarm(const std::string& point) {
  threading::MutexLock lock(mu_);
  armed_.erase(point);
}

std::vector<std::string> FaultInjector::visits() const {
  threading::MutexLock lock(mu_);
  return visit_log_;
}

uint64_t FaultInjector::faults_fired() const {
  threading::MutexLock lock(mu_);
  return faults_fired_;
}

Status FaultInjector::OnPoint(const std::string& point) {
  threading::MutexLock lock(mu_);
  uint64_t count = ++visit_counts_[point];
  visit_log_.push_back(point);
  auto it = armed_.find(point);
  if (it == armed_.end() || it->second.torn || count != it->second.at_visit) {
    return Status::OK();
  }
  armed_.erase(it);
  ++faults_fired_;
  return Status::Unavailable(StrCat("fault injected at '", point, "'"));
}

bool FaultInjector::OnTornWrite(const std::string& point, size_t* keep_bytes) {
  threading::MutexLock lock(mu_);
  uint64_t count = ++visit_counts_[point];
  visit_log_.push_back(point);
  auto it = armed_.find(point);
  if (it == armed_.end() || !it->second.torn || count != it->second.at_visit) {
    return false;
  }
  *keep_bytes = it->second.keep_bytes;
  armed_.erase(it);
  ++faults_fired_;
  return true;
}

Status CheckFaultPoint(const char* point) {
  FaultInjector* injector = FaultInjector::Get();
  if (injector == nullptr) return Status::OK();
  return injector->OnPoint(point);
}

bool CheckTornWrite(const char* point, size_t* keep_bytes) {
  FaultInjector* injector = FaultInjector::Get();
  if (injector == nullptr) return false;
  return injector->OnTornWrite(point, keep_bytes);
}

}  // namespace medsync
