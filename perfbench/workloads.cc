// medsync_perfbench: runs one fixed-work workload against the public APIs of
// core, relational and net, and prints one JSON document of raw
// measurements (per-op samples, counter deltas, oracle outcomes and, when
// traced, spans and probes) on stdout. run.py turns it into metrics.
//
//   medsync_perfbench --workload <name> --seed <n> --episodes <n> --ops <n>
//                     [--setup-reps <n>] [--trace] [--workdir <dir>]
//
// Every workload is a closed loop: one client, one thread, no worker pool,
// one lane. The op count is an argument, never a duration, because per-op
// cost grows with chain history (see README.md).

#include <fcntl.h>
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>

#include <algorithm>
#include <array>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bx/lens.h"
#include "chain/transaction.h"
#include "common/json.h"
#include "common/metrics/metrics.h"
#include "common/random.h"
#include "common/strings.h"
#include "contracts/host.h"
#include "core/daemon.h"
#include "core/scenario.h"
#include "core/scenario_gen.h"
#include "core/sync_manager.h"
#include "crypto/keys.h"
#include "crypto/sha256.h"
#include "medical/generator.h"
#include "medical/records.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/socket_transport.h"
#include "relational/database.h"
#include "relational/delta.h"

namespace {

using namespace medsync;
using relational::Database;
using relational::Key;
using relational::Row;
using relational::Table;
using relational::Value;

constexpr const char* kPD = core::ClinicScenario::kPatientDoctorTable;
constexpr const char* kDR = core::ClinicScenario::kDoctorResearcherTable;

// ---------------------------------------------------------------------------
// Clocks.

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Spans: recorded by the benchmark around each call it makes into a layer,
// kept in memory and written out with the result. Disabled (no clock read,
// no allocation) in untraced runs.

class Tracer {
 public:
  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }
  void set_trace_id(int64_t id) { trace_id_ = id; }

  int Begin(const char* name) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, WallNs(), 0, parent, trace_id_});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int index) {
    if (index < 0) return;
    spans_[index].end_ns = WallNs();
    open_.pop_back();
  }

  Json ToJson() const {
    Json out = Json::MakeArray();
    for (const Span& span : spans_) {
      Json row = Json::MakeArray();
      row.Append(span.name);
      row.Append(span.start_ns);
      row.Append(span.end_ns);
      row.Append(span.parent);
      row.Append(span.trace_id);
      out.Append(std::move(row));
    }
    return out;
  }

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
    int64_t trace_id;
  };
  bool enabled_ = false;
  int64_t trace_id_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

Tracer g_tracer;

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : index_(g_tracer.Begin(name)) {}
  ~ScopedSpan() { g_tracer.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int index_;
};

template <typename F>
auto Traced(const char* name, F&& fn) {
  ScopedSpan span(name);
  return fn();
}

// ---------------------------------------------------------------------------
// Reference work, which uses no medsync code. One unit builds a std::map of
// 1,000 short strings, walks it into one string and folds that with FNV-1a
// (allocation-heavy, cache-resident), then looks up 200 pseudo-random keys
// in a fixed map of 200,000 entries, about 30 MB (memory-bound, like the
// workloads' tables). Its cost follows how fast this machine runs that kind
// of code at the moment: core speed, and the contention for shared cache
// and memory that co-tenants cause. It runs in a helper process forked
// before the program allocates anything, on the program's CPU. The helper's
// heap is its own and returns to the same state after every unit, so
// nothing the workload does to its own heap changes the unit's cost. Runs
// ask the helper to time a few units between ops (outside every measured
// interval) and wait for the answer.

constexpr uint64_t kReferenceLargeEntries = 200'000;

std::string ReferenceKey(uint64_t i) {
  return std::to_string((i * 2654435761u) % 1000003);
}

using ReferenceMap = std::map<std::string, std::string>;

ReferenceMap ReferenceLargeMap() {
  ReferenceMap large;
  for (uint64_t i = 0; i < kReferenceLargeEntries; ++i) {
    large[ReferenceKey(i)] = std::string(32, static_cast<char>('a' + i % 26));
  }
  return large;
}

uint64_t ReferenceUnit(const ReferenceMap& large, uint64_t salt) {
  ReferenceMap entries;
  for (uint64_t i = 0; i < 1000; ++i) {
    std::string key = std::to_string((i * 2654435761u + salt) % 1000003);
    entries[key] = std::string(24, static_cast<char>('a' + i % 26)) + key;
  }
  std::string walked;
  for (const auto& [key, value] : entries) {
    walked += key;
    walked += ':';
    walked += value;
    walked += ',';
  }
  uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : walked) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  uint64_t probe = hash;
  for (int i = 0; i < 200; ++i) {
    probe = probe * 6364136223846793005ull + 1442695040888963407ull;
    auto found =
        large.find(ReferenceKey((probe >> 33) % kReferenceLargeEntries));
    if (found != large.end()) {
      hash ^= static_cast<unsigned char>(found->second[0]);
    }
  }
  return hash;
}

bool ReadFull(int fd, void* data, size_t size) {
  char* at = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::read(fd, at, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    at += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

bool WriteFull(int fd, const void* data, size_t size) {
  const char* at = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, at, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    at += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

/// The helper process that times reference units. Start forks it; Time
/// sends one request and waits for the reply; Stop closes the request pipe,
/// on which the helper exits, and waits for it.
class ReferenceHelper {
 public:
  struct Request {
    uint64_t salt;
    uint32_t units;
  };
  struct Reply {
    double cpu_s;  // helper CPU time for all units
    uint64_t checksum;
  };

  bool Start() {
    int request[2];
    int reply[2];
    if (::pipe(request) != 0) return false;
    if (::pipe(reply) != 0) {
      ::close(request[0]);
      ::close(request[1]);
      return false;
    }
    std::fflush(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      ::close(request[1]);
      ::close(reply[0]);
      const int null_fd = ::open("/dev/null", O_WRONLY);
      if (null_fd >= 0) ::dup2(null_fd, STDOUT_FILENO);  // never hold stdout
      Serve(request[0], reply[1]);
      ::_exit(0);
    }
    ::close(request[0]);
    ::close(reply[1]);
    request_fd_ = request[1];
    reply_fd_ = reply[0];
    uint64_t ready = 0;  // wait until the helper has built its map
    return ReadFull(reply_fd_, &ready, sizeof ready);
  }

  /// Helper CPU seconds for `units` units, or nullopt if the helper is gone.
  std::optional<Reply> Time(uint64_t salt, uint32_t units) {
    const Request request{salt, units};
    Reply reply{};
    if (request_fd_ < 0 || !WriteFull(request_fd_, &request, sizeof request) ||
        !ReadFull(reply_fd_, &reply, sizeof reply)) {
      return std::nullopt;
    }
    return reply;
  }

  void Stop() {
    if (request_fd_ >= 0) ::close(request_fd_);
    if (reply_fd_ >= 0) ::close(reply_fd_);
    request_fd_ = reply_fd_ = -1;
    if (pid_ > 0) {
      while (::waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
      }
    }
    pid_ = -1;
  }
  ~ReferenceHelper() { Stop(); }

 private:
  static void Serve(int request_fd, int reply_fd) {
    // Keep freed memory in the heap, and one warm-up unit: every unit then
    // starts from the same heap and takes no page faults.
    ::mallopt(M_TRIM_THRESHOLD, 256 << 20);
    ::mallopt(M_MMAP_THRESHOLD, 256 << 20);
    const ReferenceMap large = ReferenceLargeMap();
    uint64_t warm = ReferenceUnit(large, 0);
    if (!WriteFull(reply_fd, &warm, sizeof warm)) return;  // ready
    Request request{};
    while (ReadFull(request_fd, &request, sizeof request)) {
      Reply reply{0, 0};
      const double c0 = CpuS();
      for (uint32_t i = 0; i < request.units; ++i) {
        reply.checksum ^= ReferenceUnit(large, request.salt + i);
      }
      reply.cpu_s = CpuS() - c0;
      if (!WriteFull(reply_fd, &reply, sizeof reply)) return;
    }
  }

  pid_t pid_ = -1;
  int request_fd_ = -1;
  int reply_fd_ = -1;
};

ReferenceHelper g_reference;

// ---------------------------------------------------------------------------
// The raw result every workload fills in.
//
// A run is `episodes` repetitions of: set up a fresh deployment (timed: one
// setup_s sample), run `ops` ops on it (the measured phase), check the
// oracles. Episodes keep the chain history, and with it the per-op cost,
// the same in every episode, so run length grows linearly with op count.

struct Run {
  std::string workload;
  uint64_t seed = 0;
  bool trace = false;
  size_t episodes = 0;
  size_t ops = 0;         // per episode
  size_t setup_reps = 1;  // timed set-ups per episode; the last one is used
  std::vector<double> setup_s;
  std::vector<double> setup_cpu_s;
  // [kind, wall_ms, cpu_ms, sim_ms|null, ok] per op
  Json op_samples = Json::MakeArray();
  double wall_s = 0;                    // measured phases only
  double cpu_s = 0;
  uint64_t commits = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Json failures = Json::MakeArray();
  std::map<std::string, uint64_t> counters;  // summed over episodes
  Json op_counters = Json::MakeArray();      // traced: per-op counter deltas
  Json extra = Json::MakeObject();           // workload-specific end-to-end
  Json oracles = Json::MakeObject();
  Json probes = Json::MakeObject();

  void Fail(const std::string& what) {
    ++failed;
    failures.Append(what);
  }
  /// Records one oracle outcome; a failed oracle counts as a failure.
  void Oracle(const std::string& name, const Status& status) {
    ++attempted;
    if (!status.ok()) {
      oracles.Set(name, status.ToString());
      Fail(StrCat("oracle ", name, ": ", status.ToString()));
    } else if (!oracles.Has(name)) {
      oracles.Set(name, "ok");
    }
  }
  /// Wall and process CPU time at the start of something timed.
  struct Clock {
    int64_t wall_ns = WallNs();
    double cpu_s = CpuS();
    double WallMs() const { return (WallNs() - wall_ns) * 1e-6; }
    double CpuMs() const { return (CpuS() - cpu_s) * 1e3; }
  };
  /// Records one op that started at `start`.
  void Sample(const std::string& kind, const Clock& start,
              std::optional<double> sim_ms, bool ok) {
    Json row = Json::MakeArray();
    row.Append(kind);
    row.Append(start.WallMs());
    row.Append(start.CpuMs());
    row.Append(sim_ms.has_value() ? Json(*sim_ms) : Json(nullptr));
    row.Append(ok);
    op_samples.Append(std::move(row));
  }

  /// Has the helper time kReferenceUnits units of reference work, at most
  /// once per kReferenceEveryNs of wall time, and waits for it. Called
  /// before each op and after each set-up, outside every span and op
  /// timing; AddMeasured takes the wait out of the measured totals.
  ///
  /// With a `sync_fd` (a file in the durable directory), each timing also
  /// appends a WAL-sized record to it and fdatasyncs it kReferenceSyncs
  /// times. The wall time of those syncs tracks the disk's current sync
  /// latency, as the reference unit tracks the CPU's speed.
  void MaybeTimeReference(int sync_fd = -1) {
    constexpr int64_t kReferenceEveryNs = 50'000'000;
    constexpr int kReferenceUnits = 3;
    constexpr int kReferenceSyncs = 2;
    const int64_t t0 = WallNs();
    if (t0 - reference_last_ns < kReferenceEveryNs) return;
    const double c0 = CpuS();
    const std::optional<ReferenceHelper::Reply> reply =
        g_reference.Time(seed + reference_cpu_s.size(), kReferenceUnits);
    for (int i = 0; sync_fd >= 0 && i < kReferenceSyncs; ++i) {
      const std::string record(147, 'r');
      const int64_t s0 = WallNs();
      if (!WriteFull(sync_fd, record.data(), record.size()) ||
          ::fdatasync(sync_fd) != 0) {
        ++attempted;
        Fail("reference sync failed");
        break;
      }
      reference_sync_s.push_back((WallNs() - s0) * 1e-9);
    }
    const int64_t t1 = WallNs();
    const double c1 = CpuS();
    if (!reply.has_value()) {
      ++attempted;
      Fail("reference helper stopped answering");
    } else {
      reference_cpu_s.push_back(reply->cpu_s / kReferenceUnits);
      reference_sink ^= reply->checksum;
    }
    reference_spent_wall_ns += t1 - t0;
    reference_spent_cpu_s += c1 - c0;
    reference_last_ns = t1;
  }
  std::vector<double> reference_cpu_s;  // CPU seconds per unit
  std::vector<double> reference_sync_s;  // wall seconds per reference sync
  uint64_t reference_sink = 0;
  int64_t reference_last_ns = 0;
  int64_t reference_spent_wall_ns = 0;
  double reference_spent_cpu_s = 0;

  /// The start of a measured phase; AddMeasured adds the wall and process
  /// CPU time since then, minus the reference work done in between.
  struct Mark {
    Clock clock;
    int64_t reference_wall_ns;
    double reference_cpu_s;
  };
  Mark Begin() const {
    return {Clock(), reference_spent_wall_ns, reference_spent_cpu_s};
  }
  void AddMeasured(const Mark& since) {
    wall_s += since.clock.WallMs() * 1e-3 -
              (reference_spent_wall_ns - since.reference_wall_ns) * 1e-9;
    cpu_s += since.clock.CpuMs() * 1e-3 -
             (reference_spent_cpu_s - since.reference_cpu_s);
  }
  /// Runs `create` setup_reps times, each timed as one setup_s sample, and
  /// keeps the last result; a failed set-up fails the run. Set-ups repeat
  /// so that their median rests on enough samples.
  template <typename T>
  bool Setup(Result<T> (*create)(Run*), T* out) {
    for (size_t rep = 0; rep < setup_reps; ++rep) {
      *out = T();  // release the previous deployment first
      const Clock start;
      Result<T> created = create(this);
      setup_s.push_back(start.WallMs() * 1e-3);
      setup_cpu_s.push_back(start.CpuMs() * 1e-3);
      if (!created.ok()) {
        ++attempted;
        Fail(StrCat("setup: ", created.status().ToString()));
        return false;
      }
      *out = std::move(*created);
      MaybeTimeReference();
    }
    return true;
  }
};

/// Counter values of a fixed name list, read at phase and op boundaries.
class CounterSet {
 public:
  CounterSet(std::vector<metrics::MetricsRegistry*> registries,
             std::vector<std::string> names)
      : registries_(std::move(registries)), names_(std::move(names)) {}

  std::vector<uint64_t> Read() const {
    std::vector<uint64_t> values;
    for (const std::string& name : names_) {
      uint64_t sum = 0;
      for (metrics::MetricsRegistry* registry : registries_) {
        sum += registry->GetCounter(name)->value();
      }
      values.push_back(sum);
    }
    return values;
  }

  Json Delta(const std::vector<uint64_t>& before,
             const std::vector<uint64_t>& after) const {
    Json out = Json::MakeObject();
    for (size_t i = 0; i < names_.size(); ++i) {
      out.Set(names_[i], after[i] - before[i]);
    }
    return out;
  }

  void AddDelta(const std::vector<uint64_t>& before,
                const std::vector<uint64_t>& after,
                std::map<std::string, uint64_t>* into) const {
    for (size_t i = 0; i < names_.size(); ++i) {
      (*into)[names_[i]] += after[i] - before[i];
    }
  }

 private:
  std::vector<metrics::MetricsRegistry*> registries_;
  std::vector<std::string> names_;
};

// The first entry is the commit count.
const std::vector<std::string> kProtocolCounters = {
    "peer.updates_committed", "peer.fetches_applied", "sync.gets_skipped",
    "sync.gets_executed",     "sync.delta_pushes",    "sync.full_fallbacks",
    "net.sent",               "net.bytes",            "net.retries",
    "net.sent.tx",            "chain.blocks.accepted", "mempool.adds",
    "mempool.reject.duplicate", "node.seal.attempts"};

// ---------------------------------------------------------------------------
// Probes: a public function timed on the final state after the measured
// phase. Each rep times `call`, which keeps what the function returned;
// then, untimed, `check` validates it (and releases it). A failed check
// fails the probe and the run, so no probe times an elided or
// check-skipping call. The median seconds per rep is recorded, scaled to a
// time unit or as `amount` per second.

using Call = std::function<void()>;
using Check = std::function<bool()>;

std::optional<double> MedianRepSeconds(Run* run, const std::string& name,
                                       const Call& call, const Check& check) {
  constexpr double kMinSeconds = 0.05;
  constexpr size_t kMinReps = 5;
  constexpr size_t kMaxReps = 100000;
  std::vector<double> samples;
  const int64_t start = WallNs();
  while (samples.size() < kMinReps ||
         ((WallNs() - start) * 1e-9 < kMinSeconds &&
          samples.size() < kMaxReps)) {
    const int64_t t0 = WallNs();
    call();
    samples.push_back((WallNs() - t0) * 1e-9);
    if (!check()) {
      ++run->attempted;
      run->Fail(StrCat("probe ", name, ": result check failed"));
      return std::nullopt;
    }
  }
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  return samples[samples.size() / 2];
}

void SetProbe(Run* run, const std::string& name, double value,
              const char* unit) {
  Json probe = Json::MakeObject();
  probe.Set("value", value);
  probe.Set("unit", unit);
  run->probes.Set(name, std::move(probe));
}

/// Records the median rep time, in seconds times `scale` (1e3 = ms).
void ProbeTime(Run* run, const std::string& name, const char* unit,
               double scale, const Call& call, const Check& check) {
  std::optional<double> s = MedianRepSeconds(run, name, call, check);
  if (s.has_value()) SetProbe(run, name, *s * scale, unit);
}

/// Records `amount` (bytes in MB, say) per median rep second.
void ProbeRate(Run* run, const std::string& name, const char* unit,
               double amount, const Call& call, const Check& check) {
  std::optional<double> s = MedianRepSeconds(run, name, call, check);
  if (s.has_value() && *s > 0) SetProbe(run, name, amount / *s, unit);
}

/// Probes of the relational, json and crypto layers on one table of the
/// workload's final state; every workload has one.
void ProbeTableLayers(Run* run, const Table& table, const Key& change_key,
                      const std::string& change_attr) {
  const std::string live_digest = table.ContentDigest();

  // Digest of a table rebuilt row by row with sealing off, so every row is
  // hashed and no cached chunk accumulator short-cuts the work. Each rep
  // digests a fresh copy (copies carry no computed digest), made untimed.
  Table rebuilt(table.schema());
  rebuilt.set_seal_threshold(SIZE_MAX);
  for (const auto& [key, row] : table.scan()) {
    if (!rebuilt.Insert(row).ok()) {
      ++run->attempted;
      run->Fail("probe relational.digest_us_per_row: rebuild failed");
      return;
    }
  }
  std::vector<double> digest_s;
  for (int rep = 0; rep < 7; ++rep) {
    Table copy = rebuilt;
    const int64_t t0 = WallNs();
    const std::string got = copy.ContentDigest();
    digest_s.push_back((WallNs() - t0) * 1e-9);
    if (got != live_digest) {
      ++run->attempted;
      run->Fail("probe relational.digest_us_per_row: rebuilt digest differs");
      return;
    }
  }
  std::sort(digest_s.begin(), digest_s.end());
  SetProbe(run, "relational.digest_us_per_row",
           digest_s[digest_s.size() / 2] * 1e6 / table.row_count(), "us");

  // Insert into the sealed table: each rep copies it (sharing the sealed
  // chunks, untimed) and times 100 inserts of fresh keys above the maximum.
  Table sealed = table;
  sealed.Seal();
  const Key max_key = sealed.NthKey(sealed.row_count() - 1);
  std::vector<Row> fresh;
  Row row = *sealed.Get(max_key);
  for (int i = 1; i <= 100; ++i) {
    row[0] = Value::Int(max_key[0].AsInt() + i);
    fresh.push_back(row);
  }
  std::vector<double> insert_us;
  for (int rep = 0; rep < 21; ++rep) {
    Table copy = sealed;
    const int64_t t0 = WallNs();
    bool ok = true;
    for (const Row& r : fresh) ok = copy.Insert(r).ok() && ok;
    insert_us.push_back((WallNs() - t0) * 1e-3 / fresh.size());
    if (!ok || copy.row_count() != sealed.row_count() + fresh.size()) {
      ++run->attempted;
      run->Fail("probe relational.insert_sealed_us: insert check failed");
      return;
    }
  }
  std::sort(insert_us.begin(), insert_us.end());
  SetProbe(run, "relational.insert_sealed_us", insert_us[insert_us.size() / 2],
           "us");

  const Json json = table.ToJson();
  std::optional<Result<Table>> back;
  ProbeTime(
      run, "relational.from_json_ms", "ms", 1e3,
      [&] { back.emplace(Table::FromJson(json)); },
      [&] {
        const bool ok = back->ok() && (*back)->ContentDigest() == live_digest;
        back.reset();
        return ok;
      });

  Table changed = table;
  if (!changed.UpdateAttribute(change_key, change_attr, Value::String("probe"))
           .ok()) {
    ++run->attempted;
    run->Fail("probe relational.compute_delta_ms: one-row change failed");
    return;
  }
  std::optional<Result<relational::TableDelta>> delta;
  ProbeTime(
      run, "relational.compute_delta_ms", "ms", 1e3,
      [&] { delta.emplace(relational::ComputeDelta(table, changed)); },
      [&] {
        const bool ok = delta->ok() && (*delta)->size() == 1 &&
                        (*delta)->updates.size() == 1;
        delta.reset();
        return ok;
      });

  const std::string dumped = json.Dump();
  std::string redumped;
  ProbeRate(
      run, "json.dump_mb_s", "MB/s", dumped.size() / 1e6,
      [&] { redumped = json.Dump(); },
      [&] {
        const bool ok = redumped == dumped;
        redumped.clear();
        return ok;
      });
  std::optional<Result<Json>> parsed;
  ProbeRate(
      run, "json.parse_mb_s", "MB/s", dumped.size() / 1e6,
      [&] { parsed.emplace(Json::ParseWire(dumped)); },
      [&] {
        const bool ok = parsed->ok() && **parsed == json;
        parsed.reset();
        return ok;
      });

  // SHA-256 over a 64 KiB buffer, after a known-answer check.
  if (crypto::Sha256::Hash("abc").ToHex() !=
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad") {
    ++run->attempted;
    run->Fail("probe crypto.sha256_mb_s: known-answer check failed");
    return;
  }
  Rng rng(run->seed);
  const std::vector<uint8_t> bytes = rng.NextBytes(64 * 1024);
  const std::string buffer(bytes.begin(), bytes.end());
  const crypto::Hash256 expected = crypto::Sha256::Hash(buffer);
  crypto::Hash256 hashed;
  ProbeRate(
      run, "crypto.sha256_mb_s", "MB/s", buffer.size() / 1e6,
      [&] { hashed = crypto::Sha256::Hash(buffer); },
      [&] { return hashed == expected; });
}

/// Frame codec probe: encode every frame and decode the concatenation with
/// one decoder; every decoded frame must round-trip.
void ProbeFrames(Run* run, const std::vector<net::Frame>& frames) {
  double megabytes = 0;
  for (const net::Frame& frame : frames) megabytes += frame.payload.size() / 1e6;
  std::vector<net::Frame> decoded;
  bool clean = false;
  ProbeRate(
      run, "net.frame_decode_mb_s", "MB/s", megabytes,
      [&] {
        std::string stream;
        for (const net::Frame& frame : frames) {
          stream += net::EncodeFrame(frame);
        }
        net::FrameDecoder decoder;
        decoder.Feed(stream);
        for (Result<std::optional<net::Frame>> next = decoder.Next();
             next.ok() && next->has_value(); next = decoder.Next()) {
          decoded.push_back(std::move(**next));
        }
        clean = !decoder.corrupt() && decoder.buffered() == 0;
      },
      [&] {
        bool ok = clean && decoded.size() == frames.size();
        for (size_t i = 0; ok && i < frames.size(); ++i) {
          ok = decoded[i].type == frames[i].type &&
               decoded[i].payload == frames[i].payload;
        }
        decoded.clear();
        return ok;
      });
}

/// Chain and contract probes on one chain node. Appends the newest
/// transaction's wire form to `frames`.
void ProbeChain(Run* run, runtime::ChainNode& node,
                const crypto::Address& contract, const std::string& table_id,
                const crypto::Address& caller,
                std::vector<net::Frame>* frames) {
  const chain::Blockchain& chain = node.blockchain();
  uint64_t history = 0;
  const chain::Transaction* newest = nullptr;
  uint64_t newest_height = 0;
  for (const chain::Block* block : chain.CanonicalChain()) {
    history += block->transactions.size();
    if (!block->transactions.empty()) {
      newest = &block->transactions.back();
      newest_height = block->header.height;
    }
  }
  SetProbe(run, "chain.history_txs", static_cast<double>(history), "count");
  if (newest == nullptr) {
    ++run->attempted;
    run->Fail("probe chain.find_tx_us: no transaction on the chain");
    return;
  }
  const crypto::Hash256 id = newest->Id();
  frames->push_back({"tx", newest->ToJson().Dump()});
  bool found = false;
  const chain::Transaction* tx = nullptr;
  uint64_t height = 0;
  ProbeTime(
      run, "chain.find_tx_us", "us", 1e6,
      [&] { found = chain.FindTransaction(id, &tx, &height); },
      [&] { return found && tx == newest && height == newest_height; });
  crypto::Hash256 recomputed;
  ProbeTime(
      run, "chain.tx_id_us", "us", 1e6, [&] { recomputed = newest->Id(); },
      [&] { return recomputed == id; });

  Json params = Json::MakeObject();
  params.Set("table_id", table_id);
  std::optional<Result<Json>> entry;
  ProbeTime(
      run, "contracts.static_call_us", "us", 1e6,
      [&] {
        entry.emplace(
            node.host().StaticCall(contract, "get_entry", params, caller));
      },
      [&] {
        const bool ok = entry->ok() && (*entry)->GetInt("version").ok();
        entry.reset();
        return ok;
      });
  const std::string fingerprint = node.host().StateFingerprint();
  std::string again;
  ProbeTime(
      run, "contracts.state_fingerprint_ms", "ms", 1e3,
      [&] { again = node.host().StateFingerprint(); },
      [&] { return !fingerprint.empty() && again == fingerprint; });
}

/// Lens probes on a lens and its source: Get is checked against a Get
/// computed before timing, Put against the GetPut law Put(s, Get(s)) == s.
void ProbeLens(Run* run, const bx::Lens& lens, const Table& source,
               const Key& change_key, const std::string& change_attr) {
  Result<Table> view = lens.Get(source);
  if (!view.ok()) {
    ++run->attempted;
    run->Fail(StrCat("probe bx.get_ms: ", view.status().ToString()));
    return;
  }
  std::optional<Result<Table>> got;
  ProbeTime(
      run, "bx.get_ms", "ms", 1e3, [&] { got.emplace(lens.Get(source)); },
      [&] {
        const bool ok = got->ok() && **got == *view;
        got.reset();
        return ok;
      });
  ProbeTime(
      run, "bx.put_ms", "ms", 1e3, [&] { got.emplace(lens.Put(source, *view)); },
      [&] {
        const bool ok = got->ok() && **got == source;
        got.reset();
        return ok;
      });

  std::optional<Row> row = source.Get(change_key);
  std::optional<size_t> index = source.schema().IndexOf(change_attr);
  if (!row.has_value() || !index.has_value()) {
    ++run->attempted;
    run->Fail("probe bx.push_delta_us: change row not found");
    return;
  }
  (*row)[*index] = Value::String("probe-delta");
  relational::TableDelta delta;
  delta.updates.push_back(*row);
  std::optional<Result<relational::TableDelta>> pushed;
  ProbeTime(
      run, "bx.push_delta_us", "us", 1e6,
      [&] { pushed.emplace(lens.PushDelta(source, delta)); },
      [&] {
        const bool ok = pushed->ok() && (*pushed)->updates.size() == 1 &&
                        (*pushed)->inserts.empty() &&
                        (*pushed)->deletes.empty();
        pushed.reset();
        return ok;
      });
}

/// Step-6 dependency check probe: applies a one-row change to `source` in
/// `peer`'s database (so run it last), then times FindAffectedViews, which
/// only reads. The change must reach exactly `expected` (sorted table ids).
void ProbeFindAffected(Run* run, core::Peer& peer, const std::string& source,
                       const Key& key, const std::string& attr,
                       const std::string& exclude,
                       const std::vector<std::string>& expected) {
  Result<Table> before = peer.database().Snapshot(source);
  if (!before.ok() ||
      !peer.database()
           .UpdateAttribute(source, key, attr, Value::String("probe-step6"))
           .ok()) {
    ++run->attempted;
    run->Fail("probe sync.find_affected_ms: one-row change failed");
    return;
  }
  std::optional<Result<std::vector<core::ViewRefresh>>> affected;
  ProbeTime(
      run, "sync.find_affected_ms", "ms", 1e3,
      [&] {
        affected.emplace(
            peer.sync().FindAffectedViews(source, *before, exclude));
      },
      [&] {
        std::vector<std::string> ids;
        if (affected->ok()) {
          for (const core::ViewRefresh& refresh : **affected) {
            ids.push_back(refresh.table_id);
          }
        }
        std::sort(ids.begin(), ids.end());
        const bool ok = affected->ok() && ids == expected;
        affected.reset();
        return ok;
      });
}

// ---------------------------------------------------------------------------
// fanout-16: GeneratedScenario with 16 peers. Each round every provider
// pushes one source update through each of its tables, then SettleAll.

// The topology is part of the workload's definition; the workload seed
// drives the op stream (which row and attribute each round writes, and the
// written values). A seed-derived topology would change the table count,
// and with it the work per round, from seed to seed.
constexpr uint64_t kFanoutTopologySeed = 77;

Result<std::unique_ptr<core::GeneratedScenario>> CreateFanout(Run*) {
  core::GenOptions options;
  options.seed = kFanoutTopologySeed;
  options.peers = 16;
  options.lens_depth = 3;
  options.rows_per_provider = 6;
  options.check_bx_laws = false;
  options.worker_threads = 0;
  options.lane_count = 1;
  return core::GeneratedScenario::Create(options);
}

/// Per table, the provider's populated keys inside the table's range.
Result<std::vector<std::vector<Key>>> FanoutKeys(
    core::GeneratedScenario& world) {
  const core::NetworkSpec& spec = world.spec();
  std::vector<std::vector<Key>> keys(spec.tables.size());
  for (size_t t = 0; t < spec.tables.size(); ++t) {
    const core::SharedTableSpec& table = spec.tables[t];
    MEDSYNC_ASSIGN_OR_RETURN(
        const Table* source,
        world.peer(table.provider)
            ->database()
            .GetTable(spec.peers[table.provider].source_table));
    for (const auto& [key, row] : source->scan()) {
      const int64_t id = key[0].AsInt();
      if (id >= table.key_lo && id <= table.key_hi) keys[t].push_back(key);
    }
    if (keys[t].empty()) {
      return Status::Internal(StrCat("no populated key in ", table.table_id));
    }
  }
  return keys;
}

void RunFanout(Run* run) {
  Rng rng(run->seed);
  std::unique_ptr<core::GeneratedScenario> world;
  std::vector<std::vector<Key>> keys;
  Json fingerprints = Json::MakeArray();
  for (size_t e = 0; e < run->episodes; ++e) {
    world.reset();  // at most one GeneratedScenario alive at a time
    if (!run->Setup(&CreateFanout, &world)) return;
    const core::NetworkSpec& spec = world->spec();
    auto found = FanoutKeys(*world);
    if (!found.ok()) {
      ++run->attempted;
      run->Fail(StrCat("inputs: ", found.status().ToString()));
      return;
    }
    keys = std::move(*found);
    // Inputs: per round and table, a populated key and a raw attribute.
    struct Write {
      Key key;
      std::string attr;
    };
    std::vector<std::vector<Write>> rounds(run->ops);
    for (size_t r = 0; r < run->ops; ++r) {
      for (size_t t = 0; t < spec.tables.size(); ++t) {
        const core::SharedTableSpec& table = spec.tables[t];
        rounds[r].push_back(
            {keys[t][rng.NextBelow(keys[t].size())],
             table.raw_attributes[rng.NextBelow(
                 table.raw_attributes.size())]});
      }
    }

    CounterSet counters({&world->metrics()}, kProtocolCounters);
    const std::vector<uint64_t> start_counters = counters.Read();
    const Run::Mark mark = run->Begin();
    for (size_t r = 0; r < run->ops; ++r) {
      run->MaybeTimeReference();
      const size_t op = e * run->ops + r;
      g_tracer.set_trace_id(static_cast<int64_t>(op));
      ScopedSpan op_span("op.round");
      const std::vector<uint64_t> op_before =
          g_tracer.enabled() ? counters.Read() : std::vector<uint64_t>{};
      const Run::Clock start;
      const Micros sim0 = world->simulator().Now();
      bool ok = true;
      for (size_t t = 0; t < spec.tables.size(); ++t) {
        const core::SharedTableSpec& table = spec.tables[t];
        const std::string& source = spec.peers[table.provider].source_table;
        const Write& write = rounds[r][t];
        const std::string token = StrCat("s", run->seed, "-o", op, "-t", t);
        ++run->attempted;
        Status status = Traced("core.update_call", [&] {
          return world->peer(table.provider)
              ->UpdateSourceAndPropagate(
                  source, [&](relational::Database* db) {
                    ScopedSpan span("relational.update");
                    return db->UpdateAttribute(source, write.key, write.attr,
                                               Value::String(token));
                  });
        });
        if (!status.ok()) {
          ok = false;
          run->Fail(StrCat("round ", op, " ", table.table_id, ": ",
                           status.ToString()));
        }
      }
      Status settled =
          Traced("core.settle", [&] { return world->SettleAll(); });
      if (!settled.ok()) {
        ok = false;
        ++run->attempted;
        run->Fail(StrCat("round ", op, " settle: ", settled.ToString()));
      }
      run->Sample("round", start,
                  static_cast<double>(world->simulator().Now() - sim0) / 1e3,
                  ok);
      if (g_tracer.enabled()) {
        run->op_counters.Append(counters.Delta(op_before, counters.Read()));
      }
    }
    run->AddMeasured(mark);
    g_tracer.set_trace_id(-1);
    const std::vector<uint64_t> end_counters = counters.Read();
    counters.AddDelta(start_counters, end_counters, &run->counters);
    run->commits += end_counters[0] - start_counters[0];

    run->Oracle("VerifyConverged", world->VerifyConverged());
    run->Oracle("VerifyAuditGapless", world->VerifyAuditGapless());
    fingerprints.Append(world->LaneInvariantFingerprint());
  }
  run->extra.Set("lane_invariant_fingerprints", std::move(fingerprints));

  if (!run->trace) return;
  // Probes on the first table: its provider's source, view and lens.
  const core::NetworkSpec& spec = world->spec();
  const core::SharedTableSpec& table = spec.tables[0];
  core::Peer& provider = *world->peer(table.provider);
  auto binding = provider.sync().FindBinding(table.table_id);
  Result<const Table*> source =
      binding.ok() ? provider.database().GetTable((*binding)->source_table)
                   : Result<const Table*>(binding.status());
  Result<const Table*> view =
      binding.ok() ? provider.database().GetTable((*binding)->view_table)
                   : Result<const Table*>(binding.status());
  if (!source.ok() || !view.ok()) {
    ++run->attempted;
    run->Fail("probes: first table's state not found");
    return;
  }
  const Key& key = keys[0][0];
  const std::string& attr = table.raw_attributes[0];
  ProbeLens(run, *(*binding)->lens, **source, key, attr);
  ProbeTableLayers(run, **source, key, attr);
  std::vector<net::Frame> frames = {{"rel.data", (*view)->ToJson().Dump()}};
  ProbeChain(run, world->node(0), world->contract(), table.table_id,
             world->peer_address(0), &frames);
  ProbeFrames(run, frames);
  // Step 6: a one-row change in a provider's source, made through table t,
  // must reach exactly the provider's other tables whose range holds the
  // key and whose view carries the attribute. Pick the first change that
  // reaches at least one of them, so the check has work to do.
  auto reached = [&](size_t t, const Key& k, const std::string& attr) {
    std::vector<std::string> ids;
    for (size_t u = 0; u < spec.tables.size(); ++u) {
      const core::SharedTableSpec& other = spec.tables[u];
      const int64_t id = k[0].AsInt();
      if (u != t && other.provider == spec.tables[t].provider &&
          id >= other.key_lo && id <= other.key_hi &&
          std::count(other.raw_attributes.begin(),
                     other.raw_attributes.end(), attr) > 0) {
        ids.push_back(other.table_id);
      }
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  for (size_t t = 0; t < spec.tables.size(); ++t) {
    for (const Key& k : keys[t]) {
      for (const std::string& attr : spec.tables[t].raw_attributes) {
        const std::vector<std::string> expected = reached(t, k, attr);
        if (expected.empty()) continue;
        const size_t p = spec.tables[t].provider;
        ProbeFindAffected(run, *world->peer(p), spec.peers[p].source_table, k,
                          attr, spec.tables[t].table_id, expected);
        return;
      }
    }
  }
  ++run->attempted;
  run->Fail("probe sync.find_affected_ms: no change reaches a sibling view");
}

// ---------------------------------------------------------------------------
// clinic-8k: ClinicScenario with 8,000 generated records. A seeded mix of
// doctor dosage updates on D13&D31 (Fig. 4), patient reads, and doctor
// medication renames that run the two-hop Fig. 5 cascade through step 6.

constexpr size_t kClinicRecords = 8000;

Result<std::unique_ptr<core::ClinicScenario>> CreateClinic(Run* run) {
  core::ScenarioOptions options;
  options.seed = run->seed;
  options.record_count = kClinicRecords;
  options.worker_threads = 0;
  return core::ClinicScenario::Create(options);
}

void CheckClinicOracles(Run* run, core::ClinicScenario& clinic) {
  // Counterpart views agree with each other and with the on-chain digest,
  // and each entry's version is 1 + its committed updates.
  auto view_digest = [](core::Peer& peer, const char* table) {
    Result<const Table*> t = peer.database().GetTable(table);
    return t.ok() ? (*t)->ContentDigest() : std::string("missing");
  };
  const std::string d13 = view_digest(clinic.patient(), "D13");
  const std::string d31 = view_digest(clinic.doctor(), "D31");
  const std::string d23 = view_digest(clinic.researcher(), "D23");
  const std::string d32 = view_digest(clinic.doctor(), "D32");
  run->Oracle("D13==D31",
              d13 == d31 ? Status::OK() : Status::Internal("D13 != D31"));
  run->Oracle("D23==D32",
              d23 == d32 ? Status::OK() : Status::Internal("D23 != D32"));
  uint64_t versions = 0;
  for (const char* table : {kPD, kDR}) {
    Result<Json> entry = clinic.Entry(table);
    Result<int64_t> version =
        entry.ok() ? entry->GetInt("version") : Result<int64_t>(entry.status());
    if (!version.ok()) {
      run->Oracle(StrCat("version ", table), version.status());
      continue;
    }
    versions += static_cast<uint64_t>(*version - 1);
    const std::string& digest = table == std::string(kPD) ? d31 : d32;
    Result<std::string> on_chain = entry->GetString("content_digest");
    run->Oracle(StrCat("on-chain digest ", table),
                on_chain.ok() && *on_chain == digest
                    ? Status::OK()
                    : Status::Internal("view digest != on-chain digest"));
  }
  const uint64_t committed = clinic.doctor().stats().updates_committed +
                             clinic.patient().stats().updates_committed +
                             clinic.researcher().stats().updates_committed;
  run->Oracle("version==1+committed",
              versions == committed
                  ? Status::OK()
                  : Status::Internal(StrCat("entry versions count ", versions,
                                            " updates, peers committed ",
                                            committed)));
}

void RunClinic(Run* run) {
  Rng rng(run->seed);
  std::unique_ptr<core::ClinicScenario> clinic;
  Key first_target;
  for (size_t e = 0; e < run->episodes; ++e) {
    clinic.reset();
    if (!run->Setup(&CreateClinic, &clinic)) return;
    Result<const Table*> d3 = clinic->doctor().database().GetTable("D3");
    if (!d3.ok()) {
      ++run->attempted;
      run->Fail("inputs: D3 missing");
      return;
    }
    std::vector<Key> ids;
    for (const auto& [key, row] : (*d3)->scan()) ids.push_back(key);
    // Inputs: a fixed multiset of op kinds in seeded order, so every seed
    // does the same amount of each kind of work: half dosage updates, a
    // quarter reads, a quarter renames.
    enum Kind { kDosage, kRead, kRename };
    std::vector<Kind> kinds;
    for (size_t i = 0; i < run->ops; ++i) {
      kinds.push_back(i % 4 == 1 ? kRead : i % 4 == 3 ? kRename : kDosage);
    }
    for (size_t i = kinds.size(); i > 1; --i) {
      std::swap(kinds[i - 1], kinds[rng.NextBelow(i)]);
    }
    std::vector<Key> targets;
    for (size_t i = 0; i < run->ops; ++i) {
      targets.push_back(ids[rng.NextBelow(ids.size())]);
    }
    first_target = targets[0];

    CounterSet counters({&clinic->metrics()}, kProtocolCounters);
    const std::vector<uint64_t> start_counters = counters.Read();
    const Run::Mark mark = run->Begin();
    for (size_t i = 0; i < run->ops; ++i) {
      run->MaybeTimeReference();
      const size_t op = e * run->ops + i;
      g_tracer.set_trace_id(static_cast<int64_t>(op));
      const std::vector<uint64_t> op_before =
          g_tracer.enabled() ? counters.Read() : std::vector<uint64_t>{};
      const Run::Clock start;
      const Micros sim0 = clinic->simulator().Now();
      ++run->attempted;
      if (kinds[i] == kRead) {
        ScopedSpan op_span("op.read");
        Result<Table> view = Traced("core.read", [&] {
          return clinic->patient().ReadSharedTable(kPD);
        });
        const bool ok = view.ok() && view->row_count() == kClinicRecords;
        if (!ok) run->Fail(StrCat("op ", op, " read failed"));
        run->Sample("read", start, std::nullopt, ok);
      } else {
        const bool rename = kinds[i] == kRename;
        const char* kind = rename ? "rename" : "dosage";
        ScopedSpan op_span(rename ? "op.rename" : "op.dosage");
        const std::string token =
            StrCat(rename ? "Med-" : "dose-", run->seed, "-", op);
        Status status = Traced("core.update_call", [&] {
          return clinic->doctor().UpdateSharedAttribute(
              kPD, targets[i],
              rename ? medical::kMedicationName : medical::kDosage,
              Value::String(token));
        });
        if (status.ok()) {
          status = Traced("core.settle", [&] { return clinic->SettleAll(); });
        }
        if (!status.ok()) {
          run->Fail(StrCat("op ", op, " ", kind, ": ", status.ToString()));
        }
        run->Sample(
            kind, start,
            static_cast<double>(clinic->simulator().Now() - sim0) / 1e3,
            status.ok());
      }
      if (g_tracer.enabled()) {
        run->op_counters.Append(counters.Delta(op_before, counters.Read()));
      }
    }
    run->AddMeasured(mark);
    g_tracer.set_trace_id(-1);
    const std::vector<uint64_t> end_counters = counters.Read();
    counters.AddDelta(start_counters, end_counters, &run->counters);
    run->commits += end_counters[0] - start_counters[0];
    CheckClinicOracles(run, *clinic);
  }

  if (!run->trace) return;
  core::Peer& doctor = clinic->doctor();
  Result<const Table*> source = doctor.database().GetTable("D3");
  Result<const Table*> view = doctor.database().GetTable("D31");
  auto binding = doctor.sync().FindBinding(kPD);
  if (!source.ok() || !view.ok() || !binding.ok()) {
    ++run->attempted;
    run->Fail("probes: doctor state not found");
    return;
  }
  ProbeLens(run, *(*binding)->lens, **source, first_target, medical::kDosage);
  ProbeTableLayers(run, **view, first_target, medical::kDosage);
  std::vector<net::Frame> frames = {{"rel.data", (*view)->ToJson().Dump()}};
  ProbeChain(run, clinic->node(0), clinic->contract(), kPD, doctor.address(),
             &frames);
  ProbeFrames(run, frames);
  ProbeFindAffected(run, doctor, "D3", first_target, medical::kMedicationName,
                    kPD, {kDR});
}

// ---------------------------------------------------------------------------
// storage-50k: a durable Database. Bulk load with sync off, SealTable and
// Checkpoint; seeded point updates with fsync on every append and periodic
// checkpoints; final checkpoint; recovery through Database::Open. Set-up is
// generating the records.

constexpr size_t kStorageRows = 50000;
constexpr size_t kCheckpointEvery = 500;
constexpr char kStorageTable[] = "records";

Result<Table> CreateRecords(Run* run) {
  return medical::GenerateFullRecords({run->seed, kStorageRows, 1000});
}

uint64_t DirBytes(const std::filesystem::path& dir) {
  uint64_t bytes = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

/// Logical size of a table: the rendered bytes of every value.
uint64_t LogicalBytes(const Table& table) {
  uint64_t bytes = 0;
  for (const auto& [key, row] : table.scan()) {
    for (const Value& value : row) bytes += value.ToString().size();
  }
  return bytes;
}

/// Bulk load with sync off (as OpenOptions allows for loads), then seal and
/// checkpoint. Returns rows per second over the three.
Result<double> BulkLoad(const std::string& dir, const Table& records) {
  ScopedSpan load("op.load");
  const int64_t t0 = WallNs();
  MEDSYNC_ASSIGN_OR_RETURN(
      Database db, Database::Open(dir, {.sync_every_append = false}));
  MEDSYNC_RETURN_IF_ERROR(db.CreateTable(kStorageTable, records.schema()));
  for (const auto& [key, row] : records.scan()) {
    MEDSYNC_RETURN_IF_ERROR(db.Insert(kStorageTable, row));
  }
  MEDSYNC_RETURN_IF_ERROR(
      Traced("relational.seal", [&] { return db.SealTable(kStorageTable); }));
  MEDSYNC_RETURN_IF_ERROR(
      Traced("relational.checkpoint", [&] { return db.Checkpoint(); }));
  return records.row_count() / ((WallNs() - t0) * 1e-9);
}

void RunStorage(Run* run, const std::string& workdir) {
  Rng rng(run->seed);
  const std::vector<std::string> attrs = {
      medical::kDosage, medical::kClinicalData, medical::kAddress};
  Json load_rates = Json::MakeArray();
  Json recover_rates = Json::MakeArray();
  Json stored_ratios = Json::MakeArray();
  Table records;
  Table final_table;
  Key first_key;
  for (size_t e = 0; e < run->episodes; ++e) {
    if (!run->Setup(&CreateRecords, &records)) return;
    const std::filesystem::path dir =
        std::filesystem::path(workdir) / StrCat("storage-", run->seed);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::vector<Key> keys;
    for (const auto& [key, row] : records.scan()) keys.push_back(key);
    struct Write {
      Key key;
      std::string attr;
    };
    std::vector<Write> writes;
    for (size_t i = 0; i < run->ops; ++i) {
      writes.push_back({keys[rng.NextBelow(keys.size())],
                        attrs[rng.NextBelow(attrs.size())]});
    }
    first_key = writes[0].key;

    ++run->attempted;
    Result<double> loaded = BulkLoad(dir.string(), records);
    if (!loaded.ok()) {
      run->Fail(StrCat("bulk load: ", loaded.status().ToString()));
      return;
    }
    load_rates.Append(*loaded);

    // Point updates with fsync on every append (the default OpenOptions).
    Result<Database> db = Database::Open(dir.string());
    ++run->attempted;
    if (!db.ok()) {
      run->Fail(StrCat("reopen: ", db.status().ToString()));
      return;
    }
    const relational::Wal::Stats wal0 = db->wal_stats();
    const std::string sync_path = (dir / "reference.sync").string();
    const int sync_fd =
        ::open(sync_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
               0644);
    if (sync_fd < 0) {
      ++run->attempted;
      run->Fail(StrCat("cannot open ", sync_path));
      return;
    }
    const Run::Mark mark = run->Begin();
    for (size_t i = 0; i < run->ops; ++i) {
      run->MaybeTimeReference(sync_fd);
      const size_t op = e * run->ops + i;
      g_tracer.set_trace_id(static_cast<int64_t>(op));
      ScopedSpan op_span("op.update");
      const Run::Clock start;
      ++run->attempted;
      Status status = Traced("relational.update", [&] {
        return db->UpdateAttribute(kStorageTable, writes[i].key,
                                   writes[i].attr,
                                   Value::String(StrCat("w", run->seed, "-", op)));
      });
      if (status.ok()) {
        ++run->commits;
      } else {
        run->Fail(StrCat("update ", op, ": ", status.ToString()));
      }
      run->Sample("update", start, std::nullopt, status.ok());
      if ((i + 1) % kCheckpointEvery == 0 && i + 1 < run->ops) {
        Status checkpoint =
            Traced("relational.checkpoint", [&] { return db->Checkpoint(); });
        if (!checkpoint.ok()) {
          ++run->attempted;
          run->Fail(StrCat("checkpoint: ", checkpoint.ToString()));
        }
      }
    }
    run->AddMeasured(mark);
    ::close(sync_fd);
    std::filesystem::remove(sync_path);
    g_tracer.set_trace_id(-1);
    const relational::Wal::Stats wal1 = db->wal_stats();
    run->counters["wal.syncs"] += wal1.syncs - wal0.syncs;
    run->counters["wal.append_bytes"] += wal1.append_bytes - wal0.append_bytes;
    run->counters["wal.appends"] += wal1.appends - wal0.appends;

    // Final checkpoint and on-disk footprint, then close and recover.
    ++run->attempted;
    Status checkpoint =
        Traced("relational.checkpoint", [&] { return db->Checkpoint(); });
    Result<const Table*> live = db->GetTable(kStorageTable);
    if (!checkpoint.ok() || !live.ok()) {
      run->Fail(StrCat("final checkpoint: ", checkpoint.ToString()));
      return;
    }
    final_table = **live;
    const std::string digest_before = final_table.ContentDigest();
    stored_ratios.Append(static_cast<double>(DirBytes(dir)) /
                         static_cast<double>(LogicalBytes(final_table)));
    *db = Database();  // close

    const int64_t t0 = WallNs();
    Result<Database> recovered = Traced(
        "relational.recover", [&] { return Database::Open(dir.string()); });
    const double recover_s = (WallNs() - t0) * 1e-9;
    ++run->attempted;
    if (!recovered.ok()) {
      run->Fail(StrCat("recover: ", recovered.status().ToString()));
      return;
    }
    recover_rates.Append(final_table.row_count() / recover_s);
    Result<const Table*> back = recovered->GetTable(kStorageTable);
    run->Oracle("recovered digest == before close",
                back.ok() && (*back)->ContentDigest() == digest_before
                    ? Status::OK()
                    : Status::Corruption("digest differs after recovery"));
    run->Oracle("recovered rows == before close",
                back.ok() && (*back)->row_count() == final_table.row_count()
                    ? Status::OK()
                    : Status::Corruption("row count differs after recovery"));
    *recovered = Database();
    std::filesystem::remove_all(dir);
  }
  run->extra.Set("load_rows_per_s", std::move(load_rates));
  run->extra.Set("recover_rows_per_s", std::move(recover_rates));
  run->extra.Set("stored_bytes_per_user_byte", std::move(stored_ratios));

  if (!run->trace) return;
  ProbeTableLayers(run, final_table, first_key, medical::kDosage);
}

// ---------------------------------------------------------------------------
// loopback-tcp: one EventLoop, one SocketTransport per ClinicDaemon role
// (doctor, patient, researcher; 3 chain nodes). The scripted cascade
// converging is set-up; then the doctor issues dosage updates, each spun
// with RunOnce until the D13&D31 entry is acked at its new version.

constexpr std::array<core::ClinicRole, 3> kLoopbackRoles = {
    core::ClinicRole::kDoctor, core::ClinicRole::kPatient,
    core::ClinicRole::kResearcher};
constexpr Micros kLoopbackBlockInterval = 20 * kMicrosPerMilli;
constexpr Micros kLoopbackSpin = 5 * kMicrosPerMilli;
constexpr Micros kLoopbackDeadline = 30 * kMicrosPerSecond;

struct Loopback {
  net::EventLoop loop;
  metrics::MetricsRegistry net_metrics;
  std::vector<std::unique_ptr<net::SocketTransport>> transports;
  std::vector<std::unique_ptr<core::ClinicDaemon>> daemons;

  // Daemons send through the transports, which watch fds on the loop.
  ~Loopback() {
    daemons.clear();
    transports.clear();
  }
};

Result<std::unique_ptr<Loopback>> CreateLoopback(Run*) {
  auto world = std::make_unique<Loopback>();
  for (size_t i = 0; i < kLoopbackRoles.size(); ++i) {
    world->transports.push_back(std::make_unique<net::SocketTransport>(
        &world->loop, net::SocketTransportOptions{}));
    MEDSYNC_RETURN_IF_ERROR(world->transports.back()->Listen());
    world->transports.back()->set_metrics(&world->net_metrics);
  }
  for (size_t i = 0; i < kLoopbackRoles.size(); ++i) {
    for (size_t j = 0; j < kLoopbackRoles.size(); ++j) {
      if (i == j) continue;
      const std::string address =
          StrCat("127.0.0.1:", world->transports[j]->port());
      for (const std::string& id :
           core::ClinicDaemon::LocalIds(kLoopbackRoles[j])) {
        world->transports[i]->AddRoute(id, address);
      }
    }
  }
  for (size_t i = 0; i < kLoopbackRoles.size(); ++i) {
    core::ClinicDaemonOptions options;
    options.role = kLoopbackRoles[i];
    options.chain_node_count = kLoopbackRoles.size();
    options.block_interval = kLoopbackBlockInterval;
    options.tick_interval = kLoopbackSpin;
    options.timeout = kLoopbackDeadline;
    MEDSYNC_ASSIGN_OR_RETURN(
        std::unique_ptr<core::ClinicDaemon> daemon,
        core::ClinicDaemon::Create(options, &world->loop,
                                   world->transports[i].get()));
    world->daemons.push_back(std::move(daemon));
  }
  for (auto& daemon : world->daemons) daemon->Start();
  const Micros deadline = world->loop.Now() + kLoopbackDeadline;
  while (world->loop.Now() < deadline) {
    world->loop.RunOnce(kLoopbackSpin);
    bool all = true;
    for (auto& daemon : world->daemons) {
      if (daemon->failed()) return daemon->failure();
      all = all && daemon->converged();
    }
    if (all) return world;
  }
  return Status::Timeout("loopback cascade did not converge");
}

/// The contract address every ClinicDaemon derives (doctor, nonce 0).
crypto::Address ClinicContract() {
  chain::Transaction deploy;
  deploy.from = crypto::KeyPair::FromSeed("doctor").address();
  deploy.nonce = 0;
  return contracts::ContractHost::DeploymentAddress(deploy);
}

void RunLoopback(Run* run) {
  const crypto::Address contract = ClinicContract();
  const crypto::Address caller = crypto::KeyPair::FromSeed("doctor").address();
  const Key patient = {Value::Int(188)};
  std::unique_ptr<Loopback> world;
  double spin_wall = 0;
  double spin_cpu = 0;
  for (size_t e = 0; e < run->episodes; ++e) {
    world.reset();
    if (!run->Setup(&CreateLoopback, &world)) return;
    // D13&D31's version on node `d`, or nullopt while acks are pending.
    auto entry_version = [&](size_t d) -> std::optional<int64_t> {
      Json params = Json::MakeObject();
      params.Set("table_id", kPD);
      Result<Json> entry = world->daemons[d]->chain_node().Query(
          contract, "get_entry", params, caller);
      if (!entry.ok() || entry->At("pending_acks").size() > 0) {
        return std::nullopt;
      }
      Result<int64_t> version = entry->GetInt("version");
      return version.ok() ? std::optional<int64_t>(*version) : std::nullopt;
    };
    const std::optional<int64_t> base = entry_version(0);
    if (!base.has_value()) {
      ++run->attempted;
      run->Fail("setup: D13&D31 entry not readable");
      return;
    }
    core::ClinicDaemon& doctor = *world->daemons[0];
    std::vector<metrics::MetricsRegistry*> registries = {&world->net_metrics};
    for (auto& daemon : world->daemons) {
      registries.push_back(&daemon->metrics());
    }
    CounterSet counters(registries, kProtocolCounters);
    const std::vector<uint64_t> start_counters = counters.Read();
    const Run::Mark mark = run->Begin();
    for (size_t i = 0; i < run->ops; ++i) {
      run->MaybeTimeReference();
      const size_t op = e * run->ops + i;
      g_tracer.set_trace_id(static_cast<int64_t>(op));
      ScopedSpan op_span("op.dosage");
      const std::vector<uint64_t> op_before =
          g_tracer.enabled() ? counters.Read() : std::vector<uint64_t>{};
      const Run::Clock start;
      ++run->attempted;
      const int64_t want = *base + static_cast<int64_t>(i) + 1;
      Status status = Traced("core.update_call", [&] {
        return doctor.peer()->UpdateSharedAttribute(
            kPD, patient, medical::kDosage,
            Value::String(StrCat("dose-", run->seed, "-", op)));
      });
      bool ok = status.ok();
      if (!ok) run->Fail(StrCat("op ", op, ": ", status.ToString()));
      const Micros deadline = world->loop.Now() + kLoopbackDeadline;
      while (ok) {
        const int64_t s0 = WallNs();
        const double c0 = CpuS();
        {
          ScopedSpan spin("net.run_once");
          world->loop.RunOnce(kLoopbackSpin);
        }
        spin_wall += (WallNs() - s0) * 1e-9;
        spin_cpu += CpuS() - c0;
        // Peer-local checks first; the contract is queried only once both
        // sides of D13&D31 hold the version and every peer is idle.
        bool done = true;
        for (size_t d = 0; d < world->daemons.size() && done; ++d) {
          core::Peer& peer = *world->daemons[d]->peer();
          if (peer.HasPendingWork()) done = false;
          if (d < 2) {  // doctor and patient share D13&D31
            auto state = peer.GetSyncState(kPD);
            done = done && state.ok() &&
                   static_cast<int64_t>(state->version) == want;
          }
        }
        if (done && entry_version(0) == want) break;
        if (world->loop.Now() > deadline) {
          ok = false;
          run->Fail(StrCat("op ", op, ": not acked within deadline"));
        }
      }
      run->Sample("dosage", start, std::nullopt, ok);
      if (g_tracer.enabled()) {
        run->op_counters.Append(counters.Delta(op_before, counters.Read()));
      }
      if (!ok) break;
    }
    run->AddMeasured(mark);
    g_tracer.set_trace_id(-1);
    const std::vector<uint64_t> end_counters = counters.Read();
    counters.AddDelta(start_counters, end_counters, &run->counters);
    run->commits += end_counters[0] - start_counters[0];

    // Oracles: every node reaches the expected version (the other nodes
    // may still be a block behind the doctor's, so let the deployment run
    // until they catch up, bounded), and counterpart digests equal the
    // on-chain digest.
    const int64_t expected = *base + static_cast<int64_t>(run->ops);
    const Micros catch_up = world->loop.Now() + kLoopbackDeadline;
    auto caught_up = [&] {
      for (size_t d = 0; d < world->daemons.size(); ++d) {
        if (entry_version(d) != expected) return false;
      }
      return true;
    };
    while (!caught_up() && world->loop.Now() < catch_up) {
      world->loop.RunOnce(kLoopbackSpin);
    }
    for (size_t d = 0; d < world->daemons.size(); ++d) {
      run->Oracle(
          StrCat("version@", core::ClinicRoleName(kLoopbackRoles[d])),
          entry_version(d) == expected
              ? Status::OK()
              : Status::Internal(StrCat("entry version != ", expected)));
    }
    Json params = Json::MakeObject();
    params.Set("table_id", kPD);
    Result<Json> entry =
        doctor.chain_node().Query(contract, "get_entry", params, caller);
    Result<std::string> on_chain = entry.ok()
                                       ? entry->GetString("content_digest")
                                       : Result<std::string>(entry.status());
    auto digest = [&](size_t d, const char* table) {
      Result<const Table*> t =
          world->daemons[d]->peer()->database().GetTable(table);
      return t.ok() ? (*t)->ContentDigest() : std::string("missing");
    };
    run->Oracle("D31==on-chain",
                on_chain.ok() && digest(0, "D31") == *on_chain
                    ? Status::OK()
                    : Status::Internal("doctor D31 != on-chain digest"));
    run->Oracle("D13==on-chain",
                on_chain.ok() && digest(1, "D13") == *on_chain
                    ? Status::OK()
                    : Status::Internal("patient D13 != on-chain digest"));
  }
  run->extra.Set("loop_busy_frac", spin_wall > 0 ? spin_cpu / spin_wall : 0.0);

  if (!run->trace) return;
  core::ClinicDaemon& doctor = *world->daemons[0];
  core::Peer& peer = *doctor.peer();
  Result<const Table*> source = peer.database().GetTable("D3");
  Result<const Table*> view = peer.database().GetTable("D31");
  auto binding = peer.sync().FindBinding(kPD);
  if (!source.ok() || !view.ok() || !binding.ok()) {
    ++run->attempted;
    run->Fail("probes: doctor state not found");
    return;
  }
  ProbeLens(run, *(*binding)->lens, **source, patient, medical::kDosage);
  ProbeTableLayers(run, **view, patient, medical::kDosage);
  std::vector<net::Frame> frames = {{"rel.data", (*view)->ToJson().Dump()}};
  ProbeChain(run, doctor.chain_node(), contract, kPD, caller, &frames);
  ProbeFrames(run, frames);
  ProbeFindAffected(run, peer, "D3", patient, medical::kMedicationName, kPD,
                    {kDR});
}

// ---------------------------------------------------------------------------

int Usage() {
  std::fprintf(stderr,
               "usage: medsync_perfbench --workload "
               "fanout-16|clinic-8k|storage-50k|loopback-tcp --seed N "
               "--episodes N --ops N [--setup-reps N] [--trace] [--workdir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  std::string workdir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (arg == "--workload") {
      run.workload = value();
    } else if (arg == "--seed") {
      run.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--setup-reps") {
      run.setup_reps = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--episodes") {
      run.episodes = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--ops") {
      run.ops = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--workdir") {
      workdir = value();
    } else if (arg == "--trace") {
      run.trace = true;
    } else {
      return Usage();
    }
  }
  if (run.ops == 0 || run.episodes == 0 || run.setup_reps == 0) return Usage();
  // One CPU for the program and the helper, so the helper's units meet the
  // same co-tenant contention as the program's ops.
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  CPU_SET(static_cast<unsigned>(std::max(0, ::sched_getcpu())), &cpus);
  if (::sched_setaffinity(0, sizeof cpus, &cpus) != 0) {
    std::fprintf(stderr, "cannot pin to one CPU; continuing unpinned\n");
  }
  // A helper that dies must fail the run through a write error, not kill
  // the program with SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  if (!g_reference.Start()) {
    std::fprintf(stderr, "cannot start the reference helper process\n");
    return 1;
  }
  if (run.trace) g_tracer.Enable();

  if (run.workload == "fanout-16") {
    RunFanout(&run);
  } else if (run.workload == "clinic-8k") {
    RunClinic(&run);
  } else if (run.workload == "storage-50k") {
    RunStorage(&run, workdir);
  } else if (run.workload == "loopback-tcp") {
    RunLoopback(&run);
  } else {
    return Usage();
  }

  g_reference.Stop();

  Json out = Json::MakeObject();
  out.Set("workload", run.workload);
  out.Set("seed", run.seed);
  out.Set("episodes", static_cast<uint64_t>(run.episodes));
  out.Set("ops", static_cast<uint64_t>(run.ops));
  Json setup = Json::MakeArray();
  for (double s : run.setup_s) setup.Append(s);
  out.Set("setup_s", std::move(setup));
  Json setup_cpu = Json::MakeArray();
  for (double s : run.setup_cpu_s) setup_cpu.Append(s);
  out.Set("setup_cpu_s", std::move(setup_cpu));
  out.Set("samples", std::move(run.op_samples));
  out.Set("wall_s", run.wall_s);
  out.Set("cpu_s", run.cpu_s);
  out.Set("commits", run.commits);
  out.Set("attempted", run.attempted);
  out.Set("failed", run.failed);
  out.Set("failures", std::move(run.failures));
  Json counters = Json::MakeObject();
  for (const auto& [name, value] : run.counters) counters.Set(name, value);
  out.Set("counters", std::move(counters));
  out.Set("extra", std::move(run.extra));
  out.Set("oracles", std::move(run.oracles));
  out.Set("peak_rss_mb", PeakRssMb());
  Json reference = Json::MakeArray();
  for (double v : run.reference_cpu_s) reference.Append(v);
  out.Set("reference_unit_cpu_s", std::move(reference));
  Json reference_sync = Json::MakeArray();
  for (double v : run.reference_sync_s) reference_sync.Append(v);
  out.Set("reference_sync_s", std::move(reference_sync));
  out.Set("reference_checksum", run.reference_sink);
  if (run.trace) {
    out.Set("spans", g_tracer.ToJson());
    out.Set("op_counters", std::move(run.op_counters));
    out.Set("probes", std::move(run.probes));
  }
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}
