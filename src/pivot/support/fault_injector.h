// Systematic fault injection for the transactional apply/undo paths.
//
// The mutation pipeline is instrumented with named *fault points*
// (PIVOT_FAULT_POINT), each placed at a boundary where the session state is
// internally consistent: the five primitive journal actions
// ("journal.move.pre" / "journal.move.post", ...), inverse-action
// performance ("journal.invert.pre" / ".post"), analysis re-derivation
// ("analysis.rebuild.pre") and the recursive undo cascade
// ("undo.affecting.recurse", "undo.cascade.recurse", "undo.region.pre").
//
// Tests arm the process-wide injector so that crossing a fault point throws
// FaultInjectedError, which the session's transaction layer must absorb by
// rolling back to the last consistent boundary. Two arming modes:
//   * scripted   — fire at the Nth upcoming crossing (of one named point,
//                  or of any point), then disarm; iterating N over every
//                  crossing of an operation exhaustively walks its failure
//                  surface;
//   * probabilistic — every crossing fires with probability p, driven by a
//                  seeded deterministic RNG (soak testing).
// Crossings are counted and (optionally) recorded per point id, so a test
// can assert which fault points an operation actually traverses.
#ifndef PIVOT_SUPPORT_FAULT_INJECTOR_H_
#define PIVOT_SUPPORT_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "pivot/support/diagnostics.h"
#include "pivot/support/rng.h"

namespace pivot {

// Thrown when an armed fault point fires. Derives from ProgramError so the
// surrounding recovery behaviour matches any other mid-operation failure.
class FaultInjectedError : public ProgramError {
 public:
  explicit FaultInjectedError(std::string point)
      : ProgramError("injected fault at " + point), point_(std::move(point)) {}

  const std::string& point() const { return point_; }

 private:
  std::string point_;
};

class FaultInjector {
 public:
  // The process-wide instance every PIVOT_FAULT_POINT reports to.
  static FaultInjector& Instance();

  // --- arming ---
  // Fire at the `countdown`-th upcoming crossing of `point` (1 = the next
  // one), then disarm that script.
  void Arm(const std::string& point, int countdown = 1);

  // Fire at the `countdown`-th upcoming crossing of *any* fault point,
  // then disarm. Iterating countdown = 1, 2, 3, ... until an operation
  // completes un-faulted visits every crossing of that operation.
  void ArmNthCrossing(int countdown);

  // Every crossing fires with probability `probability`, deterministically
  // from `seed`. Stays armed until Disarm/Reset.
  void ArmProbabilistic(double probability, std::uint64_t seed);

  // --- transient faults (retryable I/O failures) ---
  // Make the next `failures` consultations of FailTransient(point) report a
  // failure, then auto-disarm. Unlike the crash scripts above these never
  // throw: the instrumented call site (the WAL's write/fsync retry loop)
  // decides whether to retry or to give up, which is exactly the behaviour
  // under test. Arming more failures than the site's retry budget models a
  // *permanent* fault.
  void ArmTransient(const std::string& point, int failures);

  // Consulted by retryable I/O sites before each attempt; true = fail this
  // attempt (the site simulates errno = EINTR). Never throws.
  bool FailTransient(const char* point);

  void Disarm();  // drop all scripts, transient arms, probabilistic mode
  void Reset();   // Disarm + clear counters and observations

  bool armed() const;

  // --- observation ---
  // When observing, every crossing's point id is recorded (first-crossing
  // order, deduplicated). Cheap enough for tests; off by default.
  void StartObserving();
  void StopObserving();
  const std::vector<std::string>& observed_points() const {
    return observed_;
  }

  std::uint64_t crossings() const { return crossings_; }
  std::uint64_t faults_fired() const { return faults_fired_; }
  std::uint64_t transient_failures_injected() const {
    return transient_injected_;
  }

  // Every fault point compiled into the library, for coverage assertions.
  static const std::vector<std::string>& KnownPoints();

  // The instrumentation hook; throws FaultInjectedError when armed and the
  // script / dice say so. Use via PIVOT_FAULT_POINT.
  void Hit(const char* point);

 private:
  FaultInjector() = default;
  bool ArmedLocked() const;

  // The server crosses fault points from many threads at once (connection
  // threads, the group-commit worker), so the injector is thread-safe: the
  // idle fast path is one relaxed atomic load, everything else is under
  // mu_.
  mutable std::mutex mu_;
  std::atomic<bool> active_{false};  // any script, transient, prob., observing
  bool observing_ = false;
  std::unordered_map<std::string, int> scripted_;  // point -> countdown
  std::unordered_map<std::string, int> transient_;  // point -> failures left
  int any_countdown_ = 0;                          // 0 = off
  double probability_ = 0.0;
  Rng rng_;
  // Written under mu_ but read without it (the undo engine samples
  // crossings() around every undo, the server reports the transient count
  // in its stats), so atomic.
  std::atomic<std::uint64_t> crossings_{0};
  std::atomic<std::uint64_t> faults_fired_{0};
  std::atomic<std::uint64_t> transient_injected_{0};
  std::vector<std::string> observed_;
};

}  // namespace pivot

// Crossing a fault point costs one predicted branch when the injector is
// idle, so the instrumentation can sit on the journal's hot paths.
#define PIVOT_FAULT_POINT(point) ::pivot::FaultInjector::Instance().Hit(point)

#endif  // PIVOT_SUPPORT_FAULT_INJECTOR_H_
