#include "pivot/support/fault_injector.h"

#include <algorithm>

namespace pivot {

FaultInjector& FaultInjector::Instance() {
  static FaultInjector instance;
  return instance;
}

bool FaultInjector::ArmedLocked() const {
  return !scripted_.empty() || !transient_.empty() || any_countdown_ > 0 ||
         probability_ > 0.0;
}

void FaultInjector::Arm(const std::string& point, int countdown) {
  PIVOT_CHECK_MSG(countdown >= 1, "countdown must be at least 1");
  std::lock_guard<std::mutex> lock(mu_);
  scripted_[point] = countdown;
  active_.store(true, std::memory_order_relaxed);
}

void FaultInjector::ArmNthCrossing(int countdown) {
  PIVOT_CHECK_MSG(countdown >= 1, "countdown must be at least 1");
  std::lock_guard<std::mutex> lock(mu_);
  any_countdown_ = countdown;
  active_.store(true, std::memory_order_relaxed);
}

void FaultInjector::ArmProbabilistic(double probability,
                                     std::uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  probability_ = std::clamp(probability, 0.0, 1.0);
  rng_ = Rng(seed);
  active_.store(ArmedLocked() || observing_, std::memory_order_relaxed);
}

void FaultInjector::ArmTransient(const std::string& point, int failures) {
  PIVOT_CHECK_MSG(failures >= 1, "failure count must be at least 1");
  std::lock_guard<std::mutex> lock(mu_);
  transient_[point] = failures;
  active_.store(true, std::memory_order_relaxed);
}

bool FaultInjector::FailTransient(const char* point) {
  if (!active_.load(std::memory_order_relaxed)) return false;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = transient_.find(point);
  if (it == transient_.end()) return false;
  if (--it->second <= 0) transient_.erase(it);
  ++transient_injected_;
  active_.store(ArmedLocked() || observing_, std::memory_order_relaxed);
  return true;
}

void FaultInjector::Disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  scripted_.clear();
  transient_.clear();
  any_countdown_ = 0;
  probability_ = 0.0;
  active_.store(observing_, std::memory_order_relaxed);
}

void FaultInjector::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  scripted_.clear();
  transient_.clear();
  any_countdown_ = 0;
  probability_ = 0.0;
  crossings_ = 0;
  faults_fired_ = 0;
  transient_injected_ = 0;
  observed_.clear();
  observing_ = false;
  active_.store(false, std::memory_order_relaxed);
}

bool FaultInjector::armed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ArmedLocked();
}

void FaultInjector::StartObserving() {
  std::lock_guard<std::mutex> lock(mu_);
  observing_ = true;
  active_.store(true, std::memory_order_relaxed);
}

void FaultInjector::StopObserving() {
  std::lock_guard<std::mutex> lock(mu_);
  observing_ = false;
  active_.store(ArmedLocked(), std::memory_order_relaxed);
}

const std::vector<std::string>& FaultInjector::KnownPoints() {
  static const std::vector<std::string> points = {
      "journal.delete.pre",        "journal.delete.post",
      "journal.copy.pre",          "journal.copy.post",
      "journal.move.pre",          "journal.move.post",
      "journal.add.pre",           "journal.add.post",
      "journal.modify.pre",        "journal.modify.post",
      "journal.modify_header.pre", "journal.modify_header.post",
      "journal.invert.pre",        "journal.invert.post",
      "analysis.rebuild.pre",      "undo.affecting.recurse",
      "undo.region.pre",           "undo.cascade.recurse",
      // Durable journal crash points. The .header.post/.mid/.post triple
      // sits between the write() calls of one frame (genuine torn frames);
      // .fsync.post models a crash after the frame is durable but before
      // the in-memory commit is acknowledged.
      "persist.genesis.pre",          "persist.genesis.header.post",
      "persist.genesis.mid",          "persist.genesis.post",
      "persist.genesis.fsync.post",   "persist.txn.pre",
      "persist.txn.header.post",      "persist.txn.mid",
      "persist.txn.post",             "persist.txn.fsync.post",
      "persist.commit.ack.pre",       "persist.snapshot.pre",
      "persist.snapshot.header.post", "persist.snapshot.mid",
      "persist.snapshot.post",        "persist.snapshot.fsync.post",
      "persist.recover.truncate.pre",
      // WalWriter::Create has synced a new journal's directory entry.
      "persist.create.dir.synced",
      // Checkpoint (journal rewrite) crash points. The tmp-file frames
      // (.genesis/.snapshot triples) tear the rewrite before the rename
      // commit point; .rename.pre/.post straddle it. Crash anywhere must
      // leave either the complete old journal or the complete new one.
      "persist.compact.pre",
      "persist.compact.genesis.header.post", "persist.compact.genesis.mid",
      "persist.compact.genesis.post",        "persist.compact.snapshot.header.post",
      "persist.compact.snapshot.mid",        "persist.compact.snapshot.post",
      "persist.compact.tmp.synced",
      "persist.compact.rename.pre",          "persist.compact.rename.post",
      // Server crash points. A session's WAL frames cross the persist.*
      // points above (its DurableJournal appends without syncing; the
      // group-commit worker syncs), so only the server's own steps are
      // listed here: enqueue.pre sits between the session append and the
      // group-commit enqueue; batch.pre is the worker taking a batch whose
      // frames are written but not yet synced; group.sync.post models a
      // crash after the batch's sync but before any waiting client is
      // acknowledged; ack.pre sits between two acknowledgements.
      "server.commit.enqueue.pre",
      "server.batch.pre",
      "server.group.sync.post",
      "server.ack.pre",
      // Session eviction (passivation/reactivation) crash points. The
      // Checkpoint crosses persist.compact.*; evict.pre precedes it;
      // release.pre sits between the durable rename and the stub
      // publication; stub.post is the fully passivated state;
      // reactivate.pre/.post straddle the Session::Recover + reattach of
      // the next request.
      "server.evict.pre",
      "server.evict.release.pre",
      "server.evict.stub.post",
      "server.evict.reactivate.pre",
      "server.evict.reactivate.post",
  };
  return points;
}

void FaultInjector::Hit(const char* point) {
  if (!active_.load(std::memory_order_relaxed)) return;
  bool fire = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++crossings_;
    if (observing_) {
      if (std::find(observed_.begin(), observed_.end(), point) ==
          observed_.end()) {
        observed_.emplace_back(point);
      }
    }

    if (any_countdown_ > 0 && --any_countdown_ == 0) fire = true;
    auto it = scripted_.find(point);
    if (it != scripted_.end() && --it->second == 0) {
      scripted_.erase(it);
      fire = true;
    }
    if (!fire && probability_ > 0.0 && rng_.Chance(probability_)) fire = true;
    if (fire) {
      ++faults_fired_;
      active_.store(ArmedLocked() || observing_, std::memory_order_relaxed);
    }
  }
  if (fire) throw FaultInjectedError(point);
}

}  // namespace pivot
