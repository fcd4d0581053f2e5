// The hardened multi-session PIVOT server.
//
// PivotServer hosts many concurrent Sessions, each durably journaled to a
// per-session WAL under `data_dir`, with commits funneled through one
// group-commit worker (see server/group_commit.h) so that N concurrent
// committers pay one sync, not N. Robustness is the point:
//
//   * admission control — a global in-flight bound and a per-session
//     in-flight bound; past either the request is rejected immediately
//     with kOverloaded (retryable), it is never queued unboundedly;
//   * deadlines — a request may carry deadline_ms; the server checks it at
//     admission, after acquiring the session lock, and just before the
//     group-commit enqueue (the point of no return). Past the deadline the
//     request fails with kDeadlineExceeded instead of burning a slot;
//   * graceful degradation — a permanent write fault (transient retries
//     exhausted; see persist/wal.h) flips the server into kDegraded:
//     reads (source/history/canundo/stats/ping) keep being served, every
//     commit is refused with kDegraded and a typed error. Nothing crashes;
//   * graceful drain — Drain() stops admissions (kShuttingDown,
//     retryable), waits for in-flight requests, and syncs every queued
//     commit. The SIGTERM half of tools/pivot_serve;
//   * session lifecycle — a byte-accounted LRU of resident sessions with
//     a configurable memory budget and idle-age passivation: eviction
//     appends one final durable snapshot, releases the Session and its
//     journal, and compacts the WAL, keeping only a stub (the name); the
//     next request reactivates the session transparently through
//     Session::Recover (see server/lifecycle.h).
//
// Durability contract (crash-swept in tests/server_crash_test.cc): each
// session is journaled by a persist DurableJournal whose ack is the
// group-commit worker — the journal appends WITHOUT syncing, the worker's
// sync of the batch (fdatasync of the one file, or one syncfs of the data
// dir) is the only durability point, and a commit is acknowledged only
// after it. The session WALs are the only log, so recovery is plain
// Session::Recover of the file. A frame the worker refuses (overload,
// deadline, a failed sync) is rolled back off the session WAL, so the
// session stays usable; a permanent session-WAL write fault degrades the
// server (see the failure policy in persist/durable.h). A crash can leave
// at most one frame per session written but never acknowledged (its
// in-flight operation); recovery keeps it when it is whole.
//
// Older builds also kept a shared `server.gwal`, the group log. A data dir
// that still holds one is refused at construction: a power loss before
// the upgrade may have left acknowledged commits only in that file.
#ifndef PIVOT_SERVER_SERVER_H_
#define PIVOT_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "pivot/core/session.h"
#include "pivot/persist/durable.h"
#include "pivot/persist/filelock.h"
#include "pivot/server/group_commit.h"
#include "pivot/server/lifecycle.h"
#include "pivot/server/protocol.h"

namespace pivot {

struct ServerOptions {
  // Directory holding one `<session>.wal` per session (and a `server.lock`
  // held while a server owns it). Created if missing.
  std::string data_dir;
  // Options for every hosted session (genesis options are per-session and
  // persisted; this is the template for kOpen).
  SessionOptions session;
  // Per-session snapshot policy, as PersistOptions::snapshot_interval.
  int snapshot_interval = 64;
  GroupCommitOptions commit;
  // Admission control: hard bound on requests executing at once across the
  // server / within one session. Past either: kOverloaded, retryable.
  int max_inflight = 256;
  int session_inflight = 8;
  // Admit the test-only ops (kSleep) — tools keep this off.
  bool enable_test_ops = false;
  // Session lifecycle: memory budget, idle passivation, reactivation (see
  // server/lifecycle.h). Default: everything resident forever.
  LifecycleOptions lifecycle;
};

enum class ServerMode {
  kServing,
  kDegraded,  // permanent write fault: reads only, commits refused
  kDraining,  // Drain() in progress: everything refused, retryable
  kStopped,   // drained
  kCrashed,   // crash-harness fault fired: everything refused
};

const char* ServerModeName(ServerMode mode);

struct ServerStats {
  std::uint64_t requests = 0;
  std::uint64_t commits = 0;
  std::uint64_t rejected_overload = 0;
  std::uint64_t rejected_deadline = 0;
  std::uint64_t rejected_degraded = 0;
  std::uint64_t transient_absorbed = 0;  // FaultInjector transient count
  std::uint64_t passivations = 0;        // sessions evicted to their WAL
  std::uint64_t reactivations = 0;       // passivated sessions recovered
  std::uint64_t read_timeouts = 0;       // connections cut for slow reads
  std::uint64_t resident_sessions = 0;   // sessions currently in memory
  std::uint64_t resident_bytes = 0;      // their estimated footprint
  ServerMode mode = ServerMode::kServing;
  // Why the server degraded: the first fault's reason, empty while it
  // has not.
  std::string degraded_reason;
  GroupCommitStats group;
};

// Per-connection read deadlines for ServeConnection (network transports).
// idle bounds the wait for a request's first byte; frame bounds the time
// from first byte to complete message — the slowloris guard. 0 = no bound.
struct ConnectionLimits {
  int idle_timeout_ms = 0;
  int frame_timeout_ms = 0;
};

class PivotServer {
 public:
  // Opens (or creates) the data directory and locks it. Throws
  // ProgramError when another server holds it, or when it holds an older
  // build's `server.gwal` (see the durability contract above).
  explicit PivotServer(ServerOptions options);
  ~PivotServer();
  PivotServer(const PivotServer&) = delete;
  PivotServer& operator=(const PivotServer&) = delete;

  // Executes one request against the hosted sessions; never throws for
  // protocol-level failures — they come back as typed Response statuses.
  // FaultInjectedError (the crash harness) does propagate, after flipping
  // the server into kCrashed.
  Response Execute(const Request& req);

  // Serves length-prefixed request/response messages on `fd` until EOF or
  // a transport error. Does not close the fd. With limits, a client that
  // idles past idle_timeout_ms or dribbles a message slower than
  // frame_timeout_ms is disconnected (counted in stats().read_timeouts).
  void ServeConnection(int fd);
  void ServeConnection(int fd, const ConnectionLimits& limits);

  // Stops admissions, waits for in-flight requests, syncs every queued
  // commit. Idempotent.
  void Drain();

  ServerMode mode() const { return mode_.load(std::memory_order_acquire); }
  ServerStats stats() const;

  // A session's WAL (tests poke at the files directly).
  std::string SessionWalPath(const std::string& name) const;

 private:
  struct Hosted;

  std::shared_ptr<Hosted> FindSession(const std::string& name);
  // Reserve a session name with a still-initializing entry / roll the
  // reservation back (see the definitions for the locking story).
  bool PublishInitializing(const std::shared_ptr<Hosted>& hosted,
                           std::unique_lock<std::timed_mutex>& init);
  void Unpublish(const std::shared_ptr<Hosted>& hosted);
  Response Dispatch(const Request& req, std::chrono::steady_clock::time_point
                                            deadline);
  // A session journal's ack: block until the group-commit worker has
  // synced the journal's file (see the definition).
  JournalAck GroupAck();
  Response DoOpen(const Request& req);
  Response DoRecover(const Request& req);
  // Passivation: final durable snapshot, release Session + journal, keep a
  // stub. Caller holds hosted->mu and has verified the session is live.
  // Returns false when the WAL could not be made durable (the session
  // stays resident; the server degrades).
  bool PassivateLocked(const std::shared_ptr<Hosted>& hosted);
  // Reactivation through Session::Recover + journal reattach. Caller holds
  // hosted->mu on a passivated stub; throws on failure (the stub survives
  // for a later retry).
  void ReactivateLocked(const std::shared_ptr<Hosted>& hosted);
  // Budget enforcement: passivate LRU sessions until resident bytes/count
  // fit the lifecycle options. Called with no session lock held; at most
  // one enforcement pass runs at a time.
  void MaybePassivate();
  // Refreshes the LRU entry (and byte estimate) for a live session the
  // current request just used. Caller holds hosted->mu.
  void TouchLru(const std::string& name, Session& session);
  // Idle sweep (LifecycleOptions::idle_passivate_ms): passivates sessions
  // untouched past the cutoff until asked to stop.
  void ReaperLoop();
  void StopReaper();
  // Flips the server into kDegraded (once) and keeps the first reason.
  void Degrade(const std::string& why);

  const ServerOptions options_;
  std::atomic<ServerMode> mode_{ServerMode::kServing};
  // Held for the server's lifetime: one server per data dir.
  FileLock dir_lock_;
  std::unique_ptr<GroupCommitter> group_;

  mutable std::mutex sessions_mu_;
  std::map<std::string, std::shared_ptr<Hosted>> sessions_;
  // Resident sessions by recency, with byte estimates (guarded by
  // sessions_mu_). Passivated stubs and closed sessions are not in it.
  SessionLru lru_;
  std::atomic<bool> passivating_{false};

  // Idle reaper (started only when idle_passivate_ms > 0).
  std::mutex reaper_mu_;
  std::condition_variable reaper_cv_;
  bool reaper_stop_ = false;  // guarded by reaper_mu_
  std::thread reaper_;

  std::atomic<int> inflight_{0};
  mutable std::mutex stats_mu_;
  ServerStats stats_;
};

}  // namespace pivot

#endif  // PIVOT_SERVER_SERVER_H_
