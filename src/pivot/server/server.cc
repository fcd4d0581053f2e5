#include "pivot/server/server.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>
#include <vector>

#include "pivot/ir/parser.h"
#include "pivot/persist/wire.h"
#include "pivot/support/fault_injector.h"

namespace pivot {
namespace {

using Clock = std::chrono::steady_clock;

constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

// The deadline of the request currently executing on this thread, visible
// to the commit path (the journal ack checks it just before the
// group-commit enqueue — the point of no return).
thread_local Clock::time_point t_deadline = kNoDeadline;

struct DeadlineScope {
  explicit DeadlineScope(Clock::time_point deadline) {
    t_deadline = deadline;
  }
  ~DeadlineScope() { t_deadline = kNoDeadline; }
};

void CheckDeadline(const char* where) {
  if (t_deadline != kNoDeadline && Clock::now() >= t_deadline) {
    throw DeadlineExceededError(std::string("deadline exceeded ") + where);
  }
}

bool ReadOnlyOp(ServerOp op) {
  switch (op) {
    case ServerOp::kPing:
    case ServerOp::kCanUndo:
    case ServerOp::kSource:
    case ServerOp::kHistory:
    case ServerOp::kStats:
    case ServerOp::kSleep:
      return true;
    default:
      return false;
  }
}

Response Fail(StatusCode status, std::string error) {
  Response resp;
  resp.status = status;
  resp.retryable = StatusRetryable(status);
  resp.error = std::move(error);
  return resp;
}

bool ValidSessionName(const std::string& name) {
  if (name.empty() || name.size() > 128) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                    c == '.';
    if (!ok) return false;
  }
  return name != "." && name != "..";
}

}  // namespace

const char* ServerModeName(ServerMode mode) {
  switch (mode) {
    case ServerMode::kServing: return "serving";
    case ServerMode::kDegraded: return "degraded";
    case ServerMode::kDraining: return "draining";
    case ServerMode::kStopped: return "stopped";
    case ServerMode::kCrashed: return "crashed";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Hosted session bookkeeping
// ---------------------------------------------------------------------------

struct PivotServer::Hosted {
  std::string name;
  // Serializes operations on this session; timed so a deadline bounds the
  // wait for a busy session instead of queueing forever.
  std::timed_mutex mu;
  // Both null in a passivated stub. Guarded by mu.
  std::unique_ptr<Session> session;
  std::unique_ptr<DurableJournal> journal;
  std::atomic<int> inflight{0};
  bool closed = false;  // guarded by mu
};

namespace {

// Releases an admission slot (global or per-session) on scope exit.
struct SlotGuard {
  explicit SlotGuard(std::atomic<int>& counter) : counter_(&counter) {
    counter_->fetch_add(1, std::memory_order_acq_rel);
  }
  ~SlotGuard() { counter_->fetch_sub(1, std::memory_order_acq_rel); }
  int count() const { return counter_->load(std::memory_order_acquire); }
  std::atomic<int>* counter_;
};

}  // namespace

// ---------------------------------------------------------------------------
// PivotServer
// ---------------------------------------------------------------------------

namespace {

// Creates the data dir if needed and returns the lock that makes this
// server its only owner.
FileLock LockDataDir(const std::string& dir) {
  PIVOT_CHECK_MSG(!dir.empty(), "server needs a data_dir");
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    throw ProgramError("server: cannot create data dir " + dir + ": " +
                       std::strerror(errno));
  }
  try {
    return FileLock::Acquire(dir + "/server");
  } catch (const ProgramError& e) {
    throw ProgramError("server: data dir " + dir +
                       " is held by another server: " + e.what());
  }
}

}  // namespace

PivotServer::PivotServer(ServerOptions options)
    : options_(std::move(options)), dir_lock_(LockDataDir(options_.data_dir)) {
  // Older builds made commits durable in a shared group log and only
  // copied them into the session files lazily; after a power loss that
  // file may be the only copy of acknowledged commits, and this build
  // cannot read it.
  const std::string gwal = options_.data_dir + "/server.gwal";
  if (::access(gwal.c_str(), F_OK) == 0) {
    throw ProgramError(
        "server: " + gwal + " is the group log of an older build, which "
        "may hold acknowledged commits the session journals lack; recover "
        "every session with that build, then remove the file");
  }
  group_ = std::make_unique<GroupCommitter>(
      options_.data_dir, options_.commit,
      [this](GroupCommitter::Failure failure, const std::string& reason) {
        if (failure == GroupCommitter::Failure::kCrashed) {
          mode_.store(ServerMode::kCrashed, std::memory_order_release);
        } else {
          Degrade(reason);
        }
      });
  if (options_.lifecycle.idle_passivate_ms > 0) {
    reaper_ = std::thread([this] { ReaperLoop(); });
  }
}

PivotServer::~PivotServer() {
  StopReaper();
  const ServerMode m = mode();
  if (m != ServerMode::kCrashed && m != ServerMode::kStopped) {
    try {
      Drain();
    } catch (...) {
    }
  }
  // Sessions (and their journals) die before group_ — member order.
}

std::string PivotServer::SessionWalPath(const std::string& name) const {
  return options_.data_dir + "/" + name + ".wal";
}

void PivotServer::Degrade(const std::string& why) {
  ServerMode expected = ServerMode::kServing;
  if (mode_.compare_exchange_strong(expected, ServerMode::kDegraded,
                                    std::memory_order_acq_rel)) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.mode = ServerMode::kDegraded;
    stats_.degraded_reason = why;
  }
}

ServerStats PivotServer::stats() const {
  ServerStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    out = stats_;
  }
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    out.resident_sessions = lru_.size();
    out.resident_bytes = lru_.total_bytes();
  }
  out.mode = mode();
  out.group = group_->stats();
  out.transient_absorbed =
      FaultInjector::Instance().transient_failures_injected();
  return out;
}

std::shared_ptr<PivotServer::Hosted> PivotServer::FindSession(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(name);
  return it == sessions_.end() ? nullptr : it->second;
}

Response PivotServer::Execute(const Request& req) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.requests;
  }

  const ServerMode m = mode();
  if (req.op == ServerOp::kPing) {
    Response resp;
    resp.status = m == ServerMode::kCrashed ? StatusCode::kCrashed
                                            : StatusCode::kOk;
    resp.text = ServerModeName(m);
    return resp;
  }
  if (m == ServerMode::kCrashed) {
    return Fail(StatusCode::kCrashed,
                "server crashed (injected fault); restart and recover");
  }
  if (req.op == ServerOp::kShutdown) {
    Drain();
    Response resp;
    resp.text = "drained";
    return resp;
  }
  if (req.op == ServerOp::kStats) {
    const ServerStats s = stats();
    std::ostringstream os;
    os << "mode=" << ServerModeName(s.mode) << " requests=" << s.requests
       << " commits=" << s.commits << " frames=" << s.group.frames
       << " batches=" << s.group.batches << " fsyncs=" << s.group.fsyncs
       << " max_batch=" << s.group.max_batch
       << " rejected_overload=" << s.rejected_overload
       << " rejected_deadline=" << s.rejected_deadline
       << " rejected_degraded=" << s.rejected_degraded
       << " transient_absorbed=" << s.transient_absorbed
       << " passivations=" << s.passivations
       << " reactivations=" << s.reactivations
       << " resident=" << s.resident_sessions
       << " resident_bytes=" << s.resident_bytes
       << " read_timeouts=" << s.read_timeouts
       // Last: the reason is free text and runs to the end of the line.
       << " degraded_reason=" << s.degraded_reason;
    Response resp;
    resp.value = s.commits;
    resp.text = os.str();
    return resp;
  }
  if (m == ServerMode::kDraining || m == ServerMode::kStopped) {
    return Fail(StatusCode::kShuttingDown, "server is shutting down");
  }
  if (m == ServerMode::kDegraded && !ReadOnlyOp(req.op)) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.rejected_degraded;
    return Fail(StatusCode::kDegraded,
                "server is degraded after a write fault: read-only");
  }

  // Global admission: bounded concurrency, immediate retryable rejection
  // past the bound — load sheds instead of queueing without limit.
  SlotGuard global(inflight_);
  if (global.count() > options_.max_inflight) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.rejected_overload;
    return Fail(StatusCode::kOverloaded,
                "server at max_inflight=" +
                    std::to_string(options_.max_inflight));
  }

  const Clock::time_point deadline =
      req.deadline_ms == 0
          ? kNoDeadline
          : Clock::now() + std::chrono::milliseconds(req.deadline_ms);
  DeadlineScope scope(deadline);

  try {
    CheckDeadline("at admission");
    Response resp = Dispatch(req, deadline);
    // No session lock is held here (Dispatch released everything), which
    // is what budget enforcement requires.
    MaybePassivate();
    return resp;
  } catch (const FaultInjectedError&) {
    mode_.store(ServerMode::kCrashed, std::memory_order_release);
    throw;  // the crash harness owns this one
  } catch (const DeadlineExceededError& e) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.rejected_deadline;
    return Fail(StatusCode::kDeadlineExceeded, e.what());
  } catch (const ServerOverloadedError& e) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.rejected_overload;
    return Fail(StatusCode::kOverloaded, e.what());
  } catch (const JournalWriteError& e) {
    Degrade(std::string("session ") + e.what());
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.rejected_degraded;
    return Fail(StatusCode::kDegraded, e.what());
  } catch (const ServerShuttingDownError& e) {
    // The commit raced Drain(): not a fault, retry after restart.
    return Fail(StatusCode::kShuttingDown, e.what());
  } catch (const ServerDegradedError& e) {
    // The group commit already flipped the server via on_failure.
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.rejected_degraded;
    return Fail(StatusCode::kDegraded, e.what());
  } catch (const ProgramError& e) {
    return Fail(StatusCode::kPrecondition, e.what());
  } catch (const InternalError& e) {
    // An invariant check tripped by a hostile argument (e.g. undoing a
    // stamp that never existed). The transaction guard has already rolled
    // the session back; the request fails, the server does not.
    return Fail(StatusCode::kPrecondition, e.what());
  }
}

Response PivotServer::Dispatch(const Request& req,
                               Clock::time_point deadline) {
  // Hostile session names (empty, oversized, path separators, "..") are
  // rejected at admission, before any code path could turn them into a
  // filesystem path. kPrecondition, not kBadRequest: the request itself is
  // well-formed, the name just cannot ever denote a session.
  const bool takes_session = req.op != ServerOp::kRetiredCompact &&
                             !(req.op == ServerOp::kSleep &&
                               req.session.empty());
  if (takes_session && !ValidSessionName(req.session)) {
    return Fail(StatusCode::kPrecondition,
                "invalid session name '" + req.session + "'");
  }

  switch (req.op) {
    case ServerOp::kOpen:
      return DoOpen(req);
    case ServerOp::kRecover:
      return DoRecover(req);
    case ServerOp::kRetiredCompact:
      return Fail(StatusCode::kBadRequest,
                  "op 'compact' was retired: the server keeps no group log "
                  "to compact");
    default:
      break;
  }

  if (req.op == ServerOp::kSleep) {
    if (!options_.enable_test_ops) {
      return Fail(StatusCode::kBadRequest, "test ops are disabled");
    }
    if (req.session.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(req.sleep_ms));
      return Response{};
    }
    // With a session: fall through and sleep while holding its lock, the
    // contention generator for deadline/overload tests.
  }

  std::shared_ptr<Hosted> hosted = FindSession(req.session);
  if (hosted == nullptr) {
    return Fail(StatusCode::kNoSuchSession,
                "no open session '" + req.session + "'");
  }

  // Per-session admission, before blocking on the session lock.
  SlotGuard slot(hosted->inflight);
  if (slot.count() > options_.session_inflight) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.rejected_overload;
    return Fail(StatusCode::kOverloaded,
                "session '" + req.session + "' at session_inflight=" +
                    std::to_string(options_.session_inflight));
  }

  std::unique_lock<std::timed_mutex> lock(hosted->mu, std::defer_lock);
  if (deadline == kNoDeadline) {
    lock.lock();
  } else if (!lock.try_lock_until(deadline)) {
    throw DeadlineExceededError("deadline exceeded waiting for session '" +
                                req.session + "'");
  }
  if (hosted->closed) {
    return Fail(StatusCode::kNoSuchSession,
                "session '" + req.session + "' is closed");
  }
  CheckDeadline("after acquiring the session");

  // A passivated stub: the Session lives only in its WAL. Closing needs no
  // reactivation (the file IS the state); everything else recovers it
  // transparently before proceeding.
  if (hosted->session == nullptr && req.op != ServerOp::kClose) {
    ReactivateLocked(hosted);  // throws on failure; the stub survives
  }

  Response resp;
  if (req.op == ServerOp::kClose) {
    hosted->closed = true;
    hosted->journal.reset();  // detaches the listener, releases the flock
    hosted->session.reset();
    std::lock_guard<std::mutex> sessions_lock(sessions_mu_);
    sessions_.erase(req.session);
    lru_.Remove(req.session);
    resp.text = "closed";
    return resp;
  }

  Session& session = *hosted->session;
  switch (req.op) {
    case ServerOp::kApply: {
      if (req.kind < 0 || req.kind >= kNumTransformKinds) {
        return Fail(StatusCode::kBadRequest,
                    "transform kind out of range: " +
                        std::to_string(req.kind));
      }
      const TransformKind kind = TransformKindFromIndex(req.kind);
      const std::vector<Opportunity> ops = session.FindOpportunities(kind);
      if (req.op_index >= ops.size()) {
        return Fail(StatusCode::kPrecondition,
                    std::string(TransformKindName(kind)) + " has " +
                        std::to_string(ops.size()) +
                        " opportunities; index " +
                        std::to_string(req.op_index) + " does not exist");
      }
      resp.stamp = session.Apply(ops[req.op_index]);
      break;
    }
    case ServerOp::kTxn: {
      TxnDescriptor desc;
      try {
        desc = DecodeTxn(req.txn_body).desc;  // request digest is ignored
      } catch (const ProgramError& e) {
        return Fail(StatusCode::kBadRequest,
                    std::string("bad txn body: ") + e.what());
      }
      ReplayTxn(session, desc);
      resp.stamp = desc.result_stamp;
      break;
    }
    case ServerOp::kUndo: {
      if (req.stamps.size() != 1) {
        return Fail(StatusCode::kBadRequest, "undo takes exactly one stamp");
      }
      const UndoStats stats = session.Undo(req.stamps[0]);
      resp.value = static_cast<std::uint64_t>(stats.transforms_undone);
      break;
    }
    case ServerOp::kUndoSet: {
      std::vector<OrderStamp> undone;
      const UndoStats stats = session.UndoSet(req.stamps, &undone);
      resp.value = static_cast<std::uint64_t>(stats.transforms_undone);
      std::ostringstream os;
      for (std::size_t i = 0; i < undone.size(); ++i) {
        if (i != 0) os << " ";
        os << undone[i];
      }
      resp.text = os.str();
      break;
    }
    case ServerOp::kUndoLast:
      resp.stamp = session.UndoLast();
      break;
    case ServerOp::kCanUndo: {
      if (req.stamps.size() != 1) {
        return Fail(StatusCode::kBadRequest,
                    "canundo takes exactly one stamp");
      }
      std::string reason;
      resp.value = session.CanUndo(req.stamps[0], &reason) ? 1 : 0;
      resp.text = reason;
      break;
    }
    case ServerOp::kSource:
      resp.text = session.Source();
      break;
    case ServerOp::kHistory:
      resp.text = session.HistoryToString();
      break;
    case ServerOp::kSleep:
      std::this_thread::sleep_for(std::chrono::milliseconds(req.sleep_ms));
      break;
    default:
      return Fail(StatusCode::kBadRequest,
                  std::string("op '") + ServerOpName(req.op) +
                      "' is not valid here");
  }

  if (!ReadOnlyOp(req.op) && req.op != ServerOp::kClose) {
    // A snapshot write fault after the commit left the commit standing
    // (the client gets its result) but poisoned the journal: the disk is
    // failing, go read-only now rather than at the next commit.
    if (hosted->journal->broken()) Degrade("session snapshot write fault");
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.commits;
  }
  // Any use — reads included — refreshes the session's recency and byte
  // estimate for the eviction policy.
  TouchLru(req.session, session);
  return resp;
}

// The journal appends without syncing, and this ack blocks until the
// group-commit worker's sync covering the frame returns — the
// acknowledgement point of the whole server.
JournalAck PivotServer::GroupAck() {
  return [this](FrameType, WalWriter& writer) {
    // Last exit before work that cannot be abandoned: past this point the
    // frame is made durable even if the client has given up on it.
    CheckDeadline("before the commit was journaled");
    PIVOT_FAULT_POINT("server.commit.enqueue.pre");
    group_->Commit(writer);
  };
}

// Publishes a still-empty Hosted entry for `name` under sessions_mu_,
// with its session mutex pre-locked by `init`, or returns false when the
// name is already taken. The entry reserves the name so two opens (or an
// open racing a recover) cannot both initialize it, while the expensive
// part — journal creation or recovery, which blocks on a group-commit
// sync or a replay — runs OUTSIDE sessions_mu_: FindSession takes that
// mutex on every request, and one slow open must not stall traffic to
// every other session. Requests that race the open find the entry and
// block on its mutex until initialization finishes (or fails and the entry
// is unpublished with closed=true).
bool PivotServer::PublishInitializing(
    const std::shared_ptr<Hosted>& hosted,
    std::unique_lock<std::timed_mutex>& init) {
  init = std::unique_lock<std::timed_mutex>(hosted->mu);
  std::lock_guard<std::mutex> lock(sessions_mu_);
  if (sessions_.count(hosted->name) != 0) return false;
  sessions_.emplace(hosted->name, hosted);
  return true;
}

void PivotServer::Unpublish(const std::shared_ptr<Hosted>& hosted) {
  hosted->closed = true;
  std::lock_guard<std::mutex> lock(sessions_mu_);
  sessions_.erase(hosted->name);
}

Response PivotServer::DoOpen(const Request& req) {
  // Dispatch already rejected hostile names at admission.
  auto hosted = std::make_shared<Hosted>();
  hosted->name = req.session;
  // Parse before touching any shared state: a bad program never reserves
  // the name.
  hosted->session =
      std::make_unique<Session>(Parse(req.source), options_.session);
  std::unique_lock<std::timed_mutex> init;
  if (!PublishInitializing(hosted, init)) {
    return Fail(StatusCode::kSessionExists,
                "session '" + req.session + "' is already open");
  }
  const std::string path = SessionWalPath(req.session);
  try {
    if (::access(path.c_str(), F_OK) == 0) {
      Unpublish(hosted);
      return Fail(StatusCode::kSessionExists,
                  "journal " + path + " already exists; use recover");
    }
    hosted->journal = DurableJournal::Create(
        *hosted->session, path,
        {.snapshot_interval = options_.snapshot_interval}, GroupAck());
  } catch (...) {
    Unpublish(hosted);
    throw;
  }
  TouchLru(req.session, *hosted->session);
  Response resp;
  resp.text = "open";
  return resp;
}

Response PivotServer::DoRecover(const Request& req) {
  auto hosted = std::make_shared<Hosted>();
  hosted->name = req.session;
  std::unique_lock<std::timed_mutex> init;
  if (!PublishInitializing(hosted, init)) {
    return Fail(StatusCode::kSessionExists,
                "session '" + req.session + "' is already open");
  }
  Response resp;
  try {
    const std::string path = SessionWalPath(req.session);
    if (::access(path.c_str(), F_OK) != 0) {
      throw ProgramError("no journal for session '" + req.session + "'");
    }
    RecoverResult recovered = RecoverSession(path);
    hosted->session = std::move(recovered.session);
    hosted->journal = DurableJournal::Reattach(
        *hosted->session, path, recovered.report,
        {.snapshot_interval = options_.snapshot_interval}, GroupAck());
    resp.value = recovered.report.txns_replayed;
    resp.text = recovered.report.ToString();
  } catch (...) {
    Unpublish(hosted);
    throw;
  }
  TouchLru(req.session, *hosted->session);
  return resp;
}

// ---------------------------------------------------------------------------
// Session lifecycle: passivation, reactivation, budget enforcement
// ---------------------------------------------------------------------------

// The eviction sequence, under hosted->mu:
//   1. final durable snapshot (or bare sync) — the file becomes the sole
//      authority for the session's state;
//   2. release the journal and the Session, leaving the stub;
//   3. rewrite the WAL down to genesis + snapshot + tail.
// A crash between any two steps is covered: the snapshot of step 1 is
// durable before anything is released, and the compaction of step 3 is
// atomic (tmp + rename) with stale tmps cleaned at reactivation.
bool PivotServer::PassivateLocked(const std::shared_ptr<Hosted>& hosted) {
  PIVOT_FAULT_POINT("server.evict.pre");
  try {
    hosted->journal->Checkpoint();
  } catch (const FaultInjectedError&) {
    throw;  // crash harness (callers flip kCrashed)
  } catch (const JournalWriteError& e) {
    // The WAL could not be made durable, so the Session must stay
    // resident — it is the only correct copy. The disk is failing;
    // degrade the server rather than retrying evictions forever.
    Degrade(std::string("passivation ") + e.what());
    return false;
  }
  PIVOT_FAULT_POINT("server.evict.release.pre");
  hosted->journal.reset();  // detaches the listener, releases the flock
  hosted->session.reset();
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    lru_.Remove(hosted->name);
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.passivations;
  }
  try {
    // The journal's flock was just released; re-acquire it for the rewrite
    // so no other process can race the rename.
    const std::string path = SessionWalPath(hosted->name);
    FileLock lock = FileLock::Acquire(path);
    CompactJournalFile(path);
  } catch (const FaultInjectedError&) {
    throw;  // crash harness
  } catch (...) {
    // Compaction is an optimization — the uncompacted file is valid and
    // reactivation does not depend on it.
  }
  PIVOT_FAULT_POINT("server.evict.stub.post");
  return true;
}

void PivotServer::ReactivateLocked(const std::shared_ptr<Hosted>& hosted) {
  PIVOT_FAULT_POINT("server.evict.reactivate.pre");
  const std::string path = SessionWalPath(hosted->name);
  RecoverResult recovered = RecoverSession(path);  // throws on failure
  hosted->session = std::move(recovered.session);
  try {
    hosted->journal = DurableJournal::Reattach(
        *hosted->session, path, recovered.report,
        {.snapshot_interval = options_.snapshot_interval}, GroupAck());
  } catch (...) {
    // Back to a stub (nothing was written); the next request retries the
    // recovery.
    hosted->session.reset();
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.reactivations;
  }
  TouchLru(hosted->name, *hosted->session);
  PIVOT_FAULT_POINT("server.evict.reactivate.post");
}

void PivotServer::TouchLru(const std::string& name, Session& session) {
  const std::uint64_t bytes = EstimateSessionBytes(session);
  std::lock_guard<std::mutex> lock(sessions_mu_);
  lru_.Touch(name, bytes, SessionLru::Clock::now());
}

void PivotServer::MaybePassivate() {
  const LifecycleOptions& lc = options_.lifecycle;
  if (lc.memory_budget_bytes == 0 && lc.max_resident == 0) return;
  if (mode() != ServerMode::kServing) return;
  // One enforcement pass at a time; concurrent requests simply skip (the
  // next request past the budget retries).
  bool expected = false;
  if (!passivating_.compare_exchange_strong(expected, true,
                                            std::memory_order_acq_rel)) {
    return;
  }
  struct Reset {
    std::atomic<bool>* flag;
    ~Reset() { flag->store(false, std::memory_order_release); }
  } reset{&passivating_};
  for (;;) {
    std::vector<std::string> victims;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      const bool over_bytes = lc.memory_budget_bytes > 0 &&
                              lru_.total_bytes() > lc.memory_budget_bytes;
      const bool over_count =
          lc.max_resident > 0 &&
          lru_.size() > static_cast<std::size_t>(lc.max_resident);
      if (!over_bytes && !over_count) return;
      victims = lru_.Victims(SessionLru::Clock::time_point::max(), 8);
    }
    if (victims.empty()) return;
    bool progressed = false;
    for (const std::string& name : victims) {
      std::shared_ptr<Hosted> hosted = FindSession(name);
      if (hosted == nullptr) {
        // Closed since the candidate list was taken; kClose already
        // removed it from the LRU.
        progressed = true;
        continue;
      }
      // try_lock, never block: a busy session is by definition not a good
      // eviction victim, and a committer parked on the group ticket holds
      // its lock for the whole sync wait.
      std::unique_lock<std::timed_mutex> lock(hosted->mu, std::try_to_lock);
      if (!lock.owns_lock()) continue;
      if (hosted->closed || hosted->session == nullptr) {
        std::lock_guard<std::mutex> sessions_lock(sessions_mu_);
        lru_.Remove(name);
        progressed = true;
        continue;
      }
      if (!PassivateLocked(hosted)) return;  // degraded; stop evicting
      progressed = true;
      // Re-check the budget before taking another victim: the batch was
      // sized for the worst case, not a license to drain it past the cap.
      break;
    }
    if (!progressed) return;  // every candidate busy; next request retries
  }
}

void PivotServer::ReaperLoop() {
  const auto interval = std::chrono::milliseconds(
      options_.lifecycle.reaper_interval_ms > 0
          ? options_.lifecycle.reaper_interval_ms
          : 100);
  std::unique_lock<std::mutex> lock(reaper_mu_);
  while (!reaper_stop_) {
    reaper_cv_.wait_for(lock, interval, [this] { return reaper_stop_; });
    if (reaper_stop_) break;
    lock.unlock();
    try {
      if (mode() == ServerMode::kServing) {
        const auto cutoff =
            SessionLru::Clock::now() -
            std::chrono::milliseconds(options_.lifecycle.idle_passivate_ms);
        std::vector<std::string> victims;
        {
          std::lock_guard<std::mutex> sessions_lock(sessions_mu_);
          victims = lru_.Victims(cutoff, 16);
        }
        for (const std::string& name : victims) {
          std::shared_ptr<Hosted> hosted = FindSession(name);
          if (hosted == nullptr) continue;
          std::unique_lock<std::timed_mutex> session_lock(hosted->mu,
                                                          std::try_to_lock);
          if (!session_lock.owns_lock()) continue;  // busy = not idle
          if (hosted->closed || hosted->session == nullptr) {
            std::lock_guard<std::mutex> sessions_lock(sessions_mu_);
            lru_.Remove(name);
            continue;
          }
          if (!PassivateLocked(hosted)) break;  // degraded; stop sweeping
        }
      }
    } catch (const FaultInjectedError&) {
      // Crash harness fired on the reaper thread: flip the server into
      // kCrashed (as Execute would) and let the thread die — the harness
      // restarts the whole process.
      mode_.store(ServerMode::kCrashed, std::memory_order_release);
      lock.lock();
      break;
    }
    lock.lock();
  }
}

void PivotServer::StopReaper() {
  {
    std::lock_guard<std::mutex> lock(reaper_mu_);
    reaper_stop_ = true;
  }
  reaper_cv_.notify_all();
  if (reaper_.joinable()) reaper_.join();
}

void PivotServer::ServeConnection(int fd) {
  ServeConnection(fd, ConnectionLimits{});
}

void PivotServer::ServeConnection(int fd, const ConnectionLimits& limits) {
  std::string payload;
  for (;;) {
    try {
      if (!ReadMessage(fd, &payload, limits.idle_timeout_ms,
                       limits.frame_timeout_ms)) {
        break;  // clean EOF
      }
    } catch (const ReadTimeoutError&) {
      // An idle or slowloris peer: cut the connection and account for it.
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.read_timeouts;
      break;
    } catch (const ProgramError&) {
      break;  // torn message / transport garbage: drop the connection
    }
    Response resp;
    bool decoded = false;
    Request req;
    try {
      req = DecodeRequest(payload);
      decoded = true;
    } catch (const ProgramError& e) {
      resp = Fail(StatusCode::kBadRequest, e.what());
    }
    if (decoded) resp = Execute(req);  // FaultInjectedError propagates
    try {
      WriteMessage(fd, EncodeResponse(resp));
    } catch (const ProgramError&) {
      // The client went away mid-response. Its in-session transaction (if
      // any) already committed or rolled back atomically server-side;
      // nothing to clean up beyond this connection.
      break;
    }
  }
}

void PivotServer::Drain() {
  // Quiesce the idle reaper first: a passivation mid-drain would race the
  // group commit's shutdown for no benefit.
  StopReaper();
  ServerMode expected = ServerMode::kServing;
  if (!mode_.compare_exchange_strong(expected, ServerMode::kDraining,
                                     std::memory_order_acq_rel)) {
    expected = ServerMode::kDegraded;
    if (!mode_.compare_exchange_strong(expected, ServerMode::kDraining,
                                       std::memory_order_acq_rel)) {
      return;  // already draining/stopped/crashed
    }
  }
  // New requests now bounce with kShuttingDown; wait out the in-flight
  // ones (each completes or fails on its own deadline).
  while (inflight_.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  group_->Drain();
  mode_.store(ServerMode::kStopped, std::memory_order_release);
}

}  // namespace pivot
