// Session lifecycle under memory pressure.
//
// PivotServer keeps every opened session resident forever, so thousands of
// idle sessions exhaust the process long before traffic does. The paper's
// premise — session state is a deterministic function of the journal — is
// the license to *passivate* an idle session: checkpoint the WAL (rewrite
// it from the live session to genesis + one snapshot, durably), release
// the in-memory Session and its journal, and keep only a stub (the name).
// The next request for the name *reactivates* it transparently through
// the ordinary Session::Recover path (snapshot + tail replay), so clients
// never observe the eviction beyond latency. A passivated session's disk
// footprint tracks its live state, not its whole history, and a session
// reactivated only to serve reads is passivated again without a write.
//
// This header holds the policy knobs and the byte-accounted LRU the server
// uses to pick victims; the passivation/reactivation machinery itself lives
// in server.cc, on top of persist's DurableJournal::Checkpoint.
#ifndef PIVOT_SERVER_LIFECYCLE_H_
#define PIVOT_SERVER_LIFECYCLE_H_

#include <chrono>
#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

namespace pivot {

class Session;

struct LifecycleOptions {
  // Byte budget for resident sessions (as estimated by
  // EstimateSessionBytes), 0 = unlimited. Past it the server passivates
  // least-recently-used sessions until back under budget.
  std::uint64_t memory_budget_bytes = 0;
  // Hard cap on the number of resident sessions, 0 = unlimited.
  int max_resident = 0;
  // Passivate sessions untouched for this long, swept by a background
  // reaper thread. 0 = no reaper; only budget pressure evicts.
  std::uint64_t idle_passivate_ms = 0;
  // How often the reaper wakes to look for idle sessions.
  std::uint64_t reaper_interval_ms = 100;
};

// Byte-accounted LRU over the names of resident sessions. Front of the
// order is least recently used. Not thread-safe — the server guards it
// with its sessions mutex.
class SessionLru {
 public:
  using Clock = std::chrono::steady_clock;

  // Inserts or refreshes `name` as most-recently-used with a new byte
  // estimate.
  void Touch(const std::string& name, std::uint64_t bytes,
             Clock::time_point now);
  // Removes `name` (no-op when absent): closed or passivated sessions
  // leave the resident set.
  void Remove(const std::string& name);

  bool Contains(const std::string& name) const {
    return index_.count(name) != 0;
  }
  std::size_t size() const { return index_.size(); }
  std::uint64_t total_bytes() const { return total_bytes_; }

  // Victim candidates, least recently used first. `idle_cutoff` filters to
  // entries last touched at or before it (pass Clock::time_point::max()
  // for "any"); `limit` bounds the copy.
  std::vector<std::string> Victims(Clock::time_point idle_cutoff,
                                   std::size_t limit) const;

 private:
  struct Entry {
    std::string name;
    std::uint64_t bytes = 0;
    Clock::time_point touched;
  };
  std::list<Entry> order_;  // front = least recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  std::uint64_t total_bytes_ = 0;
};

// Rough resident-footprint estimate for budget accounting: statements,
// journal records (payload trees included) and history records, each at a
// flat per-record cost, plus a fixed overhead for the analysis cache and
// engine. Deliberately cheap — it reads container sizes, never prints the
// program — and deliberately an estimate: the budget bounds growth, it is
// not an allocator.
std::uint64_t EstimateSessionBytes(Session& session);

}  // namespace pivot

#endif  // PIVOT_SERVER_LIFECYCLE_H_
