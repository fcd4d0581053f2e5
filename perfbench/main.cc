// End-to-end benchmark (pivot_perfbench): three workloads over the
// library's public APIs (ir, transform, core, persist, server, search),
// with output checks, an exact-count self-check and a traced mode for
// per-layer metrics.
//
//   pivot_perfbench --workload wire_commit|search_anneal|cold_reactivate
//                   --seed N --seconds S --trace 0|1 [--tiny]
//                   [--dir DIR] [--exact-tag TAG]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). perfbench/README.md explains the workloads and metrics.
#include <malloc.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "pivot/core/session.h"
#include "pivot/ir/parser.h"
#include "pivot/ir/printer.h"
#include "pivot/ir/random_program.h"
#include "pivot/persist/durable.h"
#include "pivot/persist/snapshot.h"
#include "pivot/persist/wire.h"
#include "pivot/search/cost.h"
#include "pivot/search/searcher.h"
#include "pivot/server/listener.h"
#include "pivot/server/protocol.h"
#include "pivot/server/server.h"
#include "pivot/support/rng.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using pivot::OrderStamp;
using pivot::Request;
using pivot::Response;
using pivot::ServerOp;
using pivot::StatusCode;

// ---------------------------------------------------------------- sizes --

// Workload sizes. `tiny` is the smoke-test scale: same code paths, inputs
// small enough that a run takes about a second.
struct Sizes {
  int setup_reps;      // set-ups per run; setup_s is their median
  int probe_programs;  // programs replayed through the layer probe
  int wire_stmts, wire_pools, wire_programs, wire_ops;
  int search_stmts, search_programs, search_budget, search_warmup;
  // cold_phase_ops: scripted commits per session after the input, one per
  // round, so it caps cold_reactivate's rounds; set so that a run of the
  // configured length ends on time, not on this cap.
  int cold_sessions, cold_stmts, cold_pools, cold_input_ops, cold_phase_ops,
      cold_resident;
};

constexpr Sizes kFull{.setup_reps = 5, .probe_programs = 8,
                      .wire_stmts = 128, .wire_pools = 48,
                      .wire_programs = 8, .wire_ops = 64,
                      .search_stmts = 60, .search_programs = 64,
                      .search_budget = 200, .search_warmup = 4,
                      .cold_sessions = 128, .cold_stmts = 96,
                      .cold_pools = 48, .cold_input_ops = 48,
                      .cold_phase_ops = 160, .cold_resident = 16};
constexpr Sizes kTiny{.setup_reps = 2, .probe_programs = 1,
                      .wire_stmts = 24, .wire_pools = 12,
                      .wire_programs = 2, .wire_ops = 16,
                      .search_stmts = 20, .search_programs = 4,
                      .search_budget = 30, .search_warmup = 1,
                      .cold_sessions = 8, .cold_stmts = 24,
                      .cold_pools = 12, .cold_input_ops = 6,
                      .cold_phase_ops = 8, .cold_resident = 2};

constexpr int kWireClients = 2;
constexpr int kSnapshotInterval = 64;  // ServerOptions default, made explicit

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string dir = ".bench_build/run";
  std::string exact_tag = "dev";
};

// ------------------------------------------------------------- measuring --

// CPU time of the whole process, all threads.
double ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts.tv_sec * 1e9 + ts.tv_nsec;
}

// Starts a new peak-RSS measurement: returns freed heap to the system, then
// resets VmHWM to the current resident set. Called right before the
// measured phase, so that input generation and set-up do not set the peak.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  if (!clear) throw std::runtime_error("cannot reset VmHWM");
}

// Peak resident set size since ResetPeakRss. Read from VmHWM, not
// getrusage: ru_maxrss cannot be reset, and it survives execve, so it
// would report the launching interpreter's peak whenever that is larger.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  double kib = 0;
  while (status >> key) {
    if (key == "VmHWM:") {
      status >> kib;
      break;
    }
  }
  return kib / 1024.0;
}

// Nearest-rank percentile, q in [0, 1] (0 = the minimum).
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * v.size()));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(const std::vector<double>& v) {
  if (v.empty()) return 0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  return n % 2 ? s[n / 2] : (s[n / 2 - 1] + s[n / 2]) / 2;
}

double SecondsSince(std::int64_t start_ns) {
  return (NowNs() - start_ns) / 1e9;
}

std::uint64_t DirBytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::uint64_t Hash(const std::string& text) {
  return std::hash<std::string>{}(text);
}

// ---------------------------------------------------------------- report --

class Report {
 public:
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Counts that must repeat bit for bit across runs with the same seed.
  std::map<std::string, std::string> exact;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }

  // A wrong result: counts against correctness and is printed to stderr.
  void Fail(const std::string& what) {
    correct = false;
    if (++fail_messages_ <= 10) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }

  void Diagnostic(const std::string& line) { diagnostics_.push_back(line); }

  void Print() const {
    std::printf("-- diagnostics (not gated) --\n");
    for (const std::string& d : diagnostics_) std::printf("  %s\n", d.c_str());
    std::ostringstream os;
    os.precision(10);
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& m = metrics_[i];
      os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << m.value
         << ", \"unit\": \"" << m.unit << "\"}";
    }
    os << "}}";
    std::printf("%s\n", os.str().c_str());
    std::fflush(stdout);
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> diagnostics_;
  int fail_messages_ = 0;
};

// Each workload runs rounds of work until the run's time is up: on
// wire_commit and search_anneal every round is the same work; on
// cold_reactivate every round makes the same number of requests of each
// kind, to sessions whose state moves on. op_p50_us, op_p90_us and
// cpu_us_per_op are the median over the rounds of each round's own
// figure. The median does not drift with the number of rounds a run
// completes, and a round keeps its stalls in its tail; other tenants'
// load on a shared machine, which slows stretches of seconds, moves it
// only when it covers half of the run.
struct EndToEnd {
  std::vector<double> setup_s;   // one per set-up repetition
  // One entry per round.
  std::vector<double> p50, p90, p99, cpu_per_op;
  std::size_t phase_first = 0;   // first round of the current phase
  std::size_t ops = 0;           // ops in measured rounds
  std::size_t round_ops = 0;     // ops in the last round
  double phase_s = 0;            // wall time of measured phases
  std::optional<double> stored_bytes_per_op;

  void BeginPhase() { phase_first = p50.size(); }

  // Closes a round: its ops' latencies (us) and the process CPU time (all
  // threads, us) the round used.
  void AddRound(const std::vector<double>& op_us, double cpu_us) {
    if (op_us.empty()) return;
    p50.push_back(Percentile(op_us, 0.50));
    p90.push_back(Percentile(op_us, 0.90));
    p99.push_back(Percentile(op_us, 0.99));
    cpu_per_op.push_back(cpu_us / op_us.size());
    ops += op_us.size();
    round_ops = op_us.size();
  }

  // op_p50_us of the current phase's rounds.
  double PhaseP50() const {
    return Median(std::vector<double>(p50.begin() + phase_first, p50.end()));
  }
};

void ReportEndToEnd(const EndToEnd& e, Report& rep) {
  rep.Metric("setup_s", Median(e.setup_s), "s");
  rep.Metric("op_p50_us", Median(e.p50), "us");
  rep.Metric("op_p90_us", Median(e.p90), "us");
  rep.Metric("cpu_us_per_op", Median(e.cpu_per_op), "us");
  rep.Metric("peak_rss_mb", PeakRssMb(), "MB");
  if (e.stored_bytes_per_op) {
    rep.Metric("stored_bytes_per_op", *e.stored_bytes_per_op, "B");
  }
  char line[256];
  std::snprintf(line, sizeof line,
                "op_p99_us=%.1f (median over %zu rounds of each round's p99; "
                "%zu samples, %zu ops per round)",
                Median(e.p99), e.p99.size(), e.ops, e.round_ops);
  rep.Diagnostic(line);
  std::snprintf(line, sizeof line,
                "per-round op_p50_us min=%.1f median=%.1f max=%.1f",
                Percentile(e.p50, 0), Median(e.p50), Percentile(e.p50, 1));
  rep.Diagnostic(line);
  std::snprintf(line, sizeof line,
                "throughput=%.1f ops/s over %zu ops in %.2f s (closed loop)",
                Ratio(e.ops, e.phase_s), e.ops, e.phase_s);
  rep.Diagnostic(line);
  std::ostringstream reps;
  for (double s : e.setup_s) reps << " " << s;
  rep.Diagnostic("setup repetitions (s):" + reps.str());
}

// --------------------------------------------------------------- scripts --

std::string MakeSource(std::uint64_t seed, int stmts, int pools) {
  pivot::RandomProgramOptions gen;
  gen.seed = seed;
  gen.target_stmts = stmts;
  if (pools > 0) {
    gen.num_scalars = pools;
    gen.num_arrays = pools / 3;
  }
  return pivot::ToSource(pivot::GenerateRandomProgram(gen));
}

// One scripted request with the result a reference session produced.
struct ScriptOp {
  ServerOp op = ServerOp::kApply;
  int kind = 0;
  std::uint32_t op_index = 0;
  std::vector<OrderStamp> stamps;
  OrderStamp want_stamp = pivot::kNoStamp;  // kApply / kUndoLast
  std::uint64_t want_value = 0;             // kUndo / kUndoSet
  std::string want_text;                    // kUndoSet: stamps undone
};

struct Script {
  std::string source;
  std::vector<ScriptOp> ops;
  // Hashes of the reference sources: checkpoints[k] follows the first
  // (record_from + k) ops, for the record_from the script was made with;
  // back() is final. Hashes, so that the reference data stays small beside
  // the server's own memory.
  std::vector<std::uint64_t> checkpoints;

  std::uint64_t Final() const { return checkpoints.back(); }
};

std::string JoinStamps(const std::vector<OrderStamp>& stamps) {
  std::string out;
  for (std::size_t i = 0; i < stamps.size(); ++i) {
    if (i) out += " ";
    out += std::to_string(stamps[i]);
  }
  return out;
}

bool TryApply(pivot::Session& ref, pivot::Rng& rng, ScriptOp* op) {
  std::vector<int> kinds(pivot::kNumTransformKinds);
  std::iota(kinds.begin(), kinds.end(), 0);
  rng.Shuffle(kinds);
  for (int k : kinds) {
    const auto found = ref.FindOpportunities(pivot::TransformKindFromIndex(k));
    if (found.empty()) continue;
    const std::size_t idx = rng.Index(found.size());
    try {
      op->want_stamp = ref.Apply(found[idx]);
    } catch (const std::exception&) {
      continue;  // rolled back; try another kind
    }
    op->op = ServerOp::kApply;
    op->kind = k;
    op->op_index = static_cast<std::uint32_t>(idx);
    return true;
  }
  return false;
}

// Generates `n_ops` requests of the independent-order mix by running them
// on a reference session: apply a random opportunity (~50%), undo a random
// live stamp with cascades allowed (~35%), undo a set of 2-3 stamps
// (~10%), undo the last live transformation (~5%). Operations the
// reference rejects are dropped, so every scripted request succeeds. The
// reference source is recorded after every op from `record_from` on.
Script MakeScript(const std::string& source, std::uint64_t seed, int n_ops,
                  int record_from) {
  Script s;
  s.source = source;
  pivot::Session ref(pivot::Parse(source));
  pivot::Rng rng(seed);
  if (record_from == 0) s.checkpoints.push_back(Hash(ref.Source()));
  int attempts = 0;
  while (static_cast<int>(s.ops.size()) < n_ops) {
    if (++attempts > 20 * n_ops + 100) {
      throw std::runtime_error("script generation stalled");
    }
    std::vector<OrderStamp> live;
    for (const auto* rec : ref.history().Live()) live.push_back(rec->stamp);
    const double r = rng.UniformReal();
    ScriptOp op;
    try {
      if (live.empty() || r < 0.50) {
        if (!TryApply(ref, rng, &op)) continue;
      } else if (r < 0.85 || (r < 0.95 && live.size() < 2)) {
        op.op = ServerOp::kUndo;
        op.stamps = {live[rng.Index(live.size())]};
        op.want_value = static_cast<std::uint64_t>(
            ref.Undo(op.stamps[0]).transforms_undone);
      } else if (r < 0.95) {
        op.op = ServerOp::kUndoSet;
        rng.Shuffle(live);
        const int k = rng.UniformInt(2, std::min<int>(3, live.size()));
        op.stamps.assign(live.begin(), live.begin() + k);
        std::sort(op.stamps.begin(), op.stamps.end());
        std::vector<OrderStamp> undone;
        op.want_value = static_cast<std::uint64_t>(
            ref.UndoSet(op.stamps, &undone).transforms_undone);
        op.want_text = JoinStamps(undone);
      } else {
        op.op = ServerOp::kUndoLast;
        op.want_stamp = ref.UndoLast();
      }
    } catch (const std::exception&) {
      continue;  // the reference rolled back; draw again
    }
    s.ops.push_back(std::move(op));
    if (static_cast<int>(s.ops.size()) >= record_from) {
      s.checkpoints.push_back(Hash(ref.Source()));
    }
  }
  return s;
}

Request ToRequest(const ScriptOp& op, const std::string& session) {
  Request req;
  req.op = op.op;
  req.session = session;
  req.kind = op.kind;
  req.op_index = op.op_index;
  req.stamps = op.stamps;
  return req;
}

bool Matches(const ScriptOp& op, const Response& r) {
  if (r.status != StatusCode::kOk) return false;
  switch (op.op) {
    case ServerOp::kApply:
    case ServerOp::kUndoLast:
      return r.stamp == op.want_stamp;
    case ServerOp::kUndo:
      return r.value == op.want_value;
    case ServerOp::kUndoSet:
      return r.value == op.want_value && r.text == op.want_text;
    default:
      return false;
  }
}

std::string Describe(const Response& r) {
  return std::string(pivot::StatusCodeName(r.status)) + " stamp=" +
         std::to_string(r.stamp) + " value=" + std::to_string(r.value) +
         " " + r.error;
}

// ----------------------------------------------------------- layer probe --

// The traced run's per-layer instrument: replays a workload's own programs
// and operations through every layer's public call, one span per call.
// Each operation goes through an in-process PivotServer (request and
// response codecs, Execute) and, in parallel, through a bare shadow
// Session with no listener (find, apply, undo, score, digest, txn
// encode); each program ends with a print, a session-image round trip and
// a recovery of a copy of the probe server's WAL.
class LayerProbe {
 public:
  LayerProbe(Tracer& tracer, const std::string& dir) : tracer_(tracer) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    pivot::ServerOptions options;
    options.data_dir = dir + "/server";
    options.snapshot_interval = kSnapshotInterval;
    server_ = std::make_unique<pivot::PivotServer>(std::move(options));
    copy_path_ = dir + "/copy.wal";
  }

  ~LayerProbe() { server_->Drain(); }

  // Replays `script` and checks every result against it.
  void Run(const Script& script, Report& rep) {
    const std::string name = "p" + std::to_string(programs_++);
    pivot::Program program = [&] {
      ScopedSpan span(tracer_, "ir.parse");
      return pivot::Parse(script.source);
    }();
    pivot::Session shadow(std::move(program));
    Request open;
    open.op = ServerOp::kOpen;
    open.session = name;
    open.source = script.source;
    if (Call(open).status != StatusCode::kOk) rep.Fail("probe open " + name);

    for (const ScriptOp& op : script.ops) {
      ScopedSpan whole(tracer_, "probe.op", ++ops_);
      const Response resp = Call(ToRequest(op, name));
      if (!Matches(op, resp)) rep.Fail("probe server op: " + Describe(resp));
      if (!Shadow(shadow, op)) rep.Fail("probe shadow op diverged");
    }

    const std::uint64_t want = script.Final();
    std::string source;
    {
      ScopedSpan span(tracer_, "ir.print");
      source = shadow.Source();
    }
    if (Hash(source) != want) rep.Fail("probe shadow source differs");
    std::string image;
    {
      ScopedSpan span(tracer_, "persist.image_encode");
      image = pivot::EncodeSessionImage(shadow);
    }
    {
      ScopedSpan span(tracer_, "persist.image_decode");
      pivot::DecodedImage decoded = pivot::DecodeSessionImage(image);
    }
    Request close;
    close.op = ServerOp::kClose;
    close.session = name;
    if (Call(close).status != StatusCode::kOk) rep.Fail("probe close " + name);
    fs::remove(copy_path_);
    fs::copy_file(server_->SessionWalPath(name), copy_path_);
    pivot::RecoverResult recovered;
    {
      ScopedSpan span(tracer_, "persist.recover");
      recovered = pivot::RecoverSession(copy_path_);
    }
    replayed_ += recovered.report.txns_replayed;
    ++recovers_;
    if (Hash(recovered.session->Source()) != want) {
      rep.Fail("probe recovery differs");
    }
  }

  // Per-layer metrics from the probe's spans and counters; a `_us`
  // metric is the mean self time per call.
  void ReportLayers(Report& rep) const {
    const auto totals = tracer_.Totals();
    auto mean = [&](const char* span) {
      auto it = totals.find(span);
      return it == totals.end() ? 0.0
                                : Ratio(it->second.self_us, it->second.count);
    };
    auto count = [&](const char* span) -> double {
      auto it = totals.find(span);
      return it == totals.end() ? 0.0 : static_cast<double>(it->second.count);
    };
    auto self = [&](const char* span) {
      auto it = totals.find(span);
      return it == totals.end() ? 0.0 : it->second.self_us;
    };
    auto total = [&](const char* span) {
      auto it = totals.find(span);
      return it == totals.end() ? 0.0 : it->second.total_us;
    };
    rep.Metric("ir.print_us", mean("ir.print"), "us");
    rep.Metric("ir.parse_us", mean("ir.parse"), "us");
    rep.Metric("transform.find_us", mean("transform.find"), "us");
    rep.Metric("transform.find_calls_per_op",
               Ratio(count("transform.find"), count("probe.op")), "count");
    rep.Metric("analysis.score_us", mean("analysis.score"), "us");
    rep.Metric("analysis.score_share",
               Ratio(self("analysis.score"), total("probe.op")), "ratio");
    rep.Metric("core.apply_us", mean("core.apply"), "us");
    rep.Metric("core.undo_us", mean("core.undo"), "us");
    rep.Metric("core.cascade_frac", Ratio(cascades_, undos_), "ratio");
    rep.Metric("core.candidates_per_undo", Ratio(candidates_, undos_),
               "count");
    rep.Metric("core.rebuilds_per_undo", Ratio(rebuilds_, undos_), "count");
    rep.Metric("persist.digest_us", mean("persist.digest"), "us");
    rep.Metric("persist.txn_encode_us", mean("persist.txn_encode"), "us");
    rep.Metric("persist.image_encode_us", mean("persist.image_encode"), "us");
    rep.Metric("persist.image_decode_us", mean("persist.image_decode"), "us");
    rep.Metric("persist.recover_us", mean("persist.recover"), "us");
    rep.Metric("persist.replayed_per_recover", Ratio(replayed_, recovers_),
               "count");
    rep.Metric("server.execute_us", mean("server.execute"), "us");
    // Both codec spans of a request, per request.
    rep.Metric("server.codec_us",
               Ratio(self("server.codec"), count("server.execute")), "us");
  }

  pivot::PivotServer& server() { return *server_; }

 private:
  Response Call(const Request& req) {
    Request decoded;
    {
      ScopedSpan span(tracer_, "server.codec");
      decoded = pivot::DecodeRequest(pivot::EncodeRequest(req));
    }
    Response resp;
    {
      ScopedSpan span(tracer_, "server.execute");
      resp = server_->Execute(decoded);
    }
    ScopedSpan span(tracer_, "server.codec");
    return pivot::DecodeResponse(pivot::EncodeResponse(resp));
  }

  // Runs `op` on the bare shadow session; false when its result differs
  // from the reference script's.
  bool Shadow(pivot::Session& shadow, const ScriptOp& op) {
    pivot::TxnDescriptor desc;
    bool ok = true;
    if (op.op == ServerOp::kApply) {
      std::vector<pivot::Opportunity> found;
      {
        ScopedSpan span(tracer_, "transform.find");
        found =
            shadow.FindOpportunities(pivot::TransformKindFromIndex(op.kind));
      }
      if (op.op_index >= found.size()) return false;
      {
        ScopedSpan span(tracer_, "core.apply");
        desc.result_stamp = shadow.Apply(found[op.op_index]);
      }
      desc.op = pivot::TxnOp::kApply;
      desc.apply_site = found[op.op_index];
      ok = desc.result_stamp == op.want_stamp;
      ScopedSpan span(tracer_, "analysis.score");
      pivot::ScoreProgram(shadow.analyses());
    } else if (op.op == ServerOp::kUndoLast) {
      ScopedSpan span(tracer_, "core.undo");
      ok = shadow.UndoLast() == op.want_stamp;
      desc.op = pivot::TxnOp::kUndoLast;
    } else {
      pivot::UndoStats stats;
      {
        ScopedSpan span(tracer_, "core.undo");
        stats = op.op == ServerOp::kUndo ? shadow.Undo(op.stamps[0])
                                         : shadow.UndoSet(op.stamps);
      }
      desc.op = op.op == ServerOp::kUndo ? pivot::TxnOp::kUndo
                                         : pivot::TxnOp::kUndoSet;
      desc.undo_stamps = op.stamps;
      ++undos_;
      if (stats.transforms_undone > static_cast<int>(op.stamps.size())) {
        ++cascades_;
      }
      candidates_ += stats.candidates_total;
      rebuilds_ += stats.analysis_rebuilds;
      ok = static_cast<std::uint64_t>(stats.transforms_undone) ==
           op.want_value;
    }
    pivot::SessionDigest digest;
    {
      ScopedSpan span(tracer_, "persist.digest");
      digest = pivot::ComputeDigest(shadow);
    }
    ScopedSpan span(tracer_, "persist.txn_encode");
    const std::string body = pivot::EncodeTxn(desc, digest);
    return ok && !body.empty();
  }

  Tracer& tracer_;
  std::unique_ptr<pivot::PivotServer> server_;
  std::string copy_path_;
  int programs_ = 0;
  std::uint64_t ops_ = 0;
  double undos_ = 0, cascades_ = 0, candidates_ = 0, rebuilds_ = 0;
  double replayed_ = 0, recovers_ = 0;
};

// Runs a workload's measured phase, from which peak_rss_mb is measured:
// all of it untraced, or in a traced run half untraced and half traced,
// reporting the traced half's op_p50_us minus the untraced half's. `run_phase(seconds, traced)` returns the
// phase's op_p50_us.
template <typename Phase>
void RunPhases(const Args& args, Phase&& run_phase, Report& rep) {
  ResetPeakRss();
  if (!args.trace) {
    run_phase(args.seconds, false);
    return;
  }
  const double untraced = run_phase(args.seconds / 2, false);
  const double traced = run_phase(args.seconds / 2, true);
  rep.Metric("trace.overhead_us", traced - untraced, "us");
}

// Group-commit and lifecycle counters between two stats() snapshots.
void ReportServerLayers(const pivot::ServerStats& before,
                        const pivot::ServerStats& after, double ops,
                        Report& rep) {
  rep.Metric("server.frames_per_fsync",
             Ratio(after.group.frames - before.group.frames,
                   after.group.fsyncs - before.group.fsyncs), "count");
  rep.Metric("server.fsyncs_per_commit",
             Ratio(after.group.fsyncs - before.group.fsyncs,
                   after.commits - before.commits), "count");
  rep.Metric("server.passivations_per_op",
             Ratio(after.passivations - before.passivations, ops), "count");
  rep.Metric("server.reactivations_per_op",
             Ratio(after.reactivations - before.reactivations, ops), "count");
}

// ---------------------------------------------------------------- search --

pivot::SearchOptions JobOptions(std::uint64_t seed, int budget) {
  pivot::SearchOptions options;
  options.mode = pivot::SearchMode::kAnneal;
  options.budget = budget;
  options.seed = seed;
  return options;
}

struct SearchTotals {
  double proposals = 0, accepted = 0, rejected = 0, undo_ns = 0, job_s = 0;

  void Add(const pivot::SearchStats& s, double seconds) {
    proposals += s.proposals;
    accepted += s.accepted;
    rejected += s.rejected;
    undo_ns += s.undo_ns;
    job_s += seconds;
  }

  void Emit(Report& rep) const {
    rep.Metric("search.proposals_per_s", Ratio(proposals, job_s), "1/s");
    rep.Metric("search.accept_frac", Ratio(accepted, proposals), "ratio");
    rep.Metric("search.reject_undo_us", Ratio(undo_ns / 1e3, rejected), "us");
  }
};

// A job's recorded steps as a script: apply, then an UndoSet of the
// applied stamp for each reject — the searcher's own calls.
Script StepsAsScript(const std::string& source,
                     const std::vector<pivot::SearchStep>& steps,
                     const std::string& final_source) {
  Script s;
  s.source = source;
  for (const pivot::SearchStep& step : steps) {
    using Outcome = pivot::SearchStep::Outcome;
    if (step.outcome == Outcome::kApplyFailed) continue;
    ScriptOp apply;
    apply.op = ServerOp::kApply;
    apply.kind = pivot::TransformKindIndex(step.kind);
    apply.op_index = static_cast<std::uint32_t>(step.op_index);
    apply.want_stamp = step.stamp;
    s.ops.push_back(apply);
    if (step.outcome != Outcome::kRejected) continue;
    ScriptOp reject;
    reject.op = ServerOp::kUndoSet;
    reject.stamps = {step.stamp};
    std::vector<OrderStamp> undone = step.cascades;
    undone.push_back(step.stamp);
    std::sort(undone.begin(), undone.end());
    reject.want_value = undone.size();
    reject.want_text = JoinStamps(undone);
    s.ops.push_back(reject);
  }
  s.checkpoints = {Hash(final_source)};
  return s;
}

// One search job: a fresh session on `source`, then an anneal run. The
// searched session is kept so the caller can verify it after the clock.
struct Job {
  std::unique_ptr<pivot::Session> session;
  pivot::SearchResult result;
  double seconds = 0;  // wall time of parse + session + search
};

Job RunJob(const std::string& source, std::uint64_t seed, int budget) {
  Job job;
  const std::int64_t t0 = NowNs();
  job.session = std::make_unique<pivot::Session>(pivot::Parse(source));
  pivot::Searcher searcher(*job.session, JobOptions(seed, budget));
  job.result = searcher.Run();
  job.seconds = SecondsSince(t0);
  return job;
}


// ----------------------------------------------------------- wire_commit --

Response Rpc(int fd, const Request& req) {
  pivot::WriteMessage(fd, pivot::EncodeRequest(req));
  std::string payload;
  if (!pivot::ReadMessage(fd, &payload)) {
    throw std::runtime_error("server closed the connection");
  }
  return pivot::DecodeResponse(payload);
}

// An in-process server behind a unix-socket listener, with one client
// connection per client.
class WireRig {
 public:
  WireRig(const std::string& dir, int clients) : data_dir_(dir + "/data") {
    fs::remove_all(dir);
    fs::create_directories(dir);
    pivot::ServerOptions options;
    options.data_dir = data_dir_;
    options.snapshot_interval = kSnapshotInterval;
    server_ = std::make_unique<pivot::PivotServer>(std::move(options));
    pivot::ListenerOptions lo;
    lo.unix_path = dir + "/pivot.sock";
    listener_ = std::make_unique<pivot::ServerListener>(*server_, lo);
    for (int c = 0; c < clients; ++c) {
      const int fd = pivot::DialUnix(lo.unix_path);
      if (fd < 0) {
        for (int open_fd : fds_) ::close(open_fd);
        throw std::runtime_error("cannot dial " + lo.unix_path);
      }
      fds_.push_back(fd);
    }
    loop_ = std::thread([this] { listener_->Run(); });
  }

  ~WireRig() {
    for (int fd : fds_) ::close(fd);
    listener_->Shutdown();
    loop_.join();
    server_->Drain();
  }

  WireRig(const WireRig&) = delete;
  WireRig& operator=(const WireRig&) = delete;

  int fd(int client) const { return fds_[client]; }
  pivot::PivotServer& server() { return *server_; }
  const std::string& data_dir() const { return data_dir_; }

 private:
  std::string data_dir_;
  std::unique_ptr<pivot::PivotServer> server_;
  std::unique_ptr<pivot::ServerListener> listener_;
  std::vector<int> fds_;
  std::thread loop_;
};

struct ClientTally {
  std::vector<double> op_us;  // latencies of the current round
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    errors.push_back(what);
  }
};

// One round of one client: open a fresh session per script, replay the
// script (each request timed), compare the final source with the
// reference, close. Never throws: transport failures are tallied.
void ClientRound(int fd, int client, int round,
                 const std::vector<Script>& scripts, Tracer& tracer,
                 ClientTally& t) {
  try {
    for (std::size_t p = 0; p < scripts.size(); ++p) {
      const Script& s = scripts[p];
      char name[48];
      std::snprintf(name, sizeof name, "c%d-r%06d-p%02zu", client, round, p);
      Request open;
      open.op = ServerOp::kOpen;
      open.session = name;
      open.source = s.source;
      t.Check(Rpc(fd, open).status == StatusCode::kOk,
              std::string("open ") + name);
      for (const ScriptOp& op : s.ops) {
        const Request req = ToRequest(op, name);
        const std::int64_t t0 = NowNs();
        Response resp;
        {
          ScopedSpan span(tracer, "wire.op");
          resp = Rpc(fd, req);
        }
        t.op_us.push_back((NowNs() - t0) / 1e3);
        t.Check(Matches(op, resp), std::string(name) + " " +
                                       pivot::ServerOpName(op.op) + ": " +
                                       Describe(resp));
      }
      Request source;
      source.op = ServerOp::kSource;
      source.session = name;
      t.Check(Hash(Rpc(fd, source).text) == s.Final(),
              std::string("final source of ") + name);
      Request close;
      close.op = ServerOp::kClose;
      close.session = name;
      t.Check(Rpc(fd, close).status == StatusCode::kOk,
              std::string("close ") + name);
    }
  } catch (const std::exception& e) {
    t.Check(false, std::string("transport: ") + e.what());
  }
}

void Merge(const ClientTally& t, Report& rep) {
  rep.attempted += t.attempted;
  rep.failed += t.failed;
  for (const std::string& e : t.errors) rep.Fail(e);
}

void RunWire(const Args& args, const Sizes& z, Tracer& tracer, Report& rep) {
  const std::string root = args.dir + "/wire_commit";
  std::vector<std::vector<Script>> scripts(kWireClients);
  std::uint64_t round_ops = 0;
  for (int c = 0; c < kWireClients; ++c) {
    for (int p = 0; p < z.wire_programs; ++p) {
      const std::uint64_t tag = 100 * c + p;
      scripts[c].push_back(MakeScript(
          MakeSource(Mix(args.seed, 1000 + tag), z.wire_stmts, z.wire_pools),
          Mix(args.seed, 2000 + tag), z.wire_ops, z.wire_ops));
      round_ops += z.wire_ops;
    }
  }

  // The set-up's warm-up round: both clients, joined.
  auto warm_up = [&](WireRig& rig, ClientTally* tallies) {
    std::vector<std::thread> threads;
    for (int c = 0; c < kWireClients; ++c) {
      threads.emplace_back([&, c] {
        ClientRound(rig.fd(c), c, 0, scripts[c], tracer, tallies[c]);
      });
    }
    for (std::thread& t : threads) t.join();
  };

  EndToEnd e2e;
  std::unique_ptr<WireRig> rig;
  for (int r = 0; r < z.setup_reps; ++r) {
    rig.reset();
    const std::int64_t t0 = NowNs();
    rig = std::make_unique<WireRig>(root + "/rep" + std::to_string(r),
                                    kWireClients);
    ClientTally warm[kWireClients];
    warm_up(*rig, warm);
    e2e.setup_s.push_back(SecondsSince(t0));
    for (const ClientTally& t : warm) Merge(t, rep);
  }

  int next_round = 1;
  const pivot::ServerStats before = rig->server().stats();
  const std::uint64_t bytes_before = DirBytes(rig->data_dir());
  double round1_bytes = -1;

  // Returns the phase's reported op_p50_us.
  auto run_phase = [&](double seconds, bool traced) {
    tracer.set_enabled(traced);
    e2e.BeginPhase();
    int completed = 0;
    ClientTally tallies[kWireClients];
    std::atomic<bool> stop{false};
    const std::int64_t start = NowNs();
    double round_cpu0 = ProcessCpuNs();
    // Runs on one client thread while the other waits at the barrier.
    auto on_round = [&]() noexcept {
      try {
        if (round1_bytes < 0) {
          round1_bytes =
              static_cast<double>(DirBytes(rig->data_dir()) - bytes_before);
        }
        std::vector<double> round_us;
        for (int c = 0; c < kWireClients; ++c) {
          round_us.insert(round_us.end(), tallies[c].op_us.begin(),
                          tallies[c].op_us.end());
          tallies[c].op_us.clear();
        }
        const double cpu = ProcessCpuNs();
        e2e.AddRound(round_us, (cpu - round_cpu0) / 1e3);
        round_cpu0 = cpu;
        ++completed;
      } catch (const std::exception&) {
        stop = true;
      }
      if (SecondsSince(start) >= seconds) stop = true;
    };
    // Both clients finish a round before either starts the next, so every
    // round is the same work and writes the same bytes.
    std::barrier sync(kWireClients, on_round);
    const int first = next_round;
    std::vector<std::thread> threads;
    for (int c = 0; c < kWireClients; ++c) {
      threads.emplace_back([&, c] {
        for (int round = first;; ++round) {
          ClientRound(rig->fd(c), c, round, scripts[c], tracer, tallies[c]);
          if (tallies[c].failed > 0) stop = true;
          sync.arrive_and_wait();
          if (stop) break;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    tracer.set_enabled(false);
    e2e.phase_s += SecondsSince(start);
    next_round += completed;
    for (const ClientTally& t : tallies) Merge(t, rep);
    return e2e.PhaseP50();
  };

  RunPhases(args, run_phase, rep);
  const pivot::ServerStats after = rig->server().stats();
  e2e.stored_bytes_per_op = Ratio(round1_bytes, round_ops);
  rep.exact["round.ops"] = std::to_string(round_ops);
  rep.exact["round1.bytes"] = std::to_string(round1_bytes);

  if (!args.trace) {
    ReportEndToEnd(e2e, rep);
    return;
  }
  const double ops = static_cast<double>(e2e.ops);
  LayerProbe probe(tracer, root + "/probe");
  tracer.set_enabled(true);
  for (int i = 0; i < z.probe_programs; ++i) {
    const Script& s = scripts[i % kWireClients][(i / kWireClients) %
                                                z.wire_programs];
    probe.Run(s, rep);
  }
  tracer.set_enabled(false);
  probe.ReportLayers(rep);
  ReportServerLayers(before, after, ops, rep);
  // No searcher on this workload: one probe job on its first program.
  const Job search = RunJob(scripts[0][0].source, args.seed, z.search_budget);
  SearchTotals totals;
  totals.Add(search.result.stats, search.seconds);
  totals.Emit(rep);
}

// --------------------------------------------------------- search_anneal --

void RunSearchWorkload(const Args& args, const Sizes& z, Tracer& tracer,
                       Report& rep) {
  const std::string root = args.dir + "/search_anneal";
  fs::remove_all(root);
  fs::create_directories(root);
  // Job j is program j % P with its own searcher seed, so every pass over
  // the P programs repeats identical work.
  const int programs = z.search_programs;
  std::vector<std::string> sources;
  for (int j = 0; j < programs; ++j) {
    sources.push_back(MakeSource(Mix(args.seed, 7000 + j), z.search_stmts, 0));
  }

  EndToEnd e2e;
  for (int r = 0; r < z.setup_reps; ++r) {
    const std::int64_t t0 = NowNs();
    for (const std::string& src : sources) {
      if (pivot::Parse(src).AttachedStmtCount() == 0) rep.Fail("empty program");
    }
    for (int w = 0; w < z.search_warmup; ++w) {
      RunJob(sources[w % programs], Mix(args.seed, 900000 + w),
             z.search_budget);
    }
    e2e.setup_s.push_back(SecondsSince(t0));
  }

  SearchTotals totals;
  std::vector<Script> probe_scripts;
  std::vector<std::string> first_pass(programs);  // exact counts per program
  // A round is one pass over the programs. Returns the phase's reported
  // op_p50_us.
  auto run_phase = [&](double seconds, bool traced) {
    e2e.BeginPhase();
    const std::int64_t start = NowNs();
    double busy_s = 0;
    while (busy_s < seconds) {
      std::vector<double> round_us;
      double round_cpu_us = 0;
      for (int p = 0; p < programs; ++p) {
        const std::string& src = sources[p];
        const std::uint64_t seed = Mix(args.seed, p);
        const double cpu0 = ProcessCpuNs();
        tracer.set_enabled(traced);
        Job job;
        {
          ScopedSpan span(tracer, "search.job", p);
          job = RunJob(src, seed, z.search_budget);
        }
        tracer.set_enabled(false);
        round_cpu_us += (ProcessCpuNs() - cpu0) / 1e3;
        round_us.push_back(job.seconds * 1e6);
        busy_s += job.seconds;
        totals.Add(job.result.stats, job.seconds);

        // Checks, after the job's clock stopped.
        const pivot::SearchStats& st = job.result.stats;
        ++rep.attempted;
        const std::string deviation = pivot::VerifyAcceptedPrefix(
            pivot::Parse(src), job.result.steps, *job.session);
        if (!deviation.empty() || st.apply_failures || st.reject_failures) {
          ++rep.failed;
          rep.Fail("program " + std::to_string(p) + ": " + deviation);
        }
        const std::string counts = std::to_string(st.accepted) + "/" +
                                   std::to_string(st.rejected) + "/" +
                                   std::to_string(st.cascaded_records);
        if (first_pass[p].empty()) {
          first_pass[p] = counts;
          char name[32];
          std::snprintf(name, sizeof name, "job.%04d", p);
          rep.exact[name] = counts;
          if (static_cast<int>(probe_scripts.size()) < z.probe_programs) {
            probe_scripts.push_back(StepsAsScript(src, job.result.steps,
                                                  job.session->Source()));
          }
        } else if (first_pass[p] != counts) {
          rep.Fail("nondeterminism: program " + std::to_string(p) + " gave " +
                   counts + ", first pass " + first_pass[p]);
        }
      }
      e2e.AddRound(round_us, round_cpu_us);
    }
    e2e.phase_s += SecondsSince(start);
    return e2e.PhaseP50();
  };

  RunPhases(args, run_phase, rep);

  if (!args.trace) {
    ReportEndToEnd(e2e, rep);
    return;
  }
  LayerProbe probe(tracer, root + "/probe");
  const pivot::ServerStats before = probe.server().stats();
  tracer.set_enabled(true);
  for (const Script& s : probe_scripts) probe.Run(s, rep);
  tracer.set_enabled(false);
  const pivot::ServerStats after = probe.server().stats();
  probe.ReportLayers(rep);
  // No server on this workload: the counters are the probe server's.
  ReportServerLayers(before, after, static_cast<double>(e2e.ops), rep);
  totals.Emit(rep);
}

// ------------------------------------------------------- cold_reactivate --

std::string ColdName(int i) {
  char name[16];
  std::snprintf(name, sizeof name, "s%04d", i);
  return name;
}

// Writes the input data dir: every session opened and taken through its
// first `input_ops` scripted ops, then drained (no passivation, so no final
// snapshot). Runs in a child process, so that the input server, which holds
// every session at once, never grows the benchmark's own heap. Returns
// false when a request failed or did not match its script (details on
// stderr). Must be called before this process starts any thread.
bool BuildColdInput(const std::string& input_dir,
                    const std::vector<Script>& scripts, int input_ops) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    int bad = 0;
    try {
      pivot::ServerOptions options;
      options.data_dir = input_dir;
      options.snapshot_interval = kSnapshotInterval;
      pivot::PivotServer server(std::move(options));
      for (std::size_t i = 0; i < scripts.size(); ++i) {
        const std::string name = ColdName(static_cast<int>(i));
        Request open;
        open.op = ServerOp::kOpen;
        open.session = name;
        open.source = scripts[i].source;
        const Response opened = server.Execute(open);
        if (opened.status != StatusCode::kOk) {
          ++bad;
          std::fprintf(stderr, "input open %s: %s\n", name.c_str(),
                       Describe(opened).c_str());
        }
        for (int k = 0; k < input_ops; ++k) {
          const ScriptOp& op = scripts[i].ops[k];
          const Response resp = server.Execute(ToRequest(op, name));
          if (!Matches(op, resp)) {
            ++bad;
            std::fprintf(stderr, "input op on %s: %s\n", name.c_str(),
                         Describe(resp).c_str());
          }
        }
      }
      server.Drain();
    } catch (const std::exception& e) {
      ++bad;
      std::fprintf(stderr, "input generation: %s\n", e.what());
    }
    std::fflush(stderr);
    ::_exit(bad == 0 ? 0 : 1);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

void RunCold(const Args& args, const Sizes& z, Tracer& tracer, Report& rep) {
  const std::string root = args.dir + "/cold_reactivate";
  const std::string input_dir = root + "/input";
  const std::string data_dir = root + "/data";
  fs::remove_all(root);
  fs::create_directories(root);
  const int n = z.cold_sessions;
  std::vector<Script> scripts;
  for (int i = 0; i < n; ++i) {
    scripts.push_back(MakeScript(
        MakeSource(Mix(args.seed, 3000 + i), z.cold_stmts, z.cold_pools),
        Mix(args.seed, 4000 + i), z.cold_input_ops + z.cold_phase_ops,
        z.cold_input_ops));
  }

  auto check = [&](bool ok, const std::string& what) {
    ++rep.attempted;
    if (ok) return;
    ++rep.failed;
    rep.Fail(what);
  };

  rep.attempted += static_cast<std::uint64_t>(n) * (z.cold_input_ops + 1);
  if (!BuildColdInput(input_dir, scripts, z.cold_input_ops)) {
    ++rep.failed;
    rep.Fail("cold_reactivate input generation");
  }

  pivot::ServerOptions options;
  options.data_dir = data_dir;
  options.snapshot_interval = kSnapshotInterval;
  options.lifecycle.max_resident = z.cold_resident;
  EndToEnd e2e;
  std::unique_ptr<pivot::PivotServer> server;
  std::uint64_t replayed = 0;
  for (int r = 0; r < z.setup_reps; ++r) {
    if (server) server->Drain();
    server.reset();
    fs::remove_all(data_dir);
    fs::copy(input_dir, data_dir, fs::copy_options::recursive);
    replayed = 0;
    const std::int64_t t0 = NowNs();
    server = std::make_unique<pivot::PivotServer>(options);
    for (int i = 0; i < n; ++i) {
      Request recover;
      recover.op = ServerOp::kRecover;
      recover.session = ColdName(i);
      const Response resp = server->Execute(recover);
      check(resp.status == StatusCode::kOk, "recover: " + Describe(resp));
      replayed += resp.value;
    }
    // Warm-up: one read of every session.
    for (int i = 0; i < n; ++i) {
      Request source;
      source.op = ServerOp::kSource;
      source.session = ColdName(i);
      check(Hash(server->Execute(source).text) == scripts[i].checkpoints[0],
            "warm-up source of " + ColdName(i));
    }
    e2e.setup_s.push_back(SecondsSince(t0));
  }
  rep.exact["setup.replayed"] = std::to_string(replayed);

  // Request j reads or commits session j % n. Each session commits on one
  // visit in four, so a round of 4n requests commits every session once.
  std::vector<int> commits(n, 0);
  std::uint64_t next = 0;
  int rounds = 0;
  const pivot::ServerStats before = server->stats();
  // A round is four passes over the sessions. Returns the phase's
  // reported op_p50_us.
  auto run_phase = [&](double seconds, bool traced) {
    e2e.BeginPhase();
    const std::int64_t start = NowNs();
    tracer.set_enabled(traced);
    while (SecondsSince(start) < seconds && rounds < z.cold_phase_ops) {
      std::vector<double> round_us;
      double round_cpu_us = 0;
      for (int q = 0; q < 4 * n; ++q, ++next) {
        const int i = static_cast<int>(next % n);
        const bool commit = (next / n + i) % 4 == 3;
        const ScriptOp* op =
            commit ? &scripts[i].ops[z.cold_input_ops + commits[i]] : nullptr;
        Request req;
        if (op != nullptr) {
          req = ToRequest(*op, ColdName(i));
        } else {
          req.op = ServerOp::kSource;
          req.session = ColdName(i);
        }
        const double cpu0 = ProcessCpuNs();
        const std::int64_t t0 = NowNs();
        Response resp;
        {
          ScopedSpan span(tracer, "cold.op", next);
          resp = server->Execute(req);
        }
        round_us.push_back((NowNs() - t0) / 1e3);
        round_cpu_us += (ProcessCpuNs() - cpu0) / 1e3;
        if (op != nullptr) {
          check(Matches(*op, resp),
                "commit on " + ColdName(i) + ": " + Describe(resp));
          ++commits[i];
        } else {
          check(Hash(resp.text) == scripts[i].checkpoints[commits[i]],
                "source of " + ColdName(i));
        }
      }
      e2e.AddRound(round_us, round_cpu_us);
      if (++rounds == 1) {
        const pivot::ServerStats now = server->stats();
        const std::uint64_t bytes = DirBytes(data_dir);
        e2e.stored_bytes_per_op = Ratio(
            bytes, static_cast<double>(n) * (z.cold_input_ops + 1));
        rep.exact["round1.bytes"] = std::to_string(bytes);
        rep.exact["round1.passivations"] =
            std::to_string(now.passivations - before.passivations);
        rep.exact["round1.reactivations"] =
            std::to_string(now.reactivations - before.reactivations);
      }
    }
    tracer.set_enabled(false);
    e2e.phase_s += SecondsSince(start);
    return e2e.PhaseP50();
  };

  RunPhases(args, run_phase, rep);
  const pivot::ServerStats after = server->stats();
  const double ops = static_cast<double>(e2e.ops);
  // Round-robin over more sessions than may stay resident: every request
  // finds its session passivated and reactivates it.
  check(after.reactivations - before.reactivations == next,
        "reactivations " +
            std::to_string(after.reactivations - before.reactivations) +
            " != requests " + std::to_string(next));

  if (!args.trace) {
    ReportEndToEnd(e2e, rep);
    return;
  }
  LayerProbe probe(tracer, root + "/probe");
  tracer.set_enabled(true);
  for (int i = 0; i < z.probe_programs && i < n; ++i) {
    probe.Run(scripts[i], rep);
  }
  tracer.set_enabled(false);
  probe.ReportLayers(rep);
  ReportServerLayers(before, after, ops, rep);
  // No searcher on this workload: one probe job on its first program.
  const Job search = RunJob(scripts[0].source, args.seed, z.search_budget);
  SearchTotals totals;
  totals.Add(search.result.stats, search.seconds);
  totals.Emit(rep);
  server->Drain();
}

// ------------------------------------------------------------ self-check --

// Compares this run's exact counts with those stored by earlier runs of
// the same seed, scale and source tree; any difference is nondeterminism.
void CheckExact(const Args& args, Report& rep) {
  const std::string dir = args.dir + "/exact";
  fs::create_directories(dir);
  const std::string path = dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) +
                           (args.tiny ? "-tiny-" : "-full-") +
                           args.exact_tag + ".txt";
  std::map<std::string, std::string> stored;
  {
    std::ifstream in(path);
    std::string key, value;
    while (in >> key >> value) stored[key] = value;
  }
  int mismatches = 0;
  for (const auto& [key, value] : rep.exact) {
    auto it = stored.find(key);
    if (it != stored.end() && it->second != value) {
      ++mismatches;
      rep.Fail("nondeterminism: " + key + " was " + it->second + ", now " +
               value);
    }
    stored[key] = value;
  }
  std::ofstream out(path);
  for (const auto& [key, value] : stored) out << key << ' ' << value << '\n';
  rep.Diagnostic("exact counts: " + std::to_string(rep.exact.size()) +
                 " compared against " + path + ", " +
                 std::to_string(mismatches) + " mismatches");
}

int Usage() {
  std::fprintf(stderr,
               "usage: pivot_perfbench --workload wire_commit|search_anneal|"
               "cold_reactivate --seed N --seconds S --trace 0|1 [--tiny] "
               "[--dir DIR] [--exact-tag TAG]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--dir") {
        args.dir = value;
      } else if (flag == "--exact-tag") {
        args.exact_tag = value;
      } else {
        return Usage();
      }
    } catch (const std::exception&) {
      return Usage();
    }
  }
  if (args.seconds <= 0) return Usage();
  const Sizes& sizes = args.tiny ? kTiny : kFull;
  Tracer tracer;
  Report rep;
  try {
    if (args.workload == "wire_commit") {
      RunWire(args, sizes, tracer, rep);
    } else if (args.workload == "search_anneal") {
      RunSearchWorkload(args, sizes, tracer, rep);
    } else if (args.workload == "cold_reactivate") {
      RunCold(args, sizes, tracer, rep);
    } else {
      return Usage();
    }
    CheckExact(args, rep);
    // The data dirs are only needed during the run; removing them drops
    // their unwritten pages instead of leaving writeback to the next run.
    fs::remove_all(args.dir + "/" + args.workload);
    if (args.trace) {
      const std::string spans = args.dir + "/" + args.workload + "-spans.tsv";
      tracer.Write(spans);
      rep.Diagnostic("spans written to " + spans);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  rep.Print();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
