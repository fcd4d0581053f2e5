// Golden record of the undo engine's observable behaviour.
//
// For 15 generated fuzz schedules, three lockstep sessions run the apply
// and undo steps and end with one UndoSet of a seeded subset:
//   * linear candidate scans with a decision trace attached,
//   * indexed scans, untraced,
//   * linear scans, untraced.
// Per undo the record holds the hash of the rendered trace, every
// UndoStats field of both untraced sessions (fault crossings counted
// under FaultInjector observation), and CanUndo/Preview answers for every
// live stamp; each schedule ends with the hash of the final source. The
// file under tests/corpus/ is the reference: any refactor of the engine
// must reproduce it byte for byte. A second test runs the same driver and
// checks that the indexed and linear sessions decide every undo alike.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "pivot/core/session.h"
#include "pivot/ir/parser.h"
#include "pivot/oracle/fuzzcase.h"
#include "pivot/support/diagnostics.h"
#include "pivot/support/fault_injector.h"
#include "pivot/support/rng.h"

namespace pivot {
namespace {

std::string Hash(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a, 64 bit
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string StatsLine(const UndoStats& s) {
  std::ostringstream os;
  os << "undone=" << s.transforms_undone << " actions=" << s.actions_inverted
     << " cand=" << s.candidates_total << "/" << s.candidates_in_region << "/"
     << s.candidates_marked << " safety=" << s.safety_checks
     << " rev=" << s.reversibility_checks
     << " rebuilds=" << s.analysis_rebuilds
     << " crossings=" << s.fault_crossings;
  return os.str();
}

std::string Stamps(const std::vector<OrderStamp>& stamps) {
  std::string out;
  for (const OrderStamp stamp : stamps) {
    if (!out.empty()) out += ",";
    out += "t" + std::to_string(stamp);
  }
  return out.empty() ? "-" : out;
}

std::vector<OrderStamp> LiveStamps(Session& s) {
  std::vector<OrderStamp> live;
  for (const TransformRecord& rec : s.history().records()) {
    if (!rec.undone && !rec.is_edit) live.push_back(rec.stamp);
  }
  return live;
}

// CanUndo and Preview for every live stamp, one line each.
std::string Probe(Session& s) {
  std::string out;
  for (const OrderStamp stamp : LiveStamps(s)) {
    std::string reason;
    const bool can = s.CanUndo(stamp, &reason);
    const UndoEngine::UndoPreview p = s.engine().Preview(stamp);
    out += "  probe t" + std::to_string(stamp) + " can=" +
           (can ? "yes" : reason) + " preview=" +
           (p.possible ? "yes" : p.blocked_reason) +
           " affecting=" + Stamps(p.affecting) +
           " ripple=" + Stamps(p.may_ripple) + "\n";
  }
  return out;
}

// The outcome of one undo on one session: its stats, or the refusal.
template <typename Fn>
std::string Outcome(Fn&& undo) {
  try {
    return "ok " + StatsLine(undo());
  } catch (const std::exception& e) {
    return std::string("refused: ") + e.what();
  }
}

struct Lockstep {
  Session traced;
  Session indexed;
  Session linear;
  UndoTrace trace;

  explicit Lockstep(const std::string& source)
      : traced(Parse(source), Linear()),
        indexed(Parse(source)),
        linear(Parse(source), Linear()) {
    traced.engine().set_trace(&trace);
  }

  static UndoOptions Linear() {
    UndoOptions options;
    options.indexed = false;
    return options;
  }
};

// One golden line block plus the rendered trace it was hashed from, so a
// mismatch can show the decisions behind it. `divergence` is empty unless
// the indexed and linear sessions decided the block's undo differently.
struct Block {
  std::string text;
  std::string trace;
  std::string divergence = {};
};

// What an undo decided, apart from the work it took: success or the
// refusal, and the program and history it left behind.
std::string Fate(const std::string& outcome, Session& s) {
  return (outcome.rfind("ok", 0) == 0 ? "ok" : outcome) + "\n" + s.Source() +
         s.HistoryToString();
}

std::vector<Block> RunSchedule(std::uint64_t seed) {
  const FuzzCase c = GenerateFuzzCase(seed);
  Lockstep l(c.source);
  std::vector<Block> blocks;
  blocks.push_back({"seed " + std::to_string(seed) + "\n", ""});

  // Runs `undo` on all three sessions; the probe before it is part of the
  // block and must agree across sessions.
  auto undo_all = [&](const std::string& label, auto&& undo) {
    Block block;
    const std::string probe = Probe(l.indexed);
    EXPECT_EQ(Probe(l.linear), probe) << label;
    EXPECT_EQ(Probe(l.traced), probe) << label;
    l.trace.Clear();
    const std::string traced = Outcome([&] { return undo(l.traced); });
    block.trace = l.trace.Render();
    const std::string indexed = Outcome([&] { return undo(l.indexed); });
    const std::string linear = Outcome([&] { return undo(l.linear); });
    if (Fate(indexed, l.indexed) != Fate(linear, l.linear)) {
      block.divergence = label + ": indexed " + indexed + " / linear " + linear;
    }
    block.text = label + " trace=" + Hash(block.trace) + " " +
                 (traced.rfind("ok", 0) == 0 ? "ok" : traced) + "\n" +
                 "  indexed " + indexed + "\n" + "  linear " + linear + "\n" +
                 probe;
    blocks.push_back(std::move(block));
  };

  for (std::size_t i = 0; i < c.steps.size(); ++i) {
    const FuzzStep& step = c.steps[i];
    const std::string where = "step " + std::to_string(i) + " ";
    // Fault-injected steps run as plain ones: the record is about the
    // engine's decisions, and fault_crossings already counts its surface.
    if (step.kind == FuzzStep::Kind::kApply ||
        step.kind == FuzzStep::Kind::kFaultApply) {
      std::string line = where + "apply " +
                         std::string(TransformKindName(step.transform));
      for (Session* s : {&l.traced, &l.indexed, &l.linear}) {
        const std::vector<Opportunity> ops =
            s->FindOpportunities(step.transform);
        if (ops.empty()) {
          if (s == &l.traced) line += " none";
          continue;
        }
        const OrderStamp stamp =
            s->Apply(ops[static_cast<std::size_t>(step.op_index) % ops.size()]);
        if (s == &l.traced) line += " -> t" + std::to_string(stamp);
      }
      blocks.push_back({line + "\n", ""});
      continue;
    }
    if (seed % 2 == 1 && i == c.steps.size() / 2) {
      // Odd seeds delete the last top-level loop mid-schedule, so later
      // undos, probes and the batch meet edit-blocked chains.
      std::string line = where + "edit";
      for (Session* s : {&l.traced, &l.indexed, &l.linear}) {
        const auto& top = s->program().top();
        const auto loop =
            std::find_if(top.rbegin(), top.rend(), [](const StmtPtr& stmt) {
              return stmt->kind == StmtKind::kDo;
            });
        if (loop == top.rend()) continue;
        const OrderStamp stamp = s->editor().DeleteStmt(**loop);
        if (s == &l.traced) line += " -> t" + std::to_string(stamp);
      }
      blocks.push_back({line + "\n", ""});
    }
    const std::vector<OrderStamp> live = LiveStamps(l.indexed);
    if (live.empty()) continue;
    const OrderStamp stamp =
        live[static_cast<std::size_t>(step.undo_index) % live.size()];
    undo_all(where + "undo t" + std::to_string(stamp),
             [&](Session& s) { return s.Undo(stamp); });
  }

  Rng rng(c.undo_shuffle_seed);
  std::vector<OrderStamp> subset = LiveStamps(l.indexed);
  rng.Shuffle(subset);
  subset.resize((subset.size() + 1) / 2);
  std::vector<std::vector<OrderStamp>> undone(3);
  int which = 0;
  undo_all("undoset " + Stamps(subset), [&](Session& s) {
    return s.UndoSet(subset, &undone[static_cast<std::size_t>(which++)]);
  });
  blocks.back().text += "  removed " + Stamps(undone[0]) + " / " +
                        Stamps(undone[1]) + " / " + Stamps(undone[2]) + "\n";
  blocks.push_back({"source " + Hash(l.traced.Source()) + " " +
                        Hash(l.indexed.Source()) + " " +
                        Hash(l.linear.Source()) + "\n",
                    ""});
  return blocks;
}

// Seeds 1-12, plus three whose cascades change which records the affected
// region contains after the index was queried: only the re-query past the
// last adjudicated stamp keeps the indexed scan equal to the history's
// there.
const std::uint64_t kGoldenSeeds[] = {1, 2, 3, 4,  5,  6,   7,   8,
                                      9, 10, 11, 12, 560, 711, 724};

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(UndoGolden, EngineReproducesTheRecordedSchedules) {
  std::ifstream in(std::string(PIVOT_CORPUS_DIR) + "/undo_golden.txt");
  ASSERT_TRUE(in.good()) << "missing tests/corpus/undo_golden.txt";
  std::ostringstream expected_text;
  expected_text << in.rdbuf();
  const std::vector<std::string> expected = Lines(expected_text.str());

  FaultInjector::Instance().Reset();
  FaultInjector::Instance().StartObserving();
  std::vector<std::string> actual;
  std::vector<const Block*> origin;  // the block each actual line came from
  std::vector<std::vector<Block>> runs;
  for (const std::uint64_t seed : kGoldenSeeds) {
    runs.push_back(RunSchedule(seed));
  }
  FaultInjector::Instance().Reset();
  for (const std::vector<Block>& run : runs) {
    for (const Block& block : run) {
      for (std::string& line : Lines(block.text)) {
        actual.push_back(std::move(line));
        origin.push_back(&block);
      }
    }
  }

  for (std::size_t i = 0; i < std::max(expected.size(), actual.size()); ++i) {
    const std::string want = i < expected.size() ? expected[i] : "<eof>";
    const std::string got = i < actual.size() ? actual[i] : "<eof>";
    if (want == got) continue;
    ADD_FAILURE() << "undo_golden.txt line " << (i + 1) << "\n  expected: "
                  << want << "\n  actual:   " << got
                  << "\n--- trace of that undo (linear, traced session) ---\n"
                  << (i < origin.size() ? origin[i]->trace : std::string());
    break;
  }
}

// The LIFO fast path may skip the scans only where they provably find
// nothing, so it must never change what an undo decides. Seed 1193 is the
// case that broke it: at step 57, Undo(t19)'s affected scan cascades into
// t22. t19 was inverted while t22 was live, so inverting t22 restores no
// earlier state; but nothing later than t22 was live, so the fast path
// skipped t22's restored scan, and the indexed session succeeded where
// the linear one, whose restored scan cascades into t5, refuses.
TEST(UndoGolden, IndexedAndLinearDecideEveryUndoAlike) {
  FaultInjector::Instance().Reset();
  std::vector<std::uint64_t> seeds(std::begin(kGoldenSeeds),
                                   std::end(kGoldenSeeds));
  seeds.push_back(1193);
  for (const std::uint64_t seed : seeds) {
    for (const Block& block : RunSchedule(seed)) {
      EXPECT_EQ(block.divergence, "") << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace pivot
