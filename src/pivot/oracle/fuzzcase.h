// Fuzz cases: self-contained, replayable transform/undo schedules.
//
// A fuzz case captures everything a failure needs to reproduce
// deterministically: the program source, the input environments the
// semantics oracle executes under, a step list (apply / undo /
// fault-injected apply / fault-injected undo), and the shuffle seed of the
// final independent-order undo phase. Opportunities are referenced *by
// index into the deterministic Find order*, not by statement id, so a case
// survives serialization, shrinking and replay in a fresh process.
//
// ReplayFuzzCase is the whole oracle harness in one call: it drives two
// sessions through the schedule in lockstep, checks the semantics oracle,
// the session validator and the printer/parser round-trip after every
// mutation, checks rollback atomicity on every fault-injected step, then
// undoes a random subset of the surviving history in two different orders
// (convergence check) and unwinds the rest (restoration check).
#ifndef PIVOT_ORACLE_FUZZCASE_H_
#define PIVOT_ORACLE_FUZZCASE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "pivot/core/session.h"
#include "pivot/transform/transform.h"

namespace pivot {

struct FuzzStep {
  enum class Kind {
    kApply,       // apply FindOpportunities(transform)[op_index % found]
    kUndo,        // undo the (undo_index % live)-th live transformation
    kFaultApply,  // kApply with ArmNthCrossing(fault_countdown)
    kFaultUndo,   // kUndo with ArmNthCrossing(fault_countdown)
  };
  Kind kind = Kind::kApply;
  TransformKind transform = TransformKind::kDce;  // apply variants
  int op_index = 0;                               // apply variants
  int undo_index = 0;                             // undo variants
  int fault_countdown = 1;                        // fault variants

  friend bool operator==(const FuzzStep&, const FuzzStep&) = default;
};

struct FuzzCase {
  std::string source;
  std::vector<std::vector<double>> inputs;  // empty => DefaultOracleInputs
  std::vector<FuzzStep> steps;
  // Seed of the final-phase shuffles (subset choice and both undo orders).
  std::uint64_t undo_shuffle_seed = 1;

  friend bool operator==(const FuzzCase&, const FuzzCase&) = default;
};

// --- serialization (the tests/corpus/*.fuzzcase format) ---
//
//   # comment
//   seed 42
//   input 1.5 0
//   step apply CSE 0
//   step undo 1
//   step fault-apply ICM 0 3
//   step fault-undo 0 2
//   source
//   <program text to end of file>
std::string SerializeFuzzCase(const FuzzCase& c);

// Parses the format above. Returns false and sets *error on malformed
// input (unknown directive, bad transform name, missing source).
bool DeserializeFuzzCase(const std::string& text, FuzzCase* out,
                         std::string* error);

struct FuzzGenOptions {
  int num_steps = 60;
  int program_stmts = 40;
  double division_bias = 0.35;  // fault-capable program fragments
  double undo_fraction = 0.25;  // fraction of steps that are undos
  double fault_fraction = 0.15; // fraction of steps that are fault-injected
};

// Deterministically derives a whole case (program + schedule) from `seed`.
FuzzCase GenerateFuzzCase(std::uint64_t seed, const FuzzGenOptions& opts = {});

// --- replay ---

struct ReplayResult {
  bool ok = true;
  std::string failure;    // first oracle finding (empty when ok)
  int failing_step = -1;  // step index, or -1 when the final phase failed

  // Schedule accounting (skips are normal: a step whose transformation has
  // no opportunity left, or whose undo target is blocked, is a no-op).
  int applied = 0;
  int undone = 0;
  int faults_absorbed = 0;  // injected faults that fired and rolled back
  int skipped = 0;
  int final_undone = 0;  // transformations undone in the final phase
};

struct ReplayOptions {
  // Options for both lockstep sessions (engine mode, analysis policy,
  // strictness) — the handle differential campaigns use to put the
  // indexed / linear / batch machinery under the oracle battery.
  SessionOptions session;
  // Final convergence phase: mirror the set undone on A with a single
  // Session::UndoSet batch on B instead of per-stamp sequential undos.
  // The planner's observational-equivalence gate: every intermediate
  // oracle check, the convergence check and the surviving-set tolerance
  // are unchanged.
  bool planner_batch_mirror = false;
};

// `trace`, when given, receives a step-by-step account of the replay
// (resolved opportunities, undo stamps, per-step source) — the CLI's
// `replay -v`, for diagnosing a failing case by hand.
ReplayResult ReplayFuzzCase(const FuzzCase& c, std::ostream* trace = nullptr);
ReplayResult ReplayFuzzCase(const FuzzCase& c, const ReplayOptions& opts,
                            std::ostream* trace = nullptr);

}  // namespace pivot

#endif  // PIVOT_ORACLE_FUZZCASE_H_
