// Property-based tests: randomized programs, random transformation
// sequences, random undo orders. Invariants checked after every step:
//   * semantics preserved (interpreter oracle),
//   * structural validity (backlinks, registry, slots),
//   * undoing every transformation restores the original program text.
#include <gtest/gtest.h>

#include <algorithm>

#include <iterator>
#include <ostream>
#include <string>

#include "pivot/core/session.h"
#include "pivot/ir/diff.h"
#include "pivot/ir/parser.h"
#include "pivot/ir/printer.h"
#include "pivot/ir/random_program.h"
#include "pivot/ir/validate.h"
#include "pivot/support/rng.h"
#include "pivot/transform/catalog.h"
#include "pivot/transform/spec.h"

namespace pivot {
namespace {

struct PropertyParams {
  std::uint64_t seed;
  UndoOptions::Heuristic heuristic;
  bool regional;
};

class RandomizedUndo : public ::testing::TestWithParam<PropertyParams> {};

std::vector<double> InputFor(Rng& rng) {
  return {static_cast<double>(rng.UniformInt(-5, 5)),
          static_cast<double>(rng.UniformInt(1, 9)) / 2.0};
}

// Applies up to `budget` random transformations at random sites.
std::vector<OrderStamp> ApplyRandom(Session& s, Rng& rng, int budget,
                                    const Program& original,
                                    const std::vector<double>& input) {
  std::vector<OrderStamp> stamps;
  for (int step = 0; step < budget; ++step) {
    const TransformKind kind =
        TransformKindFromIndex(rng.UniformInt(0, kNumTransformKinds - 1));
    const auto ops = GetTransformation(kind).Find(s.analyses());
    if (ops.empty()) continue;
    const Opportunity& op = ops[rng.Index(ops.size())];
    stamps.push_back(s.Apply(op));
    EXPECT_TRUE(SameBehavior(original, s.program(), input))
        << "apply " << TransformKindName(kind) << " broke semantics:\n"
        << s.Source();
    ExpectValid(s.program());
    // Every record's action sequence matches its declared specification.
    EXPECT_EQ(ValidateRecord(s.journal(),
                             *s.history().FindByStamp(stamps.back())),
              "");
  }
  return stamps;
}

TEST_P(RandomizedUndo, ApplyManyUndoAllInRandomOrder) {
  const PropertyParams& params = GetParam();
  Rng rng(params.seed);

  RandomProgramOptions gen;
  gen.seed = params.seed * 7919 + 13;
  gen.target_stmts = 40;
  Program program = GenerateRandomProgram(gen);
  const std::string original_text = ToSource(program);
  Program original = program.Clone();
  const std::vector<double> input = InputFor(rng);

  UndoOptions options;
  options.heuristic = params.heuristic;
  options.regional = params.regional;
  Session s(std::move(program), options);

  std::vector<OrderStamp> stamps =
      ApplyRandom(s, rng, /*budget=*/22, original, input);

  // Undo everything, in a random (independent) order.
  rng.Shuffle(stamps);
  for (OrderStamp t : stamps) {
    if (s.history().FindByStamp(t)->undone) continue;
    s.Undo(t);
    EXPECT_TRUE(SameBehavior(original, s.program(), input))
        << "undo t" << t << " broke semantics:\n" << s.Source();
    ExpectValid(s.program());
  }
  // With the whole history unwound the source must be the original text.
  EXPECT_EQ(ToSource(s.program()), original_text)
      << "statement-level diff:\n" << DiffToString(original, s.program());
}

TEST_P(RandomizedUndo, UndoSubsetKeepsRestApplied) {
  const PropertyParams& params = GetParam();
  Rng rng(params.seed ^ 0xabcdef);

  RandomProgramOptions gen;
  gen.seed = params.seed * 104729 + 7;
  gen.target_stmts = 30;
  Program program = GenerateRandomProgram(gen);
  Program original = program.Clone();
  const std::vector<double> input = InputFor(rng);

  UndoOptions options;
  options.heuristic = params.heuristic;
  options.regional = params.regional;
  Session s(std::move(program), options);

  std::vector<OrderStamp> stamps =
      ApplyRandom(s, rng, /*budget=*/8, original, input);
  if (stamps.empty()) return;

  // Undo a random half.
  rng.Shuffle(stamps);
  for (std::size_t i = 0; i < stamps.size() / 2; ++i) {
    if (s.history().FindByStamp(stamps[i])->undone) continue;
    s.Undo(stamps[i]);
    EXPECT_TRUE(SameBehavior(original, s.program(), input)) << s.Source();
    ExpectValid(s.program());
  }
  // Whatever remains applied must still pass its own safety check.
  for (TransformRecord* rec : s.history().Live()) {
    EXPECT_TRUE(GetTransformation(rec->kind)
                    .CheckSafety(s.analyses(), s.journal(), *rec))
        << "live t" << rec->stamp << " (" << TransformKindName(rec->kind)
        << ") failed safety after subset undo";
  }
}

std::vector<PropertyParams> MakeParams() {
  std::vector<PropertyParams> params;
  for (std::uint64_t seed :
       {11u, 22u, 33u, 44u, 55u, 66u, 77u, 88u, 99u, 110u, 121u, 132u}) {
    params.push_back({seed, UndoOptions::Heuristic::kPublished, true});
    params.push_back({seed, UndoOptions::Heuristic::kConservative, false});
  }
  return params;
}

// How gtest (and so ctest's test list) shows a case's parameter. Without
// it gtest dumps the struct's raw bytes, padding included, and the test
// ids change from build to build.
void PrintTo(const PropertyParams& params, std::ostream* os) {
  *os << "seed " << params.seed << ", "
      << (params.heuristic == UndoOptions::Heuristic::kPublished
              ? "published"
              : "conservative")
      << ", " << (params.regional ? "regional" : "global");
}

std::string ParamsName(const ::testing::TestParamInfo<PropertyParams>& info) {
  const PropertyParams& params = info.param;
  return "seed" + std::to_string(params.seed) + "_" +
         (params.heuristic == UndoOptions::Heuristic::kPublished
              ? "published"
              : "conservative") +
         (params.regional ? "_regional" : "_global");
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedUndo,
                         ::testing::ValuesIn(MakeParams()), ParamsName);

// Reverse-order undo over random programs always restores the original.
class ReverseOrderProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ReverseOrderProperty, FullUnwindRestoresText) {
  Rng rng(GetParam());
  RandomProgramOptions gen;
  gen.seed = GetParam() * 31 + 5;
  gen.target_stmts = 28;
  Program program = GenerateRandomProgram(gen);
  const std::string original_text = ToSource(program);
  Program original = program.Clone();
  const std::vector<double> input = InputFor(rng);

  Session s(std::move(program));
  ApplyRandom(s, rng, 8, original, input);
  while (s.UndoLast() != kNoStamp) {
    EXPECT_TRUE(SameBehavior(original, s.program(), input)) << s.Source();
    ExpectValid(s.program());
  }
  EXPECT_EQ(ToSource(s.program()), original_text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReverseOrderProperty,
                         ::testing::Values(3, 6, 9, 12, 15, 18));

// Edits followed by unsafe-removal keep the edited semantics.
class EditProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EditProperty, RemoveUnsafeKeepsEditedSemantics) {
  Rng rng(GetParam() ^ 0x5555);
  RandomProgramOptions gen;
  gen.seed = GetParam() * 17 + 3;
  gen.target_stmts = 26;
  Program program = GenerateRandomProgram(gen);
  Program original = program.Clone();
  const std::vector<double> input = InputFor(rng);

  Session s(std::move(program));
  ApplyRandom(s, rng, 6, original, input);

  // Random scalar-constant edit on a top-level assignment.
  std::vector<Stmt*> candidates;
  s.program().ForEachAttached([&](Stmt& st) {
    if (st.kind == StmtKind::kAssign && st.attached) candidates.push_back(&st);
  });
  if (candidates.empty()) return;
  Stmt& victim = *candidates[rng.Index(candidates.size())];
  s.editor().ReplaceExpr(*victim.rhs,
                         MakeIntConst(rng.UniformInt(10, 20)));

  Program edited_reference = s.program().Clone();

  std::vector<OrderStamp> blocked;
  const auto undone = s.RemoveUnsafeTransforms(&blocked);
  ExpectValid(s.program());

  // When nothing was unsafe, removal must not have touched the program.
  if (undone.empty()) {
    EXPECT_TRUE(Program::Equals(edited_reference, s.program()));
  }

  // Every surviving transformation passes its safety check (unless its
  // undo was blocked by the edit itself).
  for (TransformRecord* rec : s.history().Live()) {
    const bool was_blocked =
        std::find(blocked.begin(), blocked.end(), rec->stamp) !=
        blocked.end();
    if (was_blocked) continue;
    EXPECT_TRUE(GetTransformation(rec->kind)
                    .CheckSafety(s.analyses(), s.journal(), *rec));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EditProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

// Interleaved applies, edits and undos: the full interactive workload.
class InterleavedProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(InterleavedProperty, SessionStaysConsistent) {
  Rng rng(GetParam() * 2654435761u + 1);
  RandomProgramOptions gen;
  gen.seed = GetParam() * 97 + 11;
  gen.target_stmts = 28;
  Program program = GenerateRandomProgram(gen);
  const std::vector<double> input = InputFor(rng);

  Session s(std::move(program));
  // `reference` mirrors what the program *means* right now: it is refreshed
  // after every edit and after every removal of unsafe transformations.
  Program reference = s.program().Clone();

  std::vector<OrderStamp> live_stamps;
  for (int step = 0; step < 40; ++step) {
    const int dice = rng.UniformInt(0, 9);
    if (dice < 5) {
      // Apply a random transformation.
      const TransformKind kind = TransformKindFromIndex(
          rng.UniformInt(0, kNumTransformKinds - 1));
      const auto ops = GetTransformation(kind).Find(s.analyses());
      if (ops.empty()) continue;
      live_stamps.push_back(s.Apply(ops[rng.Index(ops.size())]));
      EXPECT_TRUE(SameBehavior(reference, s.program(), input))
          << "apply " << TransformKindName(kind) << "\n" << s.Source();
    } else if (dice < 8) {
      // Undo a random live transformation (if undoable).
      if (live_stamps.empty()) continue;
      const OrderStamp t = live_stamps[rng.Index(live_stamps.size())];
      if (s.history().FindByStamp(t)->undone) continue;
      if (!s.CanUndo(t)) continue;
      s.Undo(t);
      EXPECT_TRUE(SameBehavior(reference, s.program(), input))
          << "undo t" << t << "\n" << s.Source();
    } else {
      // Edit a random assignment's RHS to a fresh constant, then remove
      // whatever became unsafe; the reference resets to the new meaning.
      std::vector<Stmt*> assigns;
      s.program().ForEachAttached([&](Stmt& st) {
        if (st.kind == StmtKind::kAssign) assigns.push_back(&st);
      });
      if (assigns.empty()) continue;
      Stmt& victim = *assigns[rng.Index(assigns.size())];
      s.editor().ReplaceExpr(*victim.rhs,
                             MakeIntConst(rng.UniformInt(30, 60)));
      s.RemoveUnsafeTransforms();
      reference = s.program().Clone();
    }
    ExpectValid(s.program());
    // Live transformations always satisfy their specs and safety.
    for (TransformRecord* rec : s.history().Live()) {
      EXPECT_EQ(ValidateRecord(s.journal(), *rec), "");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterleavedProperty,
                         ::testing::Values(7, 14, 21, 28, 35, 42, 49, 56, 63, 70, 77, 84));


// --- printer <-> parser round-trip ---
//
// Over ASTs in canonical literal form (negations of literals folded into
// the constant, as the parser itself produces), Parse(Print(p)) must give
// back a structurally identical program with identical printed text. The
// generator below is deliberately richer than ir/random_program.cc: every
// binary operator, unary operators over non-literals, negative and
// non-representable real constants, scientific magnitudes, statement
// labels, if/else, and do-loops with explicit (also negative) steps.

ExprPtr RoundTripExpr(Rng& rng, int depth) {
  if (depth <= 0 || rng.Chance(0.35)) {
    switch (rng.UniformInt(0, 4)) {
      case 0: return MakeIntConst(rng.UniformInt(-99, 99));
      case 1: {
        // Mix awkward reals (non-representable, tiny, huge, negative) with
        // arbitrary ones.
        static const double pool[] = {0.1,    -2.5,  1.0 / 3.0, 2.0,
                                      1e-7,   2.5e30, -0.0,     12345.6789};
        if (rng.Chance(0.5)) {
          return MakeRealConst(pool[rng.Index(std::size(pool))]);
        }
        return MakeRealConst((rng.UniformReal() - 0.5) * 1e3);
      }
      case 2: return MakeVarRef("s" + std::to_string(rng.UniformInt(0, 3)));
      case 3: {
        std::vector<ExprPtr> subs;
        subs.push_back(RoundTripExpr(rng, 0));
        return MakeArrayRef("arr1", std::move(subs));
      }
      default: {
        std::vector<ExprPtr> subs;
        subs.push_back(RoundTripExpr(rng, 0));
        subs.push_back(RoundTripExpr(rng, 0));
        return MakeArrayRef("m2", std::move(subs));
      }
    }
  }
  if (rng.Chance(0.15)) {
    // Unary over a non-literal operand only: Neg(literal) is not canonical
    // (the parser folds it into the constant).
    ExprPtr operand = rng.Chance(0.5)
                          ? MakeVarRef("s" + std::to_string(rng.UniformInt(0, 3)))
                          : RoundTripExpr(rng, 0);
    while (IsConst(*operand)) operand = RoundTripExpr(rng, depth - 1);
    return MakeUnary(rng.Chance(0.5) ? UnOp::kNeg : UnOp::kNot,
                     std::move(operand));
  }
  static const BinOp ops[] = {BinOp::kAdd, BinOp::kSub, BinOp::kMul,
                              BinOp::kDiv, BinOp::kMod, BinOp::kLt,
                              BinOp::kLe,  BinOp::kGt,  BinOp::kGe,
                              BinOp::kEq,  BinOp::kNe,  BinOp::kAnd,
                              BinOp::kOr};
  return MakeBinary(ops[rng.Index(std::size(ops))],
                    RoundTripExpr(rng, depth - 1),
                    RoundTripExpr(rng, depth - 1));
}

ExprPtr RoundTripLvalue(Rng& rng) {
  if (rng.Chance(0.3)) {
    std::vector<ExprPtr> subs;
    subs.push_back(RoundTripExpr(rng, 1));
    return MakeArrayRef("arr1", std::move(subs));
  }
  return MakeVarRef("s" + std::to_string(rng.UniformInt(0, 3)));
}

StmtPtr RoundTripStmt(Rng& rng, int depth) {
  StmtPtr stmt;
  const int pick = rng.UniformInt(0, depth > 0 ? 5 : 3);
  switch (pick) {
    case 0:
      stmt = MakeRead(RoundTripLvalue(rng));
      break;
    case 1:
      stmt = MakeWrite(RoundTripExpr(rng, 2));
      break;
    case 4: {
      stmt = MakeIf(RoundTripExpr(rng, 2));
      stmt->body.push_back(RoundTripStmt(rng, depth - 1));
      if (rng.Chance(0.5)) {
        stmt->else_body.push_back(RoundTripStmt(rng, depth - 1));
      }
      break;
    }
    case 5: {
      ExprPtr step;
      if (rng.Chance(0.6)) {
        step = MakeIntConst(rng.Chance(0.5) ? rng.UniformInt(1, 3)
                                            : -rng.UniformInt(1, 3));
      }
      stmt = MakeDo("i" + std::to_string(rng.UniformInt(0, 1)),
                    RoundTripExpr(rng, 1), RoundTripExpr(rng, 1),
                    std::move(step));
      const int kids = rng.UniformInt(0, 2);
      for (int k = 0; k < kids; ++k) {
        stmt->body.push_back(RoundTripStmt(rng, depth - 1));
      }
      break;
    }
    default:
      stmt = MakeAssign(RoundTripLvalue(rng), RoundTripExpr(rng, 2));
      break;
  }
  if (rng.Chance(0.25)) stmt->label = static_cast<int>(rng.UniformInt(1, 99));
  return stmt;
}

class RoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoundTripProperty, ParsePrintIsIdentity) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 25; ++iter) {
    Program p;
    const int top = static_cast<int>(rng.UniformInt(1, 8));
    for (int i = 0; i < top; ++i) p.Append(RoundTripStmt(rng, 2));
    const std::string text = ToSource(p);
    Program q = Parse(text);
    ExpectValid(q);
    EXPECT_TRUE(Program::Equals(p, q))
        << "reparse changed structure:\n" << text << "\n-- diff --\n"
        << DiffToString(p, q);
    EXPECT_EQ(ToSource(q), text) << "second print differs";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripProperty,
                         ::testing::Values(3, 6, 9, 12, 101, 202, 303, 404));

TEST(RoundTrip, NegativeLiteralFoldsBack) {
  Program p = Parse("x = 2 * (-5)");
  const Expr& rhs = *p.top()[0]->rhs;
  ASSERT_EQ(rhs.kids[1]->kind, ExprKind::kIntConst);
  EXPECT_EQ(rhs.kids[1]->ival, -5);
  EXPECT_EQ(ToSource(p), "x = 2 * (-5)\n");
}

TEST(RoundTrip, IntegralRealKeepsRealKind) {
  Program p;
  p.Append(MakeAssign(MakeVarRef("x"), MakeRealConst(2.0)));
  EXPECT_EQ(ToSource(p), "x = 2.0\n");
  Program q = Parse(ToSource(p));
  EXPECT_EQ(q.top()[0]->rhs->kind, ExprKind::kRealConst);
  EXPECT_TRUE(Program::Equals(p, q));
}

TEST(RoundTrip, ScientificMagnitudesSurvive) {
  Program p;
  p.Append(MakeAssign(MakeVarRef("x"), MakeRealConst(1e-7)));
  p.Append(MakeAssign(MakeVarRef("y"), MakeRealConst(2.5e30)));
  p.Append(MakeAssign(MakeVarRef("z"), MakeRealConst(-1.0 / 3.0)));
  Program q = Parse(ToSource(p));
  EXPECT_TRUE(Program::Equals(p, q)) << ToSource(p);
  EXPECT_EQ(ToSource(q), ToSource(p));
}

}  // namespace
}  // namespace pivot
