//===- linalg/FourierMotzkin.h - Linear inequality systems ------*- C++ -*-===//
///
/// \file
/// A system of linear constraints over Q^n (inequalities a.x + c >= 0 and
/// equalities a.x + c == 0) with Fourier-Motzkin variable elimination.
/// Dependence analysis builds the dependence polyhedron here and asks for
/// rational feasibility and per-variable bounds; loop transforms use bounds
/// projection when reasoning about tiled iteration spaces. Every bounds
/// projection runs through a ProjectionWalk, which projects one system onto
/// a rising sequence of its variables while sharing the elimination prefix.
///
//===----------------------------------------------------------------------===//

#ifndef ALP_LINALG_FOURIERMOTZKIN_H
#define ALP_LINALG_FOURIERMOTZKIN_H

#include "linalg/Matrix.h"
#include "support/Arena.h"
#include "support/Budget.h"

#include <optional>
#include <string>
#include <vector>

namespace alp {

/// One linear constraint: Coeffs . x + Const (>= 0 | == 0).
struct LinearConstraint {
  enum class Kind { Inequality, Equality };

  Vector Coeffs;
  Rational Const;
  Kind CKind = Kind::Inequality;

  /// Evaluates Coeffs . x + Const.
  Rational evaluate(const Vector &X) const;
  bool isSatisfiedBy(const Vector &X) const;

  std::string str() const;
};

/// Inclusive rational bounds on one variable; either side may be absent.
struct VariableBounds {
  std::optional<Rational> Lower;
  std::optional<Rational> Upper;
};

/// Toggles the all-integer (Den == 1) elimination fast path; returns the
/// previous setting. On by default; property tests flip it to compare the
/// checked-int64 and Rational paths bit for bit. Thread-safe.
bool setFmIntegerFastPath(bool Enabled);

/// A conjunction of linear constraints over Q^NumVars. Constraint storage
/// is small-size-optimized like Vector/Matrix: up to 16 rows inline,
/// spilling to the active Arena (or the heap) beyond that.
class ConstraintSystem {
public:
  using Storage = SmallVec<LinearConstraint, 16, &detail::matrixAllocHook>;

  explicit ConstraintSystem(unsigned NumVars) : NumVars(NumVars) {}

  unsigned numVars() const { return NumVars; }
  unsigned size() const { return Constraints.size(); }
  const Storage &constraints() const { return Constraints; }

  /// Adds Coeffs . x + Const >= 0.
  void addInequality(const Vector &Coeffs, const Rational &Const);
  /// Adds Coeffs . x + Const == 0.
  void addEquality(const Vector &Coeffs, const Rational &Const);
  /// Adds Lo <= x_Var, i.e. x_Var - Lo >= 0.
  void addLowerBound(unsigned Var, const Rational &Lo);
  /// Adds x_Var <= Hi.
  void addUpperBound(unsigned Var, const Rational &Hi);

  /// Eliminates variable \p Var by Fourier-Motzkin, producing an equivalent
  /// projection onto the remaining variables (the variable keeps its index;
  /// its coefficient becomes zero in every constraint). Unbudgeted: throws
  /// AlpException on rational overflow.
  void eliminate(unsigned Var);

  /// Budgeted elimination: charges lower x upper pair combinations against
  /// \p Budget and fails with BudgetExceeded when a limit trips (every
  /// charge comes before any row changes, so the system is left as it was)
  /// or RationalOverflow when 64-bit arithmetic blows up (the system is
  /// then spent). Never throws.
  Status eliminate(unsigned Var, ResourceBudget *Budget);

  /// True if the system has a rational solution. Runs FM elimination on a
  /// copy; exact, exponential in the worst case but tiny here.
  bool isRationallyFeasible() const;

  /// Budgeted feasibility; a Status instead of an exception or a hang on
  /// adversarial systems. Never throws.
  Expected<bool> isRationallyFeasible(ResourceBudget *Budget) const;

  /// Tightest derivable bounds on \p Var: eliminates every other variable
  /// and reads the surviving single-variable constraints. Returns nullopt
  /// if the system is infeasible. The one-axis case of ProjectionWalk;
  /// throws AlpException on overflow or an injected fault.
  std::optional<VariableBounds> boundsOf(unsigned Var) const;

  /// Budgeted bounds projection (a one-axis ProjectionWalk). Never throws.
  Expected<std::optional<VariableBounds>>
  boundsOf(unsigned Var, ResourceBudget *Budget) const;

  /// True if \p X satisfies every constraint.
  bool contains(const Vector &X) const;

  std::string str() const;

private:
  friend class ProjectionWalk;

  /// The budget calls one elimination makes, in order: the failpoint
  /// evaluation, Rows elimination steps, then (Fourier-Motzkin pairing
  /// only) Pairs elimination steps and a constraint-count check of Count.
  struct EliminationCharges {
    uint64_t Rows = 0;
    uint64_t Pairs = 0;
    uint64_t Count = 0;
    bool Paired = false;
  };

  /// Per-row flags for simplify: nonzero marks a row the last elimination
  /// left untouched (zero coefficient on the eliminated variable).
  using RowFlags = SmallVec<uint8_t, 64>;

  unsigned NumVars;
  Storage Constraints;
  /// True when every row is canonical (simplify's normal form), rows with
  /// a variable are pairwise distinct and no row is trivially true. Set by
  /// simplify; cleared by addInequality/addEquality and on entry to every
  /// elimination, so an early exit (budget trip, overflow) leaves it clear.
  bool Simplified = false;

  /// Shared elimination body: may throw AlpException on overflow; returns
  /// BudgetExceeded when \p Budget (nullable) trips. Every budget call
  /// happens before the rows change, so a trip leaves the system as it
  /// was. \p Charges (nullable) receives the budget calls once they have
  /// all passed.
  Status eliminateImpl(unsigned Var, ResourceBudget *Budget,
                       EliminationCharges *Charges = nullptr);

  /// Makes the budget calls \p C records, in eliminateImpl's order, and
  /// stops at the first that fails.
  static Status replayCharges(const EliminationCharges &C,
                              ResourceBudget *Budget);

  /// Reads bounds on \p Var off an already-projected system (only
  /// constraints whose sole surviving variable is Var contribute).
  std::optional<VariableBounds> readBoundsOf(unsigned Var) const;

  /// Normalizes every row to its canonical integer form, drops trivially
  /// true rows and duplicates (first occurrence wins), keeps trivially
  /// false rows. Incremental when \p Untouched is given, which the caller
  /// may do only if the system was simplified before the elimination that
  /// produced the rows: an untouched row is then already canonical and
  /// distinct from the other untouched rows, so it is only checked against
  /// earlier rewritten rows, never renormalized. Either way the result is
  /// the same.
  void simplify(const RowFlags *Untouched = nullptr);
};

/// Projects one system onto a rising sequence of its variables, sharing
/// the elimination prefix between projections. Projection V eliminates
/// 0..V-1 and then V+1..n-1, exactly as a from-scratch boundsOf(V) would;
/// the walk keeps the prefix state S_V (0..V-1 already eliminated),
/// advances it only when a projection needs it, and runs each projection's
/// suffix on a copy of S_V inside a nested ArenaScope.
///
/// Budget identity: each prefix elimination logs the budget calls it made
/// (EliminationCharges), and every later projection replays that log
/// before its own live eliminations. A projection therefore charges the
/// same steps in the same order as from scratch, trips at the same call
/// and overflows at the same elimination; budget gauges and degradations
/// do not depend on the walk. Replayed count checks read the budget's cap
/// as it is at replay time. A failed prefix advance is discarded, so the
/// next projection redoes (and recharges) it live, as from scratch.
///
/// The prefix lives in two thread-local arenas used alternately: advancing
/// copies S_k out of one into the other and eliminates there, so the
/// previous prefix is rewound instead of piling up. The source system must
/// outlive the walk; walks on one thread nest but must not interleave.
class ProjectionWalk {
public:
  explicit ProjectionWalk(const ConstraintSystem &CS);
  ~ProjectionWalk();
  ProjectionWalk(const ProjectionWalk &) = delete;
  ProjectionWalk &operator=(const ProjectionWalk &) = delete;

  /// Tightest bounds on \p Var, or nullopt if the system is infeasible.
  /// \p Var must exceed the Var of every earlier call. Never throws
  /// AlpException.
  Expected<std::optional<VariableBounds>> boundsOf(unsigned Var,
                                                   ResourceBudget *Budget);

private:
  using Charges = ConstraintSystem::EliminationCharges;

  /// Brings the prefix to S_Var, eliminating Built..Var-1 live.
  Status advanceTo(unsigned Var, ResourceBudget *Budget);
  const ConstraintSystem &prefix() const { return Built ? Prefix : Source; }

  const ConstraintSystem &Source;
  ConstraintSystem Prefix;          ///< S_Built; Source stands in for S_0.
  unsigned Built = 0;               ///< Variables eliminated in Prefix.
  unsigned NextVar = 0;             ///< Lowest Var the next call may ask.
  SmallVec<Charges, 32> Log;        ///< Log[V]: charges of eliminating V.
  Arena *Slots[2];                  ///< Prefix arenas; Prefix is in Cur.
  Arena::Mark Base[2];              ///< Rewind points at construction.
  unsigned Cur = 0;
  unsigned Depth;                   ///< Nesting depth; walks must not interleave.
};

} // namespace alp

#endif // ALP_LINALG_FOURIERMOTZKIN_H
