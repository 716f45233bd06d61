/// \file
/// IAMA: the Incremental Anytime Multi-objective query optimization
/// Algorithm — main control loop (paper §4.1, Algorithm 1).
///
/// An IamaSession drives one interactive optimization of one query. Each
/// Step() performs one iteration of the main control loop: it invokes the
/// incremental optimizer for the current bounds and resolution, takes a
/// frontier snapshot (the "Visualize" call of the paper), and then either
/// refines the resolution or — if the interaction policy changed the
/// bounds — resets the resolution to 0. The session ends when the policy
/// selects a plan (or the caller stops stepping).
///
/// The human user of the paper's interactive interface is modelled by the
/// InteractionPolicy interface; scripted policies reproduce the paper's
/// evaluation scenarios (no interaction; bound tightening/relaxing).
#ifndef MOQO_CORE_IAMA_H_
#define MOQO_CORE_IAMA_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/incremental_optimizer.h"
#include "core/resolution.h"
#include "cost/cost_vector.h"
#include "plan/cost_model.h"

namespace moqo {

/// What the "user" sees after each optimizer invocation: the cost vectors
/// of the completed result plans respecting the current bounds at the
/// current resolution (Res^Q[0..b, 0..r]).
struct FrontierSnapshot {
  /// Main-loop iteration number (1-based).
  int iteration = 0;
  /// Resolution used by this iteration.
  int resolution = 0;
  /// Precision factor of that resolution.
  double alpha = 1.0;
  /// Bounds used by this iteration.
  CostVector bounds;
  /// The approximate Pareto frontier: one entry per result plan, carrying
  /// the plan id, cost vector, interesting-order tag, and the resolution
  /// the plan was inserted at.
  std::vector<CellIndex::Entry> plans;
};

/// A user action taken after looking at a frontier snapshot.
struct UserAction {
  /// The kind of interaction (paper Figure 1: wait, drag bounds, click).
  enum class Kind {
    kContinue,    ///< No input; the loop refines the resolution.
    kSetBounds,   ///< Drag bounds to a new position; resolution resets.
    kSelectPlan,  ///< Click a cost tradeoff; optimization ends.
  };
  /// Which action this is; determines which payload field is meaningful.
  Kind kind = Kind::kContinue;
  /// New cost bounds; only meaningful for kSetBounds.
  CostVector new_bounds;
  /// The chosen plan; only meaningful for kSelectPlan.
  PlanId selected = kInvalidPlan;

  /// The no-input action: refine the resolution.
  static UserAction Continue() { return {}; }
  /// A bounds-drag action: restrict (or relax) the cost space to `b`.
  static UserAction SetBounds(const CostVector& b) {
    UserAction a;
    a.kind = Kind::kSetBounds;
    a.new_bounds = b;
    return a;
  }
  /// A plan-click action: end the session with plan `p`.
  static UserAction SelectPlan(PlanId p) {
    UserAction a;
    a.kind = Kind::kSelectPlan;
    a.selected = p;
    return a;
  }
};

/// Models the user in the interactive loop.
class InteractionPolicy {
 public:
  virtual ~InteractionPolicy() = default;  ///< Polymorphic base.
  /// Returns the action the modelled user takes after seeing `snapshot`.
  virtual UserAction OnSnapshot(const FrontierSnapshot& snapshot) = 0;
};

/// The paper's evaluation scenario: no user interaction, bounds fixed.
class NoInteractionPolicy : public InteractionPolicy {
 public:
  /// Always continues (pure resolution refinement).
  UserAction OnSnapshot(const FrontierSnapshot&) override {
    return UserAction::Continue();
  }
};

/// Replays a scripted sequence of (iteration -> action) events; useful for
/// bound-dragging scenarios in tests and benchmarks. If several events
/// name the same iteration, the first one in the script wins — one action
/// per snapshot, later duplicates are ignored.
class ScriptedPolicy : public InteractionPolicy {
 public:
  /// One scripted interaction: act after the named main-loop iteration.
  struct Event {
    /// 1-based main-loop iteration after which to act.
    int iteration;
    /// The action to take at that iteration.
    UserAction action;
  };
  /// Builds a policy replaying `events` (order defines tie-breaking).
  explicit ScriptedPolicy(std::vector<Event> events)
      : events_(std::move(events)) {}

  /// Returns the scripted action for this snapshot's iteration, or
  /// Continue when no event matches.
  UserAction OnSnapshot(const FrontierSnapshot& snapshot) override {
    for (const Event& e : events_) {
      if (e.iteration == snapshot.iteration) return e.action;
    }
    return UserAction::Continue();
  }

 private:
  std::vector<Event> events_;
};

/// Configuration of one IamaSession.
struct IamaOptions {
  /// The resolution (precision) schedule driving anytime refinement.
  ResolutionSchedule schedule = ResolutionSchedule::Moderate(5);
  /// Default bounds (Algorithm 1 line 5); unset = unbounded. Components
  /// may be +infinity but not NaN.
  std::optional<CostVector> initial_bounds;
  /// Per-invocation optimizer knobs (pruning design, threading, pool,
  /// cross-query fragment sharing via OptimizerOptions::fragment_store /
  /// OptimizerOptions::fragment_publish).
  OptimizerOptions optimizer;
};

/// Result of a full Run(): the selected plan (if any) plus statistics.
struct SessionResult {
  /// The plan chosen by the policy; kInvalidPlan if the loop just ended.
  PlanId selected_plan = kInvalidPlan;
  /// Main-loop iterations executed.
  int iterations = 0;
};

/// One interactive anytime optimization of one query (Algorithm 1).
///
/// Drive it either step by step — Step() then ApplyAction() — or with
/// Run(), which loops a policy until it selects a plan. The session is
/// not thread-safe; exactly one thread may drive it at a time (the
/// sharded OptimizerService guarantees this by construction).
class IamaSession {
 public:
  /// Binds the session to a query's plan space. `factory` must outlive
  /// the session.
  IamaSession(const PlanFactory& factory, IamaOptions options);

  /// Performs one main-loop iteration (optimize + visualize) and returns
  /// the snapshot. Afterwards, apply a user action via ApplyAction (or use
  /// Run below). Resolution advancement happens inside ApplyAction.
  FrontierSnapshot Step();

  /// Applies a user action to the loop state; returns true if the session
  /// ended (plan selected).
  bool ApplyAction(const UserAction& action);

  /// Re-bounds the session mid-run — the programmatic form of the user
  /// dragging bounds (UserAction::kSetBounds), exposed for serving layers
  /// (OptimizerService::ApplyBounds). The resolution resets to 0 so the
  /// next Step() shows first results for the new bounds quickly, and all
  /// previously generated plans are reused (the incremental property:
  /// paper §4.2, bounds-change path). Returns false — changing nothing —
  /// if `bounds` does not match the session's metric dimensionality or
  /// has a NaN component.
  bool SetBounds(const CostVector& bounds);

  /// Rebinds the session's optimizer to `pool` (null = every cell inline).
  /// The work-stealing hook for serving layers: a scheduler thread that
  /// picks this session up rebinds it to its own pool partition before
  /// stepping, so a pool never sees two concurrent ParallelFor callers.
  /// Only legal between Step() invocations, from the driving thread; see
  /// IncrementalOptimizer::RebindPool for the full contract.
  void RebindPool(ThreadPool* pool) { optimizer_.RebindPool(pool); }

  /// Runs the main loop until the policy selects a plan or
  /// `max_iterations` snapshots were produced. `observer`, if given, sees
  /// every snapshot.
  SessionResult Run(InteractionPolicy* policy, int max_iterations,
                    const std::function<void(const FrontierSnapshot&)>&
                        observer = nullptr);

  /// The underlying incremental optimizer (live counters, plan arena).
  const IncrementalOptimizer& optimizer() const { return optimizer_; }
  /// Mutable access to the optimizer, for serving layers that re-probe
  /// the fragment store before a run's first step
  /// (IncrementalOptimizer::ReprobeFragments). Same threading contract
  /// as Step(): only the thread driving the session, only between
  /// invocations.
  IncrementalOptimizer* mutable_optimizer() { return &optimizer_; }
  /// The bounds the next Step() will optimize under.
  const CostVector& bounds() const { return bounds_; }
  /// The resolution the next Step() will optimize at.
  int resolution() const { return resolution_; }
  /// Main-loop iterations executed so far (= snapshots produced).
  int iteration() const { return iteration_; }

 private:
  const PlanFactory& factory_;
  IamaOptions options_;
  CostVector bounds_;
  IncrementalOptimizer optimizer_;
  int resolution_ = 0;
  int iteration_ = 0;
};

}  // namespace moqo

#endif  // MOQO_CORE_IAMA_H_
