#include "core/iama.h"

#include <algorithm>

namespace moqo {
namespace {

CostVector InitialBounds(const PlanFactory& factory,
                         const IamaOptions& options) {
  const int dims = factory.cost_model().schema().dims();
  if (options.initial_bounds.has_value()) {
    // Checked here, before the optimizer prunes the seed scans against
    // them: a dimension mismatch would otherwise read past the end of
    // the shorter vector inside the dominance checks.
    MOQO_CHECK(options.initial_bounds->dims() == dims);
    MOQO_CHECK(!options.initial_bounds->HasNaN());
    return *options.initial_bounds;
  }
  return CostVector::Infinite(dims);
}

}  // namespace

IamaSession::IamaSession(const PlanFactory& factory, IamaOptions options)
    : factory_(factory),
      options_(options),
      bounds_(InitialBounds(factory, options)),
      optimizer_(factory, options.schedule, bounds_, options.optimizer) {}

FrontierSnapshot IamaSession::Step() {
  ++iteration_;
  optimizer_.Optimize(bounds_, resolution_);
  FrontierSnapshot snapshot;
  snapshot.iteration = iteration_;
  snapshot.resolution = resolution_;
  snapshot.alpha = options_.schedule.Alpha(resolution_);
  snapshot.bounds = bounds_;
  snapshot.plans = optimizer_.ResultPlans(bounds_, resolution_);
  return snapshot;
}

bool IamaSession::ApplyAction(const UserAction& action) {
  switch (action.kind) {
    case UserAction::Kind::kSelectPlan:
      return true;
    case UserAction::Kind::kSetBounds:
      // User input: bound vectors must match the metric dimension and
      // hold no NaN, or every later range query would compare
      // mismatched vectors or ignore the NaN metric.
      MOQO_CHECK(action.new_bounds.dims() == bounds_.dims());
      MOQO_CHECK(!action.new_bounds.HasNaN());
      bounds_ = action.new_bounds;
      resolution_ = 0;  // Quickly show first results for the new bounds.
      return false;
    case UserAction::Kind::kContinue:
      // Clamp at rM: sessions may keep stepping past the finest level
      // (e.g. a service polling for bounds changes), and refinement must
      // not run off the schedule — Alpha(r) aborts for r > rM.
      resolution_ =
          std::min(options_.schedule.MaxResolution(), resolution_ + 1);
      return false;
  }
  return false;
}

bool IamaSession::SetBounds(const CostVector& bounds) {
  if (bounds.dims() != bounds_.dims() || bounds.HasNaN()) return false;
  ApplyAction(UserAction::SetBounds(bounds));
  return true;
}

SessionResult IamaSession::Run(
    InteractionPolicy* policy, int max_iterations,
    const std::function<void(const FrontierSnapshot&)>& observer) {
  MOQO_CHECK(policy != nullptr);
  SessionResult result;
  for (int i = 0; i < max_iterations; ++i) {
    const FrontierSnapshot snapshot = Step();
    if (observer) observer(snapshot);
    const UserAction action = policy->OnSnapshot(snapshot);
    result.iterations = iteration_;
    if (action.kind == UserAction::Kind::kSelectPlan) {
      result.selected_plan = action.selected;
      return result;
    }
    ApplyAction(action);
  }
  return result;
}

}  // namespace moqo
