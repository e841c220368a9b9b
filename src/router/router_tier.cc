#include "src/router/router_tier.h"

#include <cassert>

#include "src/common/table_printer.h"
#include "src/hash/hash.h"

namespace palette {

std::string_view DispatchModeId(DispatchMode mode) {
  switch (mode) {
    case DispatchMode::kColorPartition:
      return "color";
    case DispatchMode::kSpray:
      return "spray";
  }
  return "unknown";
}

bool ParseDispatchMode(std::string_view id, DispatchMode* out) {
  if (id == "color") {
    *out = DispatchMode::kColorPartition;
    return true;
  }
  if (id == "spray") {
    *out = DispatchMode::kSpray;
    return true;
  }
  return false;
}

RouterTier::RouterTier(FaasPlatform* platform, RouterTierConfig config)
    : platform_(platform),
      config_(config),
      ring_(/*virtual_nodes=*/128, MixU64(config.seed ^ 0x52494E47ULL)) {
  assert(config_.routers >= 1);
  // Every replica runs the same policy with the same seed: a stateless
  // policy (consistent hashing) then computes identical mappings on
  // identical views, while stateful policies still diverge under spray
  // because each replica observes a different traffic slice — the contrast
  // the bench measures. Views start from the platform's current membership
  // (log position 0).
  const std::uint64_t policy_seed = MixU64(config_.seed ^ 0x529EBA11ULL);
  const std::vector<std::string> workers = platform_->WorkerNames();
  routers_.reserve(static_cast<std::size_t>(config_.routers));
  for (int i = 0; i < config_.routers; ++i) {
    auto router = std::make_unique<Router>(
        StrFormat("r%d", i), i, MakePolicy(config_.policy, policy_seed));
    for (const std::string& worker : workers) {
      router->lb.AddInstance(worker);
    }
    name_index_[router->name] = i;
    ring_.AddMember(router->name);
    routers_.push_back(std::move(router));
  }
  RebuildLive();
  platform_->set_membership_listener(
      [this](FaasPlatform::MembershipEvent event, const std::string& worker) {
        OnMembershipEvent(event, worker);
      });
  platform_->set_plan_listener(
      [this](const Plan& plan) { OnPlanApplied(plan); });
}

RouterTier::~RouterTier() {
  platform_->set_membership_listener({});
  platform_->set_plan_listener({});
}

std::optional<std::uint64_t> RouterTier::Invoke(
    InvocationSpec spec, FaasPlatform::CompletionCallback cb) {
  return platform_->InvokeVia(
      std::move(spec),
      [this](const std::optional<Color>& color, std::uint64_t invocation_id,
             int attempt) { return RouteAttempt(color, invocation_id, attempt); },
      std::move(cb), config_.hop_latency);
}

void RouterTier::OnMembershipEvent(FaasPlatform::MembershipEvent event,
                                   const std::string& worker) {
  log_.push_back(MembershipUpdate{event, worker, nullptr});
  BroadcastThrough(++latest_seq_);
}

void RouterTier::OnPlanApplied(const Plan& plan) {
  log_.push_back(MembershipUpdate{FaasPlatform::MembershipEvent::kAdded,
                                  std::string(),
                                  std::make_shared<const Plan>(plan)});
  BroadcastThrough(++latest_seq_);
}

void RouterTier::BroadcastThrough(std::uint64_t seq) {
  if (config_.sync_lag <= SimTime()) {
    for (const auto& router : routers_) {
      if (router->up) {
        ApplyThrough(router.get(), seq);
      }
    }
    return;
  }
  // One sync tick per replica. Ticks fire in seq order (same lag), so a
  // tick for seq s applying everything through s keeps log application in
  // order; ticks against a crashed replica no-op (restart resyncs).
  for (std::size_t i = 0; i < routers_.size(); ++i) {
    platform_->simulator().After(config_.sync_lag, [this, i, seq]() {
      Router* router = routers_[i].get();
      if (router->up) {
        ApplyThrough(router, seq);
      }
    });
  }
}

void RouterTier::ApplyThrough(Router* router, std::uint64_t seq) {
  while (router->applied_seq < seq) {
    const MembershipUpdate& update = log_[router->applied_seq++];
    if (update.plan != nullptr) {
      // Planner replay: the replica's view applies the same plan the
      // platform's LB did, converging its color table (and split table).
      router->lb.ApplyPlan(*update.plan);
    } else if (update.event == FaasPlatform::MembershipEvent::kAdded) {
      router->lb.AddInstance(update.worker);
    } else {
      // Per-view failure-aware re-coloring: the replica's own policy
      // remaps the dead instance's colors inside this view.
      router->lb.RemoveInstance(update.worker);
    }
  }
}

RouterTier::Router* RouterTier::PickRouter(const std::optional<Color>& color) {
  if (live_.empty()) {
    return nullptr;
  }
  if (config_.dispatch == DispatchMode::kColorPartition && color.has_value()) {
    const auto name = ring_.Lookup(*color);
    assert(name.has_value());  // ring holds exactly the live replicas
    return routers_[name_index_.at(*name)].get();
  }
  // Spray, and the no-color fallback of color partitioning.
  Router* router = routers_[live_[spray_next_ % live_.size()]].get();
  ++spray_next_;
  return router;
}

std::optional<RoutedTarget> RouterTier::RouteAttempt(
    const std::optional<Color>& color, std::uint64_t invocation_id,
    int attempt) {
  Router* router = PickRouter(color);
  if (router == nullptr) {
    return std::nullopt;  // every replica is down
  }
  ++routes_;
  ++router->routed;
  if (router->applied_seq < latest_seq_) {
    ++stale_routes_;
    ++router->stale_routes;
  }
  auto target = router->lb.RouteId(color);
  std::string stale_instance;
  bool forwarded = false;
  if (!target.has_value() || !platform_->HasWorkerId(*target)) {
    // Misroute: the stale view placed the attempt on an instance the
    // cluster no longer runs. Forward-and-correct: sync this replica's
    // view from the log (anti-entropy; re-colors the dead instance's
    // colors) and route exactly once more.
    ++misroutes_;
    ++router->misroutes;
    if (target.has_value()) {
      stale_instance = InstanceName(*target);
    }
    ApplyThrough(router, latest_seq_);
    forwarded = true;
    target = router->lb.RouteId(color);
    if (!target.has_value() || !platform_->HasWorkerId(*target)) {
      return std::nullopt;  // no live instance anywhere
    }
    ++forwards_;
  }
  if (trace_ != nullptr) {
    const SimTime now = platform_->simulator().Now();
    trace_->RecordRouterHop(RouterHopTrace{
        invocation_id, attempt, router->name, color, InstanceName(*target),
        stale_instance, forwarded, now, now + config_.hop_latency});
  }
  return RoutedTarget{*target, router->index};
}

bool RouterTier::CrashRouter(const std::string& router) {
  const auto it = name_index_.find(router);
  if (it == name_index_.end() || !routers_[it->second]->up) {
    return false;
  }
  routers_[it->second]->up = false;
  ring_.RemoveMember(router);
  RebuildLive();
  return true;
}

bool RouterTier::RestartRouter(const std::string& router) {
  const auto it = name_index_.find(router);
  if (it == name_index_.end() || routers_[it->second]->up) {
    return false;
  }
  Router* restarted = routers_[it->second].get();
  restarted->up = true;
  // A restarting replica bootstraps its view from the membership log
  // before taking traffic (its sync ticks no-op'd while it was down).
  ApplyThrough(restarted, latest_seq_);
  ring_.AddMember(router);
  RebuildLive();
  return true;
}

void RouterTier::RebuildLive() {
  live_.clear();
  for (std::size_t i = 0; i < routers_.size(); ++i) {
    if (routers_[i]->up) {
      live_.push_back(static_cast<int>(i));
    }
  }
}

std::vector<std::string> RouterTier::RouterNames() const {
  std::vector<std::string> names;
  names.reserve(routers_.size());
  for (const auto& router : routers_) {
    names.push_back(router->name);
  }
  return names;
}

std::uint64_t RouterTier::recolored() const {
  std::uint64_t total = 0;
  for (const auto& router : routers_) {
    total += router->lb.recolored();
  }
  return total;
}

std::uint64_t RouterTier::planner_moves() const {
  std::uint64_t total = 0;
  for (const auto& router : routers_) {
    total += router->lb.planner_moves();
  }
  return total;
}

void RouterTier::ExportMetrics(MetricsRegistry* metrics,
                               const std::string& prefix) const {
  const auto counter = [&](const std::string& name) -> Counter& {
    return metrics->counter(prefix.empty() ? name : prefix + name);
  };
  const auto gauge = [&](const std::string& name) -> Gauge& {
    return metrics->gauge(prefix.empty() ? name : prefix + name);
  };
  counter("router.routes").Set(routes_);
  counter("router.stale_routes").Set(stale_routes_);
  counter("router.misroutes").Set(misroutes_);
  counter("router.forwards").Set(forwards_);
  counter("router.membership_updates").Set(latest_seq_);
  counter("router.recolored").Set(recolored());
  counter("router.planner_moves").Set(planner_moves());
  gauge("router.live")
      .SetAt(static_cast<double>(live_.size()), platform_->simulator().Now());
  for (const auto& router : routers_) {
    const char* name = router->name.c_str();
    counter(StrFormat("router.%s.routed", name)).Set(router->routed);
    counter(StrFormat("router.%s.misroutes", name)).Set(router->misroutes);
    counter(StrFormat("router.%s.stale_routes", name))
        .Set(router->stale_routes);
    counter(StrFormat("router.%s.recolored", name))
        .Set(router->lb.recolored());
    gauge(StrFormat("router.%s.view_lag", name))
        .SetAt(static_cast<double>(latest_seq_ - router->applied_seq),
               platform_->simulator().Now());
    gauge(StrFormat("router.%s.up", name))
        .SetAt(router->up ? 1.0 : 0.0, platform_->simulator().Now());
  }
}

}  // namespace palette
