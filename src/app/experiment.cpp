#include "app/experiment.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

namespace mead::app {

namespace {

TestbedOptions testbed_options(const ExperimentSpec& spec) {
  TestbedOptions opts;
  opts.seed = spec.seed;
  opts.scheme = spec.scheme;
  opts.thresholds = spec.thresholds;
  opts.inject_leak = spec.inject_leak;
  opts.calib = spec.calib;
  opts.replica_count = spec.replica_count;
  opts.topology = spec.topology;
  opts.groups = spec.groups;
  opts.chaos = spec.chaos;
  opts.rm = spec.rm;
  opts.gc_plane = spec.gc_plane;
  opts.late_workers = spec.late_workers;
  return opts;
}

}  // namespace

Experiment::Experiment(ExperimentSpec spec)
    : spec_(std::move(spec)), bed_(testbed_options(spec_)) {}

Experiment::~Experiment() = default;

StartResult Experiment::start() {
  auto up = bed_.start();
  if (!up) return up;
  // Stripe validation: every referenced group must exist, and a multi-
  // service stripe cannot include a needs-addressing group (its group
  // query protocol is single-service).
  for (const auto& st : spec_.stripes) {
    if (st.name.empty()) return start_error("stripe with empty name");
    if (st.services.empty()) {
      return start_error("stripe '" + st.name + "' lists no services");
    }
    for (const auto& svc : st.services) {
      const ServiceGroup* g = bed_.group(svc);
      if (g == nullptr) {
        return start_error("stripe '" + st.name +
                           "' references unknown service '" + svc + "'");
      }
      if (st.services.size() > 1 &&
          g->spec().scheme == core::RecoveryScheme::kNeedsAddressing) {
        return start_error("stripe '" + st.name +
                           "' cannot stripe over needs-addressing group '" +
                           svc + "'");
      }
    }
  }
  counters0_ = bed_.sim().obs().metrics().counter_snapshot();
  for (const auto& g : bed_.groups()) {
    group_deaths0_.push_back(g->replica_deaths());
  }
  gc_bytes0_ = bed_.gc_bytes();
  t0_ = bed_.sim().now();
  return up;
}

void Experiment::launch_client() {
  // K clients per group, launched in group-major order, then the striped
  // clients (the spawn order is part of the deterministic event schedule).
  // K == 1 keeps the historical per-group naming ("client", "client.<svc>")
  // so single-client runs stay bit-identical to the pre-K layout.
  const int k_per_group = std::max(1, spec_.clients_per_group);
  const auto& groups = bed_.groups();
  auto add = [this](ClientOptions copts, std::size_t group_idx,
                    std::string service) {
    copts.invocations = spec_.invocations;
    copts.spacing = spec_.spacing;
    copts.query_timeout = spec_.query_timeout;
    copts.routing = spec_.routing;
    copts.invoke_timeout = spec_.invoke_timeout;
    clients_.push_back(std::make_unique<ExperimentClient>(bed_, std::move(copts)));
    client_group_.push_back(group_idx);
    client_service_.push_back(std::move(service));
    bed_.sim().spawn(clients_.back()->run());
  };
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const std::string& svc = groups[gi]->service();
    for (int k = 1; k <= k_per_group; ++k) {
      ClientOptions copts;
      copts.service = svc;
      if (k_per_group > 1) {
        const std::string id = svc + "/client/" + std::to_string(k);
        copts.member = id;
        copts.label = id;
        copts.prefix = "client." + svc + "." + std::to_string(k);
      }
      add(std::move(copts), gi, svc);
    }
  }
  for (const auto& st : spec_.stripes) {
    const int n = std::max(1, st.clients);
    for (int k = 1; k <= n; ++k) {
      ClientOptions copts;
      copts.services = st.services;
      copts.member = st.name + "/client/" + std::to_string(k);
      copts.label = n > 1 ? st.name + "/client/" + std::to_string(k)
                          : st.name + "/client";
      copts.prefix = n > 1 ? "client." + st.name + "." + std::to_string(k)
                           : "client." + st.name;
      add(std::move(copts), npos, st.name);
    }
  }
}

void Experiment::run_to_completion() {
  // Slice the run so measurement stops the moment the last client finishes.
  auto all_done = [this] {
    for (const auto& c : clients_) {
      if (!c->done()) return false;
    }
    return true;
  };
  for (int slice = 0; slice < 3000 && !all_done(); ++slice) {
    bed_.sim().run_for(milliseconds(100));
  }
}

ExperimentResult Experiment::collect() const {
  ExperimentResult out;
  if (!clients_.empty()) out.client = clients_.front()->results();
  out.gc_bytes = bed_.gc_bytes() - gc_bytes0_;
  out.duration_s = (bed_.sim().now() - t0_).sec();
  out.sim_events = bed_.sim().events_processed();
  out.counters = bed_.sim().obs().metrics().counter_deltas(counters0_);
  // Per-client rollups, in launch order.
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    const ClientResults cr = clients_[i]->results();
    ClientRollup roll;
    roll.label = clients_[i]->actor_label();
    roll.prefix = clients_[i]->metrics_prefix();
    roll.service = client_service_[i];
    roll.invocations_completed = cr.invocations_completed;
    roll.exceptions = cr.total_exceptions();
    roll.naming_refreshes = cr.naming_refreshes;
    roll.route_switches = cr.route_switches;
    roll.quorum_reads = cr.quorum_reads;
    roll.quorum_repairs = cr.quorum_repairs;
    out.quorum_reads += cr.quorum_reads;
    out.quorum_repairs += cr.quorum_repairs;
    roll.steady_state_rtt_ms = cr.steady_state_rtt_ms();
    out.client_results.push_back(std::move(roll));
  }
  const auto& groups = bed_.groups();
  std::uint64_t state_restore_samples = 0;
  for (std::size_t i = 0; i < groups.size() && i < group_deaths0_.size();
       ++i) {
    const ServiceGroup& g = *groups[i];
    GroupResult gr;
    gr.service = g.service();
    gr.replica_count = g.spec().replica_count;
    gr.server_failures = g.replica_deaths() - group_deaths0_[i];
    out.server_failures += gr.server_failures;
    double steady_sum = 0;
    for (std::size_t c = 0; c < out.client_results.size(); ++c) {
      if (client_group_[c] != i) continue;
      const ClientRollup& roll = out.client_results[c];
      gr.invocations_completed += roll.invocations_completed;
      gr.client_exceptions += roll.exceptions;
      gr.naming_refreshes += roll.naming_refreshes;
      gr.route_switches += roll.route_switches;
      gr.quorum_reads += roll.quorum_reads;
      gr.quorum_repairs += roll.quorum_repairs;
      steady_sum += roll.steady_state_rtt_ms;
      ++gr.clients;
    }
    gr.steady_state_rtt_ms =
        gr.clients > 0 ? steady_sum / static_cast<double>(gr.clients) : 0;
    // Stateful groups: verify every live, settled replica's digest against
    // the deterministic expectation for its own op count. Backups lag the
    // primary (they hold the state of the last checkpoint push), so each
    // replica is checked at its own progress point, not the primary's.
    if (g.spec().state.enabled) {
      double restore_ms_sum = 0;
      std::uint64_t restored_replicas = 0;
      for (const auto& r : g.replicas()) {
        const core::ServerMead& mead = r->mead();
        gr.state_restores += mead.stats().restores;
        gr.dedup_hits += mead.stats().dedup_hits;
        if (mead.stats().restores > 0) {
          restore_ms_sum += mead.stats().last_restore_ms;
          ++restored_replicas;
        }
        if (!r->alive()) continue;
        const state::AppState* s = mead.app_state();
        if (s == nullptr || mead.restoring()) continue;
        gr.state_applied = std::max(gr.state_applied, s->applied());
        const std::uint64_t want = state::AppState::expected_digest(
            s->applied(), g.spec().state.keys);
        if (s->digest() != want) gr.state_ok = false;
      }
      out.state_restores += gr.state_restores;
      if (restored_replicas > 0) {
        out.state_restore_ms += restore_ms_sum;
        state_restore_samples += restored_replicas;
      }
    }
    out.state_ok = out.state_ok && gr.state_ok;
    out.group_results.push_back(std::move(gr));
  }
  if (state_restore_samples > 0) {
    out.state_restore_ms /= static_cast<double>(state_restore_samples);
  }
  return out;
}

ExperimentResult Experiment::run() {
  const auto wall0 = std::chrono::steady_clock::now();
  auto up = start();
  if (!up) {
    std::fprintf(stderr, "testbed failed to start (%s): %s\n",
                 std::string(to_string(spec_.scheme)).c_str(),
                 up.error().reason.c_str());
    return {};
  }
  launch_client();
  run_to_completion();
  ExperimentResult out = collect();
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - wall0)
                    .count();
  if (!spec_.trace_jsonl.empty()) {
    if (!export_trace_jsonl(spec_.trace_jsonl)) {
      std::fprintf(stderr, "could not write event trace to %s\n",
                   spec_.trace_jsonl.c_str());
    }
  }
  return out;
}

bool Experiment::export_trace_jsonl(const std::string& path) const {
  return bed_.sim().obs().trace().write_jsonl(path);
}

ExperimentResult run_experiment(const ExperimentSpec& spec) {
  Experiment exp(spec);
  return exp.run();
}

std::vector<ExperimentResult> run_experiments(
    std::span<const ExperimentSpec> specs, unsigned n_threads) {
  std::vector<ExperimentResult> results(specs.size());
  if (n_threads <= 1 || specs.size() <= 1) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      results[i] = run_experiment(specs[i]);
    }
    return results;
  }

  // Work-stealing by atomic index: each worker claims the next unstarted
  // spec. Result slots are disjoint, so no further synchronization is
  // needed; joining the pool is the only barrier.
  std::atomic<std::size_t> next{0};
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(n_threads, specs.size()));
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned t = 0; t < workers; ++t) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= specs.size()) return;
        results[i] = run_experiment(specs[i]);
      }
    });
  }
  for (auto& th : pool) th.join();
  return results;
}

}  // namespace mead::app
