// Bench-side harness over the app::Experiment facade (src/app/
// experiment.h): re-exports the spec/result types, derives per-bench event
// trace artifact names, owns the machine-readable perf artifacts
// (BENCH_<name>.json), and packages the shared sweep boilerplate — declare
// (label, spec) pairs, fan them out over the parallel runner, record every
// run in the perf report — behind one Sweep class.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "app/experiment.h"

namespace mead::bench {

using app::ExperimentResult;
using app::ExperimentSpec;

/// Artifact-name prefix for the current bench ("table1", "fig3", ...). Set
/// once at the top of main(); run_experiment then writes each run's event
/// trace to trace_<prefix>_<scheme>_seed<seed>.jsonl in the working dir.
inline std::string& trace_prefix() {
  static std::string prefix;
  return prefix;
}

inline std::string trace_artifact_name(const ExperimentSpec& spec) {
  if (trace_prefix().empty()) return {};
  std::string scheme{to_string(spec.scheme)};
  std::replace_if(
      scheme.begin(), scheme.end(),
      [](char c) { return c == ' ' || c == '/' || c == ','; }, '-');
  return "trace_" + trace_prefix() + "_" + scheme + "_seed" +
         std::to_string(spec.seed) + ".jsonl";
}

inline ExperimentResult run_experiment(ExperimentSpec spec) {
  if (spec.trace_jsonl.empty()) spec.trace_jsonl = trace_artifact_name(spec);
  return app::run_experiment(spec);
}

/// Worker count for sweep benches: MEAD_BENCH_THREADS if set (min 1), else
/// the hardware concurrency. Every run is an independent Simulator, so the
/// thread count changes only wall-clock time, never results.
inline unsigned bench_threads() {
  if (const char* env = std::getenv("MEAD_BENCH_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Parallel sweep: derives each run's trace artifact name (unless the spec
/// already names one) and fans the specs out over app::run_experiments.
/// Results come back in spec order.
inline std::vector<ExperimentResult> run_experiments(
    std::vector<ExperimentSpec> specs, unsigned n_threads = bench_threads()) {
  for (auto& spec : specs) {
    if (spec.trace_jsonl.empty()) spec.trace_jsonl = trace_artifact_name(spec);
  }
  return app::run_experiments(specs, n_threads);
}

/// Collects per-run wall time / event / invocation counts and serializes
/// them as BENCH_<name>.json (schema documented in EXPERIMENTS.md).
/// Construct at the top of main() (the sweep wall clock starts there),
/// add() each finished run, write() at the end. Most benches use it
/// indirectly through Sweep.
class PerfReport {
 public:
  explicit PerfReport(std::string bench_name)
      : name_(std::move(bench_name)), threads_(bench_threads()),
        sweep_start_(std::chrono::steady_clock::now()) {}

  /// `extras` become additional per-run JSON keys (after the standard
  /// fields) — bench-specific scalars a regression check wants to guard
  /// (e.g. bench_rm's recovery_ms, bench_state's restore_ms). Keys must be
  /// plain identifiers; values are emitted with three decimals.
  void add(const ExperimentSpec& spec, const ExperimentResult& r,
           std::string label = {},
           std::vector<std::pair<std::string, double>> extras = {}) {
    Run run;
    run.label = label.empty() ? std::string(to_string(spec.scheme))
                              : std::move(label);
    run.scheme = std::string(to_string(spec.scheme));
    run.seed = spec.seed;
    run.wall_ms = r.wall_ms;
    run.events = r.sim_events;
    run.invocations = r.total_invocations();  // summed over every client
    run.steady_rtt_ms = r.client.steady_state_rtt_ms();
    run.gc_bps = r.gc_bandwidth_bps();
    run.gc_frames = r.counter("gc.frames");
    run.groups = std::max<std::size_t>(1, spec.groups.size());
    run.duration_s = r.duration_s;
    run.extras = std::move(extras);
    runs_.push_back(std::move(run));
  }

  /// Writes BENCH_<name>.json in the working directory; returns false on
  /// I/O error. Totals use summed per-run wall time for events/sec (the
  /// per-core aggregate) and report the sweep wall separately so parallel
  /// speedup stays visible.
  bool write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const double sweep_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - sweep_start_)
                                .count();
    double run_ms = 0;
    std::uint64_t events = 0;
    std::uint64_t invocations = 0;
    for (const Run& r : runs_) {
      run_ms += r.wall_ms;
      events += r.events;
      invocations += r.invocations;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"threads\": %u,\n"
                    "  \"runs\": [\n",
                 json_escape(name_).c_str(), threads_);
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      const Run& r = runs_[i];
      std::fprintf(
          f,
          "    {\"label\": \"%s\", \"scheme\": \"%s\", \"seed\": %llu, "
          "\"wall_ms\": %.3f, \"events\": %llu, \"invocations\": %llu, "
          "\"events_per_sec\": %.0f, \"invocations_per_sec\": %.0f, "
          "\"steady_rtt_ms\": %.3f, \"gc_bps\": %.0f, "
          "\"gc_frames\": %llu, \"groups\": %zu, "
          "\"sim_duration_s\": %.6f, "
          "\"gc_bps_per_group\": %.0f, "
          "\"events_per_group_per_sec\": %.0f",
          json_escape(r.label).c_str(), json_escape(r.scheme).c_str(),
          static_cast<unsigned long long>(r.seed), r.wall_ms,
          static_cast<unsigned long long>(r.events),
          static_cast<unsigned long long>(r.invocations),
          per_second(r.events, r.wall_ms),
          per_second(r.invocations, r.wall_ms), r.steady_rtt_ms, r.gc_bps,
          static_cast<unsigned long long>(r.gc_frames), r.groups,
          r.duration_s, r.gc_bps / static_cast<double>(r.groups),
          per_sim_second_per_group(r));
      for (const auto& [key, value] : r.extras) {
        std::fprintf(f, ", \"%s\": %.3f", json_escape(key).c_str(), value);
      }
      std::fprintf(f, "}%s\n", i + 1 < runs_.size() ? "," : "");
    }
    std::fprintf(
        f,
        "  ],\n  \"totals\": {\"runs\": %zu, \"events\": %llu, "
        "\"invocations\": %llu, \"run_wall_ms\": %.3f, "
        "\"sweep_wall_ms\": %.3f, \"events_per_sec\": %.0f, "
        "\"invocations_per_sec\": %.0f}\n}\n",
        runs_.size(), static_cast<unsigned long long>(events),
        static_cast<unsigned long long>(invocations), run_ms, sweep_ms,
        per_second(events, run_ms), per_second(invocations, run_ms));
    return std::fclose(f) == 0;
  }

 private:
  struct Run {
    std::string label;
    std::string scheme;
    std::uint64_t seed = 0;
    double wall_ms = 0;
    std::uint64_t events = 0;
    std::uint64_t invocations = 0;
    double steady_rtt_ms = 0;
    double gc_bps = 0;
    std::uint64_t gc_frames = 0;
    std::size_t groups = 1;
    double duration_s = 0;  // simulated seconds of measurement
    /// Extra per-run JSON keys, in insertion order.
    std::vector<std::pair<std::string, double>> extras;
  };

  [[nodiscard]] static double per_second(std::uint64_t n, double ms) {
    return ms > 0 ? static_cast<double>(n) * 1000.0 / ms : 0;
  }

  /// Per-group event rate in *simulated* time — the modeled cost curve the
  /// multigroup flatness guard watches. Host-side events_per_sec is bounded
  /// by one CPU, so dividing it by the group count decays as 1/G no matter
  /// how the plane scales; dividing the simulated event rate by G is flat
  /// exactly when adding a group adds only that group's own traffic.
  [[nodiscard]] static double per_sim_second_per_group(const Run& r) {
    if (r.duration_s <= 0 || r.groups == 0) return 0;
    return static_cast<double>(r.events) / r.duration_s /
           static_cast<double>(r.groups);
  }

  [[nodiscard]] static std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string name_;
  unsigned threads_;
  std::chrono::steady_clock::time_point sweep_start_;
  std::vector<Run> runs_;
};

/// The boilerplate every sweep bench used to repeat — parallel specs/labels
/// vectors, the run_experiments fan-out, the perf.add loop, the perf.write
/// error message — in one object:
///
///   Sweep sweep("fig3");
///   sweep.add(spec, "label");      // returns the run's index
///   const auto& results = sweep.run();
///   ... print from results ...
///   return sweep.finish();         // writes BENCH_fig3.json
class Sweep {
 public:
  explicit Sweep(std::string name) : name_(std::move(name)), perf_(name_) {}

  /// Queues a run; returns its index into run()'s result vector.
  std::size_t add(ExperimentSpec spec, std::string label = {}) {
    specs_.push_back(std::move(spec));
    labels_.push_back(std::move(label));
    return specs_.size() - 1;
  }

  /// Fans every queued spec out over the parallel runner and records each
  /// run in the perf report. Results are in add() order.
  const std::vector<ExperimentResult>& run(
      unsigned n_threads = bench_threads()) {
    results_ = bench::run_experiments(specs_, n_threads);
    for (std::size_t i = 0; i < results_.size(); ++i) {
      perf_.add(specs_[i], results_[i], labels_[i]);
    }
    return results_;
  }

  /// Writes BENCH_<name>.json. Returns a process exit code (0 on success)
  /// so mains can end with `return sweep.finish();`.
  [[nodiscard]] int finish() const {
    if (!perf_.write()) {
      std::fprintf(stderr, "could not write BENCH_%s.json\n", name_.c_str());
      return 1;
    }
    return 0;
  }

  [[nodiscard]] const std::vector<ExperimentSpec>& specs() const {
    return specs_;
  }
  [[nodiscard]] const std::vector<ExperimentResult>& results() const {
    return results_;
  }
  [[nodiscard]] std::size_t size() const { return specs_.size(); }
  [[nodiscard]] PerfReport& report() { return perf_; }

 private:
  std::string name_;
  PerfReport perf_;
  std::vector<ExperimentSpec> specs_;
  std::vector<std::string> labels_;
  std::vector<ExperimentResult> results_;
};

/// Prints a compact ASCII sparkline of an RTT series (for figure benches).
inline void print_series(const char* title, const Series& s,
                         int buckets = 100, double cap_ms = 20.0) {
  std::printf("\n%s  (n=%zu, mean=%.3f ms, max=%.3f ms)\n", title, s.count(),
              s.mean(), s.max());
  if (s.empty()) return;
  static const char* kGlyphs[] = {"_", ".", ":", "-", "=", "+", "*", "#", "%", "@"};
  const auto& v = s.samples();
  const std::size_t per = std::max<std::size_t>(1, v.size() / static_cast<std::size_t>(buckets));
  std::string line;
  for (std::size_t i = 0; i < v.size(); i += per) {
    double peak = 0;
    for (std::size_t j = i; j < std::min(v.size(), i + per); ++j) {
      peak = std::max(peak, v[j]);
    }
    const double frac = std::min(1.0, peak / cap_ms);
    line += kGlyphs[static_cast<int>(frac * 9.0)];
  }
  std::printf("  [%s]\n", line.c_str());
  std::printf("  scale: '_'=0ms .. '@'=%.0fms, each glyph = %zu invocations\n",
              cap_ms, per);
}

}  // namespace mead::bench
