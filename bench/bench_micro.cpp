// Micro-benchmarks (google-benchmark) for the substrate: CDR marshaling,
// GIOP message codec, byte-buffer copies against memcpy, stream framing, object-key hashing (the §4.1
// optimization's real CPU side), the simulation kernel, and a full
// in-simulator client/server round trip. main() additionally hand-times
// the three kernel-path benches and writes BENCH_micro.json so CI keeps a
// machine-readable throughput trajectory.
#include <benchmark/benchmark.h>
#include <malloc.h>

#include <chrono>
#include <cstdio>
#include <cstring>

#include "app/experiment_client.h"
#include "app/testbed.h"
#include "giop/messages.h"
#include "net/network.h"
#include "sim/simulator.h"

using namespace mead;

namespace {

void BM_CdrEncodePrimitives(benchmark::State& state) {
  for (auto _ : state) {
    giop::CdrWriter w;
    for (int i = 0; i < 16; ++i) {
      w.write_u32(static_cast<std::uint32_t>(i));
      w.write_u64(static_cast<std::uint64_t>(i) << 32);
      w.write_double(3.14 * i);
    }
    benchmark::DoNotOptimize(w.buffer().data());
  }
  state.SetItemsProcessed(state.iterations() * 48);
}
BENCHMARK(BM_CdrEncodePrimitives);

void BM_CdrStringRoundTrip(benchmark::State& state) {
  const std::string s(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    giop::CdrWriter w;
    w.write_string(s);
    giop::CdrReader r(w.buffer(), w.order());
    auto out = r.read_string();
    benchmark::DoNotOptimize(out.value().data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CdrStringRoundTrip)->Arg(16)->Arg(256)->Arg(4096);

void BM_GiopRequestEncode(benchmark::State& state) {
  const auto key = giop::ObjectKey::make_persistent("TimeOfDayPOA/obj");
  const Bytes args(static_cast<std::size_t>(state.range(0)), 0x5A);
  std::uint32_t id = 0;
  for (auto _ : state) {
    giop::RequestMessage req{++id, true, key, "get_time", args};
    Bytes wire = giop::encode_request(req);
    benchmark::DoNotOptimize(wire.data());
  }
  state.SetBytesProcessed(state.iterations() * (state.range(0) + 80));
}
BENCHMARK(BM_GiopRequestEncode)->Arg(0)->Arg(64)->Arg(1024);

void BM_GiopRequestDecode(benchmark::State& state) {
  const auto key = giop::ObjectKey::make_persistent("TimeOfDayPOA/obj");
  const Bytes wire = giop::encode_request(
      giop::RequestMessage{7, true, key, "get_time",
                           Bytes(static_cast<std::size_t>(state.range(0)), 1)});
  for (auto _ : state) {
    auto req = giop::decode_request(wire);
    benchmark::DoNotOptimize(req.value().request_id);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_GiopRequestDecode)->Arg(0)->Arg(1024);

// Bytes against the memcpy floor (ROADMAP item 4's acceptance): a copy
// is one allocation and a memcpy, an append into reserved room a memcpy.
void BM_BytesCopy(benchmark::State& state) {
  const Bytes src(static_cast<std::size_t>(state.range(0)), 0x5A);
  for (auto _ : state) {
    Bytes copy = src;
    benchmark::DoNotOptimize(copy.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BytesCopy)->Arg(2048)->Arg(12 * 1024);

void BM_MemcpyCopy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Bytes src(n, 0x5A);
  for (auto _ : state) {
    auto* copy = static_cast<std::uint8_t*>(::operator new(n));
    std::memcpy(copy, src.data(), n);
    benchmark::DoNotOptimize(copy);
    benchmark::ClobberMemory();
    ::operator delete(copy, n);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MemcpyCopy)->Arg(2048)->Arg(12 * 1024);

void BM_BytesAppend(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Bytes src(n, 0x5A);
  Bytes dst;
  dst.reserve(n);
  for (auto _ : state) {
    dst.clear();
    dst.append(src);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BytesAppend)->Arg(2048)->Arg(12 * 1024);

void BM_MemcpyAppend(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Bytes src(n, 0x5A);
  Bytes dst(n);
  for (auto _ : state) {
    std::memcpy(dst.data(), src.data(), n);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MemcpyAppend)->Arg(2048)->Arg(12 * 1024);

void BM_FrameBufferSplit(benchmark::State& state) {
  Bytes stream;
  const auto key = giop::ObjectKey::make_persistent("POA/x");
  for (std::uint32_t i = 0; i < 32; ++i) {
    append_bytes(stream, giop::encode_request(
                             giop::RequestMessage{i, true, key, "op", {}}));
  }
  for (auto _ : state) {
    giop::FrameBuffer fb;
    fb.feed(stream);
    int frames = 0;
    while (fb.next().has_value()) ++frames;
    benchmark::DoNotOptimize(frames);
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_FrameBufferSplit);

// The §4.1 ablation's CPU-level core: looking an incoming request's object
// key up in the interceptor's IOR table. The paper's optimization hashes
// the key once to 16 bits and compares integers; the naive alternative
// byte-compares the (typically 52-byte) key against every table entry.
// The keys share a long common prefix (same POA path), which is exactly
// what makes byte comparison expensive in practice.
std::vector<giop::ObjectKey> make_key_table(int n) {
  std::vector<giop::ObjectKey> table;
  for (int i = 0; i < n; ++i) {
    table.push_back(giop::ObjectKey::make_persistent(
        "TimeOfDayPOA/TimeServiceObject/" + std::to_string(i)));
  }
  return table;
}

void BM_KeyLookupHash16(benchmark::State& state) {
  const auto table = make_key_table(static_cast<int>(state.range(0)));
  std::vector<std::uint16_t> hashes;
  for (const auto& k : table) hashes.push_back(k.hash16());
  const auto needle = table.back();
  for (auto _ : state) {
    const std::uint16_t h = needle.hash16();  // once per request
    int found = -1;
    for (std::size_t i = 0; i < hashes.size(); ++i) {
      if (hashes[i] == h) {
        found = static_cast<int>(i);
        break;
      }
    }
    benchmark::DoNotOptimize(found);
  }
}
BENCHMARK(BM_KeyLookupHash16)->Arg(8)->Arg(64)->Arg(512);

void BM_KeyLookupByteCompare(benchmark::State& state) {
  const auto table = make_key_table(static_cast<int>(state.range(0)));
  const auto needle = table.back();
  for (auto _ : state) {
    int found = -1;
    for (std::size_t i = 0; i < table.size(); ++i) {
      if (table[i] == needle) {  // 52-byte compare, long shared prefix
        found = static_cast<int>(i);
        break;
      }
    }
    benchmark::DoNotOptimize(found);
  }
}
BENCHMARK(BM_KeyLookupByteCompare)->Arg(8)->Arg(64)->Arg(512);

void BM_SimKernelEvents(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule(microseconds(i), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimKernelEvents);

void BM_SimCoroutinePingPong(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    auto coro = [](sim::Simulator& s) -> sim::Task<void> {
      for (int i = 0; i < 100; ++i) co_await s.sleep(microseconds(1));
    };
    for (int i = 0; i < 10; ++i) sim.spawn(coro(sim));
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimCoroutinePingPong);

// Wall-clock cost of one simulated CORBA invocation, full stack (testbed
// bring-up amortized outside the timing loop).
void BM_SimulatedInvocation(benchmark::State& state) {
  app::TestbedOptions opts;
  opts.inject_leak = false;
  opts.scheme = core::RecoveryScheme::kReactiveNoCache;
  app::Testbed bed(opts);
  if (!bed.start()) {
    state.SkipWithError("testbed failed");
    return;
  }
  app::ClientOptions copts;
  copts.invocations = 1'000'000'000;  // effectively unbounded
  app::ExperimentClient client(bed, copts);
  bed.sim().spawn(client.run());
  bed.sim().run_for(milliseconds(50));  // warm up
  std::uint64_t done = client.invocations_completed();
  for (auto _ : state) {
    const std::uint64_t target = done + 1;
    while (client.invocations_completed() < target) {
      bed.sim().run_for(milliseconds(1));
    }
    done = client.invocations_completed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  (void)bed.sim().obs().trace().write_jsonl("trace_micro_invocation.jsonl");
}
BENCHMARK(BM_SimulatedInvocation);

// ---------------------------------------------------------------- perf.json
//
// Hand-timed versions of the kernel-path benches, recorded in
// BENCH_micro.json (schema in EXPERIMENTS.md). These re-run the exact loop
// bodies of BM_SimKernelEvents / BM_SimCoroutinePingPong /
// BM_SimulatedInvocation with a plain steady_clock stopwatch, so the JSON
// numbers track the google-benchmark output without parsing its reporter.

struct MicroRun {
  const char* label;
  double wall_ms = 0;
  std::uint64_t events = 0;
  std::uint64_t invocations = 0;
};

template <typename Body>
double time_loop_ms(int iterations, Body&& body) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iterations; ++i) body();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

MicroRun time_kernel_events() {
  MicroRun run{"sim_kernel_events"};
  auto body = [&run] {
    sim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule(microseconds(i), [] {});
    }
    sim.run();
    run.events += sim.events_processed();
  };
  for (int i = 0; i < 100; ++i) body();  // warm-up
  run.events = 0;
  run.wall_ms = time_loop_ms(2000, body);
  return run;
}

MicroRun time_coroutine_pingpong() {
  MicroRun run{"sim_coroutine_pingpong"};
  auto body = [&run] {
    sim::Simulator sim;
    auto coro = [](sim::Simulator& s) -> sim::Task<void> {
      for (int i = 0; i < 100; ++i) co_await s.sleep(microseconds(1));
    };
    for (int i = 0; i < 10; ++i) sim.spawn(coro(sim));
    sim.run();
    run.events += sim.events_processed();
  };
  for (int i = 0; i < 100; ++i) body();  // warm-up
  run.events = 0;
  run.wall_ms = time_loop_ms(1000, body);
  return run;
}

MicroRun time_simulated_invocation() {
  MicroRun run{"simulated_invocation"};
  app::TestbedOptions opts;
  opts.inject_leak = false;
  opts.scheme = core::RecoveryScheme::kReactiveNoCache;
  app::Testbed bed(opts);
  if (!bed.start()) return run;
  app::ClientOptions copts;
  copts.invocations = 1'000'000'000;  // effectively unbounded
  app::ExperimentClient client(bed, copts);
  bed.sim().spawn(client.run());
  bed.sim().run_for(milliseconds(50));  // warm up
  const std::uint64_t done0 = client.invocations_completed();
  const std::uint64_t events0 = bed.sim().events_processed();
  const double wall = time_loop_ms(1, [&] {
    while (client.invocations_completed() < done0 + 2000) {
      bed.sim().run_for(milliseconds(1));
    }
  });
  run.wall_ms = wall;
  run.events = bed.sim().events_processed() - events0;
  run.invocations = client.invocations_completed() - done0;
  return run;
}

double per_second(std::uint64_t n, double ms) {
  return ms > 0 ? static_cast<double>(n) * 1000.0 / ms : 0;
}

bool write_perf_json() {
  const MicroRun runs[] = {time_kernel_events(), time_coroutine_pingpong(),
                           time_simulated_invocation()};
  std::FILE* f = std::fopen("BENCH_micro.json", "w");
  if (f == nullptr) return false;
  double wall = 0;
  std::uint64_t events = 0;
  std::uint64_t invocations = 0;
  std::fprintf(f, "{\n  \"bench\": \"micro\",\n  \"threads\": 1,\n"
                  "  \"runs\": [\n");
  constexpr std::size_t kRuns = sizeof runs / sizeof runs[0];
  for (std::size_t i = 0; i < kRuns; ++i) {
    const MicroRun& r = runs[i];
    wall += r.wall_ms;
    events += r.events;
    invocations += r.invocations;
    std::fprintf(f,
                 "    {\"label\": \"%s\", \"wall_ms\": %.3f, "
                 "\"events\": %llu, \"invocations\": %llu, "
                 "\"events_per_sec\": %.0f, \"invocations_per_sec\": %.0f}%s\n",
                 r.label, r.wall_ms,
                 static_cast<unsigned long long>(r.events),
                 static_cast<unsigned long long>(r.invocations),
                 per_second(r.events, r.wall_ms),
                 per_second(r.invocations, r.wall_ms),
                 i + 1 < kRuns ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"totals\": {\"runs\": %zu, \"events\": %llu, "
               "\"invocations\": %llu, \"run_wall_ms\": %.3f, "
               "\"sweep_wall_ms\": %.3f, \"events_per_sec\": %.0f, "
               "\"invocations_per_sec\": %.0f}\n}\n",
               kRuns, static_cast<unsigned long long>(events),
               static_cast<unsigned long long>(invocations), wall, wall,
               per_second(events, wall), per_second(invocations, wall));
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  // glibc returns a large free top-of-heap chunk to the kernel on every
  // free past the trim threshold; the per-iteration Simulator + trace
  // buffers sit exactly in that window, so default trimming turns the
  // event loop into a page-fault benchmark. Keep the arena.
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
  mallopt(M_MMAP_THRESHOLD, 256 << 20);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!write_perf_json()) {
    std::fprintf(stderr, "could not write BENCH_micro.json\n");
    return 1;
  }
  return 0;
}
