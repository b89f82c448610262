#include "probes.h"

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "app/timeofday.h"
#include "core/mead_wire.h"
#include "core/placement.h"
#include "gc/wire.h"
#include "giop/messages.h"
#include "metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "state/checkpoint.h"

namespace perfbench {

namespace core = mead::core;
namespace gc = mead::gc;
namespace giop = mead::giop;
namespace state = mead::state;
using mead::Bytes;

namespace {

using Clock = std::chrono::steady_clock;

// Every probe folds its results in here so the optimizer cannot drop the
// calls being timed.
volatile std::uint64_t g_sink = 0;

constexpr int kBatches = 9;

double elapsed_ns(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Median host ns per call of `body` over kBatches batches, each sized to
/// last about 2 ms (times `scale`) after one calibration pass.
template <typename Body>
double ns_per_call(double scale, Body&& body) {
  const double batch_ns = 2e6 * scale;
  std::uint64_t iters = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) body();
    const double ns = elapsed_ns(t0);
    if (ns >= batch_ns / 4 || iters >= (1u << 24)) {
      iters = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(static_cast<double>(iters) *
                                        batch_ns / std::max(ns, 1.0)));
      break;
    }
    iters *= 4;
  }
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) body();
    per_call.push_back(elapsed_ns(t0) / static_cast<double>(iters));
  }
  return median(per_call);
}

/// Keys a primary dirties between two checkpoints at the 1 ms client pace.
std::uint32_t dirty_per_checkpoint(const core::StateOptions& s) {
  const auto ms = static_cast<std::uint32_t>(s.checkpoint_interval.ms());
  return std::clamp<std::uint32_t>(ms, 1, std::max<std::uint32_t>(1, s.keys));
}

core::CkptDelta make_ckpt(const core::StateOptions& s, bool base,
                          std::uint32_t entries) {
  core::CkptDelta c;
  c.member = "TimeOfDay/replica/1";
  c.epoch = 9;
  c.base_epoch = base ? 9 : 8;
  c.is_base = base;
  c.applied = 4096;
  c.prev_digest = base ? 0 : 0x1234;
  c.digest = 0x5678;
  c.value_pad = s.value_pad;
  const std::uint32_t stride = std::max<std::uint32_t>(1, s.keys / entries);
  for (std::uint32_t i = 0; i < entries; ++i) {
    const std::uint32_t key = (i * stride) % std::max<std::uint32_t>(1, s.keys);
    c.entries.emplace_back(key, state::mix64(key));
  }
  return c;
}

/// The GC payload most frequent on the workload: checkpoint deltas on the
/// stateful one, warm-passive state transfers (8-byte TimeOfDay snapshots)
/// elsewhere.
Bytes typical_gc_payload(const Workload& w) {
  if (w.stateful) {
    return core::encode_ckpt_delta(
        make_ckpt(w.state, false, dirty_per_checkpoint(w.state)));
  }
  return core::encode_state(
      core::StateTransfer{"TimeOfDay/replica/1", 42, Bytes(8, 0x2A)});
}

gc::OrderedMsg ordered(std::uint64_t seq, Bytes payload) {
  gc::OrderedMsg m;
  m.seq = seq;
  m.origin = 1;
  m.msg_id = seq;
  m.kind = gc::PayloadKind::kData;
  m.group = "mead/TimeOfDay/replicas";
  m.member = "TimeOfDay/replica/1";
  m.payload = std::move(payload);
  return m;
}

ProbeResult probe_sim(double scale) {
  // Kernel only: schedule and run 1000 no-op events on one Simulator.
  mead::sim::Simulator sim;
  constexpr int kEvents = 1000;
  const double ns = ns_per_call(scale, [&sim] {
    for (int i = 0; i < kEvents; ++i) sim.schedule(mead::microseconds(i), [] {});
    sim.run();
    g_sink = g_sink + sim.events_processed();
  });
  return {"sim.probe.ns_per_event", ns / kEvents, 0};
}

ProbeResult probe_giop(double scale) {
  const auto key = giop::ObjectKey::make_persistent(mead::app::kObjectPath);
  std::uint32_t id = 0;
  std::size_t bytes = 0;
  const double ns = ns_per_call(scale, [&] {
    ++id;
    const Bytes req = giop::encode_request(
        giop::RequestMessage{id, true, key, "get_time", {}});
    const auto dreq = giop::decode_request(req);
    giop::CdrWriter w;
    w.write_i64(static_cast<std::int64_t>(id) * 1000);
    w.write_u64(id);
    const Bytes rep = giop::encode_reply(
        giop::ReplyMessage{id, giop::ReplyStatus::kNoException, w.take()});
    const auto drep = giop::decode_reply(rep);
    bytes = req.size() + rep.size();
    g_sink = g_sink + (dreq ? dreq->request_id : 0) +
             (drep ? drep->body.size() : 0);
  });
  return {"giop.probe.call_ns", ns, bytes};
}

ProbeResult probe_failover_frame(double scale) {
  const core::FailoverMsg msg{mead::net::Endpoint{"node2", 20002},
                              "TimeOfDay/replica/2"};
  std::size_t bytes = 0;
  const double ns = ns_per_call(scale, [&] {
    const Bytes frame = core::encode_failover_frame(msg);
    const auto back = core::decode_failover_frame(frame);
    bytes = frame.size();
    g_sink = g_sink + (back ? back->target.port : 0);
  });
  return {"mead.probe.failover_frame_ns", ns, bytes};
}

ProbeResult probe_decode(double scale, const Workload& w, bool base) {
  const std::uint32_t entries =
      base ? std::max<std::uint32_t>(1, w.state.keys)
           : dirty_per_checkpoint(w.state);
  const Bytes payload = core::encode_ckpt_delta(make_ckpt(w.state, base, entries));
  const double ns = ns_per_call(scale, [&] {
    const auto msg = core::decode_ctrl(payload);
    g_sink = g_sink + (msg && msg->ckpt_delta ? msg->ckpt_delta->entries.size() : 0);
  });
  return {base ? "wire.probe.decode_base_ns" : "wire.probe.decode_delta_ns", ns,
          payload.size()};
}

ProbeResult probe_choose(double scale, const Workload& w) {
  std::vector<std::string> alive = w.workers;
  std::sort(alive.begin(), alive.end());
  const std::vector<std::string> excluded(alive.begin(),
                                          alive.begin() + std::min<std::size_t>(2, alive.size()));
  int incarnation = 0;
  const double ns = ns_per_call(scale, [&] {
    const auto host =
        core::placement::choose("Svc7", ++incarnation, alive, excluded);
    g_sink = g_sink + (host ? host->size() : 0);
  });
  return {"rm.probe.choose_ns", ns, 0};
}

ProbeResult probe_gc_ordered(double scale, const Workload& w) {
  const Bytes payload = typical_gc_payload(w);
  std::uint64_t seq = 0;
  std::size_t bytes = 0;
  const double ns = ns_per_call(scale, [&] {
    const Bytes wire = gc::encode_ordered(ordered(++seq, payload));
    gc::LenFramer framer;
    framer.feed(wire);
    const auto frame = framer.next();
    const auto back = frame ? gc::decode_ordered_like(frame->payload)
                            : gc::WireResult<gc::OrderedMsg>(
                                  mead::make_unexpected(gc::WireErr::kTruncated));
    bytes = wire.size();
    g_sink = g_sink + (back ? back->seq : 0);
  });
  return {"gc.probe.ordered_ns", ns, bytes};
}

ProbeResult probe_gc_batch(double scale, const Workload& w) {
  // A full batch (PlaneOptions' default cap of 16 frames) of the
  // workload's typical ordered frames: wrap, then split.
  const Bytes payload = typical_gc_payload(w);
  std::vector<Bytes> frames;
  for (std::uint64_t i = 1; i <= 16; ++i) {
    frames.push_back(gc::encode_ordered(ordered(i, payload)));
  }
  std::size_t bytes = 0;
  const double ns = ns_per_call(scale, [&] {
    const Bytes batch = gc::encode_frame_batch(frames);
    gc::LenFramer framer;
    framer.feed(batch);
    const auto frame = framer.next();
    const auto split = frame ? gc::decode_frame_batch(frame->payload)
                             : gc::WireResult<std::vector<gc::Frame>>(
                                   mead::make_unexpected(gc::WireErr::kTruncated));
    bytes = batch.size();
    g_sink = g_sink + (split ? split->size() : 0);
  });
  return {"gc.probe.batch_ns", ns, bytes};
}

ProbeResult probe_take_apply(double scale, const Workload& w) {
  // A primary applies one checkpoint interval of requests and takes a
  // checkpoint (a full base every few epochs, as the store decides); a
  // mirror folds it in.
  const std::uint32_t keys = std::max<std::uint32_t>(1, w.state.keys);
  const std::uint32_t ops = dirty_per_checkpoint(w.state);
  state::AppState primary(keys);
  state::AppState mirror(keys);
  state::CheckpointStore primary_store;
  state::CheckpointStore mirror_store;
  bool ok = true;
  const double ns = ns_per_call(scale, [&] {
    for (std::uint32_t i = 0; i < ops; ++i) primary.apply_next();
    const state::Checkpoint& c = primary_store.take(primary);
    ok = ok && mirror_store.apply(c, mirror) ==
                   state::CheckpointStore::Apply::kApplied;
    g_sink = g_sink + mirror.applied();
  });
  ok = ok && mirror.digest() == primary.digest();
  return {"state.probe.take_apply_ns", ok ? ns : 0, 0};
}

ProbeResult probe_counter_lookup(double scale, const Workload& w) {
  // A registry holding the workload's per-group counters next to the
  // global ones, looked up by name the way collect() does.
  mead::obs::MetricsRegistry reg;
  std::vector<std::string> names(std::begin(kCounters), std::end(kCounters));
  for (std::size_t g = 0; g < w.groups; ++g) {
    const std::string svc = g == 0 ? "TimeOfDay" : "Svc" + std::to_string(g);
    for (const char* prefix : {"rm.launches.", "rm.proactive_launches.",
                               "rm.reactive_launches.", "rm.migrations."}) {
      names.push_back(prefix + svc);
    }
  }
  for (const auto& n : names) reg.counter(n).add(1);
  std::size_t i = 0;
  const double ns = ns_per_call(scale, [&] {
    g_sink = g_sink + reg.counter_value(names[i]);
    i = (i + 1) % names.size();
  });
  return {"obs.probe.counter_lookup_ns", ns, 0};
}

ProbeResult probe_emit(double scale) {
  // Emission into a full ring (the steady state of any long run).
  mead::obs::EventTrace trace;
  const mead::TimePoint at{};
  auto emit = [&] {
    trace.emit(at, mead::obs::EventKind::kGcBroadcast, std::string("daemon/3"),
               std::string("mead/TimeOfDay/replicas"), 1.0);
  };
  for (std::size_t i = 0; i < trace.capacity(); ++i) emit();
  const double ns = ns_per_call(scale, [&] {
    emit();
    g_sink = g_sink + trace.size();
  });
  return {"obs.probe.emit_ns", ns, 0};
}

}  // namespace

std::vector<ProbeResult> run_probes(const Workload& w, double scale) {
  return {
      probe_sim(scale),
      probe_giop(scale),
      probe_failover_frame(scale),
      probe_decode(scale, w, /*base=*/true),
      probe_decode(scale, w, /*base=*/false),
      probe_choose(scale, w),
      probe_gc_ordered(scale, w),
      probe_gc_batch(scale, w),
      probe_take_apply(scale, w),
      probe_counter_lookup(scale, w),
      probe_emit(scale),
  };
}

}  // namespace perfbench
