// Incremental checkpointing (ReStore-style, PAPERS.md): periodic
// epoch-versioned checkpoints where most epochs carry only the keys
// dirtied since the previous one, chained to an occasional full base
// snapshot. A mirror (warm-passive backup or a restoring replica)
// rebuilds the state by applying base + delta chain in epoch order;
// the per-checkpoint prev_digest/digest pair lets it detect gaps and
// divergence without shipping the whole store every interval.
#pragma once

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "state/app_state.h"

namespace mead::state {

struct Checkpoint {
  std::uint64_t epoch = 0;       // 1-based, monotone per primary
  std::uint64_t base_epoch = 0;  // the full snapshot this delta chains to
  bool is_base = false;          // full snapshot (all keys) vs dirty delta
  std::uint64_t applied = 0;     // ops folded into state as of this epoch
  std::uint64_t prev_digest = 0; // digest at the previous epoch (0 for base)
  std::uint64_t digest = 0;      // digest as of this epoch
  std::vector<std::pair<std::uint32_t, std::uint64_t>> entries;

  friend bool operator==(const Checkpoint&, const Checkpoint&) = default;
};

class CheckpointStore {
 public:
  /// `rebase_every`: after this many deltas the next checkpoint is a
  /// fresh full base (bounds the chain a restoring replica must fetch).
  explicit CheckpointStore(std::uint32_t rebase_every = 8)
      : rebase_every_(rebase_every == 0 ? 1 : rebase_every) {}

  enum class Apply {
    kApplied,         // folded into the mirror chain
    kGap,             // chains to an epoch/digest we do not have
    kDigestMismatch,  // chain position matches but digests diverge
    kStale,           // epoch <= what we already hold (duplicate)
  };

  /// Primary side: snapshot `s` into the next checkpoint (base or
  /// delta per the rebase schedule) and retain it for restore serving.
  const Checkpoint& take(AppState& s);

  /// Mirror side: fold a received checkpoint into the local chain and,
  /// on success, into `s` (installing entries + progress watermark).
  /// `c` is moved into the chain only when this returns kApplied; on any
  /// other outcome it is left untouched.
  Apply apply(Checkpoint&& c, AppState& s);
  /// Copying form of apply(Checkpoint&&).
  Apply apply(const Checkpoint& c, AppState& s);

  /// The retained chain (base first), for answering kCkptRequest.
  [[nodiscard]] const std::deque<Checkpoint>& chain() const {
    return chain_;
  }
  [[nodiscard]] bool has_base() const { return !chain_.empty(); }
  [[nodiscard]] std::uint64_t last_epoch() const {
    return chain_.empty() ? 0 : chain_.back().epoch;
  }
  [[nodiscard]] std::uint64_t last_digest() const {
    return chain_.empty() ? 0 : chain_.back().digest;
  }
  [[nodiscard]] std::uint64_t applied() const {
    return chain_.empty() ? 0 : chain_.back().applied;
  }

 private:
  std::uint32_t rebase_every_;
  std::uint64_t next_epoch_ = 1;
  std::uint32_t deltas_since_base_ = 0;
  std::deque<Checkpoint> chain_;  // current base + its deltas
};

}  // namespace mead::state
