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

/// Rebase rule (ReStore's cost model): the next checkpoint is a base
/// once the deltas since the current base carry a base's bytes, counted
/// in fixed-width entries. A restore thus ships at most two bases plus
/// one delta (for senders of up to 19 characters, see kHeaderEntries),
/// and traffic follows the dirty volume, not an epoch count.
class CheckpointStore {
 public:
  /// A delta's header (81-89 wire bytes for senders of up to 19
  /// characters) in entries of the narrowest width (16 bytes).
  static constexpr std::uint64_t kHeaderEntries = 6;

  enum class Apply {
    kApplied,         // folded into the mirror chain
    kGap,             // chains to an epoch/digest we do not have
    kDigestMismatch,  // chain position matches but digests diverge
    kStale,           // epoch <= what we already hold (duplicate)
  };

  /// Primary side: snapshot `s` into the next checkpoint (base or
  /// delta per the rebase rule) and retain it for restore serving.
  const Checkpoint& take(AppState& s);

  /// Mirror side: fold a received checkpoint into the local chain and,
  /// on success, into `s` (installing entries + progress watermark).
  /// The mirror keeps the primary's delta count, so once promoted it
  /// rebases at the epoch the old primary would have.
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
  [[nodiscard]] std::uint64_t applied() const {
    return chain_.empty() ? 0 : chain_.back().applied;
  }

 private:
  std::uint64_t next_epoch_ = 1;
  std::uint64_t delta_entries_ = 0;  // Σ (entries + kHeaderEntries) since base
  std::deque<Checkpoint> chain_;  // current base + its deltas
};

}  // namespace mead::state
