#include "state/checkpoint.h"

namespace mead::state {

const Checkpoint& CheckpointStore::take(AppState& s) {
  Checkpoint c;
  c.epoch = next_epoch_++;
  c.applied = s.applied();
  c.digest = s.digest();
  const bool rebase =
      chain_.empty() || deltas_since_base_ >= rebase_every_;
  if (rebase) {
    c.is_base = true;
    c.base_epoch = c.epoch;
    c.prev_digest = 0;
    c.entries.reserve(s.keys());
    for (std::uint32_t k = 0; k < s.keys(); ++k) {
      c.entries.emplace_back(k, s.value(k));
    }
    (void)s.take_dirty();  // the base subsumes any pending dirty set
    chain_.clear();
    deltas_since_base_ = 0;
  } else {
    c.is_base = false;
    c.base_epoch = chain_.front().epoch;
    c.prev_digest = chain_.back().digest;
    const std::vector<std::uint32_t> dirty = s.take_dirty();
    c.entries.reserve(dirty.size());
    for (std::uint32_t k : dirty) {
      c.entries.emplace_back(k, s.value(k));
    }
    ++deltas_since_base_;
  }
  chain_.push_back(std::move(c));
  return chain_.back();
}

CheckpointStore::Apply CheckpointStore::apply(Checkpoint&& c, AppState& s) {
  if (c.epoch <= last_epoch()) return Apply::kStale;
  if (c.is_base) {
    chain_.clear();
    deltas_since_base_ = 0;
  } else {
    if (chain_.empty() || chain_.front().epoch != c.base_epoch ||
        chain_.back().epoch + 1 != c.epoch) {
      return Apply::kGap;
    }
    if (chain_.back().digest != c.prev_digest) {
      return Apply::kDigestMismatch;
    }
    ++deltas_since_base_;
  }
  for (const auto& [key, value] : c.entries) s.install(key, value);
  s.set_progress(c.applied, c.digest);
  next_epoch_ = c.epoch + 1;
  chain_.push_back(std::move(c));
  return Apply::kApplied;
}

CheckpointStore::Apply CheckpointStore::apply(const Checkpoint& c,
                                              AppState& s) {
  Checkpoint copy = c;
  return apply(std::move(copy), s);
}

}  // namespace mead::state
