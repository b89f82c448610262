#include "state/checkpoint.h"

#include <numeric>

namespace mead::state {

const Checkpoint& CheckpointStore::take(AppState& s) {
  Checkpoint c;
  c.epoch = next_epoch_++;
  c.applied = s.applied();
  c.digest = s.digest();
  std::vector<std::uint32_t> shipped = s.take_dirty();  // a base subsumes it
  c.is_base = chain_.empty() || delta_entries_ >= s.keys();
  if (c.is_base) {
    c.base_epoch = c.epoch;
    shipped.resize(s.keys());
    std::iota(shipped.begin(), shipped.end(), 0u);
    chain_.clear();
    delta_entries_ = 0;
  } else {
    c.base_epoch = chain_.front().epoch;
    c.prev_digest = chain_.back().digest;
    delta_entries_ += shipped.size() + kHeaderEntries;
  }
  c.entries.reserve(shipped.size());
  for (std::uint32_t k : shipped) c.entries.emplace_back(k, s.value(k));
  chain_.push_back(std::move(c));
  return chain_.back();
}

CheckpointStore::Apply CheckpointStore::apply(Checkpoint&& c, AppState& s) {
  if (c.epoch <= last_epoch()) return Apply::kStale;
  if (c.is_base) {
    chain_.clear();
    delta_entries_ = 0;
  } else {
    if (chain_.empty() || chain_.front().epoch != c.base_epoch ||
        chain_.back().epoch + 1 != c.epoch) {
      return Apply::kGap;
    }
    if (chain_.back().digest != c.prev_digest) {
      return Apply::kDigestMismatch;
    }
    delta_entries_ += c.entries.size() + kHeaderEntries;
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
