#include "state/app_state.h"

#include <algorithm>

namespace mead::state {

AppState::AppState(std::uint32_t keys)
    : values_(keys == 0 ? 1 : keys, 0), dirty_(values_.size(), false) {}

std::uint64_t AppState::apply_next() {
  const std::uint64_t seq = ++applied_;
  const std::uint32_t key =
      static_cast<std::uint32_t>(seq % values_.size());
  values_[key] += mix64(seq);
  if (!dirty_[key]) {
    dirty_[key] = true;
    dirty_keys_.push_back(key);
  }
  digest_ = mix64(digest_ ^ mix64(seq) ^ values_[key]);
  return seq;
}

void AppState::install(std::uint32_t key, std::uint64_t value) {
  if (key < values_.size()) values_[key] = value;
}

void AppState::set_progress(std::uint64_t applied, std::uint64_t digest) {
  applied_ = applied;
  digest_ = digest;
}

std::vector<std::uint32_t> AppState::take_dirty() {
  std::vector<std::uint32_t> keys;
  keys.swap(dirty_keys_);
  for (std::uint32_t k : keys) dirty_[k] = false;
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::uint64_t AppState::expected_digest(std::uint64_t ops,
                                        std::uint32_t keys) {
  std::vector<std::uint64_t> values(keys == 0 ? 1 : keys, 0);
  std::uint64_t digest = 0;
  for (std::uint64_t seq = 1; seq <= ops; ++seq) {
    const std::uint32_t key =
        static_cast<std::uint32_t>(seq % values.size());
    values[key] += mix64(seq);
    digest = mix64(digest ^ mix64(seq) ^ values[key]);
  }
  return digest;
}

}  // namespace mead::state
