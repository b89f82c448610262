// Deterministic application state for stateful services (ISSUE 8 /
// ROADMAP "Stateful services"). The servant-side store is a keyed
// accumulator: every applied request bumps one slot of a fixed-size
// u64 array by a value derived (splitmix64) from the request sequence
// number. That makes the full state a pure function of (applied ops,
// key count) — `expected_digest()` recomputes it from scratch — which
// is what lets the chaos soak assert "no lost or double-applied
// request across failovers" as a one-line digest comparison.
//
// The running digest is order-sensitive (it chains the previous digest
// with each op's mixed seq AND the resulting slot value), so replaying
// ops out of order, twice, or against a corrupted slot all diverge.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace mead::state {

/// splitmix64 finalizer — the deterministic per-op value generator.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class AppState {
 public:
  explicit AppState(std::uint32_t keys);

  [[nodiscard]] std::uint32_t keys() const {
    return static_cast<std::uint32_t>(values_.size());
  }
  [[nodiscard]] std::uint64_t applied() const { return applied_; }
  [[nodiscard]] std::uint64_t digest() const { return digest_; }

  /// Applies the next request (seq = applied()+1) to its slot and
  /// advances the running digest. Returns the sequence number applied.
  std::uint64_t apply_next();

  /// Restore path: overwrite one slot from a checkpoint entry. Does not
  /// touch applied/digest — use set_progress() once entries are in.
  void install(std::uint32_t key, std::uint64_t value);

  /// Restore path: adopt a checkpoint's (applied, digest) watermark.
  void set_progress(std::uint64_t applied, std::uint64_t digest);

  /// Returns the sorted dirty-key set accumulated since the last call
  /// and clears it (the checkpoint delta source). Costs O(dirty keys),
  /// not O(keys).
  [[nodiscard]] std::vector<std::uint32_t> take_dirty();

  [[nodiscard]] std::uint64_t value(std::uint32_t key) const {
    return key < values_.size() ? values_[key] : 0;
  }

  /// Recomputes the digest a fresh AppState(keys) would have after
  /// `ops` calls to apply_next() — the soak invariant's ground truth.
  [[nodiscard]] static std::uint64_t expected_digest(std::uint64_t ops,
                                                     std::uint32_t keys);

 private:
  std::vector<std::uint64_t> values_;
  std::vector<bool> dirty_;               // per-key membership bit
  std::vector<std::uint32_t> dirty_keys_;  // the same set, as a list
  std::uint64_t applied_ = 0;
  std::uint64_t digest_ = 0;
};

}  // namespace mead::state
