// Stateful-service building blocks (ctest label: state), pure units: the
// deterministic keyed-accumulator store, incremental checkpoint chains
// (base + dirty-key deltas, gap/divergence detection), and the message
// log's truncate/replay contract. No simulator — these are the pieces the
// recovery pipeline composes, tested in isolation.
#include "state/app_state.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "core/mead_wire.h"
#include "state/checkpoint.h"
#include "state/message_log.h"

namespace mead::state {
namespace {

TEST(AppStateTest, DigestIsPureFunctionOfAppliedOps) {
  AppState a(16);
  AppState b(16);
  for (int i = 0; i < 100; ++i) (void)a.apply_next();
  for (int i = 0; i < 100; ++i) (void)b.apply_next();
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.applied(), 100u);
  EXPECT_EQ(a.digest(), AppState::expected_digest(100, 16));
  // A different op count or key count yields a different digest.
  EXPECT_NE(a.digest(), AppState::expected_digest(99, 16));
  EXPECT_NE(a.digest(), AppState::expected_digest(100, 17));
}

TEST(AppStateTest, EmptyStateDigest) {
  AppState s(8);
  EXPECT_EQ(s.applied(), 0u);
  EXPECT_EQ(s.digest(), AppState::expected_digest(0, 8));
}

TEST(AppStateTest, DirtyTrackingAccumulatesAndClears) {
  AppState s(4);
  for (int i = 0; i < 6; ++i) (void)s.apply_next();
  auto dirty = s.take_dirty();
  // 6 ops over 4 keys touch at most 4 distinct slots, at least 2.
  EXPECT_GE(dirty.size(), 2u);
  EXPECT_LE(dirty.size(), 4u);
  EXPECT_TRUE(std::is_sorted(dirty.begin(), dirty.end()));
  EXPECT_TRUE(s.take_dirty().empty());  // cleared by the take
  (void)s.apply_next();
  EXPECT_EQ(s.take_dirty().size(), 1u);
}

TEST(AppStateTest, TakeDirtyMatchesAFullBitmapScan) {
  // Seeded bursts of apply_next() between takes, long enough that keys
  // repeat within one take and across takes. The reference marks each
  // op's slot in its own bitmap and scans every key at take time.
  constexpr std::uint32_t kKeys = 37;
  AppState s(kKeys);
  std::vector<bool> reference(kKeys, false);
  std::mt19937 rng(2004);
  std::uniform_int_distribution<int> burst(0, 3 * kKeys);
  for (int take = 0; take < 200; ++take) {
    for (int i = burst(rng); i > 0; --i) {
      const std::uint64_t seq = s.apply_next();
      reference[seq % kKeys] = true;
    }
    std::vector<std::uint32_t> expected;
    for (std::uint32_t k = 0; k < kKeys; ++k) {
      if (reference[k]) expected.push_back(k);
      reference[k] = false;
    }
    ASSERT_EQ(s.take_dirty(), expected) << "take " << take;
  }
}

TEST(AppStateTest, InstallAndProgressRebuildExactState) {
  AppState primary(8);
  for (int i = 0; i < 40; ++i) (void)primary.apply_next();

  AppState mirror(8);
  for (std::uint32_t k = 0; k < 8; ++k) mirror.install(k, primary.value(k));
  mirror.set_progress(primary.applied(), primary.digest());
  EXPECT_EQ(mirror.digest(), primary.digest());

  // Both continue identically from the shared point.
  EXPECT_EQ(primary.apply_next(), mirror.apply_next());
  EXPECT_EQ(mirror.digest(), primary.digest());
}

TEST(CheckpointStoreTest, BaseThenDeltasThenRebase) {
  constexpr std::uint32_t kKeys = 32;
  AppState s(kKeys);
  CheckpointStore store;
  for (int i = 0; i < 5; ++i) (void)s.apply_next();
  const Checkpoint& base = store.take(s);
  EXPECT_TRUE(base.is_base);
  EXPECT_EQ(base.epoch, 1u);
  EXPECT_EQ(base.entries.size(), kKeys);  // full snapshot
  EXPECT_EQ(base.applied, 5u);

  (void)s.apply_next();
  const Checkpoint& d1 = store.take(s);
  EXPECT_FALSE(d1.is_base);
  EXPECT_EQ(d1.base_epoch, 1u);
  EXPECT_EQ(d1.entries.size(), 1u);  // one op dirtied one key
  EXPECT_EQ(d1.prev_digest, base.digest);

  // Every delta is charged its entries plus its header; the store keeps
  // taking deltas exactly while that sum is below a base's `keys`.
  std::uint64_t charged = d1.entries.size() + CheckpointStore::kHeaderEntries;
  std::uint64_t epoch = d1.epoch;
  while (charged < kKeys) {
    (void)s.apply_next();
    const Checkpoint& d = store.take(s);
    ASSERT_FALSE(d.is_base) << "epoch " << d.epoch << " charged " << charged;
    EXPECT_EQ(d.base_epoch, 1u);
    charged += d.entries.size() + CheckpointStore::kHeaderEntries;
    epoch = d.epoch;
  }

  // The deltas now weigh a base: the very next checkpoint rebases.
  (void)s.apply_next();
  const Checkpoint& base2 = store.take(s);
  EXPECT_TRUE(base2.is_base);
  EXPECT_EQ(base2.epoch, epoch + 1);
  EXPECT_EQ(base2.base_epoch, base2.epoch);
  // The retained chain starts at the new base: nothing older is served.
  EXPECT_EQ(store.chain().size(), 1u);
  EXPECT_EQ(store.chain().front().epoch, base2.epoch);
}

/// Takes a base, then deltas of `per_delta` fresh ops each until the
/// store rebases; returns how many deltas it took in between.
int deltas_until_rebase(std::uint32_t keys, std::uint32_t per_delta) {
  AppState s(keys);
  CheckpointStore store;
  (void)store.take(s);
  for (int deltas = 0;; ++deltas) {
    for (std::uint32_t i = 0; i < per_delta; ++i) (void)s.apply_next();
    if (store.take(s).is_base) return deltas;
  }
}

TEST(CheckpointStoreTest, RebasesAtTheByteThresholdNotAnEpochCount) {
  // Consecutive ops dirty distinct keys, so a delta of n ops ships n
  // entries and costs n + kHeaderEntries. The rebase comes after the
  // fewest deltas whose cost reaches `keys`, however many that is.
  constexpr std::uint32_t kKeys = 256;
  const auto expected = [](std::uint32_t per_delta) {
    const std::uint64_t cost = per_delta + CheckpointStore::kHeaderEntries;
    return static_cast<int>((kKeys + cost - 1) / cost);
  };
  const int thin = deltas_until_rebase(kKeys, 1);
  const int fat = deltas_until_rebase(kKeys, 100);
  EXPECT_EQ(thin, expected(1));
  EXPECT_EQ(fat, expected(100));
  EXPECT_EQ(fat, 3);
  EXPECT_GT(thin, 8 * fat);  // a fixed epoch count would fit neither

  // Mixed sizes: one fat delta leaves room for exactly as many thin ones
  // as the remaining bytes allow.
  AppState s(kKeys);
  CheckpointStore store;
  (void)store.take(s);
  for (int i = 0; i < 200; ++i) (void)s.apply_next();
  ASSERT_FALSE(store.take(s).is_base);
  std::uint64_t charged = 200 + CheckpointStore::kHeaderEntries;
  while (charged < kKeys) {
    (void)s.apply_next();
    ASSERT_FALSE(store.take(s).is_base) << "charged " << charged;
    charged += 1 + CheckpointStore::kHeaderEntries;
  }
  (void)s.apply_next();
  EXPECT_TRUE(store.take(s).is_base);
}

TEST(CheckpointStoreTest, PromotedMirrorRebasesWhereThePrimaryWould) {
  // A backup mirrors part of the primary's chain, then is promoted and
  // checkpoints on its own. Against a primary that never failed, every
  // later checkpoint — base or delta — lands at the same epoch.
  constexpr std::uint32_t kKeys = 96;
  AppState primary(kKeys);
  CheckpointStore pstore;
  AppState mirror(kKeys);
  CheckpointStore mstore;
  std::mt19937 rng(15);
  std::uniform_int_distribution<int> burst(1, 12);

  int bases = 0;
  for (int round = 0; round < 20 || pstore.chain().size() < 3; ++round) {
    for (int i = burst(rng); i > 0; --i) (void)primary.apply_next();
    const Checkpoint& c = pstore.take(primary);
    bases += c.is_base ? 1 : 0;
    ASSERT_EQ(mstore.apply(c, mirror), CheckpointStore::Apply::kApplied);
  }
  ASSERT_GE(bases, 2);  // the mirror followed the primary across a rebase

  // Promotion: the mirror takes its own checkpoints from here on.
  int rebases_after = 0;
  for (int round = 0; round < 60; ++round) {
    const int ops = burst(rng);
    for (int i = 0; i < ops; ++i) {
      (void)primary.apply_next();
      (void)mirror.apply_next();
    }
    const Checkpoint& p = pstore.take(primary);
    const Checkpoint& m = mstore.take(mirror);
    ASSERT_EQ(m.is_base, p.is_base) << "round " << round;
    ASSERT_EQ(m.epoch, p.epoch) << "round " << round;
    ASSERT_EQ(m.base_epoch, p.base_epoch) << "round " << round;
    EXPECT_EQ(m.digest, p.digest) << "round " << round;
    rebases_after += p.is_base ? 1 : 0;
  }
  EXPECT_GE(rebases_after, 2);
}

TEST(CheckpointStoreTest, EncodedChainStaysUnderTwoBasesAndADelta) {
  // The rule counts entries; this checks it against the real wire bytes.
  // Whatever the delta size, the retained chain a restore ships never
  // exceeds two bases plus one delta. The header charge covers sender
  // names of up to 19 characters, so the second name here has 19.
  constexpr std::uint32_t kKeys = 512;
  const std::string longest = "Svc15/replica/12345";
  ASSERT_EQ(longest.size(), 19u);
  EXPECT_LE(core::encode_ckpt_delta(Checkpoint{}, longest, 0, 0).size(),
            CheckpointStore::kHeaderEntries * 16);
  for (const std::string& member : {std::string("replica/2"), longest}) {
    for (const std::uint32_t pad : {0u, 32u}) {
      for (const std::uint32_t per_delta : {1u, 10u, 300u}) {
        const auto wire = [&member, pad](const Checkpoint& c) {
          return core::encode_ckpt_delta(c, member, 0, pad).size();
        };
        AppState s(kKeys);
        CheckpointStore store;
        const std::size_t base_bytes = wire(store.take(s));
        std::size_t chain_bytes = base_bytes;
        std::size_t max_delta = 0;
        std::size_t peak = 0;
        int bases = 1;
        while (bases < 4) {
          for (std::uint32_t i = 0; i < per_delta; ++i) (void)s.apply_next();
          const Checkpoint& c = store.take(s);
          if (c.is_base) {
            ++bases;
            chain_bytes = wire(c);
            EXPECT_EQ(chain_bytes, base_bytes);
            continue;
          }
          const std::size_t bytes = wire(c);
          max_delta = std::max(max_delta, bytes);
          chain_bytes += bytes;
          peak = std::max(peak, chain_bytes);
        }
        EXPECT_LE(peak, 2 * base_bytes + max_delta)
            << member << ", value_pad " << pad << ", " << per_delta
            << " keys/delta";
        // The running sum is the chain() a restore would encode.
        std::size_t encoded = 0;
        for (const Checkpoint& c : store.chain()) encoded += wire(c);
        EXPECT_EQ(encoded, chain_bytes);
      }
    }
  }
}

TEST(CheckpointStoreTest, MirrorFollowsChainExactly) {
  AppState primary(16);
  CheckpointStore pstore;
  AppState mirror(16);
  CheckpointStore mstore;

  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 3; ++i) (void)primary.apply_next();
    const Checkpoint& c = pstore.take(primary);
    EXPECT_EQ(mstore.apply(c, mirror), CheckpointStore::Apply::kApplied)
        << "round " << round;
    EXPECT_EQ(mirror.digest(), primary.digest()) << "round " << round;
    EXPECT_EQ(mirror.applied(), primary.applied()) << "round " << round;
  }
}

TEST(CheckpointStoreTest, DetectsGapStaleAndDivergence) {
  // Enough keys that every checkpoint after the base is a delta.
  AppState primary(64);
  CheckpointStore pstore;
  AppState mirror(64);
  CheckpointStore mstore;

  (void)primary.apply_next();
  const Checkpoint base = pstore.take(primary);
  EXPECT_EQ(mstore.apply(base, mirror), CheckpointStore::Apply::kApplied);

  (void)primary.apply_next();
  const Checkpoint d1 = pstore.take(primary);
  (void)primary.apply_next();
  const Checkpoint d2 = pstore.take(primary);

  // Skipping d1 is a chain gap; the mirror must refuse d2.
  EXPECT_EQ(mstore.apply(d2, mirror), CheckpointStore::Apply::kGap);
  // Replaying the base is stale.
  EXPECT_EQ(mstore.apply(base, mirror), CheckpointStore::Apply::kStale);
  // The missed delta still applies, then its successor.
  EXPECT_EQ(mstore.apply(d1, mirror), CheckpointStore::Apply::kApplied);
  EXPECT_EQ(mstore.apply(d2, mirror), CheckpointStore::Apply::kApplied);
  EXPECT_EQ(mirror.digest(), primary.digest());

  // A checkpoint at the right chain position but chaining from a digest
  // we never reached (a diverged producer) must be rejected.
  (void)primary.apply_next();
  Checkpoint bad = pstore.take(primary);
  bad.prev_digest ^= 1;
  EXPECT_EQ(mstore.apply(bad, mirror),
            CheckpointStore::Apply::kDigestMismatch);
}

TEST(CheckpointStoreTest, MovingApplyConsumesOnlyWhatItApplies) {
  AppState primary(8);
  CheckpointStore primary_store;
  (void)primary.apply_next();
  Checkpoint base = primary_store.take(primary);
  (void)primary.apply_next();
  Checkpoint delta = primary_store.take(primary);

  AppState mirror(8);
  CheckpointStore mirror_store;
  // Out of order: the delta gaps and is handed back intact for buffering.
  Checkpoint early = delta;
  ASSERT_EQ(mirror_store.apply(std::move(early), mirror),
            CheckpointStore::Apply::kGap);
  EXPECT_EQ(early, delta);
  ASSERT_EQ(mirror_store.apply(std::move(base), mirror),
            CheckpointStore::Apply::kApplied);
  ASSERT_EQ(mirror_store.apply(std::move(early), mirror),
            CheckpointStore::Apply::kApplied);
  EXPECT_EQ(mirror_store.chain().back(), delta);
  EXPECT_EQ(mirror.digest(), primary.digest());
}

TEST(MessageLogTest, TruncateOnCheckpointAndFullFlag) {
  MessageLog log(4);
  AppState s(8);
  for (int i = 0; i < 3; ++i) log.append(s.apply_next());
  EXPECT_EQ(log.size(), 3u);
  EXPECT_FALSE(log.full());
  log.append(s.apply_next());
  EXPECT_TRUE(log.full());
  // Checkpoint at applied=2: entries 1,2 drop; 3,4 remain.
  log.truncate_through(2);
  EXPECT_EQ(log.entries(), (std::vector<std::uint64_t>{3, 4}));
  log.truncate_through(100);
  EXPECT_TRUE(log.empty());
}

TEST(MessageLogTest, ReplayReachesPrimaryDigestOrRefuses) {
  AppState primary(8);
  CheckpointStore pstore;
  for (int i = 0; i < 5; ++i) (void)primary.apply_next();
  const Checkpoint base = pstore.take(primary);

  MessageLog log(16);
  for (int i = 0; i < 4; ++i) log.append(primary.apply_next());

  // Restore: base, then the logged suffix.
  AppState r(8);
  CheckpointStore rstore;
  ASSERT_EQ(rstore.apply(base, r), CheckpointStore::Apply::kApplied);
  EXPECT_EQ(MessageLog::replay(log.entries(), primary.digest(), r), 4);
  EXPECT_EQ(r.digest(), primary.digest());
  EXPECT_EQ(r.applied(), primary.applied());

  // A hole in the sequence is refused and reported.
  AppState r2(8);
  CheckpointStore r2store;
  ASSERT_EQ(r2store.apply(base, r2), CheckpointStore::Apply::kApplied);
  std::vector<std::uint64_t> holed = log.entries();
  holed.erase(holed.begin() + 1);
  EXPECT_EQ(MessageLog::replay(holed, primary.digest(), r2), -1);
}

TEST(CheckpointStoreTest, DeltaChainedToTheWrongBaseEpochIsRejected) {
  // Two primaries at different rebase points produce deltas with the
  // same epoch number but different base_epoch lineage: a mirror
  // following primary A must refuse a delta whose base_epoch names a
  // base it never installed, not silently fold foreign entries.
  AppState primary(8);
  CheckpointStore pstore;
  (void)primary.apply_next();
  const Checkpoint base = pstore.take(primary);  // epoch 1, the mirror's base
  (void)primary.apply_next();
  const Checkpoint d1 = pstore.take(primary);    // epoch 2 chained to base 1

  AppState mirror(8);
  CheckpointStore mstore;
  ASSERT_EQ(mstore.apply(base, mirror), CheckpointStore::Apply::kApplied);

  Checkpoint wrong_base = d1;
  wrong_base.base_epoch = 7;  // claims a base the mirror never saw
  EXPECT_EQ(mstore.apply(wrong_base, mirror), CheckpointStore::Apply::kGap);
  // The mirror's installed prefix is untouched by the refusal...
  EXPECT_EQ(mirror.applied(), base.applied);
  EXPECT_EQ(mirror.digest(), base.digest);
  // ...and the genuine delta still applies afterwards.
  EXPECT_EQ(mstore.apply(d1, mirror), CheckpointStore::Apply::kApplied);
  EXPECT_EQ(mirror.digest(), primary.digest());
}

TEST(CheckpointStoreTest, DigestMismatchPreservesTheInstalledPrefix) {
  // A restore that hits a diverged checkpoint mid-chain must refuse it
  // and keep the consistent prefix: state, progress watermark, and the
  // local chain all stay exactly where the last good epoch left them
  // (the watchdog may then announce with the prefix).
  AppState primary(8);
  CheckpointStore pstore;
  (void)primary.apply_next();
  const Checkpoint base = pstore.take(primary);
  (void)primary.apply_next();
  const Checkpoint d1 = pstore.take(primary);
  (void)primary.apply_next();
  const Checkpoint d2 = pstore.take(primary);

  AppState mirror(8);
  CheckpointStore mstore;
  ASSERT_EQ(mstore.apply(base, mirror), CheckpointStore::Apply::kApplied);
  ASSERT_EQ(mstore.apply(d1, mirror), CheckpointStore::Apply::kApplied);
  const std::uint64_t prefix_digest = mirror.digest();
  const std::uint64_t prefix_applied = mirror.applied();
  const std::uint64_t prefix_epoch = mstore.last_epoch();

  Checkpoint diverged = d2;
  diverged.prev_digest ^= 0x5a5a;  // right position, wrong lineage
  EXPECT_EQ(mstore.apply(diverged, mirror),
            CheckpointStore::Apply::kDigestMismatch);
  EXPECT_EQ(mirror.digest(), prefix_digest);
  EXPECT_EQ(mirror.applied(), prefix_applied);
  EXPECT_EQ(mstore.last_epoch(), prefix_epoch);
  // The prefix is still extensible by the authentic successor.
  EXPECT_EQ(mstore.apply(d2, mirror), CheckpointStore::Apply::kApplied);
  EXPECT_EQ(mirror.digest(), primary.digest());
}

TEST(MessageLogTest, WraparoundReplayYieldsOnlyTheRetainedSuffix) {
  // The primary loops through many checkpoint/truncate cycles — the log
  // "wraps" repeatedly. After the last truncation only the suffix since
  // that checkpoint is retained: replay from the matching checkpoint
  // succeeds, replay from anything older reports the hole.
  // Enough keys that the byte rule keeps one base and two deltas.
  AppState primary(64);
  CheckpointStore pstore;
  MessageLog log(4);

  Checkpoint mid;  // the checkpoint the retained suffix starts after
  for (int cycle = 0; cycle < 3; ++cycle) {
    while (!log.full()) log.append(primary.apply_next());
    mid = pstore.take(primary);
    log.truncate_through(mid.applied);
    ASSERT_TRUE(log.empty()) << "cycle " << cycle;
  }
  for (int i = 0; i < 3; ++i) log.append(primary.apply_next());

  // Only the post-checkpoint suffix is retained.
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log.entries().front(), mid.applied + 1);
  ASSERT_EQ(pstore.chain().size(), 3u);
  ASSERT_FALSE(pstore.chain().back().is_base);

  // A mirror restored through the retained chain (base + every delta up
  // to the last checkpoint) replays the suffix exactly.
  AppState caught_up(64);
  CheckpointStore cstore;
  for (const Checkpoint& c : pstore.chain()) {
    ASSERT_EQ(cstore.apply(c, caught_up), CheckpointStore::Apply::kApplied)
        << "epoch " << c.epoch;
  }
  ASSERT_EQ(caught_up.applied(), mid.applied);
  EXPECT_EQ(MessageLog::replay(log.entries(), primary.digest(), caught_up), 3);
  EXPECT_EQ(caught_up.digest(), primary.digest());

  // A mirror stuck one whole cycle behind sees a sequence hole — the
  // truncated middle is gone for good, not silently skipped.
  AppState stale(64);
  EXPECT_EQ(MessageLog::replay(log.entries(), primary.digest(), stale), -1);
  EXPECT_EQ(stale.applied(), 0u);
}

}  // namespace
}  // namespace mead::state
