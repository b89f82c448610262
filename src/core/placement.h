// Algorithmic replica placement (ISSUE 9) — the DAOS rebuild idea ported
// to MEAD: instead of the Recovery Manager *pushing* an explicit host per
// relaunch, placement under PlacementPolicy::kAlgorithmic is a pure
// deterministic function of tiny metadata every RmCore replica already
// holds — (service name, incarnation, sorted alive host set) — so
// the RM's per-failure role shrinks to O(1): publish the new alive-set
// epoch and let every replica compute the same answer independently.
//
// Two layers:
//  * choose()  — per-incarnation replacement host via jump-consistent
//    hashing (Lamping & Veach 2014) with an exclusion set (dead hosts,
//    hosts already occupied by the group). Purity: the result depends on
//    nothing but its arguments.
//  * anchors() / rebalance_moves() — a balanced layout over the whole
//    group list: each group gets a deterministic "anchor" host subject to
//    a per-round load cap, guaranteeing per-host loads differ by at most
//    one (so max/min <= ceil(G/N)/floor(G/N) — 1.5 at 128 groups over 50
//    hosts). A node *join* moves only the groups whose anchor lands on
//    the new host: at most ceil(G/N) of them (jump-hash minimal set).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mead::core::placement {

/// Lamping-Veach jump-consistent hash: maps `key` to [0, buckets).
/// Adding bucket n+1 moves exactly 1/(n+1) of keys, all onto the new
/// bucket — the "minimal disruption" property the rebalance pass relies
/// on. Returns 0 for buckets <= 1.
[[nodiscard]] std::int32_t jump_bucket(std::uint64_t key,
                                       std::int32_t buckets);

/// FNV-1a over (service, incarnation, attempt), mixed — the jump-hash key
/// for one placement decision. Exposed for the property tests.
[[nodiscard]] std::uint64_t placement_key(std::string_view service,
                                          int incarnation,
                                          std::uint32_t attempt);

/// The replacement host for (service, incarnation) over `alive_sorted`
/// (must be sorted ascending, duplicate-free), never returning a host in
/// `excluded` (the group's current members / reservations — dead hosts
/// must already be absent from alive_sorted). Pure in its arguments:
/// every caller with the same inputs gets the same answer. Probes the
/// jump-hash sequence with re-mixed keys, falling back to a deterministic
/// rotated scan so any non-excluded host is eventually found.
/// nullopt iff alive_sorted minus excluded is empty.
[[nodiscard]] std::optional<std::string> choose(
    std::string_view service, int incarnation,
    const std::vector<std::string>& alive_sorted,
    const std::vector<std::string>& excluded);

/// Balanced anchor layout: anchors(groups, alive)[i] is group i's anchor
/// host. Groups are placed in list order; group i may only land on a
/// host whose running load is < i / alive.size() + 1, so final per-host
/// loads are floor(G/N) or ceil(G/N) — never further apart than one.
/// Empty result iff alive_sorted is empty.
[[nodiscard]] std::vector<std::string> anchors(
    const std::vector<std::string>& groups,
    const std::vector<std::string>& alive_sorted);

/// The groups whose anchor moves when `joined` enters the alive set:
/// exactly those whose anchor under (alive_sorted + joined) is the new
/// host. |result| <= ceil(G / N_old) by the load-cap construction.
[[nodiscard]] std::vector<std::string> rebalance_moves(
    const std::vector<std::string>& groups,
    const std::vector<std::string>& alive_sorted, const std::string& joined);

}  // namespace mead::core::placement
