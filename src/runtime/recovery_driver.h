// Shared recovery driver: the crash/rejoin machinery every protocol needs.
//
// Before this existed, three protocols (Mencius, Multi-Paxos, Clock-RSM)
// each carried private copies of the same three mechanisms, and the
// fast-decision protocols (CAESAR, EPaxos) had none — their rejoined
// replicas silently omitted whatever was delivered during the outage. The
// driver extracts the machinery once so all five drive it with
// protocol-specific hooks:
//
//   * catch-up rotor — a rejoining (or stalled) node requests the state it
//     missed from rotating live peers, so one crashed responder costs one
//     watchdog period instead of stranding the rejoin;
//   * progress watchdog — detects a stalled delivery frontier with evidence
//     of a backlog and re-arms the catch-up request;
//   * designated-revoker rounds — one designated node (lowest non-suspected
//     id, so concurrent revokers cannot reach conflicting verdicts) gathers
//     every live peer's knowledge of a dead node's in-flight consensus
//     indices and decides commit-or-skip for a bounded index range;
//   * revoked index ranges — the quorum-backed verdicts those rounds
//     produce, recorded permanently per owner.
//
// The ranges are the fix for a divergence the triplicated code carried
// (the Mencius seed-277 fuzz repro): verdicts used to be *unbounded*
// ("skip everything the dead owner proposed at or above its frontier") and
// were cleared unilaterally when each node's failure detector retracted the
// suspicion. A rejoined owner could then assemble an ack quorum from nodes
// whose verdicts had already cleared and commit an index that other nodes —
// whose frontier crossed it while their verdict still stood — had
// irreversibly skipped. Bounding every verdict to an explicit [from, upto)
// range and keeping it *forever* restores quorum intersection: at least a
// classic quorum applied the decision and permanently refuses to ack inside
// the range, so no index in it can ever be committed behind the skippers'
// backs, while indices above the bound are never skipped by the verdict at
// all. Liveness past the bound comes from opening a fresh round (the owner
// is still dead) or from the owner itself (it rejoined and proposes above
// the bound once a bounce teaches it the range).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/types.h"
#include "rsm/command.h"
#include "rsm/log_snapshot.h"

namespace caesar::stats {
struct ProtocolStats;
}
namespace caesar::storage {
class Durability;
}

namespace caesar::rt {

class Protocol;

class RecoveryDriver {
 public:
  RecoveryDriver(NodeId self, std::size_t n, std::size_t cq)
      : self_(self), n_(n), cq_(cq) {}

  // --- failure-detector view --------------------------------------------
  void note_suspected(NodeId peer) { suspected_mask_ |= 1ull << peer; }
  /// Clears the suspicion and voids any round still collecting against the
  /// peer: it is provably back with its state intact, so its own floors and
  /// re-proposals resolve its future indices again. Standing revoked ranges
  /// are quorum-backed facts about *past* indices and survive.
  void note_recovered(NodeId peer) {
    suspected_mask_ &= ~(1ull << peer);
    rounds_.erase(peer);
  }
  void reset_suspicions() { suspected_mask_ = 0; }
  bool is_suspected(NodeId q) const { return ((suspected_mask_ >> q) & 1) != 0; }
  std::uint64_t suspected_mask() const { return suspected_mask_; }

  // --- catch-up rotor + progress watchdog --------------------------------
  bool catchup_needed() const { return catchup_needed_; }
  void set_catchup_needed(bool b) { catchup_needed_ = b; }

  /// Rotates to the next live peer and invokes `send` on it. Returns false
  /// (without sending) when no live peer exists; the watchdog retries next
  /// tick.
  bool request_catchup(const std::function<void(NodeId peer)>& send);

  /// Stall detection, called once per watchdog tick with the current
  /// delivery frontier (any monotone progress marker) and whether a backlog
  /// is queued above it. Returns true — and latches catchup_needed — when a
  /// catch-up request should go out: either one is already outstanding, or
  /// the frontier has not moved since the last tick despite the backlog
  /// (evidence this node is behind, so an idle cluster stays quiet).
  bool watchdog_tick(std::uint64_t frontier, bool backlog);

  /// Convergence policy for instance-space catch-up, which has no prefix
  /// hash to prove the requester caught up: a reply can race commits that
  /// were in flight to the responder when it served, and a wholly-unknown
  /// instance leaves no local backlog evidence to re-latch the watchdog. So
  /// the latch clears only after a *news-free* round: the protocol calls
  /// note_catchup_news() for every instance a reply actually taught it, and
  /// finish_catchup_round() on the done frame — which keeps the latch (and
  /// thus rotates to the next peer on the next tick) until a full round
  /// returns nothing new. request_catchup() resets the tally and bumps
  /// catchup_round(); the protocol stamps the round id into its request and
  /// the responder echoes it, so a late done frame from a superseded round
  /// cannot clear the latch out from under the round in flight.
  void note_catchup_news() { ++catchup_news_; }
  void finish_catchup_round() {
    if (catchup_news_ == 0) catchup_needed_ = false;
  }
  std::uint64_t catchup_round() const { return catchup_round_; }

  // --- designated-revoker rounds -----------------------------------------
  /// One open round this node drives as the designated revoker. Responses
  /// are required from every peer the revoker believes alive, and at least
  /// a classic quorum overall, before deciding.
  struct Round {
    std::uint64_t anchor = 0;     // resolve the dead owner's indices >= this
    std::uint64_t want_mask = 0;  // responders required (self included)
    std::uint64_t got_mask = 0;
    /// Values some responder knows were (or might have been) chosen for the
    /// dead owner's indices >= anchor.
    std::map<std::uint64_t, rsm::Command> values;
    Time last_query = 0;
  };

  /// Lowest non-suspected node; falls back to self when everyone else is
  /// suspected.
  NodeId designated_revoker() const;

  bool round_open(NodeId dead) const { return rounds_.count(dead) != 0; }
  Round* round(NodeId dead) {
    auto it = rounds_.find(dead);
    return it == rounds_.end() ? nullptr : &it->second;
  }

  /// Opens a round anchored at `anchor`: want = every non-dead, non-suspected
  /// node; got = self.
  Round& open_round(NodeId dead, std::uint64_t anchor, Time now);

  /// Records a peer's report. Returns the round when it matches (same dead,
  /// same anchor — a stale reply for a previous round is dropped), else null.
  Round* record_report(NodeId dead, std::uint64_t anchor, NodeId from,
                       std::map<std::uint64_t, rsm::Command> reported);

  /// Decide gate: every wanted responder answered, and a classic quorum
  /// overall (so a minority partition cannot revoke).
  bool round_complete(NodeId dead) const;

  /// Removes and returns the round for the protocol to decide from.
  Round close_round(NodeId dead);
  void clear_rounds() { rounds_.clear(); }

  /// Per-tick round maintenance: for every open round at least `period` old,
  /// recompute who must answer (a responder may have crashed since), give
  /// the protocol a chance to decide (`try_decide` typically calls
  /// round_complete/close_round), and — when the round survived — re-issue
  /// its query via `requery`.
  void tick_rounds(Time now, Time period,
                   const std::function<void(NodeId dead)>& try_decide,
                   const std::function<void(NodeId dead, const Round&)>& requery);

  // --- permanently revoked index ranges ----------------------------------
  /// Records the quorum-backed verdict "owner's indices in [from, upto) are
  /// resolved commit-or-skip". Overlapping/adjacent ranges merge. Never
  /// cleared — see the file comment for why permanence is what makes the
  /// verdict safe.
  void note_revoked_range(NodeId owner, std::uint64_t from, std::uint64_t upto);
  bool in_revoked_range(NodeId owner, std::uint64_t index) const;
  /// End of the range containing `index`, or `index` itself when uncovered
  /// (i.e. the first index at/above `index` NOT resolved by a verdict).
  std::uint64_t revoked_through(NodeId owner, std::uint64_t index) const;
  struct Range {
    std::uint64_t from = 0;
    std::uint64_t upto = 0;  // exclusive
  };
  /// All ranges recorded against `owner`, ascending and disjoint.
  const std::vector<Range>& revoked_ranges(NodeId owner) const;

  // --- serve-side chunked log catch-up ------------------------------------
  /// The shared responder body for index-ordered log protocols: verifies the
  /// requester's prefix hash, serves the store snapshot when the requester
  /// is behind the compaction horizon (snapshot-then-suffix), else streams
  /// the committed suffix as chunked rsm::LogSnapshot frames with an
  /// incrementally carried per-chunk hash. `append_extras` adds
  /// committed-but-undelivered entries to the final chunk (their commit
  /// broadcasts predate the requester's return and were lost). `who` labels
  /// divergence errors.
  static void serve_log_catchup(
      Protocol& self, const rsm::CommandLog& log, storage::Durability* dur,
      NodeId from, std::uint64_t frontier, std::uint64_t their_hash,
      std::uint64_t resolved_through,
      const std::function<void(
          std::vector<std::pair<std::uint64_t, rsm::Command>>&)>& append_extras,
      stats::ProtocolStats* stats, const char* who);

 private:
  NodeId self_;
  std::size_t n_;
  std::size_t cq_;

  std::uint64_t suspected_mask_ = 0;

  /// A catch-up request is outstanding (set on rejoin and on detected
  /// frontier stalls; cleared by the protocol on the final reply chunk).
  bool catchup_needed_ = false;
  NodeId rotor_ = 0;
  std::uint64_t last_mark_ = 0;  // frontier at the last watchdog tick
  /// Instances the current instance-space catch-up round taught this node,
  /// and the round id stamped into requests to fence stale done frames.
  std::uint64_t catchup_news_ = 0;
  std::uint64_t catchup_round_ = 0;

  std::map<NodeId, Round> rounds_;
  std::vector<std::vector<Range>> ranges_;  // lazily sized to n_
};

}  // namespace caesar::rt
