// Ring-lease failure detection for crash-tolerant collectives.
//
// Ranks sit on the ring the multicast protocol's fetch chain and final
// handshake already use. Each rank leases one peer, its left-alive
// neighbour in its own view, and heartbeats one peer, its right-alive
// neighbour: one heartbeat per alive rank per interval and O(1) lease state
// per rank (SWIM's ring monitoring, Das, Gupta & Motivala, DSN 2002).
// Heartbeats ride the RC control mesh (CtrlType::kHeartbeat on the reserved
// op id 0), only while at least one collective is in flight; an idle
// communicator schedules nothing and the event queue drains.
//
// An expired lease raises a suspicion; `suspect_threshold` consecutive
// expiries with no intervening heartbeat confirm the watched peer dead. The
// confirming rank relays the verdict (CtrlType::kPeerDead) to every rank it
// still considers alive and adopts the next left-alive rank with a fresh
// lease, so adjacent deaths are confirmed one after another. The model is
// crash-stop: latches are final, and heartbeats or relays from a sender the
// receiver already holds dead are dropped. A rank that any survivor
// confirmed dead is expelled: it is never ticked again in this communicator
// (even if its host recovers) and its own confirmations no longer shrink
// the membership. Every latch is delivered to listeners (the communicator
// fans them out to in-flight ops, which repair their rings around the dead
// rank). The per-rank dead sets are the communicator's only membership
// view.
//
// Determinism: per-rank tick phases come from Rng(seed ^ rank) and all
// timers from the simulation clock, so identical seeds and fault timelines
// replay bit-identically.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/units.hpp"

namespace mccl::telemetry {
class Counter;
}  // namespace mccl::telemetry

namespace mccl::coll {

class Communicator;

struct DetectorConfig {
  bool enabled = true;
  /// Heartbeat emission and lease-check period per rank.
  Time heartbeat_interval = 100 * kMicrosecond;
  /// Lease granted on every received heartbeat (and at activation/adoption).
  Time lease_timeout = 400 * kMicrosecond;
  /// Consecutive lease expiries before a peer is confirmed dead. With the
  /// defaults a silent peer is confirmed after ~lease_timeout plus
  /// (threshold - 1) check periods — well before the op watchdog.
  std::uint32_t suspect_threshold = 3;
  /// Seeds the per-rank tick phase jitter (decorrelates rank timers).
  std::uint64_t seed = 1;
};

class FailureDetector {
 public:
  /// Called once per (observer, peer) latch — direct confirmation or
  /// accepted relay — in latch order.
  using DeathListener =
      std::function<void(std::size_t observer, std::size_t peer)>;

  FailureDetector(Communicator& comm, DetectorConfig cfg);

  const DetectorConfig& config() const { return cfg_; }
  void add_listener(DeathListener fn) { listeners_.push_back(std::move(fn)); }

  /// Op lifecycle: the detector ticks only while ops are in flight.
  void note_op_started();
  void note_op_finished();
  bool active() const { return active_ops_ > 0; }

  /// Control messages on op id 0 at `observer` (wired by the communicator):
  /// a heartbeat from `src`, and `src`'s relayed confirmation of `peer`.
  void on_heartbeat(std::size_t observer, std::size_t src);
  void on_peer_dead(std::size_t observer, std::size_t src, std::size_t peer);

  /// True once `observer` has latched `peer` dead.
  bool dead(std::size_t observer, std::size_t peer) const {
    return views_[observer].dead[peer] != 0;
  }
  /// True once a rank that was not itself expelled confirmed `peer` dead —
  /// the communicator's membership view for ops started later.
  bool confirmed_by_any(std::size_t peer) const {
    return any_dead_[peer] != 0;
  }
  /// The ring walk over `observer`'s view: the first rank left (resp.
  /// right) of `from` that `observer` considers alive, or `observer` itself
  /// when no other survivor lies between.
  std::size_t left_alive(std::size_t observer, std::size_t from) const {
    return walk(observer, from, views_.size() - 1);
  }
  std::size_t right_alive(std::size_t observer, std::size_t from) const {
    return walk(observer, from, 1);
  }

  std::uint64_t heartbeats_sent() const { return heartbeats_sent_; }
  std::uint64_t suspicions() const { return suspicions_total_; }
  std::uint64_t confirmed_dead() const { return confirmed_total_; }
  std::uint64_t posthumous_heartbeats() const { return posthumous_; }

  /// Validate-build audit of one observer's view: every latched death must
  /// trace back to a confirmation by a lease machine whose suspicion had
  /// reached the threshold — the observer's own, or the relaying sender's
  /// (one relay hop, never more). Reports "detector.lease_state"; returns
  /// false if anything was reported. Always true in regular builds.
  bool validate_view(std::size_t observer) const;

  /// Validate-build fault-injection hook: confirms a peer dead without the
  /// suspicion protocol, tripping "detector.premature_confirm" immediately
  /// and leaving state that validate_view flags as "detector.lease_state".
  void test_confirm(std::size_t observer, std::size_t peer) {
    confirm(observer, peer);
  }

 private:
  /// Provenance of one latched death: `via` confirmed it with suspicion
  /// `suspect` (via == observer for the observer's own confirmations).
  struct Death {
    std::size_t peer;
    std::size_t via;
    std::uint32_t suspect;
  };
  struct View {
    std::size_t watched = 0;    // left-alive neighbour this rank leases
    Time lease = 0;             // absolute expiry of the watched lease
    std::uint32_t suspect = 0;  // consecutive expiries of that lease
    std::vector<char> dead;     // latched membership view
    std::vector<Death> deaths;  // latch provenance, in latch order
  };

  void activate();
  void deactivate();
  void tick(std::size_t rank, std::uint64_t gen);
  /// Leases the next left-alive neighbour afresh.
  void adopt(std::size_t observer);
  void confirm(std::size_t observer, std::size_t peer);
  void latch(std::size_t observer, const Death& d);
  /// The one ring walk: steps `step` (1 = right, P - 1 = left) from
  /// `from` past the ranks `observer` holds dead, stopping at `observer`.
  std::size_t walk(std::size_t observer, std::size_t from,
                   std::size_t step) const;

  Communicator& comm_;
  DetectorConfig cfg_;
  std::vector<View> views_;
  std::vector<Time> phase_;      // deterministic per-rank first-tick offset
  std::vector<char> any_dead_;
  std::vector<DeathListener> listeners_;
  std::size_t active_ops_ = 0;
  std::uint64_t generation_ = 0;  // invalidates ticks across idle windows
  Time activated_at_ = 0;

  std::uint64_t heartbeats_sent_ = 0;
  std::uint64_t suspicions_total_ = 0;
  std::uint64_t confirmed_total_ = 0;
  std::uint64_t posthumous_ = 0;
  // Registry references resolved once at wiring time (hot-path friendly).
  telemetry::Counter* ctr_heartbeats_ = nullptr;
  telemetry::Counter* ctr_suspicions_ = nullptr;
  telemetry::Counter* ctr_confirmed_ = nullptr;
  telemetry::Counter* ctr_posthumous_ = nullptr;
};

}  // namespace mccl::coll
