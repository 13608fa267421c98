#include "src/coll/failure_detector.hpp"

#include "src/coll/communicator.hpp"
#include "src/common/rng.hpp"
#include "src/debug/validate.hpp"

namespace mccl::coll {

namespace {
/// Hard bound on one activation window: if an op keeps the detector alive
/// longer than this, ticking stops so a wedged simulation drains (and trips
/// the usual incomplete-run check) instead of spinning forever. The
/// collective watchdog fires far earlier.
constexpr Time kMaxActive = 500000 * kMicrosecond;
}  // namespace

FailureDetector::FailureDetector(Communicator& comm, DetectorConfig cfg)
    : comm_(comm), cfg_(cfg) {
  const std::size_t P = comm_.size();
  MCCL_CHECK(P <= 0xffff);  // kPeerDead carries the rank in a 16-bit arg
  views_.resize(P);
  for (View& v : views_) v.dead.assign(P, 0);
  any_dead_.assign(P, 0);
  // Per-rank tick phase: decorrelates the lease timers so P ranks do not
  // all fire on the same picosecond. Drawn once, from a seed independent
  // of the fabric's fault RNG.
  phase_.resize(P);
  for (std::size_t r = 0; r < P; ++r) {
    Rng rng(cfg_.seed ^ (0x5dee7ec7ull + r));
    phase_[r] = static_cast<Time>(
        rng.below(static_cast<std::uint64_t>(cfg_.heartbeat_interval)));
  }
  telemetry::MetricsRegistry& reg = comm_.cluster().telemetry().metrics;
  ctr_heartbeats_ = &reg.counter("detector.heartbeats_sent");
  ctr_suspicions_ = &reg.counter("detector.suspicions");
  ctr_confirmed_ = &reg.counter("detector.confirmed_dead");
  ctr_posthumous_ = &reg.counter("detector.posthumous_heartbeats");
}

void FailureDetector::note_op_started() {
  if (++active_ops_ == 1) activate();
}

void FailureDetector::note_op_finished() {
  MCCL_CHECK(active_ops_ > 0);
  if (--active_ops_ == 0) deactivate();
}

void FailureDetector::activate() {
  sim::Engine& eng = comm_.cluster().engine();
  activated_at_ = eng.now();
  ++generation_;
  const std::uint64_t gen = generation_;
  for (std::size_t r = 0; r < comm_.size(); ++r) {
    // Crash-stop: an expelled rank never runs its detector again in this
    // communicator — nobody heartbeats it any more, so it would only
    // confirm its live peers dead.
    if (any_dead_[r]) continue;
    // A fresh lease on the current neighbour; stale suspicion from a
    // previous activation window must not carry over.
    adopt(r);
    eng.schedule(cfg_.heartbeat_interval + phase_[r],
                 [this, r, gen] { tick(r, gen); });
  }
}

void FailureDetector::deactivate() {
  // Pending ticks see a stale generation and fall through without
  // rescheduling, so the event queue drains between ops.
  ++generation_;
}

void FailureDetector::tick(std::size_t rank, std::uint64_t gen) {
  if (gen != generation_ || active_ops_ == 0) return;
  sim::Engine& eng = comm_.cluster().engine();
  const Time now = eng.now();
  if (now - activated_at_ > kMaxActive) return;  // wedged-run bound
  Endpoint& ep = comm_.ep(rank);
  // A crashed host's software is gone: it neither emits heartbeats nor
  // checks its lease. (Its NIC would drop the sends anyway; stopping the
  // tick also stops the event churn.)
  if (ep.nic().crashed()) return;
  View& v = views_[rank];
  if (v.watched == rank) return;  // sole survivor: nobody left to lease

  ep.ctrl_send(right_alive(rank, rank), {CtrlType::kHeartbeat, 0, 0});
  ++heartbeats_sent_;
  ctr_heartbeats_->add(1);
  if (now >= v.lease) {
    // Lease expired with no heartbeat from the watched peer since the
    // last check.
    ++v.suspect;
    ++suspicions_total_;
    ctr_suspicions_->add(1);
    v.lease = now + cfg_.heartbeat_interval;  // re-check next tick
    comm_.cluster().telemetry().recorder.record(
        now, static_cast<std::int32_t>(ep.host()),
        telemetry::EventCat::kDetector, "peer_suspected", v.watched,
        v.suspect);
    if (v.suspect >= cfg_.suspect_threshold) confirm(rank, v.watched);
  }
  eng.schedule(cfg_.heartbeat_interval, [this, rank, gen] { tick(rank, gen); });
}

void FailureDetector::adopt(std::size_t observer) {
  View& v = views_[observer];
  v.watched = left_alive(observer, observer);
  v.lease = comm_.cluster().engine().now() + cfg_.lease_timeout;
  v.suspect = 0;
}

void FailureDetector::confirm(std::size_t observer, std::size_t peer) {
  View& v = views_[observer];
  if (v.dead[peer]) return;
  // A confirmation is only legal for the watched peer after
  // `suspect_threshold` consecutive lease expiries — anything else is a
  // detector protocol bug.
  const std::uint32_t suspect = peer == v.watched ? v.suspect : 0;
  MCCL_VALIDATE_THAT(suspect >= cfg_.suspect_threshold,
                     "detector.premature_confirm",
                     "observer %zu confirmed peer %zu dead at suspicion "
                     "%u (threshold %u)",
                     observer, peer, suspect, cfg_.suspect_threshold);
  // An expelled rank's verdicts stay in its own view: they must not shrink
  // the membership of the ranks that expelled it.
  if (!any_dead_[observer]) any_dead_[peer] = 1;
  Endpoint& ep = comm_.ep(observer);
  for (std::size_t p = 0; p < comm_.size(); ++p)
    if (p != observer && p != peer && !v.dead[p])
      ep.ctrl_send(p, {CtrlType::kPeerDead, 0,
                       static_cast<std::uint16_t>(peer)});
  latch(observer, {peer, observer, suspect});
}

void FailureDetector::latch(std::size_t observer, const Death& d) {
  View& v = views_[observer];
  v.dead[d.peer] = 1;
  v.deaths.push_back(d);
  ++confirmed_total_;
  ctr_confirmed_->add(1);
  telemetry::Telemetry& te = comm_.cluster().telemetry();
  const Time now = comm_.cluster().engine().now();
  Endpoint& ep = comm_.ep(observer);
  te.recorder.record(now, static_cast<std::int32_t>(ep.host()),
                     telemetry::EventCat::kDetector, "peer_dead", d.peer,
                     d.via);
  if (te.tracer.enabled())
    te.tracer.instant(ep.trace_track(), "peer_dead", now, "detector");
  if (d.peer == v.watched) adopt(observer);
  for (const DeathListener& fn : listeners_) fn(observer, d.peer);
}

void FailureDetector::on_heartbeat(std::size_t observer, std::size_t src) {
  View& v = views_[observer];
  if (v.dead[src]) {
    // Crash-stop: confirmations are final. A heartbeat that raced the
    // confirmation through the fabric is counted and dropped.
    ++posthumous_;
    ctr_posthumous_->add(1);
    return;
  }
  if (src != v.watched) return;  // only the leased neighbour renews
  v.lease = comm_.cluster().engine().now() + cfg_.lease_timeout;
  v.suspect = 0;
}

void FailureDetector::on_peer_dead(std::size_t observer, std::size_t src,
                                   std::size_t peer) {
  View& v = views_[observer];
  // Relays from a sender already held dead are dropped like posthumous
  // heartbeats; a verdict about the observer itself is not its to latch.
  if (v.dead[src] || peer == observer || v.dead[peer]) return;
  latch(observer, {peer, src, 0});
}

bool FailureDetector::validate_view(std::size_t observer) const {
  if (!debug::kValidate) return true;
  bool ok = true;
  for (const Death& d : views_[observer].deaths) {
    // The confirmation itself: the observer's own (d), or the relaying
    // sender's (relays are never forwarded, so one hop back suffices).
    const Death* origin = nullptr;
    for (const Death& e : views_[d.via].deaths)
      if (e.peer == d.peer && e.via == d.via) {
        origin = &e;
        break;
      }
    if (origin == nullptr || origin->suspect < cfg_.suspect_threshold) {
      debug::report("detector.lease_state",
                    "observer %zu holds peer %zu dead via rank %zu without "
                    "a confirmation at threshold %u (suspicion %u)",
                    observer, d.peer, d.via, cfg_.suspect_threshold,
                    origin == nullptr ? 0u : origin->suspect);
      ok = false;
    }
  }
  return ok;
}

std::size_t FailureDetector::walk(std::size_t observer, std::size_t from,
                                  std::size_t step) const {
  const std::size_t P = views_.size();
  const std::vector<char>& dead = views_[observer].dead;
  std::size_t x = (from + step) % P;
  while (x != observer && dead[x]) x = (x + step) % P;
  return x;
}

}  // namespace mccl::coll
