// ParallelEngine: conservative-lookahead parallel discrete-event engine.
//
// Owns N ShardCores (one per fabric shard) and advances them in lockstep
// epochs of width `lookahead` — the minimum latency of any cross-shard
// link. Within an epoch every shard runs independently on its worker
// thread; events that cross a shard boundary carry at least `lookahead` of
// delay, so they can never land inside the epoch that posted them. They are
// buffered in per-(src,dst) SPSC rings and exchanged at the epoch barrier.
//
// Determinism argument (see DESIGN.md "Parallel engine"):
//  * Each shard's intra-epoch dispatch order is the sequential ShardCore
//    (when, seq) order — a pure function of the shard's pre-epoch state
//    plus the injections applied at the epoch boundary.
//  * Injections are drained from all source rings and sorted by the global
//    key (when, src_shard, post_seq) before being scheduled, so the seq
//    values they consume on the destination core do not depend on which
//    thread ran which shard or how the epoch's pushes interleaved in real
//    time.
//  * Epoch boundaries are a deterministic function of barrier-time state:
//    the next epoch is (m-1, m-1+L] where m is the global minimum pending
//    timestamp — independent of the thread count.
// Hence every ShardCore executes the identical event sequence for any
// `threads` in [1, shards]: dispatch counts, per-shard stream digests and
// all simulation outputs are byte-identical across thread counts. threads=1
// runs the same epoch algorithm inline with zero std::thread machinery —
// that *is* the sequential execution of the sharded simulation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/units.hpp"
#include "src/debug/validate.hpp"
#include "src/sim/callback.hpp"
#include "src/sim/shard.hpp"
#include "src/sim/spsc.hpp"

namespace mccl::sim {

struct ParallelConfig {
  /// Number of shards (event cores). 1 degenerates to a plain Engine run.
  int shards = 1;
  /// Worker threads; clamped to [1, shards]. 1 = run inline on the calling
  /// thread with no thread machinery at all.
  int threads = 1;
  /// Conservative lookahead: every cross-shard post must carry at least
  /// this much delay. Must be > 0 when shards > 1 (use the topology
  /// partitioner's minimum cut-link latency).
  Time lookahead = 0;
};

class ParallelEngine {
 public:
  explicit ParallelEngine(ParallelConfig cfg);
  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;
  ~ParallelEngine();

  int num_shards() const { return shards_; }
  int num_threads() const { return threads_; }
  Time lookahead() const { return cfg_.lookahead; }

  ShardCore& shard(int s) { return *cores_[s]; }
  const ShardCore& shard(int s) const { return *cores_[s]; }

  /// Cross-shard event: schedules `fn` on shard `dst` at
  /// `shard(src).now() + delay`. Must be called from shard `src`'s context
  /// (its thread, during the run phase). `delay` must be >= lookahead —
  /// that is the conservative-parallelism contract; the
  /// engine.cross_shard_order validator audits it.
  template <typename F>
  void post(int src, int dst, Time delay, F&& fn) {
    MCCL_CHECK(src >= 0 && src < shards_ && dst >= 0 && dst < shards_);
    if (src == dst) {
      cores_[src]->schedule(delay, std::forward<F>(fn));
      return;
    }
    MCCL_VALIDATE_THAT(delay >= cfg_.lookahead, "engine.cross_shard_order",
                       "cross-shard post delay %lld under lookahead %lld "
                       "(shard %d -> %d)",
                       static_cast<long long>(delay),
                       static_cast<long long>(cfg_.lookahead), src, dst);
    if (delay < cfg_.lookahead) {
      // Regular builds: hard failure. Validate builds: the violation was
      // reported above (possibly into a ViolationTrap); clamp so a trapped
      // run can continue deterministically.
      MCCL_CHECK_MSG(debug::kValidate,
                     "cross-shard post under the lookahead window");
      delay = cfg_.lookahead;
    }
    // mccl-lint: begin-shard-exchange
    rings_[static_cast<std::size_t>(src) * shards_ + dst]->push(CrossMsg{
        cores_[src]->now() + delay, post_seq_[src].v++,
        static_cast<std::uint32_t>(src), InlineCallback(std::forward<F>(fn))});
    // mccl-lint: end-shard-exchange
  }

  /// Runs all shards to global quiescence (no pending events anywhere, all
  /// rings drained). Returns the number of events dispatched by this call.
  std::uint64_t run();

  /// Total events dispatched across all shards.
  std::uint64_t dispatched() const;

  /// Merged determinism digest (MCCL_VALIDATE builds): per-shard stream
  /// digests folded in shard-id order. Byte-identical across thread counts
  /// and across double runs of the same configuration. Constant in regular
  /// builds (the per-shard digests never fold).
  std::uint64_t dispatch_hash() const;

  /// Lockstep epochs executed (windows with at least one event).
  std::uint64_t epochs() const { return epochs_; }
  /// Cross-shard messages exchanged through the rings.
  std::uint64_t cross_posts() const;
  /// Ring-overflow spills observed (diagnostic; spills are lossless).
  std::uint64_t ring_spills() const;

  bool validate_quiescent(const char* ctx) const;

  /// Test hook (validator coverage): runs the shard-barrier audit against a
  /// bogus epoch end so engine.shard_barrier has something to report.
  void test_force_barrier_check(Time bogus_epoch_end);

 private:
  struct CrossMsg {
    Time when;
    std::uint64_t seq;       // per-source post counter
    std::uint32_t src;       // source shard (tie-break after `when`)
    InlineCallback fn;
  };
  struct alignas(64) PadCounter {
    std::uint64_t v = 0;
  };

  void plan_next_epoch();               // barrier completion, single-threaded
  void run_epoch_shards(int tid);       // run phase: shards tid, tid+T, ...
  void exchange_epoch_shards(int tid);  // drain phase for the same shards
  void drain_into_shard(int s);
  void barrier_audit(int s, Time epoch_end) const;

  ParallelConfig cfg_;
  int shards_ = 1;
  int threads_ = 1;
  std::vector<std::unique_ptr<ShardCore>> cores_;
  // mccl: shard-owned SPSC mailbox plane, indexed src * S + dst
  std::vector<std::unique_ptr<SpscRing<CrossMsg>>> rings_;
  std::vector<PadCounter> post_seq_;      // per-src cross-post seq stream
  std::vector<PadCounter> spills_;        // per-dst ring-overflow tallies
  std::vector<std::vector<CrossMsg>> scratch_;  // mccl: shard-owned per-dst sort buffer
  // Epoch state: written by the barrier completion (one thread, all others
  // blocked in the barrier), read by every worker after release.
  Time epoch_end_ = 0;
  bool done_ = false;
  std::uint64_t epochs_ = 0;
};

}  // namespace mccl::sim
