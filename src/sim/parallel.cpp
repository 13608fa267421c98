#include "src/sim/parallel.hpp"

#include <barrier>
#include <thread>

namespace mccl::sim {

namespace {
/// Per-(src,dst) SPSC ring capacity (power of two); bursts past it spill
/// to a producer-side vector without losing FIFO order.
constexpr std::size_t kRingCapacity = std::size_t{1} << 12;
}  // namespace

// mccl: quiescent ctor runs before the workers exist
ParallelEngine::ParallelEngine(ParallelConfig cfg) : cfg_(cfg) {
  shards_ = cfg_.shards < 1 ? 1 : cfg_.shards;
  threads_ = cfg_.threads < 1 ? 1 : cfg_.threads;
  if (threads_ > shards_) threads_ = shards_;
  MCCL_CHECK_MSG(shards_ == 1 || cfg_.lookahead > 0,
                 "multi-shard engine needs a positive lookahead");
  cores_.reserve(static_cast<std::size_t>(shards_));
  for (int s = 0; s < shards_; ++s)
    cores_.push_back(std::make_unique<ShardCore>());
  if (shards_ > 1) {
    // mccl-lint: allow(no-unguarded-shared-state) ctor runs single-threaded
    rings_.resize(static_cast<std::size_t>(shards_) * shards_);
    for (int src = 0; src < shards_; ++src)
      for (int dst = 0; dst < shards_; ++dst)
        if (src != dst)
          // mccl-lint: allow(no-unguarded-shared-state) ctor, pre-run
          rings_[static_cast<std::size_t>(src) * shards_ + dst] =
              std::make_unique<SpscRing<CrossMsg>>(kRingCapacity);
    post_seq_.resize(static_cast<std::size_t>(shards_));
    spills_.resize(static_cast<std::size_t>(shards_));
    // mccl-lint: allow(no-unguarded-shared-state) ctor runs single-threaded
    scratch_.resize(static_cast<std::size_t>(shards_));
  }
}

ParallelEngine::~ParallelEngine() = default;

void ParallelEngine::plan_next_epoch() {
  Time m = ShardCore::kNeverTime;
  for (const auto& core : cores_) {
    const Time t = core->next_event_time();
    if (t < m) m = t;
  }
  if (m == ShardCore::kNeverTime) {
    done_ = true;
    return;
  }
  // Skip-ahead: the next window is (m-1, m-1+L], anchored just below the
  // earliest pending event so no epoch spins empty. The anchor is a pure
  // function of barrier-time global state — identical for every thread
  // count, which keeps the epoch sequence (and so the injection batching)
  // deterministic.
  epoch_end_ = (m - 1) + cfg_.lookahead;
  ++epochs_;
}

void ParallelEngine::run_epoch_shards(int tid) {
  for (int s = tid; s < shards_; s += threads_) cores_[s]->run_until(epoch_end_);
}

void ParallelEngine::barrier_audit(int s, Time epoch_end) const {
  const ShardCore& core = *cores_[s];
  MCCL_VALIDATE_THAT(
      core.now() == epoch_end && core.next_event_time() > epoch_end,
      "engine.shard_barrier",
      "shard %d at barrier: clock %lld, next event %lld, epoch end %lld", s,
      static_cast<long long>(core.now()),
      static_cast<long long>(core.next_event_time()),
      static_cast<long long>(epoch_end));
}

void ParallelEngine::drain_into_shard(int s) {
  // mccl-lint: begin-shard-exchange
  auto& buf = scratch_[s];
  buf.clear();
  for (int src = 0; src < shards_; ++src) {
    if (src == s) continue;
    SpscRing<CrossMsg>& ring =
        *rings_[static_cast<std::size_t>(src) * shards_ + s];
    spills_[s].v += ring.spilled();
    ring.drain_into(buf);
  }
  if (buf.empty()) return;
  // The global injection order is (when, src_shard, post_seq) — unique and
  // independent of thread interleaving. Scheduling in that order makes the
  // destination core's seq assignment deterministic for any thread count.
  std::sort(buf.begin(), buf.end(), [](const CrossMsg& a, const CrossMsg& b) {
    if (a.when != b.when) return a.when < b.when;
    if (a.src != b.src) return a.src < b.src;
    return a.seq < b.seq;
  });
  ShardCore& core = *cores_[s];
  for (CrossMsg& m : buf) {
    MCCL_VALIDATE_THAT(m.when > core.now(), "engine.cross_shard_order",
                       "injection at %lld not after shard %d clock %lld",
                       static_cast<long long>(m.when), s,
                       static_cast<long long>(core.now()));
    core.schedule_at(m.when, std::move(m.fn));
  }
  buf.clear();
  // mccl-lint: end-shard-exchange
}

void ParallelEngine::exchange_epoch_shards(int tid) {
  for (int s = tid; s < shards_; s += threads_) {
    if constexpr (debug::kValidate) barrier_audit(s, epoch_end_);
    drain_into_shard(s);
  }
}

std::uint64_t ParallelEngine::run() {
  const std::uint64_t before = dispatched();
  if (shards_ == 1) {
    cores_[0]->run();
    return dispatched() - before;
  }
  done_ = false;
  plan_next_epoch();
  if (threads_ == 1) {
    // Sequential execution of the identical epoch algorithm: same windows,
    // same injection batches, same per-shard event sequences — no threads.
    while (!done_) {
      run_epoch_shards(0);
      exchange_epoch_shards(0);
      plan_next_epoch();
    }
    return dispatched() - before;
  }
  std::barrier<> run_bar(threads_);
  auto on_exchange = [this]() noexcept { plan_next_epoch(); };
  std::barrier<decltype(on_exchange)> exchange_bar(threads_, on_exchange);
  auto loop = [&](int tid) {
    // done_ / epoch_end_ are published by the exchange barrier's completion
    // (and, for the first epoch, by thread creation) — both are
    // synchronizing, so plain reads here are race-free.
    while (!done_) {
      run_epoch_shards(tid);
      run_bar.arrive_and_wait();
      exchange_epoch_shards(tid);
      exchange_bar.arrive_and_wait();
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int t = 1; t < threads_; ++t) workers.emplace_back(loop, t);
  loop(0);
  for (std::thread& w : workers) w.join();
  return dispatched() - before;
}

std::uint64_t ParallelEngine::dispatched() const {
  std::uint64_t n = 0;
  for (const auto& core : cores_) n += core->dispatched();
  return n;
}

std::uint64_t ParallelEngine::dispatch_hash() const {
  // Per-shard stream digests folded in shard-id order: the merged global
  // digest is invariant across thread counts because each shard's stream
  // is. In non-validate builds every stream digest is the constant seed,
  // so this is constant too.
  std::uint64_t h = debug::kHashSeed;
  for (const auto& core : cores_) h = debug::mix(h, core->stream_hash());
  return h;
}

std::uint64_t ParallelEngine::cross_posts() const {
  std::uint64_t n = 0;
  for (const PadCounter& c : post_seq_) n += c.v;
  return n;
}

std::uint64_t ParallelEngine::ring_spills() const {
  std::uint64_t n = 0;
  for (const PadCounter& c : spills_) n += c.v;
  return n;
}

// mccl: quiescent only called between epochs / after run()
bool ParallelEngine::validate_quiescent(const char* ctx) const {
  bool ok = true;
  for (const auto& core : cores_) ok = core->validate_quiescent(ctx) && ok;
  for (const auto& ring : rings_)
    if (ring != nullptr && !ring->empty()) ok = false;
  return ok;
}

void ParallelEngine::test_force_barrier_check(Time bogus_epoch_end) {
  barrier_audit(0, bogus_epoch_end);
}

}  // namespace mccl::sim
