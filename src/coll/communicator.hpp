// Communicator: ranks, progress-engine workers, control plane, multicast
// subgroups — and the collective-operation API.
//
// One Communicator spans a set of hosts (one rank per host, as in the
// paper's 1-PPN evaluation). Construction wires, per rank:
//  - an application thread (host CPU worker) running the control plane:
//    RNR barrier, chain tokens, final handshake, fetch coordination;
//  - `send_workers` + `recv_workers` progress workers on the configured
//    engine (host CPU or DPA) — flow-direction parallelism;
//  - `subgroups` multicast groups, each with its own UD/UC QP, CQs and
//    staging ring — packet parallelism; subgroup CQs are distributed over
//    the receive workers;
//  - lazily, pairwise RC QPs for the control plane and for the data plane
//    of the P2P baselines and the reliability fetch layer.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/coll/cluster.hpp"
#include "src/coll/ctrl.hpp"
#include "src/coll/failure_detector.hpp"
#include "src/coll/health_monitor.hpp"
#include "src/exec/cost_model.hpp"

namespace mccl::coll {

class Communicator;
class OpBase;

enum class Transport : std::uint8_t {
  kUd,       // UD multicast datagrams + receive-side staging (Section III)
  kUcMcast,  // proposed UC multicast RDMA Writes, no staging (Section V-B)
};

enum class EngineKind : std::uint8_t {
  kCpu,  // progress workers on host CPU cores
  kDpa,  // progress workers on DPA hardware threads (SmartNIC offload)
};

struct CommConfig {
  Transport transport = Transport::kUd;
  EngineKind progress_engine = EngineKind::kCpu;
  /// Where the *send* workers run; defaults to progress_engine. The paper's
  /// DPA experiments drive the receiver from an x86 client, i.e. send
  /// workers on the CPU while receive workers are offloaded.
  std::optional<EngineKind> send_engine;
  std::size_t subgroups = 1;      // multicast subgroups (packet parallelism)
  std::size_t chains = 1;         // broadcast chains (multicast parallelism)
  std::size_t send_workers = 1;   // flow-direction parallelism
  std::size_t recv_workers = 1;
  std::uint32_t chunk_bytes = 4096;  // fast-path fragmentation granularity
  std::size_t send_batch = 16;       // doorbell batching factor
  std::size_t staging_slots = 2048;  // staging ring slots per subgroup (UD)
  Time cutoff_alpha = 500 * kMicrosecond;  // cutoff-timer slack
  bool reliability = true;                 // enable the slow-path fetch ring

  // --- slow-path hardening (fault tolerance beyond the paper) --------------
  /// A fetch request that is not ACKed within this window (> 0) is retried
  /// with exponential backoff (x2 per attempt); after kFetchRetryCap
  /// requests to one target the rank fails over to that target's left
  /// neighbor (mcast_coll.cpp).
  Time fetch_retry_timeout = 150 * kMicrosecond;
  /// The effective cutoff alpha tightens after an op that observed loss
  /// (halved per lossy op down to `cutoff_alpha_min`, relaxed back toward
  /// `cutoff_alpha` after clean ops) — recovery starts sooner on a fabric
  /// known to be misbehaving. Each multicast op also arms a hard watchdog
  /// at kWatchdogMultiplier times its worst cutoff deadline (mcast_coll.cpp).
  Time cutoff_alpha_min = 25 * kMicrosecond;

  // --- crash tolerance -------------------------------------------------------
  /// Lease-based failure detector (heartbeats on the RC control mesh while
  /// ops are in flight). Confirmed-dead peers are spliced out of the
  /// multicast collective's rings: barrier rounds are credited, fetch
  /// chains walk around them, the final handshake re-closes over survivors,
  /// and a dead block root is replaced by a surviving full holder or the
  /// block is abandoned (OpResult::kPartial). Disable to get the PR-1
  /// behavior: a crash mid-op ends in a watchdog failure.
  DetectorConfig detector;

  // --- performance-fault adaptation ------------------------------------------
  /// Online health plane (health_monitor.hpp): per-peer slowness scores and
  /// per-link health drive slow-root re-ownership, fetch detours, chain
  /// demotion and weighted-ECMP steering. Off by default (static baseline).
  HealthConfig adapt;

  std::optional<exec::DatapathCosts> costs_override;  // else by engine kind

  // --- multi-tenant QoS (cluster scheduler plane) ----------------------------
  /// Tenant id every QP of this communicator charges its packets to (pool
  /// sub-pool accounting + per-tenant fabric metrics). 0 = untenanted.
  std::uint16_t tenant = 0;
  /// Tenant QoS class, 0 = highest priority: selects the data virtual lane
  /// at switch egress and the priority band at NIC injection. Only matters
  /// once a NIC QoS policy (Nic::set_qos_policy) and/or virtual lanes are
  /// active; with the defaults everything rides kBulkLane as before.
  std::uint8_t qos_class = 0;
  /// Weighted-fair share at NIC injection (QosPolicy::kWfq).
  std::uint16_t qos_weight = 1;
};

/// Per-rank protocol phase timestamps (durations), the Fig 10 breakdown.
struct Phases {
  Time barrier = 0;      // RNR synchronization
  Time transfer = 0;     // multicast / data movement
  Time reliability = 0;  // slow-path recovery (0 if no drops)
  Time handshake = 0;    // final ring handshake
  Time total() const { return barrier + transfer + reliability + handshake; }
};

/// Completion verdict of a collective on a faulty cluster.
enum class OpStatus : std::uint8_t {
  kOk,       // every surviving rank holds every block
  kPartial,  // survivors completed, but some blocks are unrecoverable
             // (their root crashed before any survivor held them in full)
  kFailed,   // watchdog-terminated; buffers are garbage
};

inline const char* to_string(OpStatus s) {
  switch (s) {
    case OpStatus::kOk: return "ok";
    case OpStatus::kPartial: return "partial";
    case OpStatus::kFailed: return "failed";
  }
  return "?";
}

/// Result of a completed (blocking) collective.
struct OpResult {
  Time start = 0;
  Time finish = 0;  // max completion over ranks
  Time duration() const { return finish - start; }
  std::vector<Time> rank_finish;
  Phases max_phases;  // per-phase max over ranks
  bool data_verified = false;
  std::uint64_t fetched_chunks = 0;  // chunks recovered via the slow path
  std::uint64_t rnr_drops = 0;
  // Slow-path hardening counters (all zero on a clean fast-path run).
  std::uint64_t fetch_retries = 0;    // re-sent fetch requests (same target)
  std::uint64_t fetch_failovers = 0;  // targets skipped as unresponsive
  bool watchdog_fired = false;
  /// Set when the op was terminated by the watchdog instead of completing;
  /// `error` carries the structured reason and `data_verified` is false.
  bool failed = false;
  std::string error;
  // --- crash tolerance -------------------------------------------------------
  OpStatus status = OpStatus::kOk;
  /// kPartial: exactly the blocks no survivor could recover (sorted).
  std::vector<std::size_t> missing_blocks;
  /// Ranks that physically crashed before or during the op (sorted). Their
  /// buffers are exempt from verification; survivors still complete.
  std::vector<std::size_t> crashed_ranks;
  /// Dead block roots successfully replaced by a surviving full holder.
  std::uint64_t reroots = 0;
  // --- performance-fault adaptation ------------------------------------------
  /// Alive-but-slow block roots replaced by a full holder (kSlowRoot).
  std::uint64_t adapt_reroots = 0;
  /// Chain-token passes that overlapped a lagging root instead of waiting.
  std::uint64_t chain_demotions = 0;
  /// Fetch requests steered away from a lagging target.
  std::uint64_t fetch_detours = 0;
};

/// One block of a communicator's symmetric buffer pool: the range
/// [addr, addr + len) in every member rank's host arena.
struct SymmetricBlock {
  std::uint64_t addr = 0;
  std::uint64_t len = 0;
};

enum class BcastAlgo : std::uint8_t {
  kMcast,       // the paper's multicast Broadcast
  kBinomial,    // k-nomial tree (radix 2), whole-message forwarding
  kBinaryTree,  // balanced binary tree
  kScatterAllgather,  // van de Geijn: binomial scatter + ring allgather —
                      // the production large-message algorithm
};
enum class AllgatherAlgo : std::uint8_t {
  kMcast,  // the paper's bandwidth-optimal composition of Broadcasts
  kRing,   // NCCL-style ring
};
enum class ReduceScatterAlgo : std::uint8_t { kRing, kInc };

// ---------------------------------------------------------------------------
// Endpoint: per-rank resources
// ---------------------------------------------------------------------------

class Endpoint {
 public:
  Endpoint(Communicator& comm, std::size_t rank, fabric::NodeId host);

  std::size_t rank() const { return rank_; }
  fabric::NodeId host() const { return host_; }
  rdma::Nic& nic() { return nic_; }
  Communicator& comm() { return comm_; }
  const exec::DatapathCosts& costs() const { return costs_; }

  exec::Worker& app_worker() { return *app_worker_; }
  exec::Worker& send_worker(std::size_t i) {
    return *send_workers_[i % send_workers_.size()];
  }
  /// Costs for the send datapath (may run on a different engine).
  const exec::DatapathCosts& send_costs() const { return send_costs_; }
  exec::Worker& recv_worker(std::size_t i) {
    return *recv_workers_[i % recv_workers_.size()];
  }
  std::size_t num_send_workers() const { return send_workers_.size(); }
  std::size_t num_recv_workers() const { return recv_workers_.size(); }

  /// Link speed of this host's injection port (cutoff-timer input).
  double link_gbps() const;

  // --- control plane -------------------------------------------------------
  /// Posts a control message to `peer` (charged on the app worker).
  void ctrl_send(std::size_t peer, const CtrlMsg& msg);

  // --- P2P data plane (baselines + fetch layer) -----------------------------
  rdma::RcQp& data_qp(std::size_t peer);
  /// Completions of data-plane messages are dispatched like control
  /// messages: the immediate encodes a CtrlMsg naming the op. Signaled
  /// sends and RDMA Reads name their op in the upper 32 bits of wr_id.
  rdma::Cq& data_recv_cq() { return *data_rcq_; }
  rdma::Cq& data_send_cq() { return *data_scq_; }

  // --- multicast fast path ---------------------------------------------------
  struct Subgroup {
    rdma::UdQp* ud = nullptr;
    rdma::UcQp* uc = nullptr;
    rdma::Cq* rcq = nullptr;
    rdma::Cq* scq = nullptr;
    std::uint64_t staging_base = 0;  // UD staging ring
    std::size_t posted = 0;          // receive WRs currently in the RQ
  };
  Subgroup& subgroup(std::size_t s) { return subgroups_[s]; }
  std::size_t num_subgroups() const { return subgroups_.size(); }
  /// Reposts a UD staging slot once nothing reads it any more (UD datapath
  /// step 4).
  void repost_staging(std::size_t subgroup, std::uint64_t slot_addr);
  /// Tops up the zero-length receive WRs consumed by UC write-with-imm.
  void top_up_uc_recvs(std::size_t subgroup);

  std::uint64_t rnr_drops() const;

  /// Tracer row for this rank's protocol-phase spans (pid = rank, tid 0).
  telemetry::TrackId trace_track() const { return trace_track_; }

 private:
  friend class Communicator;
  void setup_workers();
  void setup_subgroups();
  void on_ctrl_cqe(const rdma::Cqe& cqe);
  void on_data_cqe(const rdma::Cqe& cqe);
  /// Hands a control or data message to the op its immediate names.
  void deliver_ctrl(const rdma::Cqe& cqe, const char* unknown_op);
  void on_data_send_cqe(const rdma::Cqe& cqe);
  void on_chunk_cqe(std::size_t subgroup, const rdma::Cqe& cqe);

  Communicator& comm_;
  std::size_t rank_;
  fabric::NodeId host_;
  rdma::Nic& nic_;
  exec::DatapathCosts costs_;
  exec::DatapathCosts send_costs_;
  exec::DatapathCosts cpu_costs_;  // app worker always runs on the host CPU

  exec::Worker* app_worker_ = nullptr;
  std::vector<exec::Worker*> send_workers_;
  std::vector<exec::Worker*> recv_workers_;
  telemetry::TrackId trace_track_ = 0;

  rdma::Cq* ctrl_rcq_ = nullptr;
  rdma::Cq* data_rcq_ = nullptr;
  rdma::Cq* data_scq_ = nullptr;
  // Indexed by peer rank (sized lazily to the communicator); ctrl_qp() runs
  // once per control message, so the lookup is a plain vector load.
  std::vector<rdma::RcQp*> ctrl_qps_;
  std::vector<rdma::RcQp*> data_qps_;
  std::vector<Subgroup> subgroups_;
};

// ---------------------------------------------------------------------------
// OpBase: a collective instance spanning all ranks
// ---------------------------------------------------------------------------

/// ceil(log2 n): the round count of a dissemination barrier over n ranks.
inline std::size_t ceil_log2(std::size_t n) {
  std::size_t k = 0, v = 1;
  while (v < n) {
    v *= 2;
    ++k;
  }
  return k;
}

class OpBase {
 public:
  OpBase(Communicator& comm, std::string name);
  virtual ~OpBase();

  std::uint16_t id() const { return id_; }
  const std::string& name() const { return name_; }
  bool done() const;
  Time start_time() const { return start_time_; }
  Time finish_time() const;
  const std::vector<Time>& rank_finish() const { return finish_; }
  Phases max_phases() const;
  const Phases& rank_phases(std::size_t r) const { return phases_[r]; }
  std::uint64_t fetched_chunks() const { return fetched_chunks_; }
  std::uint64_t fetch_retries() const { return fetch_retries_; }
  std::uint64_t fetch_failovers() const { return fetch_failovers_; }
  bool watchdog_fired() const { return watchdog_fired_; }
  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }
  OpStatus status() const {
    if (failed_) return OpStatus::kFailed;
    return missing_blocks_.empty() ? OpStatus::kOk : OpStatus::kPartial;
  }
  const std::vector<std::size_t>& missing_blocks() const {
    return missing_blocks_;
  }
  std::uint64_t reroots() const { return reroots_; }
  std::uint64_t adapt_reroots() const { return adapt_reroots_; }
  std::uint64_t chain_demotions() const { return chain_demotions_; }
  std::uint64_t fetch_detours() const { return fetch_detours_; }
  bool rank_crashed(std::size_t r) const { return crashed_[r] != 0; }
  std::vector<std::size_t> crashed_ranks() const;

  /// Launches the op (records the start time, posts initial tasks).
  virtual void start() = 0;
  /// Byte-for-byte output validation (true in synthetic mode).
  virtual bool verify() const = 0;

  /// Completion hook for non-blocking drivers (the cluster scheduler): runs
  /// exactly once, from inside the engine, when the op transitions to
  /// done() — whether it completed, failed, or was settled by crashes. Set
  /// before or right after start(); the callback may start new ops but must
  /// not destroy this one.
  void set_on_done(std::function<void(OpBase&)> fn) { on_done_ = std::move(fn); }

  /// Physical-crash channel (from the cluster's fault plane): settle the
  /// dead rank's completion accounting so survivors alone gate done().
  /// Protocol repair is NOT triggered here — survivors act only on what
  /// their failure detector confirms (on_peer_confirmed_dead).
  void note_rank_crashed(std::size_t r);
  /// A member host crashed before this op released its buffers. What the
  /// crashed NIC still holds (copies, RC streams) is unknowable, so the op
  /// keeps its blocks for good instead of returning them to the pool.
  void pin_buffers() { pinned_ = true; }
  /// True once the op has returned its buffers to the communicator's pool
  /// (see symmetric_buffer). Its bytes stay readable until a later op
  /// takes the blocks, i.e. verify() must run before the next op starts.
  bool released() const { return released_; }
  /// Detector channel: `observer` has confirmed `peer` dead. Crash-tolerant
  /// ops override this to repair their rings; the default ignores it (P2P
  /// baselines are not crash-tolerant — their watchdog-free variants rely
  /// on a healthy fabric).
  virtual void on_peer_confirmed_dead(std::size_t observer,
                                      std::size_t peer) {
    (void)observer;
    (void)peer;
  }
  /// Health-plane channel: `observer`'s monitor marked `peer` slow (or
  /// cleared it). Adaptive ops override this to shift work away from (or
  /// back to) the peer; the default ignores it.
  virtual void on_peer_slow(std::size_t observer, std::size_t peer,
                            bool slow) {
    (void)observer;
    (void)peer;
    (void)slow;
  }

  // --- endpoint events: the Endpoint hands each CQE to the op it names ------
  /// Control message, or P2P data message, whose immediate names this op's
  /// id, received by rank `r` from `src`. The default aborts: an op without
  /// a control plane never receives one.
  virtual void on_ctrl(std::size_t r, const CtrlMsg& msg, std::size_t src,
                       const rdma::Cqe& cqe);
  /// Fast-path chunk completion (receive, or the send's own completion)
  /// carrying the multicast tag this op holds; runs on rank `r`'s worker
  /// after the per-CQE datapath cost has been charged. Returns true when
  /// the op keeps the chunk's UD staging slot, which it then reposts once
  /// its copy drains; the Endpoint reposts every other slot at once.
  virtual bool on_chunk(std::size_t /*r*/, std::uint32_t /*chunk*/,
                        std::size_t /*sg*/, const rdma::Cqe& /*cqe*/) {
    return false;
  }
  /// Signaled data-plane send or RDMA Read completion whose wr_id names
  /// this op (wr_id >> 32). Ops that do not track them ignore it.
  virtual void on_send_done(std::size_t /*r*/, const rdma::Cqe& /*cqe*/) {}

 protected:
  void mark_started();
  void rank_done(std::size_t r);
  /// The cluster's telemetry bundle (metrics / tracer / flight recorder).
  telemetry::Telemetry& telem();
  /// Watchdog path: records the error, marks every unfinished rank complete
  /// at the current time so done() holds, and freezes further protocol
  /// callbacks behind failed().
  void fail_op(std::string error);

  // --- symmetric buffers and the release rule -------------------------------
  /// A buffer of at least `len` bytes at the same address on every rank,
  /// taken from the communicator's pool. The op returns all its blocks once
  /// it is done() and nothing it posted can still touch them. Only DMA
  /// copies and RDMA Reads touch op memory after done(): copies go through
  /// post_copy, and every Read is bracketed by wr_posted() / wr_completed()
  /// from the moment it is queued. Sends and writes need no bracket: their
  /// payload is snapshotted when each packet is built, RC retransmissions
  /// resend those packets, and done() means every packet reached its
  /// receiver. A WR that never completes (a crashed host, a silent dead QP)
  /// keeps the blocks out of the pool for good.
  std::uint64_t symmetric_buffer(std::uint64_t len);
  /// Registers [addr, addr + len) on every rank under one fresh cluster-wide
  /// rkey. Deregistered on every rank at release, which fences late UC
  /// writes to the buffer (dropped at the responder as unknown-rkey).
  std::uint32_t register_symmetric(std::uint64_t addr, std::uint64_t len);
  void wr_posted() { ++wrs_in_flight_; }
  void wr_completed();
  /// Posts a DMA copy on rank `r`'s NIC, bracketed for the release rule;
  /// `done` runs once the bytes have landed. Runs once per chunk on the UD
  /// path: keep `done`'s captures small enough to stay inline.
  template <typename Fn>
  void post_copy(std::size_t r, std::uint64_t src, std::uint64_t dst,
                 std::uint64_t len, Fn done);

  Communicator& comm_;
  std::string name_;
  std::uint16_t id_;
  Time start_time_ = 0;
  std::vector<Time> finish_;
  std::vector<Phases> phases_;
  std::size_t completed_ = 0;
  std::uint64_t fetched_chunks_ = 0;
  std::uint64_t fetch_retries_ = 0;
  std::uint64_t fetch_failovers_ = 0;
  bool watchdog_fired_ = false;
  bool failed_ = false;
  std::string error_;
  std::vector<char> crashed_;  // physically crashed ranks
  std::vector<std::size_t> missing_blocks_;  // abandoned (sorted at finish)
  std::uint64_t reroots_ = 0;
  std::uint64_t adapt_reroots_ = 0;
  std::uint64_t chain_demotions_ = 0;
  std::uint64_t fetch_detours_ = 0;

 private:
  /// Notifies the communicator exactly once when the op transitions to
  /// done() (detector deactivation is refcounted on in-flight ops).
  void maybe_note_done();
  /// Returns the op's blocks to the pool once the release rule holds.
  void maybe_release();
  bool done_noted_ = false;
  std::function<void(OpBase&)> on_done_;
  std::vector<SymmetricBlock> blocks_;
  std::vector<std::uint32_t> rkeys_;
  std::size_t wrs_in_flight_ = 0;
  bool pinned_ = false;
  bool released_ = false;
};

// ---------------------------------------------------------------------------
// Communicator
// ---------------------------------------------------------------------------

class Communicator {
 public:
  Communicator(Cluster& cluster, std::vector<fabric::NodeId> hosts,
               CommConfig config = {});
  ~Communicator();

  Cluster& cluster() { return cluster_; }
  const CommConfig& config() const { return config_; }
  std::size_t size() const { return eps_.size(); }
  Endpoint& ep(std::size_t rank) { return *eps_[rank]; }
  std::size_t rank_of_host(fabric::NodeId host) const;
  fabric::McastGroupId subgroup_group(std::size_t s) const {
    return groups_[s];
  }
  bool data_mode() const;  // false when the cluster runs payload-free

  /// Cutoff slack currently in effect: equal to `config().cutoff_alpha`
  /// until an op observes loss, then adaptively tightened (see CommConfig).
  Time effective_cutoff_alpha() const { return adaptive_alpha_; }

  // --- crash tolerance -------------------------------------------------------
  /// The ring-lease failure detector; null when disabled in the config.
  FailureDetector* detector() { return detector_.get(); }
  /// `observer`'s membership view: the detector's latched confirmations
  /// (every peer counts as alive with the detector disabled). Crash-tolerant
  /// ops repair their rings from this view alone.
  bool peer_dead(std::size_t observer, std::size_t peer) const {
    return detector_ && detector_->dead(observer, peer);
  }
  /// First rank left (resp. right) of `from` that `observer` considers
  /// alive; `observer` itself when no other survivor lies between.
  std::size_t left_alive_of(std::size_t observer, std::size_t from) const {
    return detector_ ? detector_->left_alive(observer, from)
                     : (from + size() - 1) % size();
  }
  std::size_t right_alive_of(std::size_t observer, std::size_t from) const {
    return detector_ ? detector_->right_alive(observer, from)
                     : (from + 1) % size();
  }
  /// The performance-fault health monitor; null unless config().adapt is
  /// enabled.
  HealthMonitor* health() { return health_.get(); }
  /// Multicast subgroup re-balancing: between ops, re-pins every rail-pinned
  /// subgroup whose rail plane has unhealthy links onto the healthiest rail
  /// (strictly fewer unhealthy dirs). No-op while any op is in flight, on
  /// single-rail fabrics, or without the health monitor. Called on every
  /// collective start; public so chaos drivers can force a decision point.
  void rebalance_subgroups();
  std::uint64_t subgroup_repins() const { return subgroup_repins_; }
  /// Aligns every member rank's host-memory bump pointer to the team-wide
  /// max before a symmetric allocation. A single-tenant cluster is a no-op
  /// (all cursors already equal); with N communicators on overlapping host
  /// sets it restores the identical-offset invariant the mcast fetch layer
  /// and UC multicast writes rely on. Called by acquire_block for every
  /// fresh block.
  void align_symmetric_heap();
  /// Symmetric buffer pool: the smallest free block of at least `len`
  /// bytes, or else a fresh one — align_symmetric_heap() and then one bump
  /// allocation of `len` per member rank, so its offset is identical on
  /// every rank by construction. A reused block still holds an earlier
  /// op's bytes.
  SymmetricBlock acquire_block(std::uint64_t len);
  /// Returns a block to the free list (OpBase's release rule).
  void release_block(const SymmetricBlock& block);
  /// Blocks the pool ever allocated, and how many are free right now.
  std::size_t pool_blocks() const { return pool_blocks_; }
  std::size_t pool_free_blocks() const { return free_blocks_.size(); }
  /// Physical truth from the fault plane: has this rank's host crashed?
  /// Used for op accounting and result reporting only — the protocol's own
  /// membership decisions go through the detector.
  bool rank_host_crashed(std::size_t rank) const {
    return host_crashed_[rank] != 0;
  }
  /// Membership view for new ops: a rank is presumed dead once its host
  /// crashed or any survivor's detector confirmed it (crash-stop: a
  /// recovered host stays expelled until a new communicator admits it).
  /// start_allgather on a shrunk communicator sources blocks from the
  /// presumed-alive ranks only, and multicast ops settle the presumed-dead
  /// ranks up front.
  bool rank_presumed_dead(std::size_t rank) const {
    return rank_host_crashed(rank) ||
           (detector_ && detector_->confirmed_by_any(rank));
  }
  std::size_t presumed_alive() const;
  /// Op-lifecycle hooks (detector activation refcount).
  void note_op_started();
  void note_op_finished();

  // --- non-blocking API ------------------------------------------------------
  OpBase& start_broadcast(std::size_t root, std::uint64_t bytes,
                          BcastAlgo algo);
  OpBase& start_allgather(std::uint64_t bytes, AllgatherAlgo algo);
  OpBase& start_reduce_scatter(std::uint64_t block_bytes,
                               ReduceScatterAlgo algo);

  // --- blocking API ----------------------------------------------------------
  OpResult broadcast(std::size_t root, std::uint64_t bytes, BcastAlgo algo);
  OpResult allgather(std::uint64_t bytes, AllgatherAlgo algo);
  OpResult reduce_scatter(std::uint64_t block_bytes, ReduceScatterAlgo algo);

  /// Runs the simulation until `op` completes and builds its result.
  OpResult finish(OpBase& op);

  /// Pairwise RC QP management (both directions created and connected).
  /// ctrl_qp/data_qp are cached communicator-wide meshes: the control plane
  /// multiplexes ops by immediate, and the fetch layer issues only RDMA
  /// Reads (no receive-WR consumption), so sharing is safe.
  rdma::RcQp& ctrl_qp(std::size_t from, std::size_t to);
  rdma::RcQp& data_qp(std::size_t from, std::size_t to);
  /// Dedicated (uncached) QP pair for one op's two-sided data stream —
  /// concurrent baselines must not interleave WR consumption on a shared
  /// receive queue. Returns (a-side, b-side).
  std::pair<rdma::RcQp*, rdma::RcQp*> create_qp_pair(std::size_t a,
                                                     std::size_t b);

  /// Stamps a QP with this communicator's tenant/QoS attributes (every QP
  /// creation site in the communicator goes through here). Control QPs
  /// arbitrate at band 0 regardless of tenant class — any tenant's tokens
  /// beat any tenant's bulk, mirroring the fabric's strict control lane.
  void tag_qp(rdma::Qp& qp, bool ctrl) const {
    qp.set_qos(config_.tenant, config_.qos_class, config_.qos_weight, ctrl);
  }

 private:
  friend class OpBase;
  friend class Endpoint;
  OpResult run_blocking(OpBase& op);
  void note_op_loss(bool lossy);
  void on_host_crash(fabric::NodeId host, bool crashed);
  /// The op whose id is `id`, or null. ops_ is in creation order and op ids
  /// grow with it, so a binary search finds it.
  OpBase* find_op(std::uint16_t id) const;
  /// Op id 0: detector heartbeats and relayed kPeerDead confirmations,
  /// received by rank `r` from `src`.
  void on_membership_ctrl(std::size_t r, const CtrlMsg& msg, std::size_t src);

  Cluster& cluster_;
  CommConfig config_;
  Time adaptive_alpha_ = 0;  // set from config in the constructor
  std::vector<std::unique_ptr<Endpoint>> eps_;
  std::unordered_map<fabric::NodeId, std::size_t> rank_of_;
  std::vector<fabric::McastGroupId> groups_;  // one per subgroup
  std::vector<std::unique_ptr<OpBase>> ops_;
  std::unique_ptr<FailureDetector> detector_;
  std::unique_ptr<HealthMonitor> health_;
  std::uint64_t subgroup_repins_ = 0;
  std::vector<char> host_crashed_;
  std::uint64_t crash_listener_id_ = 0;
  // Free pool blocks, best fit first: length -> address. Ties resolve in
  // release order, so reuse is deterministic.
  std::multimap<std::uint64_t, std::uint64_t> free_blocks_;
  std::size_t pool_blocks_ = 0;
  // Fast-path tag -> the newest op holding it (null: never bound).
  std::array<OpBase*, 256> tag_ops_{};
  std::uint8_t next_tag_ = 1;

 public:
  /// Binds the next fast-path op tag to `op` (8 bits, recycled modulo 256
  /// and never 0; a recycled tag moves to the newest op).
  std::uint8_t bind_mcast_tag(OpBase& op) {
    if (next_tag_ == 0) ++next_tag_;
    tag_ops_[next_tag_] = &op;
    return next_tag_++;
  }
};

template <typename Fn>
void OpBase::post_copy(std::size_t r, std::uint64_t src, std::uint64_t dst,
                       std::uint64_t len, Fn done) {
  wr_posted();
  auto landed = [this, done = std::move(done)]() mutable {
    wr_completed();
    done();
  };
  static_assert(sizeof(landed) <= sim::InlineCallback::kInlineBytes);
  comm_.ep(r).nic().post_local_copy(src, dst, len, std::move(landed));
}

}  // namespace mccl::coll
