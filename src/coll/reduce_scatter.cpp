#include "src/coll/reduce_scatter.hpp"

#include <algorithm>
#include <cstring>

namespace mccl::coll {

namespace {
void fill_rs_block(rdma::HostMemory& mem, std::uint64_t addr,
                   std::uint64_t bytes, std::uint16_t op, std::size_t origin,
                   std::size_t block) {
  float* p = reinterpret_cast<float*>(mem.at(addr, bytes));
  for (std::uint64_t i = 0; i < bytes / sizeof(float); ++i)
    p[i] = rs_value(op, origin, block, i);
}
}  // namespace

// ---------------------------------------------------------------------------
// RingReduceScatter
// ---------------------------------------------------------------------------

namespace {
// Pipeline granularity: reduction and forwarding overlap with the transfer
// at segment scope (production stacks pipeline the ring the same way).
constexpr std::uint64_t kRsSegment = 128 * KiB;
}  // namespace

RingReduceScatter::RingReduceScatter(Communicator& comm,
                                     std::uint64_t block_bytes)
    : OpBase(comm, "ring_reduce_scatter"), bytes_(block_bytes) {
  const std::size_t P = comm.size();
  MCCL_CHECK(P >= 2 && bytes_ > 0 && bytes_ % sizeof(float) == 0);
  st_.resize(P);
  sendbuf_ = symmetric_buffer(bytes_ * P);
  recvbuf_ = symmetric_buffer(bytes_);
  scratch_ = symmetric_buffer(bytes_ * (P - 1));
  if (comm_.data_mode())
    for (std::size_t r = 0; r < P; ++r)
      for (std::size_t b = 0; b < P; ++b)
        fill_rs_block(comm_.ep(r).nic().memory(), sendbuf_ + b * bytes_,
                      bytes_, id(), r, b);
  // Op-owned ring edges; (P-1) * segments in-order receives from the left
  // into distinct scratch slots (step-major, segment-minor order matches
  // the forwarding order, so landing addresses are known up front).
  for (std::size_t r = 0; r < P; ++r) {
    const std::size_t right = (r + 1) % P;
    auto [qa, qb] = comm_.create_qp_pair(r, right);
    st_[r].qp_right = qa;
    st_[right].qp_left = qb;
  }
  const std::size_t G = num_segments();
  for (std::size_t r = 0; r < P; ++r) {
    for (std::size_t step = 0; step + 1 < P; ++step) {
      for (std::size_t g = 0; g < G; ++g) {
        st_[r].qp_left->post_recv(
            {.wr_id = step * G + g,
             .laddr = scratch_ + step * bytes_ + seg_off(g),
             .len = static_cast<std::uint32_t>(seg_len(g))});
      }
    }
  }
}

std::size_t RingReduceScatter::num_segments() const {
  return static_cast<std::size_t>((bytes_ + kRsSegment - 1) / kRsSegment);
}

std::uint64_t RingReduceScatter::seg_off(std::size_t g) const {
  return static_cast<std::uint64_t>(g) * kRsSegment;
}

std::uint64_t RingReduceScatter::seg_len(std::size_t g) const {
  const std::uint64_t off = seg_off(g);
  return std::min<std::uint64_t>(kRsSegment, bytes_ - off);
}

void RingReduceScatter::start() {
  mark_started();
  const std::size_t P = comm_.size();
  for (std::size_t r = 0; r < P; ++r) {
    // Step 0: inject our own copy of block (r-1), segment by segment.
    const std::size_t block = (r + P - 1) % P;
    for (std::size_t g = 0; g < num_segments(); ++g)
      send_from(r, sendbuf_ + block * bytes_ + seg_off(g), seg_len(g));
  }
}

void RingReduceScatter::send_from(std::size_t r, std::uint64_t addr,
                                  std::uint64_t len) {
  Endpoint& ep = comm_.ep(r);
  ep.app_worker().post(ep.costs().control, [this, r, addr, len] {
    rdma::SendFlags flags;
    flags.imm = encode_ctrl({CtrlType::kStep, id(), 0});
    flags.has_imm = true;
    flags.signaled = false;
    st_[r].qp_right->post_send(addr, len, flags);
  });
}

void RingReduceScatter::accumulate(std::size_t r, std::uint64_t acc_addr,
                                   std::uint64_t own_addr,
                                   std::uint64_t len) {
  if (!comm_.data_mode()) return;
  auto& mem = comm_.ep(r).nic().memory();
  float* acc = reinterpret_cast<float*>(mem.at(acc_addr, len));
  const float* own = reinterpret_cast<const float*>(mem.at(own_addr, len));
  for (std::uint64_t i = 0; i < len / sizeof(float); ++i) acc[i] += own[i];
}

void RingReduceScatter::on_ctrl(std::size_t r, const CtrlMsg& msg,
                                std::size_t src, const rdma::Cqe& cqe) {
  (void)src;
  (void)cqe;
  MCCL_CHECK(msg.type == CtrlType::kStep);
  RankState& s = st_[r];
  const std::size_t P = comm_.size();
  const std::size_t G = num_segments();
  const std::size_t idx = s.segs_done++;
  const std::size_t step = idx / G;
  const std::size_t g = idx % G;
  const std::size_t block = (r + 2 * P - 2 - step) % P;
  const std::uint64_t acc = scratch_ + step * bytes_ + seg_off(g);
  const std::uint64_t own = sendbuf_ + block * bytes_ + seg_off(g);
  const std::uint64_t len = seg_len(g);
  Endpoint& ep = comm_.ep(r);
  // Host-side reduction, pipelined at segment granularity.
  const double units = static_cast<double>(len) / 64.0;
  const exec::Cost reduce_cost{ep.costs().reduce_per_64b.instr * units,
                               ep.costs().reduce_per_64b.stall * units};
  ep.app_worker().post(reduce_cost, [this, r, acc, own, len, g, step, block,
                                     P] {
    accumulate(r, acc, own, len);
    RankState& s2 = st_[r];
    if (step + 1 < P - 1) {
      send_from(r, acc, len);
      return;
    }
    // Final step: this segment of block r is fully reduced.
    MCCL_CHECK(block == r);
    if (comm_.data_mode()) {
      auto& mem = comm_.ep(r).nic().memory();
      mem.write(recvbuf_ + seg_off(g), mem.at(acc, len), len);
    }
    if (++s2.finals_done == num_segments()) {
      s2.op_done = true;
      phases_[r].transfer = comm_.cluster().engine().now() - start_time_;
      rank_done(r);
    }
  });
}

bool RingReduceScatter::verify() const {
  if (!comm_.data_mode()) return true;
  const std::size_t P = comm_.size();
  for (std::size_t r = 0; r < P; ++r) {
    const float* got = reinterpret_cast<const float*>(
        comm_.ep(r).nic().memory().at(recvbuf_, bytes_));
    for (std::uint64_t i = 0; i < bytes_ / sizeof(float); ++i) {
      float want = 0;
      for (std::size_t o = 0; o < P; ++o) want += rs_value(id(), o, r, i);
      if (got[i] != want) return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// IncReduceScatter
// ---------------------------------------------------------------------------

IncReduceScatter::IncReduceScatter(Communicator& comm,
                                   std::uint64_t block_bytes)
    : OpBase(comm, "inc_reduce_scatter"),
      bytes_(block_bytes),
      chunk_bytes_(comm.config().chunk_bytes) {
  const std::size_t P = comm.size();
  MCCL_CHECK(P >= 2 && bytes_ > 0 && bytes_ % sizeof(float) == 0);
  MCCL_CHECK_MSG(comm_.cluster().config().fabric.drop_prob == 0,
                 "the INC substrate assumes a lossless fabric");
  chunks_per_block_ = static_cast<std::size_t>(
      (bytes_ + chunk_bytes_ - 1) / chunk_bytes_);

  inc::SessionConfig scfg;
  for (std::size_t r = 0; r < P; ++r)
    scfg.hosts.push_back(comm_.ep(r).host());
  session_ = comm_.cluster().inc().create_session(scfg);

  st_.resize(P);
  sendbuf_ = symmetric_buffer(bytes_ * P);
  recvbuf_ = symmetric_buffer(bytes_);
  const bool fill = comm_.data_mode();
  for (std::size_t r = 0; r < P; ++r) {
    RankState& s = st_[r];
    Endpoint& ep = comm_.ep(r);
    if (fill)
      for (std::size_t b = 0; b < P; ++b)
        fill_rs_block(ep.nic().memory(), sendbuf_ + b * bytes_, bytes_, id(),
                      r, b);

    // Reduced chunks arrive through a dedicated CQ so the receive worker
    // charges the per-chunk datapath cost before the result is consumed.
    s.result_cq = &ep.nic().create_cq();
    ep.recv_worker(0).subscribe(
        *s.result_cq,
        [this, r](const rdma::Cqe& cqe) { on_result(r, cqe); },
        ep.costs().recv_chunk_uc);
    comm_.cluster().inc().set_result_sink(
        session_, ep.host(),
        [this, r](std::uint32_t chunk, std::uint32_t len,
                  const fabric::Payload& payload) {
          RankState& s2 = st_[r];
          if (!payload.empty()) s2.payloads[chunk] = payload;
          rdma::Cqe cqe;
          cqe.opcode = rdma::CqeOpcode::kRecvWriteImm;
          cqe.imm = chunk;
          cqe.has_imm = true;
          cqe.byte_len = len;
          s2.result_cq->push(cqe);
        });
  }
}

void IncReduceScatter::start() {
  mark_started();
  for (std::size_t r = 0; r < comm_.size(); ++r)
    contribute_batch(r, 1, 0);
}

void IncReduceScatter::contribute_batch(std::size_t r, std::size_t peer_off,
                                        std::size_t chunk) {
  // Walk (owner, chunk) pairs in batches on the send worker; each posted
  // chunk is one contribution packet up the owner's reduction tree.
  const std::size_t P = comm_.size();
  if (peer_off >= P) return;
  Endpoint& ep = comm_.ep(r);
  const std::size_t batch =
      std::min(comm_.config().send_batch, chunks_per_block_ - chunk);
  const exec::Cost cost =
      exec::Cost{ep.send_costs().send_post.instr * batch,
                 ep.send_costs().send_post.stall * batch} +
      ep.send_costs().doorbell;
  ep.send_worker(0).post(cost, [this, r, peer_off, chunk, batch] {
    const std::size_t P = comm_.size();
    Endpoint& ep2 = comm_.ep(r);
    const std::size_t owner_rank = (r + peer_off) % P;
    const fabric::NodeId owner = comm_.ep(owner_rank).host();
    for (std::size_t k = 0; k < batch; ++k) {
      const std::size_t c = chunk + k;
      const std::uint64_t off =
          static_cast<std::uint64_t>(c) * chunk_bytes_;
      const std::uint32_t len = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(chunk_bytes_, bytes_ - off));
      fabric::Payload payload;
      if (comm_.data_mode()) {
        const std::uint8_t* src =
            ep2.nic().memory().at(sendbuf_ + owner_rank * bytes_ + off, len);
        payload = fabric::Payload::copy_of(src, len);
      }
      comm_.cluster().inc().contribute(
          session_, ep2.host(), owner, static_cast<std::uint32_t>(c), len,
          std::move(payload), [&ep2](const fabric::PacketPtr& pkt) {
            ep2.nic().transmit(rdma::Nic::kIncTxQueue, pkt);
          });
    }
    std::size_t next_chunk = chunk + batch;
    std::size_t next_peer = peer_off;
    if (next_chunk >= chunks_per_block_) {
      next_chunk = 0;
      ++next_peer;
    }
    contribute_batch(r, next_peer, next_chunk);
  });
}

void IncReduceScatter::on_result(std::size_t r, const rdma::Cqe& cqe) {
  RankState& s = st_[r];
  const std::uint32_t chunk = cqe.imm;
  if (comm_.data_mode()) {
    auto it = s.payloads.find(chunk);
    MCCL_CHECK(it != s.payloads.end());
    auto& mem = comm_.ep(r).nic().memory();
    const std::uint64_t off = static_cast<std::uint64_t>(chunk) * chunk_bytes_;
    const std::uint64_t len = cqe.byte_len;
    float* dst = reinterpret_cast<float*>(mem.at(recvbuf_ + off, len));
    const float* net = reinterpret_cast<const float*>(it->second.data());
    const float* own = reinterpret_cast<const float*>(
        mem.at(sendbuf_ + r * bytes_ + off, len));
    const std::size_t n = len / sizeof(float);
    for (std::size_t i = 0; i < n; ++i) dst[i] = net[i] + own[i];
    s.payloads.erase(it);
  }
  if (++s.chunks_done == chunks_per_block_) {
    s.op_done = true;
    phases_[r].transfer = comm_.cluster().engine().now() - start_time_;
    rank_done(r);
  }
}

bool IncReduceScatter::verify() const {
  if (!comm_.data_mode()) return true;
  const std::size_t P = comm_.size();
  for (std::size_t r = 0; r < P; ++r) {
    const float* got = reinterpret_cast<const float*>(
        comm_.ep(r).nic().memory().at(recvbuf_, bytes_));
    for (std::uint64_t i = 0; i < bytes_ / sizeof(float); ++i) {
      float want = 0;
      for (std::size_t o = 0; o < P; ++o) want += rs_value(id(), o, r, i);
      if (got[i] != want) return false;
    }
  }
  return true;
}

}  // namespace mccl::coll
