#include "src/coll/p2p_coll.hpp"

#include "src/coll/pattern.hpp"

namespace mccl::coll {

namespace {
/// Children of shifted rank `v` among P ranks for the given tree shape.
std::vector<std::size_t> tree_children(std::size_t v, std::size_t P,
                                       BcastAlgo algo) {
  std::vector<std::size_t> out;
  switch (algo) {
    case BcastAlgo::kBinomial: {
      // v may send to v + 2^i for every i below the position of v's lowest
      // set bit (v == 0: all i). Farthest child first.
      std::size_t limit = P;
      if (v != 0) limit = v & (~v + 1);  // lowest set bit
      std::size_t step = 1;
      while (step < limit && v + step < P) step <<= 1;
      for (std::size_t d = step; d >= 1; d >>= 1)
        if (d < limit && v + d < P) out.push_back(v + d);
      break;
    }
    case BcastAlgo::kBinaryTree:
      if (2 * v + 1 < P) out.push_back(2 * v + 1);
      if (2 * v + 2 < P) out.push_back(2 * v + 2);
      break;
    default:
      MCCL_CHECK_MSG(false, "not a P2P broadcast algorithm");
  }
  return out;
}

std::size_t tree_parent(std::size_t v, BcastAlgo algo) {
  MCCL_CHECK(v != 0);
  switch (algo) {
    case BcastAlgo::kBinomial:
      return v & (v - 1);  // clear lowest set bit
    case BcastAlgo::kBinaryTree:
      return (v - 1) / 2;
    default:
      MCCL_CHECK_MSG(false, "not a P2P broadcast algorithm");
      return 0;
  }
}
}  // namespace

// ---------------------------------------------------------------------------
// P2PBroadcast
// ---------------------------------------------------------------------------

P2PBroadcast::P2PBroadcast(Communicator& comm, std::size_t root,
                           std::uint64_t bytes, BcastAlgo algo)
    : OpBase(comm, "p2p_broadcast"),
      root_(root),
      bytes_(bytes),
      algo_(algo) {
  const std::size_t P = comm.size();
  MCCL_CHECK(root < P && bytes > 0);
  sendbuf_ = symmetric_buffer(bytes_);
  recvbuf_ = symmetric_buffer(bytes_);
  if (comm_.data_mode())
    fill_pattern(comm_.ep(root_).nic().memory(), sendbuf_, bytes_, id(),
                 root_);
  st_.resize(P);
  for (std::size_t r = 0; r < P; ++r) {
    RankState& s = st_[r];
    const std::size_t v = (r + P - root_) % P;
    for (const std::size_t cv : tree_children(v, P, algo_))
      s.children.push_back((cv + root_) % P);
    if (v != 0) s.parent = static_cast<int>((tree_parent(v, algo_) + root_) % P);
  }
  // Op-owned tree edges; pre-post the receive on the child side (zero-copy:
  // directly into the user buffer — the RC rendezvous path).
  for (std::size_t r = 0; r < P; ++r) {
    for (const std::size_t child : st_[r].children) {
      auto [pq, cq] = comm_.create_qp_pair(r, child);
      st_[r].child_qps.push_back(pq);
      st_[child].parent_qp = cq;
      cq->post_recv({.wr_id = 0, .laddr = recvbuf_,
                     .len = static_cast<std::uint32_t>(bytes_)});
    }
  }
}

void P2PBroadcast::start() {
  mark_started();
  post_copy(root_, sendbuf_, recvbuf_, bytes_, [this] {
    st_[root_].local_copy_done = true;
    maybe_done(root_);
  });
  st_[root_].received = true;
  forward(root_, sendbuf_);
}

void P2PBroadcast::forward(std::size_t r, std::uint64_t src_addr) {
  // Children are served strictly one after another (farthest subtree
  // first): posting them all at once would let the NIC QP arbiter
  // interleave the streams and delay the critical-path child by the whole
  // fan-out (a classic tree-broadcast pitfall).
  if (!st_[r].children.empty()) send_to_child(r, 0, src_addr);
  maybe_done(r);
}

void P2PBroadcast::send_to_child(std::size_t r, std::size_t child_idx,
                                 std::uint64_t src_addr) {
  Endpoint& ep = comm_.ep(r);
  ep.app_worker().post(ep.costs().control, [this, r, child_idx, src_addr] {
    rdma::SendFlags flags;
    flags.imm = encode_ctrl({CtrlType::kStep, id(), 0});
    flags.has_imm = true;
    flags.signaled = true;  // completion chains the next child
    flags.wr_id = (static_cast<std::uint64_t>(id()) << 32) | child_idx;
    st_[r].child_qps[child_idx]->post_send(src_addr, bytes_, flags);
  });
}

// Chained child sends complete through the data send CQ.
void P2PBroadcast::on_send_done(std::size_t r, const rdma::Cqe& cqe) {
  const std::size_t child_idx = static_cast<std::uint32_t>(cqe.wr_id);
  if (child_idx + 1 < st_[r].children.size())
    send_to_child(r, child_idx + 1,
                  r == root_ ? sendbuf_ : recvbuf_);
}

void P2PBroadcast::on_ctrl(std::size_t r, const CtrlMsg& msg,
                           std::size_t src, const rdma::Cqe& cqe) {
  (void)src;
  (void)cqe;
  MCCL_CHECK(msg.type == CtrlType::kStep);
  RankState& s = st_[r];
  MCCL_CHECK(!s.received);
  s.received = true;
  s.local_copy_done = true;
  forward(r, recvbuf_);
}

void P2PBroadcast::maybe_done(std::size_t r) {
  RankState& s = st_[r];
  if (s.op_done || !s.received) return;
  if (r == root_ && !s.local_copy_done) return;
  s.op_done = true;
  phases_[r].transfer = comm_.cluster().engine().now() - start_time_;
  rank_done(r);
}

bool P2PBroadcast::verify() const {
  if (!comm_.data_mode()) return true;
  for (std::size_t r = 0; r < comm_.size(); ++r) {
    if (!check_pattern(comm_.ep(r).nic().memory(), recvbuf_, bytes_,
                       id(), root_))
      return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// RingAllgather
// ---------------------------------------------------------------------------

RingAllgather::RingAllgather(Communicator& comm, std::uint64_t bytes)
    : OpBase(comm, "ring_allgather"), bytes_(bytes) {
  const std::size_t P = comm.size();
  MCCL_CHECK(P >= 2 && bytes > 0);
  st_.resize(P);
  sendbuf_ = symmetric_buffer(bytes_);
  recvbuf_ = symmetric_buffer(bytes_ * P);
  if (comm_.data_mode())
    for (std::size_t r = 0; r < P; ++r)
      fill_pattern(comm_.ep(r).nic().memory(), sendbuf_, bytes_, id(), r);
  // Op-owned ring edges; pre-post the P-1 receives toward the left
  // neighbor. RC delivers in order, and the left neighbor forwards blocks
  // (l), (l-1), ... so the landing offsets are known up front (zero-copy).
  for (std::size_t r = 0; r < P; ++r) {
    const std::size_t right = (r + 1) % P;
    auto [qa, qb] = comm_.create_qp_pair(r, right);
    st_[r].qp_right = qa;
    st_[right].qp_left = qb;
  }
  for (std::size_t r = 0; r < P; ++r) {
    for (std::size_t s = 0; s + 1 < P; ++s) {
      const std::size_t block = (r + P - 1 - s) % P;
      st_[r].qp_left->post_recv({.wr_id = s,
                                 .laddr = recvbuf_ + block * bytes_,
                                 .len = static_cast<std::uint32_t>(bytes_)});
    }
  }
}

void RingAllgather::start() {
  mark_started();
  for (std::size_t r = 0; r < comm_.size(); ++r) {
    Endpoint& ep = comm_.ep(r);
    post_copy(r, sendbuf_, recvbuf_ + r * bytes_, bytes_, [this, r] {
      st_[r].local_copy_done = true;
      maybe_done(r);
    });
    // Step 0: inject our own block from the send buffer.
    ep.app_worker().post(ep.costs().control, [this, r] {
      rdma::SendFlags flags;
      flags.imm = encode_ctrl({CtrlType::kStep, id(), 0});
      flags.has_imm = true;
      flags.signaled = false;
      st_[r].qp_right->post_send(sendbuf_, bytes_, flags);
    });
  }
}

void RingAllgather::send_block(std::size_t r, std::size_t block) {
  Endpoint& ep = comm_.ep(r);
  ep.app_worker().post(ep.costs().control, [this, r, block] {
    rdma::SendFlags flags;
    flags.imm = encode_ctrl({CtrlType::kStep, id(), 0});
    flags.has_imm = true;
    flags.signaled = false;
    st_[r].qp_right->post_send(recvbuf_ + block * bytes_, bytes_,
                               flags);
  });
}

void RingAllgather::on_ctrl(std::size_t r, const CtrlMsg& msg,
                            std::size_t src, const rdma::Cqe& cqe) {
  (void)src;
  (void)cqe;
  MCCL_CHECK(msg.type == CtrlType::kStep);
  RankState& s = st_[r];
  const std::size_t P = comm_.size();
  const std::size_t step = s.steps_done++;
  const std::size_t block = (r + P - 1 - step) % P;
  if (step + 1 < P - 1) send_block(r, block);
  maybe_done(r);
}

void RingAllgather::maybe_done(std::size_t r) {
  RankState& s = st_[r];
  if (s.op_done || !s.local_copy_done || s.steps_done < comm_.size() - 1)
    return;
  s.op_done = true;
  phases_[r].transfer = comm_.cluster().engine().now() - start_time_;
  rank_done(r);
}

bool RingAllgather::verify() const {
  if (!comm_.data_mode()) return true;
  for (std::size_t r = 0; r < comm_.size(); ++r) {
    for (std::size_t b = 0; b < comm_.size(); ++b) {
      if (!check_pattern(comm_.ep(r).nic().memory(),
                         recvbuf_ + b * bytes_, bytes_, id(), b))
        return false;
    }
  }
  return true;
}

}  // namespace mccl::coll
