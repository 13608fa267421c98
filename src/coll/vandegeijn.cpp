// ScatterAllgatherBcast (van de Geijn): halving-tree scatter of the buffer
// followed by a ring allgather of the pieces. The production large-message
// broadcast: ~B/2 throughput independent of P, the strongest P2P baseline
// against the multicast Broadcast.
#include "src/coll/vandegeijn.hpp"

#include "src/coll/pattern.hpp"

namespace mccl::coll {

// ---------------------------------------------------------------------------
// ScatterAllgatherBcast
// ---------------------------------------------------------------------------

ScatterAllgatherBcast::ScatterAllgatherBcast(Communicator& comm,
                                             std::size_t root,
                                             std::uint64_t bytes)
    : OpBase(comm, "scatter_allgather_bcast"), root_(root), bytes_(bytes) {
  const std::size_t P = comm.size();
  MCCL_CHECK(root < P && bytes > 0);
  st_.resize(P);
  sendbuf_ = symmetric_buffer(bytes_);
  recvbuf_ = symmetric_buffer(bytes_);
  if (comm_.data_mode())
    fill_pattern(comm_.ep(root_).nic().memory(), sendbuf_, bytes_, id(),
                 root_);

  // Scatter tree: halving recursion over shifted rank space. Each edge is
  // an op-owned QP pair; the child pre-posts the receive for its whole
  // subtree range directly into the receive buffer (zero copy).
  struct Frame {
    std::size_t lo, hi;
  };
  std::vector<Frame> stack{{0, P}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    if (f.hi - f.lo <= 1) continue;
    const std::size_t mid = f.lo + (f.hi - f.lo + 1) / 2;
    const std::size_t parent = actual(f.lo);
    const std::size_t child = actual(mid);
    auto [pq, cq] = comm_.create_qp_pair(parent, child);
    st_[parent].scatter_sends.push_back(
        ScatterEdge{pq, mid, f.hi});
    cq->post_recv({.laddr = recvbuf_ + piece_off(mid),
                   .len = static_cast<std::uint32_t>(piece_off(f.hi) -
                                                     piece_off(mid))});
    st_[child].expects_scatter = true;
    stack.push_back({f.lo, mid});
    stack.push_back({mid, f.hi});
  }

  // Ring allgather of pieces in shifted space.
  for (std::size_t v = 0; v < P; ++v) {
    auto [qa, qb] = comm_.create_qp_pair(actual(v), actual((v + 1) % P));
    st_[actual(v)].qp_right = qa;
    st_[actual((v + 1) % P)].qp_left = qb;
  }
  for (std::size_t v = 0; v < P; ++v) {
    RankState& s = st_[actual(v)];
    for (std::size_t step = 0; step + 1 < P; ++step) {
      const std::size_t piece = (v + P - 1 - step) % P;
      s.qp_left->post_recv(
          {.laddr = recvbuf_ + piece_off(piece),
           .len = static_cast<std::uint32_t>(piece_len(piece))});
    }
  }
}

std::size_t ScatterAllgatherBcast::actual(std::size_t shifted) const {
  return (shifted + root_) % comm_.size();
}

std::uint64_t ScatterAllgatherBcast::piece_off(std::size_t piece) const {
  return piece * bytes_ / comm_.size();
}

std::uint64_t ScatterAllgatherBcast::piece_len(std::size_t piece) const {
  return piece_off(piece + 1) - piece_off(piece);
}

void ScatterAllgatherBcast::start() {
  mark_started();
  // The root works from its send buffer: local copy into the receive
  // region, then scatter.
  post_copy(root_, sendbuf_, recvbuf_, bytes_, [this] {
    st_[root_].local_copy_done = true;
    // The root's ring sends read from the receive buffer, so they must
    // wait for the local copy to land.
    begin_ring(root_);
    maybe_done(root_);
  });
  run_scatter(root_, sendbuf_);
}

void ScatterAllgatherBcast::run_scatter(std::size_t r,
                                        std::uint64_t src_base) {
  RankState& s = st_[r];
  Endpoint& ep = comm_.ep(r);
  // Largest subtree first (critical path), strictly chained would be
  // better still, but ranges shrink geometrically so posting order
  // suffices here.
  for (const ScatterEdge& e : s.scatter_sends) {
    ep.app_worker().post(ep.costs().control, [this, r, e, src_base] {
      rdma::SendFlags flags;
      flags.imm = encode_ctrl({CtrlType::kStep, id(), /*arg=*/1});
      flags.has_imm = true;
      flags.signaled = false;
      e.qp->post_send(src_base + piece_off(e.range_lo),
                      piece_off(e.range_hi) - piece_off(e.range_lo), flags);
    });
  }
}

void ScatterAllgatherBcast::begin_ring(std::size_t r) {
  RankState& s = st_[r];
  if (s.ring_started) return;
  s.ring_started = true;
  const std::size_t P = comm_.size();
  const std::size_t v = (r + P - root_) % P;
  // The right neighbor's pre-posted receives expect our own piece first,
  // then forwards in receive order — flush anything that arrived while the
  // scatter was still in flight.
  send_piece(r, v);
  for (const std::size_t piece : s.pending_forwards) send_piece(r, piece);
  s.pending_forwards.clear();
}

void ScatterAllgatherBcast::send_piece(std::size_t r, std::size_t piece) {
  Endpoint& ep = comm_.ep(r);
  ep.app_worker().post(ep.costs().control, [this, r, piece] {
    rdma::SendFlags flags;
    flags.imm = encode_ctrl({CtrlType::kStep, id(), /*arg=*/0});
    flags.has_imm = true;
    flags.signaled = false;
    st_[r].qp_right->post_send(recvbuf_ + piece_off(piece),
                               piece_len(piece), flags);
  });
}

void ScatterAllgatherBcast::on_ctrl(std::size_t r, const CtrlMsg& msg,
                                    std::size_t src, const rdma::Cqe& cqe) {
  (void)src;
  (void)cqe;
  MCCL_CHECK(msg.type == CtrlType::kStep);
  RankState& s = st_[r];
  const std::size_t P = comm_.size();
  if (msg.arg == 1) {
    // Scatter range arrived: forward sub-ranges, then join the ring.
    MCCL_CHECK(s.expects_scatter && !s.scatter_received);
    s.scatter_received = true;
    run_scatter(r, recvbuf_);
    begin_ring(r);
    maybe_done(r);
    return;
  }
  // Ring step.
  const std::size_t v = (r + P - root_) % P;
  const std::size_t step = s.ring_steps++;
  const std::size_t piece = (v + P - 1 - step) % P;
  if (step + 1 < P - 1) {
    if (s.ring_started)
      send_piece(r, piece);
    else
      s.pending_forwards.push_back(piece);
  }
  maybe_done(r);
}

void ScatterAllgatherBcast::maybe_done(std::size_t r) {
  RankState& s = st_[r];
  if (s.op_done) return;
  if (r == root_ && !s.local_copy_done) return;
  if (s.expects_scatter && !s.scatter_received) return;
  if (s.ring_steps < comm_.size() - 1) return;
  s.op_done = true;
  phases_[r].transfer = comm_.cluster().engine().now() - start_time_;
  rank_done(r);
}

bool ScatterAllgatherBcast::verify() const {
  if (!comm_.data_mode()) return true;
  for (std::size_t r = 0; r < comm_.size(); ++r) {
    if (!check_pattern(comm_.ep(r).nic().memory(), recvbuf_, bytes_,
                       id(), root_))
      return false;
  }
  return true;
}

}  // namespace mccl::coll
