// Large-message P2P broadcast referenced by the paper's related work:
// van-de-Geijn broadcast (binomial/halving scatter + ring allgather, the
// production large-message algorithm, ~B/2 independent of P).
#pragma once

#include <vector>

#include "src/coll/communicator.hpp"

namespace mccl::coll {

class ScatterAllgatherBcast : public OpBase {
 public:
  ScatterAllgatherBcast(Communicator& comm, std::size_t root,
                        std::uint64_t bytes);

  void start() override;
  bool verify() const override;

 private:
  struct ScatterEdge {
    rdma::RcQp* qp = nullptr;
    std::size_t range_lo = 0;  // shifted-piece range sent over this edge
    std::size_t range_hi = 0;
  };

  struct RankState {
    std::vector<ScatterEdge> scatter_sends;
    bool expects_scatter = false;
    bool scatter_received = false;
    bool local_copy_done = false;
    bool ring_started = false;
    std::size_t ring_steps = 0;
    std::vector<std::size_t> pending_forwards;  // pieces received before we
                                                // joined the ring
    rdma::RcQp* qp_left = nullptr;
    rdma::RcQp* qp_right = nullptr;
    bool op_done = false;
  };

  std::size_t actual(std::size_t shifted) const;
  std::uint64_t piece_off(std::size_t piece) const;
  std::uint64_t piece_len(std::size_t piece) const;
  void run_scatter(std::size_t r, std::uint64_t src_base);
  void begin_ring(std::size_t r);
  void send_piece(std::size_t r, std::size_t piece);
  void on_ctrl(std::size_t r, const CtrlMsg& msg, std::size_t src,
               const rdma::Cqe& cqe) override;
  void maybe_done(std::size_t r);

  std::size_t root_;
  std::uint64_t bytes_;
  std::uint64_t sendbuf_ = 0;  // symmetric: the same address on every rank
  std::uint64_t recvbuf_ = 0;
  std::vector<RankState> st_;
};

}  // namespace mccl::coll
