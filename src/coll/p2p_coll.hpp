// Point-to-point baseline collectives over the RC transport — the
// algorithms the paper compares against (Section VI-B): k-nomial (binomial)
// and balanced-binary-tree and linear Broadcast, ring and linear Allgather.
//
// RC moves arbitrary-length messages with hardware segmentation and
// reliability, so the host-side cost is per *message*, not per chunk — the
// reason P2P stacks are cheap on CPU but not bandwidth-optimal on the wire.
#pragma once

#include <vector>

#include "src/coll/communicator.hpp"

namespace mccl::coll {

/// Tree/linear Broadcast. The tree shape is fixed at construction:
///  - kBinomial:  children of v are v + 2^i (k-nomial with radix 2),
///  - kBinaryTree: children of v are 2v+1, 2v+2,
///  - kLinear:    the root sends to everyone directly.
/// All in root-shifted rank space.
class P2PBroadcast : public OpBase {
 public:
  P2PBroadcast(Communicator& comm, std::size_t root, std::uint64_t bytes,
               BcastAlgo algo);

  void start() override;
  bool verify() const override;

 private:
  struct RankState {
    int parent = -1;
    std::vector<std::size_t> children;
    rdma::RcQp* parent_qp = nullptr;           // op-owned stream from parent
    std::vector<rdma::RcQp*> child_qps;        // op-owned streams to children
    bool received = false;
    bool local_copy_done = false;
    bool op_done = false;
  };

  void forward(std::size_t r, std::uint64_t src_addr);
  void send_to_child(std::size_t r, std::size_t child_idx,
                     std::uint64_t src_addr);
  void on_ctrl(std::size_t r, const CtrlMsg& msg, std::size_t src,
               const rdma::Cqe& cqe) override;
  /// A child send completed: chain the next child.
  void on_send_done(std::size_t r, const rdma::Cqe& cqe) override;
  void maybe_done(std::size_t r);

  std::size_t root_;
  std::uint64_t bytes_;
  BcastAlgo algo_;
  std::uint64_t sendbuf_ = 0;  // symmetric: the same address on every rank
  std::uint64_t recvbuf_ = 0;
  std::vector<RankState> st_;
};

/// Ring Allgather: P-1 steps; each step every rank forwards the newest
/// block to its right neighbor while receiving one from the left.
class RingAllgather : public OpBase {
 public:
  RingAllgather(Communicator& comm, std::uint64_t bytes);

  void start() override;
  bool verify() const override;

 private:
  struct RankState {
    std::size_t steps_done = 0;
    bool local_copy_done = false;
    bool op_done = false;
    rdma::RcQp* qp_left = nullptr;   // op-owned: receives from the left
    rdma::RcQp* qp_right = nullptr;  // op-owned: sends to the right
  };

  void on_ctrl(std::size_t r, const CtrlMsg& msg, std::size_t src,
               const rdma::Cqe& cqe) override;
  void send_block(std::size_t r, std::size_t block);
  void maybe_done(std::size_t r);

  std::uint64_t bytes_;
  std::uint64_t sendbuf_ = 0;  // symmetric: the same address on every rank
  std::uint64_t recvbuf_ = 0;  // P blocks
  std::vector<RankState> st_;
};

/// Linear Allgather: every rank RDMA-Writes its block into every peer's
/// receive buffer — the Omega(N*(P-1)) send-path data movement of Insight 1.
class LinearAllgather : public OpBase {
 public:
  LinearAllgather(Communicator& comm, std::uint64_t bytes);

  void start() override;
  bool verify() const override;

 private:
  struct RankState {
    std::size_t blocks_received = 0;
    bool local_copy_done = false;
    bool op_done = false;
    std::vector<rdma::RcQp*> peer_qps;  // op-owned, indexed by peer rank
  };

  void on_ctrl(std::size_t r, const CtrlMsg& msg, std::size_t src,
               const rdma::Cqe& cqe) override;
  void maybe_done(std::size_t r);

  std::uint64_t bytes_;
  std::uint64_t sendbuf_ = 0;  // symmetric: the same address on every rank
  std::uint64_t recvbuf_ = 0;  // P blocks
  std::uint32_t rkey_ = 0;     // recvbuf_'s registration on every rank
  std::vector<RankState> st_;
};

}  // namespace mccl::coll
