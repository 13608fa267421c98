// Point-to-point baseline collectives over the RC transport — the
// algorithms the paper compares against (Section VI-B): k-nomial (binomial)
// and balanced-binary-tree Broadcast, and ring Allgather.
//
// RC moves arbitrary-length messages with hardware segmentation and
// reliability, so the host-side cost is per *message*, not per chunk — the
// reason P2P stacks are cheap on CPU but not bandwidth-optimal on the wire.
#pragma once

#include <vector>

#include "src/coll/communicator.hpp"

namespace mccl::coll {

/// Tree Broadcast. The tree shape is fixed at construction:
///  - kBinomial:  children of v are v + 2^i (k-nomial with radix 2),
///  - kBinaryTree: children of v are 2v+1, 2v+2.
/// Both in root-shifted rank space.
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

}  // namespace mccl::coll
