// Reduce-Scatter: the collective the multicast Allgather shares the NIC
// with in FSDP (paper Section II-A, Fig 3, Appendix B).
//
// Semantics: every rank contributes P blocks of `block_bytes` float32 data;
// rank r ends with the element-wise sum of everyone's block r.
//
//  - RingReduceScatter: the classic P-1-step ring — N*(P-1) bytes on *both*
//    NIC directions (Fig 3's Ring column); reduction on the host.
//  - IncReduceScatter: SHARP-like in-network reduction over src/inc —
//    N*(P-1) on the send path, only N on the receive path (Fig 3's INC
//    column), which is what makes it complementary to the multicast
//    Allgather under concurrent execution.
#pragma once

#include <unordered_map>
#include <vector>

#include "src/coll/communicator.hpp"
#include "src/coll/pattern.hpp"

namespace mccl::coll {

/// Element `elem` of `origin`'s contribution to `block` in op `op`: a small
/// integer, so float accumulation is exact, drawn from a hash of all four,
/// so a reused buffer still holding an earlier op's values never verifies.
inline float rs_value(std::uint16_t op, std::size_t origin, std::size_t block,
                      std::uint64_t elem) {
  const std::uint64_t key =
      (std::uint64_t{op} << 48) ^ (std::uint64_t{origin} << 24) ^ block;
  return static_cast<float>(pattern_mix(pattern_mix(key) + elem) % 32);
}

class RingReduceScatter : public OpBase {
 public:
  RingReduceScatter(Communicator& comm, std::uint64_t block_bytes);

  void start() override;
  bool verify() const override;

 private:
  struct RankState {
    std::size_t segs_done = 0;   // pipelined segments processed
    std::size_t finals_done = 0;
    bool op_done = false;
    rdma::RcQp* qp_left = nullptr;   // op-owned: receives from the left
    rdma::RcQp* qp_right = nullptr;  // op-owned: sends to the right
  };

  std::size_t num_segments() const;
  std::uint64_t seg_off(std::size_t g) const;
  std::uint64_t seg_len(std::size_t g) const;
  void on_ctrl(std::size_t r, const CtrlMsg& msg, std::size_t src,
               const rdma::Cqe& cqe) override;
  void send_from(std::size_t r, std::uint64_t addr, std::uint64_t len);
  void accumulate(std::size_t r, std::uint64_t acc_addr,
                  std::uint64_t own_addr, std::uint64_t len);

  std::uint64_t bytes_;
  // Symmetric: the same addresses on every rank.
  std::uint64_t sendbuf_ = 0;  // P blocks
  std::uint64_t recvbuf_ = 0;  // 1 block (the result)
  std::uint64_t scratch_ = 0;  // P-1 landing slots
  std::vector<RankState> st_;
};

class IncReduceScatter : public OpBase {
 public:
  IncReduceScatter(Communicator& comm, std::uint64_t block_bytes);

  void start() override;
  bool verify() const override;

 private:
  struct RankState {
    std::size_t chunks_done = 0;
    rdma::Cq* result_cq = nullptr;  // INC results, charged on a recv worker
    std::unordered_map<std::uint32_t, fabric::Payload> payloads;
    bool op_done = false;
  };

  void contribute_batch(std::size_t r, std::size_t peer_off,
                        std::size_t chunk);
  void on_result(std::size_t r, const rdma::Cqe& cqe);

  std::uint64_t bytes_;
  std::uint32_t chunk_bytes_;
  std::size_t chunks_per_block_;
  inc::SessionId session_;
  std::uint64_t sendbuf_ = 0;  // symmetric: P blocks
  std::uint64_t recvbuf_ = 0;  // symmetric: 1 block (the result)
  std::vector<RankState> st_;
};

}  // namespace mccl::coll
