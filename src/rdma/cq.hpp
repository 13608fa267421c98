// Completion queues.
//
// The NIC pushes CQEs; the CQ's one consumer (a progress-engine worker's
// binding from src/exec, which carries the CQ's handler and per-CQE cost)
// drains them. Transport unit tests leave the CQ unbound and pop directly.
// Matching real verbs, the CQE carries the immediate data — the Broadcast
// protocol stores the chunk PSN there (paper Section III-A).
#pragma once

#include <cstdint>

#include "src/common/check.hpp"
#include "src/common/ring.hpp"
#include "src/debug/validate.hpp"
#include "src/fabric/packet.hpp"

namespace mccl::rdma {

enum class CqeOpcode : std::uint8_t {
  kRecv,             // two-sided receive completed
  kRecvWriteImm,     // RDMA Write-with-immediate consumed a receive
  kSend,             // send / write posted by this QP completed
  kRead,             // RDMA Read completed (data placed locally)
};

struct Cqe {
  std::uint64_t wr_id = 0;
  CqeOpcode opcode = CqeOpcode::kRecv;
  std::uint32_t qpn = 0;
  std::uint32_t byte_len = 0;
  std::uint32_t imm = 0;
  bool has_imm = false;
  fabric::NodeId src = fabric::kInvalidNode;  // remote side (receives)
};

class Cq {
 public:
  /// Consumer interface: notified when the CQ transitions or grows; the
  /// consumer pops entries at its own (modeled) pace.
  class Consumer {
   public:
    virtual ~Consumer() = default;
    virtual void on_cqe(Cq& cq) = 0;
  };

  /// Binds the CQ's only consumer; a second binding aborts (two consumers
  /// would race for the same entries).
  void set_consumer(Consumer* consumer) {
    MCCL_CHECK_MSG(consumer_ == nullptr, "CQ already has a consumer");
    consumer_ = consumer;
  }

  void push(const Cqe& cqe) {
    if (gate_closed_) {
      // Qp::complete_* already consult Nic::crashed() at fire time, so a
      // push past a closed gate means some path forgot the crash check.
      MCCL_VALIDATE_THAT(false, "cq.cqe_after_crash",
                         "CQE (op %u, qpn %u) pushed after crash gate closed",
                         static_cast<unsigned>(cqe.opcode), cqe.qpn);
      return;
    }
    queue_.push(cqe);
    ++total_pushed_;
    if (consumer_) consumer_->on_cqe(*this);
  }

  /// Crash gate: closed when the owning NIC crash-stops. A crashed NIC must
  /// never surface new completions; the validator treats a push through a
  /// closed gate as a protocol bug (and drops the CQE either way).
  void close_gate() { gate_closed_ = true; }
  void open_gate() { gate_closed_ = false; }
  bool gate_closed() const { return gate_closed_; }

  bool empty() const { return queue_.empty(); }
  std::size_t depth() const { return queue_.size(); }
  std::uint64_t total_pushed() const { return total_pushed_; }

  Cqe pop() {
    MCCL_CHECK(!queue_.empty());
    return queue_.pop();
  }

 private:
  // mccl-lint: begin-hot cq-queue
  Ring<Cqe> queue_;
  Consumer* consumer_ = nullptr;
  // mccl-lint: end-hot
  std::uint64_t total_pushed_ = 0;
  bool gate_closed_ = false;
};

}  // namespace mccl::rdma
