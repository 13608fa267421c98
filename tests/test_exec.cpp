// Execution-model tests: single-thread rates, hardware-multithreading
// latency hiding (the Fig 13/14/16 mechanism), compact placement, stats.
#include <gtest/gtest.h>

#include "src/exec/cost_model.hpp"
#include "src/exec/worker.hpp"

namespace mccl::exec {
namespace {

TEST(Complex, CompactPlacementFillsCoreFirst) {
  sim::Engine e;
  Complex c(e, {.cores = 2, .threads_per_core = 3, .ghz = 1.0});
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(c.create_worker().core_index(), 0u);
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(c.create_worker().core_index(), 1u);
  EXPECT_DEATH(c.create_worker(), "out of hardware threads");
}

TEST(Complex, ExplicitPlacementEnforcesLimit) {
  sim::Engine e;
  Complex c(e, {.cores = 2, .threads_per_core = 1, .ghz = 1.0});
  c.create_worker_on(1);
  EXPECT_DEATH(c.create_worker_on(1), "out of hardware threads");
}

TEST(Worker, SingleTaskCostsInstrPlusStall) {
  sim::Engine e;
  Complex c(e, {.cores = 1, .threads_per_core = 1, .ghz = 1.0});
  Worker& w = c.create_worker();
  Time done = -1;
  w.post({100, 400}, [&] { done = e.now(); });
  e.run();
  // 500 cycles @ 1 GHz = 500 ns.
  EXPECT_EQ(done, 500 * kNanosecond);
  EXPECT_EQ(w.tasks_done(), 1u);
}

TEST(Worker, TasksOnOneWorkerSerialize) {
  sim::Engine e;
  Complex c(e, {.cores = 1, .threads_per_core = 1, .ghz = 1.0});
  Worker& w = c.create_worker();
  std::vector<Time> ends;
  for (int i = 0; i < 3; ++i)
    w.post({50, 50}, [&] { ends.push_back(e.now()); });
  e.run();
  ASSERT_EQ(ends.size(), 3u);
  EXPECT_EQ(ends[0], 100 * kNanosecond);
  EXPECT_EQ(ends[1], 200 * kNanosecond);
  EXPECT_EQ(ends[2], 300 * kNanosecond);
}

TEST(Worker, CoWorkersHideStalls) {
  // Two workers on one core, tasks of 10 instr + 90 stall cycles: stalls
  // overlap, so 2 tasks finish in ~110 cycles instead of 200.
  sim::Engine e;
  Complex c(e, {.cores = 1, .threads_per_core = 2, .ghz = 1.0});
  Worker& w0 = c.create_worker();
  Worker& w1 = c.create_worker();
  Time t0 = -1, t1 = -1;
  w0.post({10, 90}, [&] { t0 = e.now(); });
  w1.post({10, 90}, [&] { t1 = e.now(); });
  e.run();
  EXPECT_EQ(t0, 100 * kNanosecond);
  EXPECT_EQ(t1, 110 * kNanosecond);  // issue serialized, stall overlapped
}

TEST(Worker, SeparateCoresDoNotContend) {
  sim::Engine e;
  Complex c(e, {.cores = 2, .threads_per_core = 1, .ghz = 1.0});
  Worker& w0 = c.create_worker();
  Worker& w1 = c.create_worker();
  Time t0 = -1, t1 = -1;
  w0.post({10, 90}, [&] { t0 = e.now(); });
  w1.post({10, 90}, [&] { t1 = e.now(); });
  e.run();
  EXPECT_EQ(t0, 100 * kNanosecond);
  EXPECT_EQ(t1, 100 * kNanosecond);
}

TEST(Worker, ThroughputSaturatesAtIssueBound) {
  // One core @ 1 GHz, tasks of 10 instr + 90 stall. With T workers,
  // steady-state throughput = min(T / 100, 1 / 10) tasks/cycle.
  for (const std::size_t T : {1u, 2u, 5u, 10u, 16u}) {
    sim::Engine e;
    Complex c(e, {.cores = 1, .threads_per_core = 16, .ghz = 1.0});
    std::vector<Worker*> ws;
    for (std::size_t i = 0; i < T; ++i) ws.push_back(&c.create_worker());
    const int per_worker = 200;
    int done = 0;
    for (std::size_t i = 0; i < T; ++i)
      for (int k = 0; k < per_worker; ++k)
        ws[i]->post({10, 90}, [&] { ++done; });
    e.run();
    EXPECT_EQ(done, static_cast<int>(T) * per_worker);
    const double cycles = static_cast<double>(e.now()) / 1000.0;  // @1GHz
    const double rate = done / cycles;
    const double expect = std::min(static_cast<double>(T) / 100.0, 0.1);
    EXPECT_NEAR(rate, expect, expect * 0.1) << "T=" << T;
  }
}

TEST(Worker, CqeSubscriptionChargesCost) {
  sim::Engine e;
  Complex c(e, {.cores = 1, .threads_per_core = 1, .ghz = 1.0});
  Worker& w = c.create_worker();
  rdma::Cq cq;
  int handled = 0;
  w.subscribe(cq, [&](const rdma::Cqe&) { ++handled; }, Cost{100, 100});
  cq.push({});
  cq.push({});
  e.run();
  EXPECT_EQ(handled, 2);
  EXPECT_EQ(w.cqes_seen(), 2u);
  EXPECT_EQ(e.now(), 400 * kNanosecond);
}

TEST(Worker, MultiCqSubscriptionDispatchesPerCq) {
  sim::Engine e;
  Complex c(e, {.cores = 1, .threads_per_core = 1, .ghz = 1.0});
  Worker& w = c.create_worker();
  rdma::Cq a, b;
  int from_a = 0, from_b = 0;
  w.subscribe(a, [&](const rdma::Cqe&) { ++from_a; }, Cost{1, 0});
  w.subscribe(b, [&](const rdma::Cqe&) { ++from_b; }, Cost{1, 0});
  a.push({});
  b.push({});
  b.push({});
  e.run();
  EXPECT_EQ(from_a, 1);
  EXPECT_EQ(from_b, 2);
}

TEST(WorkerDeathTest, SecondConsumerOnOneCqAborts) {
  sim::Engine e;
  Complex c(e, {.cores = 1, .threads_per_core = 2, .ghz = 1.0});
  Worker& first = c.create_worker();
  Worker& second = c.create_worker();
  rdma::Cq cq;
  first.subscribe(cq, [](const rdma::Cqe&) {}, Cost{1, 0});
  EXPECT_DEATH(second.subscribe(cq, [](const rdma::Cqe&) {}, Cost{1, 0}),
               "CQ already has a consumer");
}

TEST(Worker, IpcMatchesCostSplit) {
  sim::Engine e;
  Complex c(e, Complex::dpa_config());
  Worker& w = c.create_worker();
  const DatapathCosts costs = dpa_costs();
  for (int i = 0; i < 100; ++i) w.post(costs.recv_chunk_ud, [] {});
  e.run();
  // Table I: UD datapath IPC ~ 0.1.
  EXPECT_NEAR(w.ipc(), 113.0 / 1084.0, 0.01);
}

TEST(Worker, StatsResetClears) {
  sim::Engine e;
  Complex c(e, {.cores = 1, .threads_per_core = 1, .ghz = 1.0});
  Worker& w = c.create_worker();
  w.post({10, 10}, [] {});
  e.run();
  EXPECT_GT(w.busy_time(), 0);
  w.reset_stats();
  EXPECT_EQ(w.busy_time(), 0);
  EXPECT_EQ(w.tasks_done(), 0u);
}

TEST(CostModel, TableOneCalibration) {
  const DatapathCosts dpa = dpa_costs();
  EXPECT_NEAR(dpa.recv_chunk_ud.cycles(), 1084, 1);
  EXPECT_NEAR(dpa.recv_chunk_uc.cycles(), 598, 1);
  // UD/UC single-thread throughput ratio ~2x (Table I: 5.2 vs 11.9 GiB/s).
  EXPECT_NEAR(dpa.recv_chunk_ud.cycles() / dpa.recv_chunk_uc.cycles(), 1.81,
              0.1);
}

TEST(CostModel, CpuFasterPerThreadThanDpa) {
  // An energy-efficient DPA thread is slower than a server core; the win
  // comes from multithreading (paper Section VI-C).
  const double dpa_ns = dpa_costs().recv_chunk_ud.cycles() / 1.8;
  const double cpu_ns = cpu_costs().recv_chunk_ud.cycles() / 2.6;
  EXPECT_GT(dpa_ns, cpu_ns);
}

}  // namespace
}  // namespace mccl::exec
