// lint-path: bench/corpus_case.cpp
void warmup(coll::Communicator& comm) {
  // mccl-lint: allow(unchecked-result) cache-warming run; result unused
  comm.reduce_scatter(64, coll::ReduceScatterAlgo::kRing);
}
