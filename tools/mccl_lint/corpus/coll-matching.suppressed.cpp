// lint-path: examples/corpus_case.cpp
void fire_and_forget(coll::Communicator& comm) {
  // mccl-lint: allow(coll-matching) teardown probe; completion is irrelevant
  comm.start_reduce_scatter(64, coll::ReduceScatterAlgo::kRing);
}
