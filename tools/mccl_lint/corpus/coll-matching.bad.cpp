// lint-path: examples/corpus_case.cpp
// A started collective with no reachable wait: the OpBase is bound and
// then dropped on the floor, so the op may never complete.
void leak_wait(coll::Communicator& comm) {
  coll::OpBase& op =
      comm.start_allgather(1024, coll::AllgatherAlgo::kMcast);
  (void)op;
}

// Started-and-discarded: no handle at all to wait on.
void discard(coll::Communicator& comm) {
  comm.start_reduce_scatter(64, coll::ReduceScatterAlgo::kRing);
}

// PARCOACH divergence: only rank 0 issues the broadcast.
void diverge(coll::Communicator& comm, std::size_t rank) {
  if (rank == 0) {
    coll::OpBase& op =
        comm.start_broadcast(0, 64, coll::BcastAlgo::kMcast);
    comm.finish(op);
  }
}
