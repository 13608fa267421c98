// tenants_chaos: the multi-tenant scheduler under a seeded fault timeline.
//
// One round = a fixed number of episodes. Each episode builds a fresh
// 16-host 2-rail fat tree (make_multi_rail_fat_tree(2, 4, 4, 4, 1), the
// cluster_storm tree) and runs sched::make_mixed_workload through a
// ClusterScheduler: three training Allgathers plus Poisson inference
// Bcasts, two of them class-0 tenants, under strict QoS with the health
// plane on and the cluster_chaos_storm retry/requeue policies and per-class
// heartbeat settings. The fault timeline comes from the episode seed:
// Gilbert-Elliott burst loss on every link, one degraded trunk, one
// straggler, and one host crash with a later recovery (crash victim and
// straggler are never hosts of a class-0 tenant). Episodes run in forked
// children: a few of them abort inside the simulator (see run_isolated),
// and they count as failed work instead of ending the run. This is where the
// detector confirms a real crash, the slow path fetches over RC, and the
// health plane and the scheduler react.
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <type_traits>

#include "perfbench/src/harness.hpp"
#include "src/sched/arrival.hpp"
#include "src/sched/cluster_sched.hpp"

namespace perfbench {

using namespace mccl;

namespace {

constexpr std::size_t kHosts = 16;

sched::WorkloadConfig workload_config(std::uint64_t seed, bool smoke) {
  sched::WorkloadConfig wl;
  wl.seed = seed;
  wl.training_jobs = 3;
  wl.training_ranks = 8;
  wl.training_ops = smoke ? 2 : 4;
  wl.training_bytes = smoke ? 64 * KiB : 256 * KiB;
  wl.inference_jobs = smoke ? 4 : 8;
  wl.inference_ranks = 4;
  wl.inference_ops = 3;
  wl.inference_bytes = 32 * KiB;
  wl.inference_mean_gap = 10 * kMicrosecond;
  wl.high_priority_jobs = 2;
  wl.comm.cutoff_alpha = 100 * kMicrosecond;
  wl.comm.adapt.enabled = true;
  // cluster_chaos_storm policies: training accepts verified partial
  // completions and requeues (twice here: the seeded timelines are harsher
  // than the storm's fixed one); inference retries in place over the
  // shrunk survivors; the class-0 tenants get fast, budgeted retries.
  wl.training_policy.accept_partial = true;
  wl.training_policy.max_requeues = 2;
  wl.inference_policy.max_retries = 2;
  wl.inference_policy.retry_backoff = 15 * kMicrosecond;
  wl.inference_policy.retry_budget = 1 * kMillisecond;
  wl.inference_policy.max_requeues = 1;
  wl.high_priority_policy.max_retries = 2;
  wl.high_priority_policy.retry_backoff = 5 * kMicrosecond;
  wl.high_priority_policy.retry_budget = 500 * kMicrosecond;
  wl.inference_heartbeat = 20 * kMicrosecond;
  wl.inference_lease = 80 * kMicrosecond;
  wl.training_heartbeat = 50 * kMicrosecond;
  wl.training_lease = 200 * kMicrosecond;
  return wl;
}

struct Timeline {
  fabric::FaultConfig faults;
  fabric::NodeId victim = 0;
  Time crash_at = 0;
};

/// The episode's fault timeline, a pure function of its seed.
Timeline make_timeline(std::uint64_t seed, const fabric::Topology& topo,
                       const std::vector<sched::JobSpec>& jobs) {
  Rng rng(derive(seed, 10));
  const auto in = [&rng](Time lo, Time hi) {
    return lo + static_cast<Time>(rng.below(
                    static_cast<std::uint64_t>((hi - lo) / kMicrosecond))) *
                    kMicrosecond;
  };
  std::vector<bool> hp_host(kHosts, false);
  for (const sched::JobSpec& s : jobs)
    if (s.qos_class == 0)
      for (const fabric::NodeId h : s.hosts)
        hp_host[static_cast<std::size_t>(h)] = true;
  std::vector<fabric::NodeId> free;
  for (std::size_t h = 0; h < kHosts; ++h)
    if (!hp_host[h]) free.push_back(static_cast<fabric::NodeId>(h));
  MCCL_CHECK_MSG(free.size() >= 2, "class-0 tenants cover the cluster");
  const std::size_t vi = rng.below(free.size());
  std::size_t si = rng.below(free.size() - 1);
  if (si >= vi) ++si;
  std::vector<const fabric::LinkDir*> trunks;
  for (const fabric::LinkDir& d : topo.dirs())
    if (!topo.is_host(d.from) && !topo.is_host(d.to) && d.from < d.to)
      trunks.push_back(&d);
  const fabric::LinkDir& trunk = *trunks[rng.below(trunks.size())];

  Timeline t;
  t.victim = free[vi];
  t.crash_at = in(40 * kMicrosecond, 120 * kMicrosecond);
  const Time degrade_at = in(20 * kMicrosecond, 60 * kMicrosecond);
  const Time straggle_at = in(30 * kMicrosecond, 80 * kMicrosecond);
  t.faults.events = {
      fabric::FaultEvent::degrade(degrade_at, trunk.from, trunk.to, 0.08,
                                  15 * kMicrosecond),
      fabric::FaultEvent::straggler_begin(straggle_at, free[si], 3.0),
      fabric::FaultEvent::straggler_end(straggle_at + 250 * kMicrosecond,
                                        free[si]),
      fabric::FaultEvent::node_crash(t.crash_at, t.victim),
      fabric::FaultEvent::node_recover(
          t.crash_at + in(1000 * kMicrosecond, 1500 * kMicrosecond),
          t.victim),
  };
  std::sort(t.faults.events.begin(), t.faults.events.end(),
            [](const fabric::FaultEvent& a, const fabric::FaultEvent& b) {
              return a.at < b.at;
            });
  t.faults.burst.p_enter_bad = 0.0005;
  t.faults.burst.p_exit_bad = 0.25;
  t.faults.burst.drop_bad = 0.25;
  t.faults.seed = derive(seed, 11);
  return t;
}

/// Crash-to-confirmation latency per communicator that held the victim,
/// recorded through FailureDetector::add_listener.
struct ConfirmWatch {
  fabric::NodeId victim = fabric::kInvalidNode;
  Time crashed_at = -1;
  std::vector<double> latency_us;  // per communicator, -1 if unconfirmed
  std::vector<double> bound_us;    // lease + (threshold - 1) * interval
};

struct Episode {
  std::vector<double> op_us, hp_us, queue_us;
  double bytes = 0, makespan_us = 0;
  std::uint64_t attempts = 0, ok_attempts = 0, completed_ops = 0, chunks = 0;
  std::uint64_t jobs = 0, jobs_bad = 0;
  std::uint64_t retries = 0, requeues = 0, deferrals = 0, peak_running = 0,
                jobs_failed = 0;
  double setup_s = 0, run_s = 0, peak_rss_mib = 0;
  std::uint64_t events = 0, digest = 0;
  std::vector<Time> durations;
  std::vector<double> confirm_us, confirm_bound_us;  // see ConfirmWatch
  std::vector<std::string> errors;  // failed correctness checks
  LayerProbe::Totals totals{};      // traced runs only
  bool aborted = false;  // the simulator aborted mid-episode
  std::string abort_reason;

  /// Byte encoding for the trip from the forked child to the parent.
  template <typename Io>
  void fields(Io& io) {
    io(op_us), io(hp_us), io(queue_us), io(bytes), io(makespan_us);
    io(attempts), io(ok_attempts), io(completed_ops), io(chunks), io(jobs);
    io(jobs_bad), io(retries), io(requeues), io(deferrals), io(peak_running);
    io(jobs_failed), io(setup_s), io(run_s), io(peak_rss_mib), io(events);
    io(digest), io(durations), io(confirm_us), io(confirm_bound_us);
    io(errors), io(totals);
  }
};

struct Writer {
  std::string buf;
  template <typename T>
  void operator()(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    buf.append(reinterpret_cast<const char*>(&v), sizeof v);
  }
  template <typename T>
  void operator()(const std::vector<T>& v) {
    (*this)(v.size());
    for (const T& x : v) (*this)(x);
  }
  void operator()(const std::string& v) {
    (*this)(v.size());
    buf += v;
  }
};

struct Reader {
  const std::string& buf;
  std::size_t pos = 0;
  bool ok = true;
  void take(void* dst, std::size_t n) {
    if (pos + n > buf.size()) {
      ok = false;
      return;
    }
    std::memcpy(dst, buf.data() + pos, n);
    pos += n;
  }
  template <typename T>
  void operator()(T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    take(&v, sizeof v);
  }
  template <typename T>
  void operator()(std::vector<T>& v) {
    std::size_t n = 0;
    (*this)(n);
    if (!ok || n > buf.size()) {
      ok = false;
      return;
    }
    v.resize(n);
    for (T& x : v) (*this)(x);
  }
  void operator()(std::string& v) {
    std::size_t n = 0;
    (*this)(n);
    if (!ok || pos + n > buf.size()) {
      ok = false;
      return;
    }
    v.assign(buf, pos, n);
    pos += n;
  }
};

/// Runs one episode in this process. `corrupt` applies the smoke test's
/// --inject corruption to it.
Episode run_episode(const Args& args, std::uint64_t seed, bool corrupt,
                    bool traced) {
  Episode ep;
  ConfirmWatch watch;
  LayerProbe probe;
  if (!rss_reset()) ep.errors.push_back("cannot reset the peak-RSS window");
  Stopwatch setup;
  std::vector<fabric::NodeId> hosts;
  for (std::size_t h = 0; h < kHosts; ++h)
    hosts.push_back(static_cast<fabric::NodeId>(h));
  std::vector<sched::JobSpec> jobs =
      sched::make_mixed_workload(workload_config(seed, args.smoke), hosts);
  fabric::Topology topo =
      fabric::make_multi_rail_fat_tree(2, 4, 4, 4, 1, {}, {});
  const Timeline tl = make_timeline(seed, topo, jobs);

  // Timing-only payload, like paper_scale: the real-byte datapath is
  // dpa_datapath's job, and 16 hosts of backed arenas would make page
  // faults the dominant host cost here.
  coll::ClusterConfig kcfg = synthetic_cluster();
  kcfg.fabric.faults = tl.faults;
  kcfg.fabric.seed = derive(seed, 12);
  kcfg.nic.rc_rto = 20 * kMicrosecond;
  // Retired communicators keep their workers until the scheduler goes, so
  // give every host more cores than an episode's communicators can use.
  kcfg.cpu = exec::Complex::cpu_config(96);
  if (traced) LayerProbe::configure(kcfg);
  coll::Cluster cluster(std::move(topo), kcfg);

  sched::SchedulerConfig scfg;
  scfg.policy = sched::QosPolicy::kStrict;
  scfg.apply_classes = true;
  scfg.admission.max_running_jobs = 8;
  scfg.admission.max_at_risk_dirs = 4;
  scfg.pool_quota_per_weight = 1024;
  sched::ClusterScheduler sched(cluster, scfg);
  for (sched::JobSpec& s : jobs) {
    s.comm.detector.seed = derive(seed, 20 + s.tenant);
    sched.submit(std::move(s));
  }
  ep.jobs = sched.num_jobs();

  watch.victim = tl.victim;
  watch.crashed_at = -1;
  const std::uint64_t listener = cluster.add_crash_listener(
      [&](fabric::NodeId host, bool crashed) {
        if (!crashed || host != watch.victim || watch.crashed_at >= 0) return;
        watch.crashed_at = cluster.engine().now();
        for (std::size_t id = 0; id < sched.num_jobs(); ++id) {
          coll::Communicator* comm = sched.job(id).comm.get();
          if (comm == nullptr || comm->detector() == nullptr) continue;
          const auto& hs = sched.job(id).launch_hosts;
          if (std::find(hs.begin(), hs.end(), host) == hs.end()) continue;
          const coll::DetectorConfig& d = comm->detector()->config();
          watch.bound_us.push_back(to_microseconds(
              d.lease_timeout + static_cast<Time>(d.suspect_threshold - 1) *
                                    d.heartbeat_interval));
          const std::size_t slot = watch.bound_us.size() - 1;
          watch.latency_us.push_back(-1);  // -1: never confirmed
          comm->detector()->add_listener(
              [&watch, &cluster, comm, slot](std::size_t, std::size_t peer) {
                if (watch.latency_us[slot] >= 0 ||
                    comm->ep(peer).host() != watch.victim)
                  return;
                watch.latency_us[slot] = to_microseconds(
                    cluster.engine().now() - watch.crashed_at);
              });
        }
      });
  ep.setup_s = setup.seconds();

  if (traced) probe.attach(cluster);
  Stopwatch run;
  sched.run();
  ep.run_s = run.seconds();
  cluster.remove_crash_listener(listener);

  // Correctness: both ledgers balance, every job is terminal, and the
  // per-op latency ledger matches the op counts. A job whose failure policy
  // ran out of budget is a failed operation, not a wrong answer.
  if (!sched.conservation_ok())
    ep.errors.push_back("scheduler conservation ledger unbalanced");
  if (!sched.retry_ledger_ok())
    ep.errors.push_back("retry ledger unbalanced");
  Time makespan = 0;
  for (std::size_t id = 0; id < sched.num_jobs(); ++id) {
    const sched::JobRecord& rec = sched.job(id);
    const sched::JobState state = corrupt && id == 0 && args.inject == "status"
                                      ? sched::JobState::kRunning
                                      : rec.state;
    if (!sched::is_terminal(state))
      ep.errors.push_back("job " + rec.spec.name + " not terminal");
    const bool good = rec.state == sched::JobState::kCompleted ||
                      rec.state == sched::JobState::kDegraded;
    if (!good) ++ep.jobs_bad;
    if (rec.state == sched::JobState::kFailed) ++ep.jobs_failed;
    const std::uint64_t tries = rec.ops_done + rec.ops_degraded + rec.ops_failed;
    ep.attempts += tries;
    // Chunks the multicast fast path owed the receivers, at launch width.
    const std::uint64_t n = rec.spec.hosts.size();
    const std::uint64_t chunk = rec.spec.comm.chunk_bytes;
    const std::uint64_t per_block = (rec.spec.bytes + chunk - 1) / chunk;
    ep.chunks += tries * per_block * (n - 1) *
                 (rec.spec.coll == sched::CollKind::kAllgather ? n : 1);
    ep.ok_attempts += rec.ops_done;
    ep.completed_ops += rec.ops_done + rec.ops_degraded;
    ep.retries += rec.retries_used;
    ep.requeues += rec.requeues_used;
    ep.bytes += static_cast<double>(rec.bytes_moved);
    for (const double us : rec.op_latency_us) {
      ep.op_us.push_back(us);
      if (rec.spec.qos_class == 0) ep.hp_us.push_back(us);
      ep.durations.push_back(static_cast<Time>(us * 1e6));
    }
    if (rec.admit_time > 0)
      ep.queue_us.push_back(to_microseconds(rec.admit_time - rec.submit_time));
    makespan = std::max(makespan, rec.finish_time);
    ep.digest = ep.digest * 1000003 + rec.ops_done * 31 + rec.retries_used * 7 +
                rec.requeues_used + static_cast<std::uint64_t>(rec.state);
  }
  if (corrupt && args.inject == "data") ep.op_us.pop_back();
  if (ep.op_us.size() != ep.completed_ops)
    ep.errors.push_back("latency ledger disagrees with op count");
  const sched::AdmissionController& adm = sched.admission();
  ep.deferrals = adm.health_deferrals() + adm.predictive_deferrals() +
                 adm.pool_deferrals() + adm.queued();
  ep.peak_running = sched.peak_running();
  ep.makespan_us = to_microseconds(makespan);
  ep.events = cluster.engine().dispatched();
  ep.peak_rss_mib = peak_rss_mib();
  if (traced) {
    probe.finish(cluster);
    ep.totals = probe.totals();
  }
  ep.confirm_us = std::move(watch.latency_us);
  ep.confirm_bound_us = std::move(watch.bound_us);
  return ep;
}

/// Runs one episode in a forked child, so that a simulator abort (a failed
/// MCCL_CHECK) costs that episode, not the run: the episode then counts as
/// aborted, with every job failed, and the last line the child wrote to
/// stderr becomes its abort reason. The child ships its Episode back
/// through a pipe and leaves with _exit; its stderr goes to a memfd.
Episode run_isolated(const Args& args, std::uint64_t seed, bool corrupt,
                     bool traced) {
  int fds[2];
  MCCL_CHECK_MSG(pipe(fds) == 0, "pipe() failed");
  const int err_fd = memfd_create("episode-stderr", 0);
  MCCL_CHECK_MSG(err_fd >= 0, "memfd_create() failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  MCCL_CHECK_MSG(pid >= 0, "fork() failed");
  if (pid == 0) {
    close(fds[0]);
    dup2(err_fd, STDERR_FILENO);
    Episode ep = run_episode(args, seed, corrupt, traced);
    Writer w;
    ep.fields(w);
    std::size_t off = 0;
    while (off < w.buf.size()) {
      const ssize_t n = write(fds[1], w.buf.data() + off, w.buf.size() - off);
      if (n <= 0) _exit(3);
      off += static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string buf;
  char chunk[1 << 16];
  for (ssize_t n; (n = read(fds[0], chunk, sizeof chunk)) != 0;) {
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  Episode ep;
  Reader r{buf};
  if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
    ep.fields(r);
    if (r.ok && r.pos == buf.size()) {
      close(err_fd);
      return ep;
    }
  }
  // Aborted: charge every job and every planned op of the episode.
  Episode dead;
  dead.aborted = true;
  std::string err(static_cast<std::size_t>(lseek(err_fd, 0, SEEK_END)), '\0');
  if (pread(err_fd, err.data(), err.size(), 0) < 0) err.clear();
  while (!err.empty() && err.back() == '\n') err.pop_back();
  dead.abort_reason = err.substr(err.find_last_of('\n') + 1);
  if (dead.abort_reason.empty())
    dead.abort_reason = "child status " + std::to_string(status);
  std::vector<fabric::NodeId> hosts;
  for (std::size_t h = 0; h < kHosts; ++h)
    hosts.push_back(static_cast<fabric::NodeId>(h));
  for (const sched::JobSpec& s :
       sched::make_mixed_workload(workload_config(seed, args.smoke), hosts)) {
    ++dead.jobs;
    dead.attempts += s.num_ops;
  }
  dead.jobs_bad = dead.jobs;
  dead.digest = 0xdead;
  close(err_fd);
  return dead;
}

}  // namespace

void run_tenants_chaos(const Args& args, Report& report) {
  const std::size_t episodes = args.smoke ? 1 : 256;
  LayerProbe probe;
  std::vector<double> run_s;

  const RoundFn round = [&](std::size_t index, LayerProbe* pr) {
    RoundResult out;
    std::vector<double> op_us, hp_us, queue_us, confirm_us, confirm_bound_us;
    std::vector<double> goodput, rss;
    std::uint64_t attempts = 0, ok_attempts = 0, jobs = 0, jobs_bad = 0;
    std::uint64_t retries = 0, requeues = 0, deferrals = 0, jobs_failed = 0;
    std::uint64_t peak_running = 0, aborted = 0;
    std::map<std::string, std::size_t> abort_reasons;
    for (std::size_t e = 0; e < episodes; ++e) {
      const Episode ep = run_isolated(args, derive(args.seed, 1000 + e),
                                      index == 0 && e == 0, pr != nullptr);
      for (const std::string& err : ep.errors)
        report.fail("tenants_chaos episode " + std::to_string(e) + ": " +
                    err);
      if (ep.aborted) {
        ++aborted;
        ++abort_reasons[ep.abort_reason];
      } else {
        goodput.push_back(goodput_gbps(ep.bytes, ep.makespan_us));
        rss.push_back(ep.peak_rss_mib);
      }
      if (pr != nullptr) {
        pr->merge(ep.totals);
        pr->add_chunks(ep.chunks);
      }
      confirm_us.insert(confirm_us.end(), ep.confirm_us.begin(),
                        ep.confirm_us.end());
      confirm_bound_us.insert(confirm_bound_us.end(),
                              ep.confirm_bound_us.begin(),
                              ep.confirm_bound_us.end());
      out.setup_s += ep.setup_s;
      out.op_host_s += ep.run_s;
      out.ops += ep.completed_ops;
      run_s.push_back(ep.run_s);
      out.fp.events += ep.events;
      out.fp.extra = out.fp.extra * 1000003 + ep.digest;
      out.fp.op_durations.insert(out.fp.op_durations.end(),
                                 ep.durations.begin(), ep.durations.end());
      op_us.insert(op_us.end(), ep.op_us.begin(), ep.op_us.end());
      hp_us.insert(hp_us.end(), ep.hp_us.begin(), ep.hp_us.end());
      queue_us.insert(queue_us.end(), ep.queue_us.begin(), ep.queue_us.end());
      attempts += ep.attempts;
      ok_attempts += ep.ok_attempts;
      jobs += ep.jobs;
      jobs_bad += ep.jobs_bad;
      retries += ep.retries;
      requeues += ep.requeues;
      deferrals += ep.deferrals;
      jobs_failed += ep.jobs_failed;
      peak_running = std::max(peak_running, ep.peak_running);
    }
    // One user-visible operation per submitted job: it either settles
    // completed/degraded or it failed.
    for (std::uint64_t j = 0; j < jobs; ++j) report.attempt(j >= jobs_bad);
    out.peak_rss_mib = median(rss);
    out.attempts = attempts;
    out.ok_attempts = ok_attempts;
    out.fp.extra = out.fp.extra * 1000003 + aborted;
    if (index == 0) {
      // Per-episode goodput: one long-tailed episode (a job requeued after
      // a watchdog expiry) must not dominate a pooled makespan.
      report_sim_ops(report, op_us, median(goodput));
      report.info("tenants.episodes_aborted",
                  std::to_string(aborted) + " of " + std::to_string(episodes));
      for (const auto& [why, n] : abort_reasons)
        report.info("tenants.abort_reason", std::to_string(n) + "x " + why);
      const Tail hp = tail_of(hp_us);
      report.info("hp_sim_op_us_tail", hp.value);
      report.info("hp_sim_op_us_tail.percentile", hp.label);
      report.info("tenants.jobs_per_round", static_cast<double>(jobs));
      report.info("tenants.op_attempts_per_round",
                  static_cast<double>(attempts));
      // Crash-to-first-confirmation per communicator that held the victim,
      // beside its configured bound.
      std::vector<double> lat;
      std::size_t over = 0, unconfirmed = 0;
      for (std::size_t i = 0; i < confirm_us.size(); ++i) {
        if (confirm_us[i] < 0) {
          ++unconfirmed;
          continue;
        }
        lat.push_back(confirm_us[i]);
        if (confirm_us[i] > confirm_bound_us[i]) ++over;
      }
      report.info("detector.confirm_latency_us",
                  "median " + std::to_string(median(lat)) + ", p90 " +
                      std::to_string(percentile(lat, 90)) + ", max " +
                      std::to_string(percentile(lat, 100)) + " over " +
                      std::to_string(lat.size()) + " communicators");
      const sched::WorkloadConfig wl = workload_config(0, args.smoke);
      const auto bound = [](Time lease, Time interval) {
        return std::to_string(to_microseconds(
            lease + static_cast<Time>(
                        coll::DetectorConfig{}.suspect_threshold - 1) *
                        interval));
      };
      report.info("detector.confirm_bound_us",
                  "lease + (threshold - 1) x interval: " +
                      bound(wl.inference_lease, wl.inference_heartbeat) +
                      " (inference), " +
                      bound(wl.training_lease, wl.training_heartbeat) +
                      " (training); " + std::to_string(over) +
                      " confirmations over their bound, " +
                      std::to_string(unconfirmed) + " never confirmed");
      probe.set("hp_sim_op_us_tail", hp.value);
      probe.set("detector.confirm_latency_us", median(lat));
      probe.set("sched.queue_delay_us_p50", median(queue_us));
      probe.set("sched.admission_deferrals", static_cast<double>(deferrals));
      probe.set("sched.retries", static_cast<double>(retries));
      probe.set("sched.requeues", static_cast<double>(requeues));
      probe.set("sched.peak_running", static_cast<double>(peak_running));
      probe.set("sched.jobs_failed", static_cast<double>(jobs_failed));
    }
    return out;
  };

  drive(args, report, round, probe);
  if (args.trace) {
    probe.set("host_s.sched_run", median(run_s));
    probe.report(report);
  }
}

}  // namespace perfbench
