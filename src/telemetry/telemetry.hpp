// Telemetry facade: one object bundling the three observability primitives
// (metrics registry, sim-time tracer, flight recorder) plus their shared
// configuration. The Cluster owns one instance and hands pointers down the
// stack (fabric, NICs, workers, collectives); subsystems hold only a
// pointer and check enablement per event, so a disabled telemetry object
// costs a branch per instrumentation site.
#pragma once

#include <cstdint>

#include "src/telemetry/metrics.hpp"
#include "src/telemetry/recorder.hpp"
#include "src/telemetry/trace.hpp"

namespace mccl::telemetry {

struct TelemetryConfig {
  /// Start with sim-time tracing enabled (can also be flipped at runtime
  /// via Tracer::enable before the run of interest).
  bool trace = false;
  std::size_t trace_max_events = 1u << 20;
  /// Flight-recorder ring capacity per node (0 disables the recorder).
  std::size_t recorder_capacity = 256;
  /// The engine emits one dispatch-window span + pending-queue counter
  /// sample every `engine_sample` dispatched events when tracing.
  std::uint64_t engine_sample = 8192;
};

/// Trace pid used for cluster-global (non-rank) rows: the engine track.
inline constexpr std::int64_t kSimTracePid = 1'000'000;

class Telemetry {
 public:
  explicit Telemetry(TelemetryConfig cfg = {})
      : config(cfg),
        tracer(Tracer::Options{cfg.trace_max_events}),
        recorder(cfg.recorder_capacity == 0 ? 1 : cfg.recorder_capacity) {
    tracer.enable(cfg.trace);
    recorder.enable(cfg.recorder_capacity > 0);
  }

  TelemetryConfig config;
  MetricsRegistry metrics;
  Tracer tracer;
  FlightRecorder recorder;
};

}  // namespace mccl::telemetry
