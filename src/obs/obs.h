// NodeObs: the per-node observability bundle -- one registry (always on),
// one trace sink (export off by default; its ring of recent events always
// on), one per-epoch recorder, and, on the master, the cluster-wide view
// assembled from kMetrics frames.
//
// Runners that are not handed a NodeObs create a private one, so the
// instrumentation code has no null checks on its hot paths; the harness (or
// a bench) passes its own bundle to read metrics afterwards.
#pragma once

#include "obs/cluster_view.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"

namespace sjoin::obs {

struct NodeObs {
  MetricsRegistry registry;
  TraceSink trace;  ///< exports only if the owner enables it
  EpochRecorder recorder;
  ClusterMetricsView cluster;  ///< populated on the master only
};

}  // namespace sjoin::obs
