// The traced run: the same run harness::run_scenario performs, assembled
// from the public pieces it uses (sim::Simulator, rt::Cluster built with
// harness::detail::make_factory, the delivery hook, wl::ClientPool, the fault
// schedule), with forwarding wrappers between the layers that open a span
// per call and count the work crossing each boundary.
//
// With a null tracer the wrappers only count; that reference run gives the
// benchmark what run_scenario keeps to itself — which commands the client
// pool saw complete, failure causes, and set-up time.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "harness/scenario.h"
#include "tracer.h"

namespace hostbench {

/// What the wrappers observed; none of it feeds back into the simulation.
struct Observations {
  double setup_s = 0.0;          // host time before the first simulated event
  std::uint64_t events = 0;      // simulator events executed
  std::uint64_t frames = 0;      // frames protocols handed to Env::send/broadcast
  std::uint64_t net_messages = 0;  // messages the network carried (incl. drops)
  std::uint64_t timers = 0;        // Env::set_timer calls
  std::uint64_t batch_calls = 0;   // propose_batch calls
  std::uint64_t batch_members = 0;
  std::vector<std::uint32_t> pending_samples;  // sim.pending_events()
  std::vector<std::uint32_t> queue_samples;    // called node's queue_depth()
  double cpu_util_max = 0.0;  // busiest node's busy time / duration
  /// Longest simulated time from a restart until the restarted node's
  /// delivered count reached the cluster maximum; -1 when nothing restarted,
  /// and a failure when a restarted node never caught up.
  double rejoin_ms = -1.0;
  bool rejoin_incomplete = false;

  // Failure accounting (submitted - completed = lost_in_crash + in_flight).
  std::uint64_t lost_in_crash = 0;     // submitted, then their node crashed
  std::uint64_t in_flight_at_end = 0;  // still pending when the run ended
  std::uint64_t refused_at_crashed_site = 0;  // submit hit a dead node
  /// Largest gap between a request's due time and the pool's recorded
  /// submission time; 0 by construction in simulated time.
  caesar::Time max_lateness_us = 0;

  /// Acknowledged commands: (command id, completion time) per completion.
  std::vector<std::pair<std::uint64_t, caesar::Time>> acked;
  /// Per node, the simulated time its mirror log last restarted mid-stream
  /// from a store snapshot (-1 = never); acknowledged commands completed
  /// before it are covered by that snapshot, not by the log.
  std::vector<caesar::Time> trimmed_at;
};

/// Runs `s` through the assembled pipeline. With `setup_only` it stops
/// before the first simulated event (only obs.setup_s is meaningful).
caesar::harness::RunReport run_assembled(const caesar::harness::Scenario& s,
                                         Tracer* tracer, Observations& obs,
                                         bool setup_only = false);

}  // namespace hostbench
