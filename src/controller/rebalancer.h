// Load-aware container rebalancing (§3.1 / ROADMAP item 1).
//
// The static `cid % N` placement the cluster boots with is oblivious to
// load: under Zipf-skewed fleets a handful of hot streams land their
// containers on the same store and its CPU saturates while neighbors idle.
// This policy engine closes the loop: it windows each container's monotonic
// ingest counters (not the auto-scaler's destructive drainRates() feed),
// and when the max/min per-store load ratio exceeds a trigger it greedily
// moves the largest container that strictly narrows the gap from the
// hottest store to the coldest — bounded by a per-poll move budget, since
// every move is a graceful shutdown + recovery + WAL fencing cycle that
// fails in-flight appends. Hysteresis (trigger above target, idle floor,
// strict-improvement rule) keeps a balanced fleet at zero moves.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "cluster/coordination.h"
#include "segmentstore/segment_store.h"
#include "sim/machine.h"
#include "sim/timer.h"

namespace pravega::obs {
class Counter;
class Gauge;
}  // namespace pravega::obs

namespace pravega::controller {

class Rebalancer {
public:
    struct Config {
        sim::Duration pollInterval = sim::msec(500);
        /// Max container moves per poll (each move is a recovery cycle).
        int moveBudgetPerPoll = 2;
        /// Act only when max/min store load exceeds this (hysteresis gap
        /// above targetRatio prevents oscillation).
        double triggerRatio = 1.5;
        /// Stop moving once max/min is at or below this.
        double targetRatio = 1.2;
        /// Idle floor: never rebalance when the hottest store is below
        /// this ingest rate (B/s) — ratios on noise are meaningless.
        double minStoreBytesPerSec = 64.0 * 1024;
    };

    Rebalancer(sim::Core& exec, cluster::ContainerRegistry& registry,
               std::vector<segmentstore::SegmentStore*> stores)
        : Rebalancer(exec, registry, std::move(stores), Config{}) {}
    Rebalancer(sim::Core& exec, cluster::ContainerRegistry& registry,
               std::vector<segmentstore::SegmentStore*> stores, Config cfg);

    void start();
    void stop();

    /// Runs one evaluation immediately (test hook; the poll timer calls
    /// the same path).
    void tickNow() { tick(); }

    uint64_t movesIssued() const { return moves_; }
    uint64_t ticksRun() const { return ticks_; }
    /// Max/min store load ratio observed by the most recent tick (0 until
    /// a tick has seen traffic above the idle floor).
    double lastRatio() const { return lastRatio_; }

private:
    void tick();

    sim::Core& exec_;
    cluster::ContainerRegistry& registry_;
    std::vector<segmentstore::SegmentStore*> stores_;
    Config cfg_;

    std::map<uint32_t, uint64_t> prevBytes_;  // container → last cum total
    std::vector<double> lastLoads_;
    sim::TimePoint lastTick_ = 0;
    double lastRatio_ = 0.0;
    uint64_t ticks_ = 0;
    uint64_t moves_ = 0;

    obs::Counter& movesCounter_;
    obs::Counter& ticksCounter_;
    obs::Gauge& ratioGauge_;
    sim::Timer timer_;  // poll; cancelled by stop()
};

}  // namespace pravega::controller
