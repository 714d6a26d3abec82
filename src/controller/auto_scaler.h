// Stream auto-scaling (§3.1): the feedback loop between data plane and
// control plane. Segment stores accumulate per-segment ingest rates; this
// policy engine polls them, tracks sustained load against each stream's
// scaling policy, and issues scale-up (split) and scale-down (merge)
// operations through the controller.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "controller/controller.h"
#include "segmentstore/segment_store.h"
#include "sim/machine.h"
#include "sim/timer.h"

namespace pravega::controller {

class AutoScaler {
public:
    struct Config {
        sim::Duration pollInterval = sim::sec(1);
        /// Consecutive windows a segment must stay hot/cold before acting.
        int sustainWindows = 2;
        /// Hot when rate > hotFactor * targetRate.
        double hotFactor = 1.0;
        /// Cold when rate < coldFactor * targetRate (both merge partners).
        double coldFactor = 0.5;
        /// Minimum time between scale events on one stream.
        sim::Duration cooldown = sim::sec(4);
    };

    AutoScaler(sim::Core& exec, Controller& controller,
               std::vector<segmentstore::SegmentStore*> stores)
        : AutoScaler(exec, controller, std::move(stores), Config{}) {}
    AutoScaler(sim::Core& exec, Controller& controller,
               std::vector<segmentstore::SegmentStore*> stores, Config cfg);

    void start();
    void stop();

    /// Evaluates every auto-scaling stream against an explicit per-segment
    /// rate sample accumulated over `windowSec`. The poll timer feeds this
    /// from the stores' drained rates; tests feed it synthetic samples to
    /// pin down boundary/hysteresis behavior without driving traffic.
    void evaluateAll(const std::map<SegmentId, segmentstore::SegmentRate>& rates,
                     double windowSec);

    /// Most recent per-segment byte rates (B/s), for Fig 13-style plots.
    const std::map<SegmentId, double>& lastRates() const { return lastRates_; }

    uint64_t splitsIssued() const { return splits_; }
    uint64_t mergesIssued() const { return merges_; }

private:
    void tick();
    void evaluateStream(const std::string& name, const StreamRecord& rec,
                        const std::map<SegmentId, segmentstore::SegmentRate>& rates,
                        double windowSec);

    sim::Core& exec_;
    Controller& controller_;
    std::vector<segmentstore::SegmentStore*> stores_;
    Config cfg_;

    std::map<SegmentId, int> hotWindows_;
    std::map<SegmentId, int> coldWindows_;
    std::map<std::string, sim::TimePoint> lastScale_;
    std::map<SegmentId, double> lastRates_;
    sim::TimePoint lastTick_ = 0;
    uint64_t splits_ = 0;
    uint64_t merges_ = 0;
    sim::Timer timer_;  // poll; cancelled by stop()
};

}  // namespace pravega::controller
