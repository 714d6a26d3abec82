#include "controller/rebalancer.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"

namespace pravega::controller {

namespace {
constexpr const char* kLog = "rebalancer";
}

Rebalancer::Rebalancer(sim::Core& exec, cluster::ContainerRegistry& registry,
                       std::vector<segmentstore::SegmentStore*> stores, Config cfg)
    : exec_(exec),
      registry_(registry),
      stores_(std::move(stores)),
      cfg_(cfg),
      movesCounter_(exec.metrics().counter("ctrl.rebalance.moves")),
      ticksCounter_(exec.metrics().counter("ctrl.rebalance.ticks")),
      ratioGauge_(exec.metrics().gauge("ctrl.rebalance.load_ratio")),
      timer_(exec, [this]() { tick(); }) {}

void Rebalancer::start() {
    if (timer_.armed()) return;
    lastTick_ = exec_.now();
    timer_.every(cfg_.pollInterval);
}

void Rebalancer::stop() { timer_.cancel(); }

void Rebalancer::tick() {
    double windowSec = sim::toSeconds(exec_.now() - lastTick_);
    lastTick_ = exec_.now();
    if (windowSec <= 0 || stores_.size() < 2) return;
    ++ticks_;
    ticksCounter_.inc();

    // Window each container's monotonic ingest counter and attribute the
    // delta to its current owner. A cum total below the previous snapshot
    // means the container was recreated (moved) — count the fresh total.
    std::map<segmentstore::SegmentStore*, size_t> storeIndex;
    for (size_t i = 0; i < stores_.size(); ++i) storeIndex[stores_[i]] = i;
    std::vector<uint64_t> load(stores_.size(), 0);
    std::map<uint32_t, uint64_t> delta;
    std::map<uint32_t, size_t> ownerIdx;
    for (uint32_t c = 0; c < registry_.containerCount(); ++c) {
        auto* owner = registry_.ownerOf(c);
        if (owner == nullptr) continue;
        auto* container = owner->container(c);
        if (container == nullptr) continue;
        uint64_t cum = container->totalBytesIn();
        uint64_t prev = prevBytes_[c];
        uint64_t d = cum >= prev ? cum - prev : cum;
        prevBytes_[c] = cum;
        auto it = storeIndex.find(owner);
        if (it == storeIndex.end()) continue;  // not a managed store
        delta[c] = d;
        ownerIdx[c] = it->second;
        load[it->second] += d;
    }

    lastLoads_.assign(stores_.size(), 0.0);
    for (size_t i = 0; i < stores_.size(); ++i) {
        lastLoads_[i] = static_cast<double>(load[i]) / windowSec;
    }

    auto hottest = [&]() {
        return static_cast<size_t>(
            std::max_element(load.begin(), load.end()) - load.begin());
    };
    auto coldest = [&]() {
        return static_cast<size_t>(
            std::min_element(load.begin(), load.end()) - load.begin());
    };

    size_t h = hottest();
    if (lastLoads_[h] < cfg_.minStoreBytesPerSec) {
        lastRatio_ = 0.0;
        ratioGauge_.set(0.0);
        return;  // fleet is idle; ratios would be noise
    }
    size_t c = coldest();
    double ratio =
        static_cast<double>(load[h]) / static_cast<double>(std::max<uint64_t>(load[c], 1));
    lastRatio_ = ratio;
    ratioGauge_.set(ratio);
    if (ratio <= cfg_.triggerRatio) return;

    int moved = 0;
    while (moved < cfg_.moveBudgetPerPoll) {
        h = hottest();
        c = coldest();
        if (static_cast<double>(load[h]) <=
            cfg_.targetRatio * static_cast<double>(std::max<uint64_t>(load[c], 1))) {
            break;
        }
        // Largest container, on ANY store still above target relative to
        // the coldest, whose load strictly narrows that donor's gap (moving
        // anything bigger just swaps which store is hot). Donating from
        // beyond the hottest store matters when the hottest holds a single
        // indivisible hot container: the rest of the fleet can still be
        // flattened around it.
        int best = -1;
        uint64_t bestDelta = 0;
        size_t bestDonor = 0;
        for (const auto& [cid, d] : delta) {
            size_t o = ownerIdx[cid];
            if (o == c || d == 0) continue;
            if (static_cast<double>(load[o]) <=
                cfg_.targetRatio * static_cast<double>(std::max<uint64_t>(load[c], 1))) {
                continue;  // donor already balanced against the coldest
            }
            if (d >= load[o] - load[c]) continue;
            if (d > bestDelta) {
                best = static_cast<int>(cid);
                bestDelta = d;
                bestDonor = o;
            }
        }
        if (best < 0) break;  // only indivisible hot containers — nothing helps
        uint32_t cid = static_cast<uint32_t>(best);
        Status s = registry_.moveContainer(cid, stores_[c]);
        if (!s) {
            PLOG_INFO(kLog, "move of container %u failed: %s", cid, s.message().c_str());
            break;
        }
        PLOG_INFO(kLog, "moved container %u store[%zu] -> store[%zu] (%.0f KB in window)",
                  cid, bestDonor, c, static_cast<double>(bestDelta) / 1024.0);
        load[bestDonor] -= bestDelta;
        load[c] += bestDelta;
        ownerIdx[cid] = c;
        ++moves_;
        movesCounter_.inc();
        ++moved;
    }
}

}  // namespace pravega::controller
