#include "controller/auto_scaler.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace pravega::controller {

namespace {
constexpr const char* kLog = "auto-scaler";
}

AutoScaler::AutoScaler(sim::Core& exec, Controller& controller,
                       std::vector<segmentstore::SegmentStore*> stores, Config cfg)
    : exec_(exec),
      controller_(controller),
      stores_(std::move(stores)),
      cfg_(cfg),
      timer_(exec, [this]() { tick(); }) {}

void AutoScaler::start() {
    if (timer_.armed()) return;
    lastTick_ = exec_.now();
    timer_.every(cfg_.pollInterval);
}

void AutoScaler::stop() { timer_.cancel(); }

void AutoScaler::tick() {
    double windowSec = sim::toSeconds(exec_.now() - lastTick_);
    lastTick_ = exec_.now();
    if (windowSec <= 0) return;

    // Gather the feedback from the data plane (§3.1: "the control plane
    // can react to the load monitored by the data plane").
    std::map<SegmentId, segmentstore::SegmentRate> rates;
    for (auto* store : stores_) {
        for (auto& [seg, rate] : store->drainRates()) {
            auto& agg = rates[seg];
            agg.bytes += rate.bytes;
            agg.events += rate.events;
        }
    }
    evaluateAll(rates, windowSec);
}

void AutoScaler::evaluateAll(const std::map<SegmentId, segmentstore::SegmentRate>& rates,
                             double windowSec) {
    if (windowSec <= 0) return;
    lastRates_.clear();
    for (auto& [seg, rate] : rates) {
        lastRates_[seg] = static_cast<double>(rate.bytes) / windowSec;
    }

    // Evaluate each auto-scaling stream against its policy.
    std::vector<std::pair<std::string, const StreamRecord*>> candidates;
    for (const auto& [seg, rate] : rates) {
        auto uri = controller_.uriOf(seg);
        (void)uri;
    }
    // Collect stream names from the controller's registry of segments.
    std::map<std::string, const StreamRecord*> streams;
    for (const auto& [seg, rate] : rates) {
        auto it = controller_.segmentToStream_.find(seg);
        if (it == controller_.segmentToStream_.end()) continue;
        auto rec = controller_.getStream(it->second);
        if (rec) streams[it->second] = rec.value();
    }
    // Also re-evaluate streams with zero traffic this window (cold merges).
    for (const auto& [name, rec] : controller_.streams_) {
        if (rec.config().scaling.type != ScaleType::Fixed) streams.emplace(name, &rec);
    }

    for (const auto& [name, rec] : streams) {
        if (rec->config().scaling.type == ScaleType::Fixed) continue;
        evaluateStream(name, *rec, rates, windowSec);
    }
}

void AutoScaler::evaluateStream(const std::string& name, const StreamRecord& rec,
                                const std::map<SegmentId, segmentstore::SegmentRate>& rates,
                                double windowSec) {
    if (controller_.isScaling(name) || rec.sealedForAppend()) return;
    auto cooldownIt = lastScale_.find(name);
    if (cooldownIt != lastScale_.end() && exec_.now() - cooldownIt->second < cfg_.cooldown) {
        return;
    }
    const ScalingPolicy& policy = rec.config().scaling;
    const auto& segments = rec.currentEpoch().segments;

    // Classify each current segment as hot/cold and update sustain counts.
    std::vector<double> segRates(segments.size(), 0.0);
    for (size_t i = 0; i < segments.size(); ++i) {
        auto rit = rates.find(segments[i].id);
        if (rit != rates.end()) {
            double value = policy.type == ScaleType::ByRateBytes
                               ? static_cast<double>(rit->second.bytes)
                               : static_cast<double>(rit->second.events);
            segRates[i] = value / windowSec;
        }
        SegmentId id = segments[i].id;
        if (segRates[i] > cfg_.hotFactor * policy.targetRate) {
            ++hotWindows_[id];
            coldWindows_[id] = 0;
        } else if (segRates[i] < cfg_.coldFactor * policy.targetRate) {
            ++coldWindows_[id];
            hotWindows_[id] = 0;
        } else {
            hotWindows_[id] = 0;
            coldWindows_[id] = 0;
        }
    }

    // Scale-up: split the hottest sustained-hot segment (Fig 2a, t1/t2).
    int best = -1;
    double bestRate = 0;
    for (size_t i = 0; i < segments.size(); ++i) {
        if (hotWindows_[segments[i].id] >= cfg_.sustainWindows && segRates[i] > bestRate) {
            best = static_cast<int>(i);
            bestRate = segRates[i];
        }
    }
    if (best >= 0) {
        const auto& seg = segments[static_cast<size_t>(best)];
        int splits = static_cast<int>(std::ceil(bestRate / std::max(policy.targetRate, 1.0)));
        splits = std::clamp(splits, 2, std::max(2, policy.scaleFactor));
        std::vector<std::pair<double, double>> ranges;
        double width = (seg.keyEnd - seg.keyStart) / splits;
        for (int i = 0; i < splits; ++i) {
            double a = seg.keyStart + i * width;
            double b = (i == splits - 1) ? seg.keyEnd : seg.keyStart + (i + 1) * width;
            ranges.emplace_back(a, b);
        }
        hotWindows_.erase(seg.id);
        lastScale_[name] = exec_.now();
        ++splits_;
        PLOG_INFO(kLog, "splitting %s segment %u.%u (%.0f > %.0f) into %d", name.c_str(),
                  segmentstore::epochOf(seg.id), segmentstore::numberOf(seg.id), bestRate,
                  policy.targetRate, splits);
        controller_.scaleStream(name, {seg.id}, ranges);
        return;
    }

    // Scale-down: merge the first adjacent pair of sustained-cold segments
    // covering a contiguous key range (Fig 2a, t3).
    if (static_cast<int>(segments.size()) <= policy.minSegments) return;
    for (size_t i = 0; i + 1 < segments.size(); ++i) {
        const auto& a = segments[i];
        const auto& b = segments[i + 1];
        if (std::abs(a.keyEnd - b.keyStart) > 1e-9) continue;  // not contiguous
        if (coldWindows_[a.id] >= cfg_.sustainWindows &&
            coldWindows_[b.id] >= cfg_.sustainWindows) {
            coldWindows_.erase(a.id);
            coldWindows_.erase(b.id);
            lastScale_[name] = exec_.now();
            ++merges_;
            PLOG_INFO(kLog, "merging %s segments %u.%u + %u.%u", name.c_str(),
                      segmentstore::epochOf(a.id), segmentstore::numberOf(a.id),
                      segmentstore::epochOf(b.id), segmentstore::numberOf(b.id));
            controller_.scaleStream(name, {a.id, b.id}, {{a.keyStart, b.keyEnd}});
            return;
        }
    }
}

}  // namespace pravega::controller
