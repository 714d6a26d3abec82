#include "cluster/chaos.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "common/logging.h"

namespace pravega::cluster {

const char* chaosKindName(ChaosEvent::Kind kind) {
    switch (kind) {
        case ChaosEvent::Kind::BookieCrash: return "bookie-crash";
        case ChaosEvent::Kind::BookieRestart: return "bookie-restart";
        case ChaosEvent::Kind::StoreCrash: return "store-crash";
        case ChaosEvent::Kind::Partition: return "partition";
        case ChaosEvent::Kind::Heal: return "heal";
        case ChaosEvent::Kind::LinkDegrade: return "link-degrade";
        case ChaosEvent::Kind::LtsOutage: return "lts-outage";
        case ChaosEvent::Kind::LtsSlowdown: return "lts-slowdown";
        case ChaosEvent::Kind::LtsRestore: return "lts-restore";
    }
    return "unknown";
}

ChaosSchedule::ChaosSchedule(PravegaCluster& cluster, Config cfg)
    : cluster_(cluster), cfg_(cfg) {
    generate();
}

void ChaosSchedule::generate() {
    sim::Rng rng(cfg_.seed);
    const auto& ccfg = cluster_.config();

    // Candidate fault classes, re-evaluated per slot so caps apply.
    enum class Cls { Bookie, PartitionSB, Degrade, Store, LtsOut, LtsSlow };

    const sim::Duration slot = cfg_.horizon / std::max(1, cfg_.faults);
    std::vector<int> crashedBookies;
    for (int i = 0; i < cfg_.faults; ++i) {
        std::vector<Cls> classes;
        if (cfg_.bookieFaults && ccfg.bookies > 0) classes.push_back(Cls::Bookie);
        if (cfg_.networkFaults) {
            if (cfg_.partitionFaults) classes.push_back(Cls::PartitionSB);
            if (cfg_.degradeFaults) classes.push_back(Cls::Degrade);
        }
        if (cfg_.storeFaults && plannedStoreCrashes_ < cfg_.maxStoreCrashes &&
            plannedStoreCrashes_ + 1 < ccfg.segmentStores) {
            classes.push_back(Cls::Store);
        }
        if (cfg_.ltsFaults) {
            if (cfg_.ltsOutageFaults) classes.push_back(Cls::LtsOut);
            if (cfg_.ltsSlowdownFaults) classes.push_back(Cls::LtsSlow);
        }
        if (classes.empty()) break;

        const sim::TimePoint slotStart = cfg_.start + static_cast<sim::Duration>(i) * slot;
        // The fault opens in the first half of its slot and closes before
        // the slot ends, so windows never overlap across slots.
        const sim::TimePoint at =
            slotStart + static_cast<sim::Duration>(rng.nextBounded(
                            static_cast<uint64_t>(std::max<sim::Duration>(1, slot / 2))));
        const sim::Duration window = static_cast<sim::Duration>(
            slot / 8 + static_cast<sim::Duration>(rng.nextBounded(
                           static_cast<uint64_t>(std::max<sim::Duration>(1, slot / 4)))));

        Cls cls = classes[rng.nextBounded(classes.size())];
        switch (cls) {
            case Cls::Bookie: {
                // Prefer bookies not crashed earlier in this schedule: once a
                // crash triggers ensemble changes, the evicted bookie carries
                // no traffic, so re-crashing it would exercise (and surface)
                // nothing. Cycle through all of them before repeating.
                std::vector<int> candidates;
                for (int b = 0; b < ccfg.bookies; ++b) {
                    if (std::find(crashedBookies.begin(), crashedBookies.end(), b) ==
                        crashedBookies.end()) {
                        candidates.push_back(b);
                    }
                }
                if (candidates.empty()) {
                    crashedBookies.clear();
                    for (int b = 0; b < ccfg.bookies; ++b) candidates.push_back(b);
                }
                int bookie = candidates[rng.nextBounded(candidates.size())];
                crashedBookies.push_back(bookie);
                timeline_.push_back({at, ChaosEvent::Kind::BookieCrash, bookie, -1, window, 0});
                timeline_.push_back(
                    {at + window, ChaosEvent::Kind::BookieRestart, bookie, -1, 0, 0});
                break;
            }
            case Cls::PartitionSB: {
                int store = static_cast<int>(rng.nextBounded(
                    static_cast<uint64_t>(std::max(1, ccfg.segmentStores))));
                int bookie = static_cast<int>(rng.nextBounded(
                    static_cast<uint64_t>(std::max(1, ccfg.bookies))));
                int a = cluster_.storeHost(static_cast<size_t>(store));
                int b = cluster_.bookieHost(static_cast<size_t>(bookie));
                timeline_.push_back({at, ChaosEvent::Kind::Partition, a, b, window, 0});
                timeline_.push_back({at + window, ChaosEvent::Kind::Heal, a, b, 0, 0});
                break;
            }
            case Cls::Degrade: {
                int store = static_cast<int>(rng.nextBounded(
                    static_cast<uint64_t>(std::max(1, ccfg.segmentStores))));
                int bookie = static_cast<int>(rng.nextBounded(
                    static_cast<uint64_t>(std::max(1, ccfg.bookies))));
                int a = cluster_.storeHost(static_cast<size_t>(store));
                int b = cluster_.bookieHost(static_cast<size_t>(bookie));
                // 1–25% of nominal bandwidth plus 0.2–1.2 ms extra latency.
                double factor = 0.01 + 0.24 * rng.nextDouble();
                timeline_.push_back(
                    {at, ChaosEvent::Kind::LinkDegrade, a, b, window, factor});
                break;
            }
            case Cls::Store: {
                int store = plannedStoreCrashes_++;
                timeline_.push_back({at, ChaosEvent::Kind::StoreCrash, store, -1, 0, 0});
                break;
            }
            case Cls::LtsOut: {
                timeline_.push_back({at, ChaosEvent::Kind::LtsOutage, -1, -1, window, 0});
                break;
            }
            case Cls::LtsSlow: {
                double extraMs = 1.0 + 20.0 * rng.nextDouble();
                timeline_.push_back({at, ChaosEvent::Kind::LtsSlowdown, -1, -1, window,
                                     extraMs * sim::kMillisecond});
                timeline_.push_back({at + window, ChaosEvent::Kind::LtsRestore, -1, -1, 0, 0});
                break;
            }
        }
    }
    std::stable_sort(timeline_.begin(), timeline_.end(),
                     [](const ChaosEvent& x, const ChaosEvent& y) { return x.at < y.at; });
}

void ChaosSchedule::arm() {
    assert(!armed_ && "a schedule arms once");
    armed_ = true;
    sim::Core& exec = cluster_.executor();
    for (const ChaosEvent& ev : timeline_) {
        exec.schedule(std::max<sim::Duration>(0, ev.at - exec.now()),
                      life_.guard([this, ev]() { execute(ev); }));
    }
}

void ChaosSchedule::execute(const ChaosEvent& ev) {
    std::string line = "t=" + std::to_string(ev.at) + " " + chaosKindName(ev.kind);
    Status applied;
    switch (ev.kind) {
        case ChaosEvent::Kind::BookieCrash:
            applied = cluster_.crashBookie(static_cast<size_t>(ev.a));
            line += " bookie=" + std::to_string(ev.a);
            break;
        case ChaosEvent::Kind::BookieRestart:
            applied = cluster_.restartBookie(static_cast<size_t>(ev.a));
            line += " bookie=" + std::to_string(ev.a);
            break;
        case ChaosEvent::Kind::StoreCrash:
            applied = cluster_.crashStore(static_cast<size_t>(ev.a));
            line += " store=" + std::to_string(ev.a);
            break;
        case ChaosEvent::Kind::Partition:
            cluster_.network().partition(ev.a, ev.b);
            line += " hosts=" + std::to_string(ev.a) + "," + std::to_string(ev.b);
            break;
        case ChaosEvent::Kind::Heal:
            cluster_.network().heal(ev.a, ev.b);
            line += " hosts=" + std::to_string(ev.a) + "," + std::to_string(ev.b);
            break;
        case ChaosEvent::Kind::LinkDegrade:
            cluster_.network().degrade(ev.a, ev.b, sim::usec(500), ev.magnitude,
                                       ev.duration);
            line += " hosts=" + std::to_string(ev.a) + "," + std::to_string(ev.b) +
                    " factor=" + std::to_string(ev.magnitude);
            break;
        case ChaosEvent::Kind::LtsOutage:
            if (auto* flts = cluster_.faultLts()) {
                flts->startOutage(ev.duration);
            } else {
                applied = Status(Err::InvalidArgument, "faultInjectLts off");
            }
            line += " for=" + std::to_string(ev.duration);
            break;
        case ChaosEvent::Kind::LtsSlowdown:
            if (auto* flts = cluster_.faultLts()) {
                flts->setExtraLatency(static_cast<sim::Duration>(ev.magnitude));
            } else {
                applied = Status(Err::InvalidArgument, "faultInjectLts off");
            }
            line += " extra=" + std::to_string(static_cast<int64_t>(ev.magnitude));
            break;
        case ChaosEvent::Kind::LtsRestore:
            if (auto* flts = cluster_.faultLts()) flts->setExtraLatency(0);
            break;
    }
    if (!applied.isOk()) line += " [skipped: " + applied.toString() + "]";
    executed_.push_back(line);
    PLOG_INFO("chaos", "%s", line.c_str());
}

sim::TimePoint ChaosSchedule::endTime() const {
    sim::TimePoint end = cfg_.start;
    for (const ChaosEvent& ev : timeline_) end = std::max(end, ev.at + ev.duration);
    return end;
}

std::vector<detect::FaultWindow> ChaosSchedule::faultWindows() const {
    std::vector<detect::FaultWindow> out;
    for (const ChaosEvent& ev : timeline_) {
        switch (ev.kind) {
            case ChaosEvent::Kind::BookieCrash:
            case ChaosEvent::Kind::Partition:
            case ChaosEvent::Kind::LinkDegrade:
            case ChaosEvent::Kind::LtsOutage:
            case ChaosEvent::Kind::LtsSlowdown:
                out.push_back({chaosKindName(ev.kind), ev.a, ev.b, ev.at,
                               ev.at + ev.duration});
                break;
            case ChaosEvent::Kind::StoreCrash:
                // Permanent: the window runs to the end of the schedule.
                out.push_back({chaosKindName(ev.kind), ev.a, ev.b, ev.at, endTime()});
                break;
            case ChaosEvent::Kind::BookieRestart:
            case ChaosEvent::Kind::Heal:
            case ChaosEvent::Kind::LtsRestore:
                break;  // closers; already folded into the opener's window
        }
    }
    // timeline_ is at-sorted, so windows come out start-sorted already.
    return out;
}

std::string ChaosSchedule::groundTruthJson() const {
    char buf[64];
    std::string out = "{\"seed\":";
    out += std::to_string(cfg_.seed);
    std::snprintf(buf, sizeof(buf), ",\"start_ms\":%.6g", sim::toMillis(cfg_.start));
    out += buf;
    std::snprintf(buf, sizeof(buf), ",\"horizon_ms\":%.6g", sim::toMillis(cfg_.horizon));
    out += buf;
    out += ",\"windows\":[";
    const std::vector<detect::FaultWindow> windows = faultWindows();
    for (size_t i = 0; i < windows.size(); ++i) {
        const detect::FaultWindow& w = windows[i];
        if (i > 0) out += ",";
        out += "{\"class\":\"";
        out += w.klass;
        out += "\",\"a\":";
        out += std::to_string(w.a);
        out += ",\"b\":";
        out += std::to_string(w.b);
        std::snprintf(buf, sizeof(buf), ",\"start_ms\":%.6g", sim::toMillis(w.start));
        out += buf;
        std::snprintf(buf, sizeof(buf), ",\"end_ms\":%.6g}", sim::toMillis(w.end));
        out += buf;
    }
    out += "]}";
    return out;
}

}  // namespace pravega::cluster
