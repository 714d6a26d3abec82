#include "workload/fleet.h"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "common/hash.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace pravega::workload {

namespace {
constexpr const char* kLog = "fleet";

uint64_t streamSeed(uint64_t fleetSeed, size_t streamIdx, uint64_t salt) {
    return pravega::mix64(fleetSeed ^ pravega::mix64((streamIdx + 1) * 2 + salt));
}
}  // namespace

FleetWorkload::FleetWorkload(cluster::PravegaCluster& cluster, FleetConfig cfg)
    : cluster_(cluster),
      cfg_(std::move(cfg)),
      timer_(cluster.machine().core(0), [this]() { tick(); }) {
    offeredPerTenant_.assign(cfg_.tenants.size(), 0);
    ackedPerTenant_.assign(cfg_.tenants.size(), 0);

    size_t globalIdx = 0;
    for (size_t t = 0; t < cfg_.tenants.size(); ++t) {
        const TenantSpec& spec = cfg_.tenants[t];
        keyZipf_.push_back(std::make_unique<ZipfSampler>(
            std::max<uint64_t>(spec.keysPerStream, 1), spec.keySkewTheta));
        // Key rank → unit-interval routing hash, computed once per tenant:
        // the per-event hot path then never builds key strings.
        std::vector<double> hashes;
        hashes.reserve(static_cast<size_t>(keyZipf_.back()->size()));
        char key[24] = {'k'};  // "k" + decimal rank, built in place
        for (uint64_t k = 0; k < keyZipf_.back()->size(); ++k) {
            const char* end = std::to_chars(key + 1, key + sizeof(key), k).ptr;
            hashes.push_back(pravega::keyHash01(std::string_view(key, static_cast<size_t>(end - key))));
        }
        keyHash_.push_back(std::move(hashes));

        // Zipf-weighted per-stream shares of the tenant's aggregate rate.
        ZipfSampler streamWeights(std::max(spec.streams, 1), spec.streamSkewTheta);
        double tenantRate = static_cast<double>(spec.streams) * spec.producersPerStream *
                            spec.producerEventsPerSec;
        for (int j = 0; j < spec.streams; ++j, ++globalIdx) {
            ArrivalProcess::Config ac;
            ac.kind = spec.arrivals;
            ac.eventsPerSec = tenantRate * streamWeights.weight(static_cast<uint64_t>(j));
            ac.stateFactors = spec.mmppFactors;
            ac.meanDwell = spec.mmppMeanDwell;
            ac.diurnal = spec.diurnal;
            StreamState s(ArrivalProcess(ac, streamSeed(cfg_.seed, globalIdx, 0)),
                          streamSeed(cfg_.seed, globalIdx, 1));
            s.tenant = t;
            s.scopedName = spec.scope + "/s" + std::to_string(j);
            streams_.push_back(std::move(s));
        }
    }
}

Status FleetWorkload::setup() {
    auto& ctrl = cluster_.ctrl();
    for (const auto& spec : cfg_.tenants) {
        Status s = ctrl.createScope(spec.scope);
        if (!s && s.code() != Err::AlreadyExists) return s;
    }

    std::vector<sim::Future<sim::Unit>> batch;
    auto drain = [&]() -> Status {
        cluster_.runUntilIdle();
        for (const auto& f : batch) {
            if (!f.isReady()) return Status(Err::Timeout, "stream create stuck");
            if (!f.result().isOk()) return f.result().status();
        }
        batch.clear();
        return Status::ok();
    };
    for (const auto& s : streams_) {
        const TenantSpec& spec = cfg_.tenants[s.tenant];
        auto slash = s.scopedName.find('/');
        batch.push_back(ctrl.createStream(s.scopedName.substr(0, slash),
                                          s.scopedName.substr(slash + 1),
                                          spec.streamConfig));
        if (static_cast<int>(batch.size()) >= cfg_.setupBatch) {
            Status st = drain();
            if (!st) return st;
        }
    }
    Status st = drain();
    if (!st) return st;

    for (auto& s : streams_) {
        auto rec = ctrl.getStream(s.scopedName);
        if (!rec) return rec.status();
        s.rec = rec.value();
    }
    PLOG_INFO(kLog, "fleet ready: %zu streams, %llu modeled producers", streams_.size(),
              static_cast<unsigned long long>(modeledProducers()));
    return Status::ok();
}

void FleetWorkload::start() {
    if (timer_.armed()) return;
    lastTick_ = cluster_.machine().now();
    timer_.every(cfg_.tick);
}

void FleetWorkload::stop() { timer_.cancel(); }

uint64_t FleetWorkload::modeledProducers() const {
    uint64_t total = 0;
    for (const auto& spec : cfg_.tenants) {
        total += static_cast<uint64_t>(spec.streams) * spec.producersPerStream;
    }
    return total;
}

double FleetWorkload::nominalEventsPerSec() const {
    double total = 0;
    for (const auto& spec : cfg_.tenants) {
        total += static_cast<double>(spec.streams) * spec.producersPerStream *
                 spec.producerEventsPerSec;
    }
    return total;
}

uint64_t FleetWorkload::offeredFor(const std::string& scope) const {
    for (size_t t = 0; t < cfg_.tenants.size(); ++t) {
        if (cfg_.tenants[t].scope == scope) return offeredPerTenant_[t];
    }
    return 0;
}

uint64_t FleetWorkload::ackedFor(const std::string& scope) const {
    for (size_t t = 0; t < cfg_.tenants.size(); ++t) {
        if (cfg_.tenants[t].scope == scope) return ackedPerTenant_[t];
    }
    return 0;
}

void FleetWorkload::tick() {
    sim::TimePoint now = cluster_.machine().now();
    sim::Duration dt = now - lastTick_;
    lastTick_ = now;
    if (dt <= 0) return;

    auto& reg = cluster_.machine().core(0).metrics();
    auto& offeredCounter = reg.counter("wl.offered_events");
    auto& throttledCounter = reg.counter("wl.throttled_events");

    for (size_t i = 0; i < streams_.size(); ++i) {
        auto& s = streams_[i];
        uint64_t n = s.proc.arrivalsIn(now - dt, dt);
        if (n == 0) continue;
        offered_ += n;
        offeredPerTenant_[s.tenant] += n;
        offeredCounter.inc(n);

        uint64_t send = n;
        if (quotas_ != nullptr) {
            double allow = quotas_->allowance(cfg_.tenants[s.tenant].scope);
            if (allow < 1.0) {
                double want = static_cast<double>(n) * allow + s.quotaCarry;
                send = static_cast<uint64_t>(want);
                s.quotaCarry = want - static_cast<double>(send);
                uint64_t dropped = n - send;
                throttled_ += dropped;
                throttledCounter.inc(dropped);
            }
        }
        if (send > 0) routeAndSend(i, send);
    }
}

void FleetWorkload::routeAndSend(size_t streamIdx, uint64_t count) {
    auto& s = streams_[streamIdx];
    if (s.rec == nullptr) return;
    size_t epochs = s.rec->epochs().size();
    if (s.dirty || epochs != s.cachedEpochs) {
        s.segments = s.rec->currentEpoch().segments;
        s.cachedEpochs = epochs;
        s.dirty = false;
    }
    if (s.segments.empty()) return;

    const auto& sampler = *keyZipf_[s.tenant];
    const auto& hashes = keyHash_[s.tenant];
    std::vector<uint32_t> perSegment(s.segments.size(), 0);
    for (uint64_t e = 0; e < count; ++e) {
        uint64_t rank = sampler.sample(s.keyRng);
        double h = hashes[static_cast<size_t>(rank)];
        // Order-independent checksum over (stream, key) samples — the
        // cross-core determinism property test compares this fold.
        keyChecksum_ += pravega::mix64((static_cast<uint64_t>(streamIdx) << 32) ^ rank);
        // Segments are sorted by keyStart; find the covering range.
        size_t idx = s.segments.size() - 1;
        for (size_t j = 0; j + 1 < s.segments.size(); ++j) {
            if (h < s.segments[j].keyEnd) {
                idx = j;
                break;
            }
        }
        ++perSegment[idx];
    }
    for (size_t j = 0; j < s.segments.size(); ++j) {
        if (perSegment[j] > 0) sendBatch(streamIdx, s.segments[j].id, perSegment[j]);
    }
}

SharedBuf FleetWorkload::payloadFor(uint64_t bytes) {
    // Payloads are opaque filler; share one buffer per size so the driver
    // does not allocate per append. Unbounded sizes (hot-stream bursts)
    // fall through to a fresh buffer.
    constexpr uint64_t kCacheCeiling = 256 * 1024;
    if (bytes > kCacheCeiling) return SharedBuf(Bytes(bytes, 0xAB));
    auto it = payloadCache_.find(bytes);
    if (it != payloadCache_.end()) return it->second;
    SharedBuf buf{Bytes(bytes, 0xAB)};
    payloadCache_.emplace(bytes, buf);
    return buf;
}

void FleetWorkload::sendBatch(size_t streamIdx, segmentstore::SegmentId segment,
                              uint32_t count) {
    auto& s = streams_[streamIdx];
    auto& registry = cluster_.registry();
    uint32_t cid = pravega::containerFor(segment, registry.containerCount());
    auto* store = registry.ownerOf(cid);
    if (store == nullptr) {
        errored_ += count;
        s.dirty = true;
        return;
    }
    uint64_t bytes = static_cast<uint64_t>(count) * cfg_.tenants[s.tenant].eventBytes;
    SharedBuf payload = payloadFor(bytes);
    sent_ += count;
    ++inflight_;
    store->chargeRequest(cid, bytes)
        .thenAsync([this, life = life_.token(), cid, segment, payload,
                    count](const sim::Unit&) -> sim::Future<int64_t> {
            if (!life.alive()) {
                return sim::Future<int64_t>::failed(Status(Err::Cancelled, "fleet gone"));
            }
            // Re-resolve ownership: the rebalancer may have moved the
            // container while the charge was in flight.
            auto* owner = cluster_.registry().ownerOf(cid);
            auto* container = owner ? owner->container(cid) : nullptr;
            if (container == nullptr) {
                return sim::Future<int64_t>::failed(
                    Status(Err::ContainerOffline, "container moving"));
            }
            return container->append(segment, payload, /*writer=*/0,
                                     /*eventNumber=*/-1, count);
        })
        .onComplete(life_.guard([this, streamIdx, count](const Result<int64_t>& r) {
            --inflight_;
            auto& stream = streams_[streamIdx];
            if (r.isOk()) {
                acked_ += count;
                ackedPerTenant_[stream.tenant] += count;
            } else {
                errored_ += count;
                stream.dirty = true;  // chase scale events / container moves
            }
        }));
}

}  // namespace pravega::workload
