#include "controller/controller.h"

#include <algorithm>

#include "common/logging.h"

namespace pravega::controller {

namespace {
constexpr const char* kLog = "controller";
constexpr const char* kStreamKeyPrefix = "streams/";
/// Container hosting the controller's own metadata tables.
constexpr uint32_t kMetadataContainer = 0;
/// Retention policy enforcement cadence.
constexpr sim::Duration kRetentionInterval = sim::sec(5);
}  // namespace

Controller::Controller(sim::Core& exec, cluster::ContainerRegistry& registry)
    : exec_(exec), registry_(registry), retention_(exec, [this]() { sweepRetention(); }) {
    retention_.every(kRetentionInterval);
}

segmentstore::SegmentContainer* Controller::containerOf(SegmentId segment) const {
    uint32_t cid = pravega::containerFor(segment, registry_.containerCount());
    return registry_.containerFor(cid);
}

Status Controller::createScope(const std::string& scope) {
    if (scopes_.contains(scope)) return Status(Err::AlreadyExists, scope);
    scopes_[scope] = true;
    return Status::ok();
}

sim::Future<sim::Unit> Controller::createStream(const std::string& scope,
                                                const std::string& stream, StreamConfig config) {
    using FutUnit = sim::Future<sim::Unit>;
    if (!scopes_.contains(scope)) return FutUnit::failed(Status(Err::NotFound, "no such scope"));
    std::string scopedName = scope + "/" + stream;
    if (streams_.contains(scopedName)) {
        return FutUnit::failed(Status(Err::AlreadyExists, scopedName));
    }
    StreamRecord rec(scopedName, config, nextSegmentNumber_);
    nextSegmentNumber_ += static_cast<uint32_t>(rec.currentEpoch().segments.size());
    auto records = rec.currentEpoch().segments;
    for (const auto& seg : records) segmentToStream_[seg.id] = scopedName;
    streams_.emplace(scopedName, std::move(rec));
    persist(scopedName);
    return createSegmentObjects(scopedName, records);
}

sim::Future<sim::Unit> Controller::createSegmentObjects(
    const std::string& scopedName, const std::vector<SegmentRecord>& records) {
    std::vector<sim::Future<sim::Unit>> futures;
    for (const auto& seg : records) {
        auto* container = containerOf(seg.id);
        if (!container) {
            return sim::Future<sim::Unit>::failed(
                Status(Err::ContainerOffline, "no owner for container"));
        }
        char name[128];
        std::snprintf(name, sizeof(name), "%s/segment-%u.%u", scopedName.c_str(),
                      segmentstore::epochOf(seg.id), segmentstore::numberOf(seg.id));
        futures.push_back(container->createSegment(seg.id, name));
    }
    auto all = futures;
    return sim::whenAll(futures).then([all](const sim::Unit&) { return sim::Unit{}; });
}

sim::Future<sim::Unit> Controller::sealStream(const std::string& scopedName) {
    auto it = streams_.find(scopedName);
    if (it == streams_.end()) {
        return sim::Future<sim::Unit>::failed(Status(Err::NotFound, scopedName));
    }
    it->second.markSealed();
    std::vector<sim::Future<sim::Unit>> futures;
    for (const auto& seg : it->second.currentEpoch().segments) {
        if (auto* c = containerOf(seg.id)) futures.push_back(c->seal(seg.id));
    }
    persist(scopedName);
    return sim::whenAll(futures).then([](const sim::Unit&) { return sim::Unit{}; });
}

sim::Future<sim::Unit> Controller::deleteStream(const std::string& scopedName) {
    auto it = streams_.find(scopedName);
    if (it == streams_.end()) {
        return sim::Future<sim::Unit>::failed(Status(Err::NotFound, scopedName));
    }
    if (!it->second.sealedForAppend()) {
        return sim::Future<sim::Unit>::failed(
            Status(Err::InvalidArgument, "stream must be sealed before delete"));
    }
    std::vector<sim::Future<sim::Unit>> futures;
    for (const auto& seg : it->second.allSegments()) {
        segmentToStream_.erase(seg.id);
        if (auto* c = containerOf(seg.id)) futures.push_back(c->deleteSegment(seg.id));
    }
    streams_.erase(it);
    if (auto* meta = registry_.containerFor(kMetadataContainer)) {
        std::vector<segmentstore::TableUpdate> batch(1);
        batch[0].key = kStreamKeyPrefix + scopedName;
        batch[0].value = std::nullopt;  // removal
        meta->tableUpdate(meta->systemTableSegment(), std::move(batch));
    }
    return sim::whenAll(futures).then([](const sim::Unit&) { return sim::Unit{}; });
}

sim::Future<sim::Unit> Controller::scaleStream(
    const std::string& scopedName, const std::vector<SegmentId>& toSeal,
    const std::vector<std::pair<double, double>>& newRanges) {
    using FutUnit = sim::Future<sim::Unit>;
    auto it = streams_.find(scopedName);
    if (it == streams_.end()) return FutUnit::failed(Status(Err::NotFound, scopedName));
    if (it->second.sealedForAppend()) return FutUnit::failed(Status(Err::Sealed, scopedName));
    if (scaling_.contains(scopedName)) {
        return FutUnit::failed(Status(Err::Throttled, "scale already in progress"));
    }

    auto planned = it->second.planScale(toSeal, newRanges, nextSegmentNumber_);
    if (!planned) return FutUnit::failed(planned.status());
    auto created = planned.value();
    scaling_[scopedName] = true;

    // Fig 2b protocol: create successor segment objects first, then seal
    // the predecessors, and only then make the new epoch visible.
    sim::Promise<sim::Unit> done;
    auto fut = done.future();
    createSegmentObjects(scopedName, created)
        .onComplete(life_.guard([this, scopedName, toSeal, created,
                     done](const Result<sim::Unit>& r) mutable {
            if (!r.isOk()) {
                scaling_.erase(scopedName);
                done.setError(r.status());
                return;
            }
            std::vector<sim::Future<sim::Unit>> seals;
            for (SegmentId id : toSeal) {
                if (auto* c = containerOf(id)) seals.push_back(c->seal(id));
            }
            sim::whenAll(seals).onComplete(life_.guard([this, scopedName, toSeal, created,
                                            done](const Result<sim::Unit>&) mutable {
                auto sit = streams_.find(scopedName);
                if (sit == streams_.end()) {
                    scaling_.erase(scopedName);
                    done.setError(Err::NotFound, "stream deleted during scale");
                    return;
                }
                Status committed = sit->second.commitScale(toSeal, created);
                scaling_.erase(scopedName);
                if (!committed) {
                    done.setError(committed);
                    return;
                }
                for (const auto& seg : created) segmentToStream_[seg.id] = scopedName;
                persist(scopedName);
                PLOG_INFO(kLog, "scaled %s: sealed %zu, created %zu (epoch %u)",
                          scopedName.c_str(), toSeal.size(), created.size(),
                          sit->second.currentEpoch().epoch);
                done.setValue(sim::Unit{});
            }));
        }));
    return fut;
}

sim::Future<sim::Unit> Controller::truncateStream(const std::string& scopedName,
                                                  const std::map<SegmentId, int64_t>& cut) {
    auto it = streams_.find(scopedName);
    if (it == streams_.end()) {
        return sim::Future<sim::Unit>::failed(Status(Err::NotFound, scopedName));
    }
    std::vector<sim::Future<sim::Unit>> futures;
    for (const auto& [segment, offset] : cut) {
        if (auto* c = containerOf(segment)) futures.push_back(c->truncate(segment, offset));
    }
    return sim::whenAll(futures).then([](const sim::Unit&) { return sim::Unit{}; });
}

Result<std::vector<SegmentUri>> Controller::getCurrentSegments(
    const std::string& scopedName) const {
    auto it = streams_.find(scopedName);
    if (it == streams_.end()) return Status(Err::NotFound, scopedName);
    std::vector<SegmentUri> out;
    for (const auto& seg : it->second.currentEpoch().segments) out.push_back(uriFor(seg));
    return out;
}

Result<std::vector<SegmentUri>> Controller::getHeadSegments(const std::string& scopedName) const {
    auto it = streams_.find(scopedName);
    if (it == streams_.end()) return Status(Err::NotFound, scopedName);
    std::vector<SegmentUri> out;
    for (const auto& seg : it->second.epochs().front().segments) out.push_back(uriFor(seg));
    return out;
}

Result<std::vector<SuccessorRecord>> Controller::getSuccessors(SegmentId segment) const {
    auto sit = segmentToStream_.find(segment);
    if (sit == segmentToStream_.end()) return Status(Err::NotFound, "unknown segment");
    auto it = streams_.find(sit->second);
    if (it == streams_.end()) return Status(Err::NotFound, "stream deleted");
    return it->second.successorsOf(segment);
}

Result<SegmentUri> Controller::createInternalSegment(const std::string& name, bool isTable) {
    SegmentId id = segmentstore::makeSegmentId(0, nextSegmentNumber_++);
    SegmentRecord rec{id, 0.0, 1.0};
    internalSegments_[id] = rec;
    auto* container = containerOf(id);
    if (!container) return Status(Err::ContainerOffline, "container offline");
    container->createSegment(id, name, isTable);
    return uriFor(rec);
}

SegmentUri Controller::uriFor(const SegmentRecord& record) const {
    return SegmentUri{record, pravega::containerFor(record.id, registry_.containerCount()),
                      &registry_};
}

Result<SegmentUri> Controller::uriOf(SegmentId segment) const {
    auto iit = internalSegments_.find(segment);
    if (iit != internalSegments_.end()) return uriFor(iit->second);
    auto sit = segmentToStream_.find(segment);
    if (sit == segmentToStream_.end()) return Status(Err::NotFound, "unknown segment");
    auto it = streams_.find(sit->second);
    if (it == streams_.end()) return Status(Err::NotFound, "stream deleted");
    auto rec = it->second.findSegment(segment);
    if (!rec) return rec.status();
    return uriFor(rec.value());
}

Result<std::string> Controller::streamOf(SegmentId segment) const {
    auto it = segmentToStream_.find(segment);
    if (it == segmentToStream_.end()) return Status(Err::NotFound, "unknown segment");
    return it->second;
}

Result<const StreamRecord*> Controller::getStream(const std::string& scopedName) const {
    auto it = streams_.find(scopedName);
    if (it == streams_.end()) return Status(Err::NotFound, scopedName);
    return &it->second;
}

uint32_t Controller::scaleEventCount(const std::string& scopedName) const {
    auto it = streams_.find(scopedName);
    return it == streams_.end() ? 0 : it->second.scaleEvents();
}

void Controller::persist(const std::string& scopedName) {
    auto it = streams_.find(scopedName);
    if (it == streams_.end()) return;
    auto* meta = registry_.containerFor(kMetadataContainer);
    if (!meta) return;
    Bytes value;
    BinaryWriter w(value);
    it->second.serialize(w);
    std::vector<segmentstore::TableUpdate> batch(1);
    batch[0].key = kStreamKeyPrefix + scopedName;
    batch[0].value = std::move(value);
    meta->tableUpdate(meta->systemTableSegment(), std::move(batch));
}

// ---- retention ---------------------------------------------------------

void Controller::sweepRetention() {
    for (auto& [name, rec] : streams_) {
        if (rec.config().retention.type == RetentionType::Size) enforceRetention(name, rec);
    }
}

void Controller::enforceRetention(const std::string& scopedName, StreamRecord& rec) {
    // Size-based retention (§2.1): truncate from the head until within the
    // byte budget. Oldest data lives in the earliest epochs' segments.
    uint64_t limit = rec.config().retention.limitBytes;
    struct SegSize {
        SegmentId id;
        int64_t startOffset;
        int64_t length;  // readable length
    };
    std::vector<SegSize> sizes;
    uint64_t total = 0;
    for (const auto& seg : rec.allSegments()) {
        auto* c = containerOf(seg.id);
        if (!c) continue;
        auto info = c->getInfo(seg.id);
        if (!info) continue;
        int64_t retained = info.value().length - info.value().startOffset;
        total += static_cast<uint64_t>(std::max<int64_t>(retained, 0));
        sizes.push_back({seg.id, info.value().startOffset, info.value().length});
    }
    if (total <= limit) return;
    uint64_t excess = total - limit;
    std::map<SegmentId, int64_t> cut;
    // Segments are enumerated oldest-epoch first by allSegments(); trim in
    // that order so the oldest data goes first.
    for (const auto& s : sizes) {
        if (excess == 0) break;
        uint64_t available = static_cast<uint64_t>(std::max<int64_t>(s.length - s.startOffset, 0));
        uint64_t take = std::min(available, excess);
        if (take > 0) {
            cut[s.id] = s.startOffset + static_cast<int64_t>(take);
            excess -= take;
        }
    }
    if (!cut.empty()) {
        PLOG_INFO(kLog, "retention truncating %s by %zu segments", scopedName.c_str(),
                  cut.size());
        truncateStream(scopedName, cut);
    }
}

}  // namespace pravega::controller
