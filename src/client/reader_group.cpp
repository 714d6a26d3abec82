#include "client/reader_group.h"

#include <algorithm>

#include "client/event_reader.h"
#include "common/logging.h"
#include "common/serde.h"

namespace pravega::client {

namespace {
enum class UpdateTag : uint8_t {
    AddReader = 1,
    AddSegments = 3,
    Acquire = 4,
    Release = 5,
    Completed = 6,
};
}  // namespace

size_t ReaderGroupState::segmentsOwnedBy(const std::string& reader) const {
    auto it = assignments.find(reader);
    return it == assignments.end() ? 0 : it->second.size();
}

size_t ReaderGroupState::totalActiveSegments() const {
    size_t n = unassigned.size();
    for (const auto& [reader, segs] : assignments) n += segs.size();
    return n;
}

size_t ReaderGroupState::fairShare() const {
    size_t readers = std::max<size_t>(readerCount(), 1);
    size_t total = totalActiveSegments();
    return (total + readers - 1) / readers;
}

void ReaderGroupState::apply(BytesView update) {
    BinaryReader r(update);
    auto tag = r.u8();
    if (!tag) return;
    switch (static_cast<UpdateTag>(tag.value())) {
        case UpdateTag::AddReader: {
            auto name = r.str();
            if (name) assignments.try_emplace(name.value());
            break;
        }
        case UpdateTag::AddSegments: {
            auto n = r.varint();
            if (!n) return;
            for (uint64_t i = 0; i < n.value(); ++i) {
                auto seg = r.u64();
                auto off = r.i64();
                if (!seg || !off) return;
                unassigned.emplace(seg.value(), off.value());
            }
            break;
        }
        case UpdateTag::Acquire: {
            auto name = r.str();
            auto seg = r.u64();
            if (!name || !seg) return;
            auto it = unassigned.find(seg.value());
            if (it != unassigned.end()) {
                assignments[name.value()].insert(seg.value());
                unassigned.erase(it);
            }
            break;
        }
        case UpdateTag::Release: {
            auto name = r.str();
            auto seg = r.u64();
            auto off = r.i64();
            if (!name || !seg || !off) return;
            auto it = assignments.find(name.value());
            if (it != assignments.end() && it->second.erase(seg.value()) > 0) {
                unassigned.emplace(seg.value(), off.value());
            }
            break;
        }
        case UpdateTag::Completed: {
            auto name = r.str();
            auto seg = r.u64();
            auto n = r.varint();
            if (!name || !seg || !n) return;
            auto it = assignments.find(name.value());
            if (it != assignments.end()) it->second.erase(seg.value());
            completed.insert(seg.value());
            for (uint64_t i = 0; i < n.value(); ++i) {
                auto succ = r.u64();
                auto pc = r.varint();
                if (!succ || !pc) return;
                auto& preds = future[succ.value()];
                for (uint64_t j = 0; j < pc.value(); ++j) {
                    auto p = r.u64();
                    if (!p) return;
                    if (!completed.contains(p.value())) preds.insert(p.value());
                }
            }
            // Promote successors whose predecessors are all completed and
            // drop completed predecessors from every hold (Fig 2c).
            for (auto fit = future.begin(); fit != future.end();) {
                for (auto pit = fit->second.begin(); pit != fit->second.end();) {
                    if (completed.contains(*pit)) {
                        pit = fit->second.erase(pit);
                    } else {
                        ++pit;
                    }
                }
                if (fit->second.empty()) {
                    if (!completed.contains(fit->first)) {
                        unassigned.emplace(fit->first, 0);
                    }
                    fit = future.erase(fit);
                } else {
                    ++fit;
                }
            }
            break;
        }
    }
}

Bytes ReaderGroupState::makeAddReader(const std::string& reader) {
    Bytes out;
    BinaryWriter w(out);
    w.u8(static_cast<uint8_t>(UpdateTag::AddReader));
    w.str(reader);
    return out;
}

Bytes ReaderGroupState::makeAddSegments(const std::map<SegmentId, int64_t>& segments) {
    Bytes out;
    BinaryWriter w(out);
    w.u8(static_cast<uint8_t>(UpdateTag::AddSegments));
    w.varint(segments.size());
    for (const auto& [seg, off] : segments) {
        w.u64(seg);
        w.i64(off);
    }
    return out;
}

Bytes ReaderGroupState::makeAcquire(const std::string& reader, SegmentId segment) {
    Bytes out;
    BinaryWriter w(out);
    w.u8(static_cast<uint8_t>(UpdateTag::Acquire));
    w.str(reader);
    w.u64(segment);
    return out;
}

Bytes ReaderGroupState::makeRelease(const std::string& reader, SegmentId segment,
                                    int64_t offset) {
    Bytes out;
    BinaryWriter w(out);
    w.u8(static_cast<uint8_t>(UpdateTag::Release));
    w.str(reader);
    w.u64(segment);
    w.i64(offset);
    return out;
}

Bytes ReaderGroupState::makeCompleted(const std::string& reader, SegmentId segment,
                                      const std::vector<controller::SuccessorRecord>& succ) {
    Bytes out;
    BinaryWriter w(out);
    w.u8(static_cast<uint8_t>(UpdateTag::Completed));
    w.str(reader);
    w.u64(segment);
    w.varint(succ.size());
    for (const auto& s : succ) {
        w.u64(s.segment.id);
        w.varint(s.predecessors.size());
        for (SegmentId p : s.predecessors) w.u64(p);
    }
    return out;
}

Result<std::shared_ptr<ReaderGroup>> ReaderGroup::create(
    sim::Core& exec, sim::Network& net, sim::HostId creatorHost,
    controller::Controller& controller, const std::string& groupName,
    const std::vector<std::string>& streams, ReaderConfig cfg) {
    auto uri = controller.createInternalSegment("_readergroups/" + groupName);
    if (!uri) return uri.status();

    // Seed the shared state: the creator registers the streams' HEAD
    // segments (earliest epoch) as unassigned; segments created by later
    // scale events are discovered through the successor protocol, which is
    // what preserves per-key order across scaling (§3.3).
    std::map<SegmentId, int64_t> initial;
    for (const auto& stream : streams) {
        auto segments = controller.getHeadSegments(stream);
        if (!segments) return segments.status();
        for (const auto& s : segments.value()) {
            auto* container = s.registry->containerFor(s.containerId);
            auto info = container ? container->getInfo(s.record.id)
                                  : Result<segmentstore::SegmentProperties>(Err::ContainerOffline);
            initial[s.record.id] = info ? info.value().startOffset : 0;
        }
    }
    auto group = std::shared_ptr<ReaderGroup>(
        new ReaderGroup(exec, net, controller, uri.value(), cfg));

    auto seed = std::make_shared<StateSynchronizer<ReaderGroupState>>(exec, net, creatorHost,
                                                                      uri.value());
    seed->updateState([initial](const ReaderGroupState&) {
          return std::optional<Bytes>(ReaderGroupState::makeAddSegments(initial));
      })
        .onComplete([seed](const Result<bool>&) { /* keep seed alive until done */ });
    return group;
}

std::unique_ptr<EventReader> ReaderGroup::createReader(const std::string& readerName,
                                                       sim::HostId readerHost) {
    return std::make_unique<EventReader>(exec_, net_, readerHost, controller_, syncUri_,
                                         readerName, cfg_);
}

}  // namespace pravega::client
