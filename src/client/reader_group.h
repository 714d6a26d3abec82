// Reader groups (§3.3): coordinated, exactly-once distribution of a
// stream's segments across a set of readers.
//
// The group's state — reader membership, segment-to-reader assignment,
// unassigned segments, completed segments, and successor segments being
// held until their predecessors are fully read — lives in a
// StateSynchronizer over a dedicated coordination segment. The invariants
// from the paper hold by construction: no two readers ever own the same
// segment, and a merged segment (Fig 2c's s4) is not assignable until every
// predecessor has been read to its end.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "client/segment_input_stream.h"
#include "client/state_synchronizer.h"
#include "common/bytes.h"
#include "controller/controller.h"

namespace pravega::client {

using segmentstore::SegmentId;

/// The replicated state; mutated only through serialized updates so every
/// participant's copy converges (optimistic concurrency via the sync).
struct ReaderGroupState {
    std::map<std::string, std::set<SegmentId>> assignments;
    std::map<SegmentId, int64_t> unassigned;  // segment → start offset
    std::set<SegmentId> completed;
    /// Successor → predecessors not yet completed (the merge hold).
    std::map<SegmentId, std::set<SegmentId>> future;

    void apply(BytesView update);

    size_t readerCount() const { return assignments.size(); }
    size_t segmentsOwnedBy(const std::string& reader) const;
    size_t totalActiveSegments() const;
    /// Ceil(active segments / readers): the fairness target (§3.3).
    size_t fairShare() const;

    // ---- update builders ----
    static Bytes makeAddReader(const std::string& reader);
    static Bytes makeAddSegments(const std::map<SegmentId, int64_t>& segments);
    static Bytes makeAcquire(const std::string& reader, SegmentId segment);
    static Bytes makeRelease(const std::string& reader, SegmentId segment, int64_t offset);
    static Bytes makeCompleted(const std::string& reader, SegmentId segment,
                               const std::vector<controller::SuccessorRecord>& successors);
};

class EventReader;

/// Factory/handle for a reader group: owns the coordination segment URI and
/// seeds the initial state with the streams' current segments.
class ReaderGroup {
public:
    /// Creates the group (coordination segment + initial state) reading the
    /// given stream from its head.
    static Result<std::shared_ptr<ReaderGroup>> create(sim::Core& exec, sim::Network& net,
                                                       sim::HostId creatorHost,
                                                       controller::Controller& controller,
                                                       const std::string& groupName,
                                                       const std::vector<std::string>& streams,
                                                       ReaderConfig cfg);

    std::unique_ptr<EventReader> createReader(const std::string& readerName,
                                              sim::HostId readerHost);

    const controller::SegmentUri& syncUri() const { return syncUri_; }
    controller::Controller& controller() { return controller_; }
    const ReaderConfig& config() const { return cfg_; }

private:
    ReaderGroup(sim::Core& exec, sim::Network& net, controller::Controller& controller,
                controller::SegmentUri syncUri, ReaderConfig cfg)
        : exec_(exec), net_(net), controller_(controller), syncUri_(std::move(syncUri)),
          cfg_(cfg) {}

    sim::Core& exec_;
    sim::Network& net_;
    controller::Controller& controller_;
    controller::SegmentUri syncUri_;
    ReaderConfig cfg_;
};

}  // namespace pravega::client
