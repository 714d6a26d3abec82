// The Pravega control plane (§2.2): orchestrates stream life-cycle
// operations (create, scale, truncate, seal, delete), enforces stream
// policies, maps segments to containers with the stateless uniform hash,
// and stores its own metadata in Pravega itself via the key-value table
// API — ZooKeeper is only used for container assignment.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/coordination.h"
#include "common/hash.h"
#include "controller/stream_metadata.h"
#include "segmentstore/segment_store.h"
#include "sim/machine.h"
#include "sim/future.h"
#include "sim/lifetime.h"
#include "sim/timer.h"

namespace pravega::controller {

/// Where a client should direct traffic for a segment: its container, and
/// the registry that names the container's owner. The owner itself is not
/// cached here — a move or failover changes it (§4.4) — so clients ask the
/// registry on every request (client::ContainerChannel).
struct SegmentUri {
    SegmentRecord record;
    uint32_t containerId = 0;
    cluster::ContainerRegistry* registry = nullptr;
};

class Controller {
public:
    Controller(sim::Core& exec, cluster::ContainerRegistry& registry);

    // ---- stream life-cycle --------------------------------------------
    Status createScope(const std::string& scope);
    sim::Future<sim::Unit> createStream(const std::string& scope, const std::string& stream,
                                        StreamConfig config);
    sim::Future<sim::Unit> sealStream(const std::string& scopedName);
    sim::Future<sim::Unit> deleteStream(const std::string& scopedName);

    /// Explicit (manual) scale; the auto-scaler uses the same entry point.
    sim::Future<sim::Unit> scaleStream(const std::string& scopedName,
                                       const std::vector<SegmentId>& toSeal,
                                       const std::vector<std::pair<double, double>>& newRanges);

    /// Truncates the stream at a stream cut (segment → offset).
    sim::Future<sim::Unit> truncateStream(const std::string& scopedName,
                                          const std::map<SegmentId, int64_t>& cut);

    /// Allocates a standalone segment outside any stream (reader-group
    /// coordination segments, state synchronizers, KV tables).
    Result<SegmentUri> createInternalSegment(const std::string& name, bool isTable = false);

    // ---- client metadata queries --------------------------------------
    Result<std::vector<SegmentUri>> getCurrentSegments(const std::string& scopedName) const;
    /// Segments at the head of the stream (the earliest epoch): where a
    /// reader group starts; later segments are discovered via successors.
    Result<std::vector<SegmentUri>> getHeadSegments(const std::string& scopedName) const;
    Result<std::vector<SuccessorRecord>> getSuccessors(SegmentId segment) const;
    Result<SegmentUri> uriOf(SegmentId segment) const;
    /// Scoped stream name owning `segment` (NotFound for internal segments).
    Result<std::string> streamOf(SegmentId segment) const;
    Result<const StreamRecord*> getStream(const std::string& scopedName) const;

    bool streamExists(const std::string& scopedName) const {
        return streams_.contains(scopedName);
    }

    /// True while a scale operation is in flight for the stream (used by
    /// the auto-scaler to avoid overlapping scale events).
    bool isScaling(const std::string& scopedName) const { return scaling_.contains(scopedName); }

    // ---- stats ---------------------------------------------------------
    uint32_t scaleEventCount(const std::string& scopedName) const;

private:
    friend class AutoScaler;

    segmentstore::SegmentContainer* containerOf(SegmentId segment) const;
    SegmentUri uriFor(const SegmentRecord& record) const;
    sim::Future<sim::Unit> createSegmentObjects(const std::string& scopedName,
                                                const std::vector<SegmentRecord>& records);
    void persist(const std::string& scopedName);
    void sweepRetention();
    void enforceRetention(const std::string& scopedName, StreamRecord& rec);

    sim::Core& exec_;
    cluster::ContainerRegistry& registry_;

    std::map<std::string, StreamRecord> streams_;
    std::map<std::string, bool> scopes_;
    std::map<SegmentId, std::string> segmentToStream_;
    std::map<SegmentId, SegmentRecord> internalSegments_;
    std::map<std::string, bool> scaling_;
    uint32_t nextSegmentNumber_ = 1;
    sim::Timer retention_;  // size-based retention sweep
    /// Scale continuations. Declared last: container shutdown cascades can
    /// fire completions during teardown.
    sim::Lifetime life_;
};

}  // namespace pravega::controller
