// Stream metadata: epochs, key-space ranges, and the successor graph that
// orders segments across scaling events (§3.1–§3.2).
//
// A stream's history is a sequence of epochs; each scale event seals some
// segments of the current epoch and replaces them with successors covering
// exactly the same key-space range. The metadata built here is what lets
// writers and readers preserve per-key order across scaling (Fig 2).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/serde.h"
#include "segmentstore/types.h"

namespace pravega::controller {

using segmentstore::SegmentId;

enum class ScaleType : uint8_t {
    Fixed = 0,         // never auto-scales
    ByRateEvents = 1,  // target events/second per segment
    ByRateBytes = 2,   // target bytes/second per segment
};

struct ScalingPolicy {
    ScaleType type = ScaleType::Fixed;
    double targetRate = 0;  // events/s or bytes/s depending on type
    int scaleFactor = 2;    // segments a hot segment splits into
    int minSegments = 1;
};

enum class RetentionType : uint8_t { None = 0, Size = 1, Time = 2 };

struct RetentionPolicy {
    RetentionType type = RetentionType::None;
    uint64_t limitBytes = 0;       // for Size
    sim::Duration limitTime = 0;   // for Time
};

struct StreamConfig {
    int initialSegments = 1;
    ScalingPolicy scaling;
    RetentionPolicy retention;
};

/// One segment's entry in an epoch: the key-space range it owns.
struct SegmentRecord {
    SegmentId id = 0;
    double keyStart = 0.0;
    double keyEnd = 1.0;  // exclusive

    bool covers(double h) const { return keyStart <= h && h < keyEnd; }
    friend bool operator==(const SegmentRecord&, const SegmentRecord&) = default;
};

struct EpochRecord {
    uint32_t epoch = 0;
    std::vector<SegmentRecord> segments;  // sorted by keyStart
};

/// A successor segment together with the sealed predecessors it replaces —
/// the reader needs the predecessor list to know when it may start (§3.3).
struct SuccessorRecord {
    SegmentRecord segment;
    std::vector<SegmentId> predecessors;
};

class StreamRecord {
public:
    StreamRecord() = default;
    StreamRecord(std::string scopedName, StreamConfig config, uint32_t firstSegmentNumber);

    const std::string& name() const { return name_; }
    const StreamConfig& config() const { return config_; }

    const EpochRecord& currentEpoch() const { return epochs_.back(); }
    const std::vector<EpochRecord>& epochs() const { return epochs_; }
    bool sealedForAppend() const { return sealed_; }
    void markSealed() { sealed_ = true; }

    /// Segment of the current epoch owning hash `h` ∈ [0,1).
    Result<SegmentRecord> segmentForKey(double h) const;

    Result<SegmentRecord> findSegment(SegmentId id) const;

    /// Validates a scale request: `toSeal` must be current-epoch segments
    /// and `newRanges` must exactly cover their combined key space.
    Status validateScale(const std::vector<SegmentId>& toSeal,
                         const std::vector<std::pair<double, double>>& newRanges) const;

    /// Phase 1 of a scale event: validates and allocates the successor
    /// records WITHOUT committing the epoch. The controller creates the
    /// new segments and seals the old ones between plan and commit, so no
    /// writer can see successors before predecessors are sealed (Fig 2b).
    Result<std::vector<SegmentRecord>> planScale(
        const std::vector<SegmentId>& toSeal,
        const std::vector<std::pair<double, double>>& newRanges, uint32_t& nextSegmentNumber);

    /// Phase 2: commits the next epoch and the successor graph.
    Status commitScale(const std::vector<SegmentId>& toSeal,
                       const std::vector<SegmentRecord>& created);

    /// plan + commit in one step (tests and single-actor callers).
    Result<std::vector<SegmentRecord>> applyScale(
        const std::vector<SegmentId>& toSeal,
        const std::vector<std::pair<double, double>>& newRanges, uint32_t& nextSegmentNumber);

    /// Successors of a sealed segment with their predecessor lists; empty
    /// when the segment is still active in the current epoch.
    std::vector<SuccessorRecord> successorsOf(SegmentId id) const;

    /// All segments ever created (for deletes / historical reads).
    std::vector<SegmentRecord> allSegments() const;

    uint32_t scaleEvents() const { return static_cast<uint32_t>(epochs_.size()) - 1; }

    void serialize(BinaryWriter& w) const;
    static Result<StreamRecord> deserialize(BinaryReader& r);

private:
    std::string name_;
    StreamConfig config_;
    std::vector<EpochRecord> epochs_;
    std::map<SegmentId, std::vector<SuccessorRecord>> successors_;
    bool sealed_ = false;
};

}  // namespace pravega::controller
