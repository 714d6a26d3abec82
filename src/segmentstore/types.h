// Segment store shared types.
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.h"

namespace pravega::segmentstore {

/// Segment ids encode the stream epoch that created them in the high 32
/// bits and the segment number in the low 32 bits (as in Pravega).
using SegmentId = uint64_t;

constexpr SegmentId makeSegmentId(uint32_t epoch, uint32_t number) {
    return (static_cast<uint64_t>(epoch) << 32) | number;
}
constexpr uint32_t epochOf(SegmentId id) { return static_cast<uint32_t>(id >> 32); }
constexpr uint32_t numberOf(SegmentId id) { return static_cast<uint32_t>(id); }

/// Writer identity used for the exactly-once dedup protocol (§3.2).
using WriterId = uint64_t;

/// Attribute ids: per-segment key→int64 attributes; writer ids map into
/// the attribute key space (segment attributes, §3.2).
using AttributeId = uint64_t;

/// Reserved attribute value meaning "attribute absent" (mirrors Pravega's
/// Attributes.NULL_ATTRIBUTE_VALUE).
constexpr int64_t kNullValue = INT64_MIN;

struct SegmentProperties {
    SegmentId id = 0;
    std::string name;
    int64_t length = 0;          // next append offset
    int64_t startOffset = 0;     // truncation point
    int64_t storageLength = 0;   // bytes durably moved to LTS
    bool sealed = false;
    bool deleted = false;
    bool isTable = false;        // table segments back KV metadata (§4.3)
};

}  // namespace pravega::segmentstore
