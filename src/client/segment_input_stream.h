// SegmentInputStream: buffered reads from one segment, with event framing
// and tail semantics (the server holds the read open until data arrives,
// §4.2), used by EventReader.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "client/container_channel.h"
#include "common/buf_chain.h"
#include "common/bytes.h"
#include "controller/controller.h"
#include "sim/lifetime.h"
#include "sim/network.h"

namespace pravega::client {

struct ReaderConfig {
    uint64_t fetchBytes = 256 * 1024;
};

class SegmentInputStream {
public:
    /// `onData` fires whenever newly fetched bytes (or end-of-segment)
    /// become available, so the reader can wake parked read() calls.
    SegmentInputStream(sim::Core& exec, sim::Network& net, sim::HostId clientHost,
                       controller::SegmentUri uri, int64_t startOffset, ReaderConfig cfg,
                       std::function<void()> onData);

    SegmentInputStream(const SegmentInputStream&) = delete;
    SegmentInputStream& operator=(const SegmentInputStream&) = delete;

    /// Next buffered event, if any. Never blocks.
    std::optional<Bytes> readNextEvent();

    /// True once the segment is sealed and every byte has been consumed.
    bool endOfSegment() const { return endOfSegment_ && buffer_.empty(); }

    /// Offset of the next unconsumed byte (reader-group release/checkpoint).
    int64_t position() const { return bufferStart_; }

    /// Issues a fetch if the buffer is exhausted and none is in flight.
    void ensureFetching();

    /// Unconsumed buffered bytes (bounded-memory regression tests: this
    /// must track the consumer's backlog, not the total bytes fetched).
    size_t bufferedBytes() const { return buffer_.size(); }

    bool failed() const { return failed_; }

private:
    void onFetchComplete(Result<segmentstore::ReadResult> r);

    sim::Core& exec_;
    ContainerChannel channel_;
    controller::SegmentUri uri_;
    ReaderConfig cfg_;
    std::function<void()> onData_;

    /// Unconsumed fetched bytes. Fetch completions append fragments; every
    /// consumed event trims the chain's front, so buffered memory stays
    /// bounded by the unconsumed backlog even under endless tail reads
    /// (the old flat buffer only compacted when FULLY parsed, which a
    /// steady tail-read never reaches — it grew without bound).
    BufChain buffer_;
    int64_t bufferStart_ = 0;   // stream offset of the chain front
    int64_t fetchOffset_ = 0;   // next offset to request
    bool fetching_ = false;
    bool endOfSegment_ = false;
    bool failed_ = false;
    sim::Lifetime life_;
};

}  // namespace pravega::client
