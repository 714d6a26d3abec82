// SegmentOutputStream: the per-segment append pipe with Pravega's adaptive
// client batching (§4.1, Fig 3).
//
// Unlike clients that hold data until a batch fills, the Pravega writer
// starts a block and closes it using a tracking heuristic: the block size
// estimate is min(maxBatchSize, bytes that arrive in half the server round
// trip), from EWMAs of input rate and measured RTT. Blocks queue client-side
// only when the outstanding-byte window is full (server backpressure), which
// is how LTS throttling propagates to writers.
//
// The stream also implements the exactly-once protocol (§3.2): every block
// carries the count and last event number; on reconnect the server replies
// with the last event number it recorded for this writer id and the stream
// retransmits only what is missing.
// A connection is bound to the owner its handshake went to; when a move
// or failover (§4.4) changes the owner, the stream reconnects to the new
// one (DESIGN.md §14).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "client/container_channel.h"
#include "common/bytes.h"
#include "common/result.h"
#include "controller/controller.h"
#include "segmentstore/types.h"
#include "sim/lifetime.h"
#include "sim/network.h"
#include "sim/timer.h"

namespace pravega::client {

using segmentstore::SegmentId;
using segmentstore::WriterId;

struct WriterConfig {
    uint64_t maxOutstandingBytes = 16 * 1024 * 1024;  // connection window
};

/// Callback invoked when an event is durably acknowledged (or failed).
using EventAck = std::function<void(Status)>;

class SegmentOutputStream {
public:
    /// Per-event bookkeeping kept until acknowledgement. Payload bytes live
    /// once, in the block buffer; on a seal they are re-parsed from it.
    struct EventRecord {
        uint32_t size;   // unframed payload size
        double keyHash;  // for re-routing to successors after a seal
        EventAck ack;    // may be empty
    };
    /// An unacknowledged event handed back for re-routing after a seal.
    struct ResendEvent {
        Bytes payload;  // unframed
        double keyHash;
        EventAck ack;
    };
    /// Invoked when the segment is sealed: unacked events (in append order)
    /// must be re-routed by the owner (EventWriter) via the successors.
    using SealedHandler = std::function<void(SegmentId, std::vector<ResendEvent>)>;

    SegmentOutputStream(sim::Core& exec, sim::Network& net, sim::HostId clientHost,
                        const controller::SegmentUri& uri, WriterId writerId, WriterConfig cfg,
                        SealedHandler onSealed);

    SegmentOutputStream(const SegmentOutputStream&) = delete;
    SegmentOutputStream& operator=(const SegmentOutputStream&) = delete;

    /// Buffers one event (framed) into the open block.
    void write(BytesView payload, double keyHash, EventAck ack);

    /// Forces the open block out (used on writer flush()).
    void flush();

    /// Drops the connection: outstanding blocks are considered
    /// unacknowledged and are retransmitted after the reconnect handshake,
    /// relying on server-side dedup for exactly-once (§3.2).
    void reconnect();

    SegmentId segment() const { return segment_; }
    bool sealed() const { return sealedSeen_; }

private:
    struct Block {
        Bytes data;         // open-block accumulation buffer (framing target)
        /// Frozen at closeBlock(): ownership of `data` moves here, and the
        /// same immutable buffer is shared by the wire send, server-side
        /// append, and any retransmit — the old per-send copyOf is gone.
        SharedBuf payload;
        std::vector<EventRecord> events;
        int64_t lastEventNumber = -1;
        sim::TimePoint openedAt = 0;
        sim::TimePoint sentAt = 0;
    };

    void connect();
    uint64_t batchSizeEstimate() const;
    void maybeCloseBlock();
    void closeBlock();
    void trySend();
    void sendBlock(Block block);
    void onBlockAck(Block block, const Result<int64_t>& result);
    void handleSealed(Block first);

    sim::Core& exec_;
    ContainerChannel channel_;
    uint32_t containerId_;
    SegmentId segment_;
    WriterId writerId_;
    WriterConfig cfg_;
    SealedHandler onSealed_;

    Block open_;

    std::deque<Block> sendQueue_;   // closed blocks waiting for window
    std::deque<Block> inFlight_;    // sent, not yet acked
    uint64_t outstandingBytes_ = 0;

    int64_t nextEventNumber_ = 0;
    bool sealedSeen_ = false;
    bool setupDone_ = false;
    segmentstore::SegmentStore* boundOwner_ = nullptr;  // answered the handshake

    // Tracking heuristic state.
    double rttEstimateNs_;
    double inputRateBytesPerSec_ = 0;
    sim::TimePoint lastEventAt_ = 0;

    // World-aggregate client-writer metrics.
    obs::Counter& mBlocks_;
    obs::Counter& mEvents_;
    obs::LatencyHistogram& mBlockBytes_;
    obs::LatencyHistogram& mBatchWaitNs_;
    obs::LatencyHistogram& mRttNs_;

    sim::Lifetime life_;
    sim::Timer closeTimer_;
    sim::Lifetime connection_;  // reset when the connection drops
};

}  // namespace pravega::client
