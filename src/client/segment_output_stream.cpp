#include "client/segment_output_stream.h"

#include <algorithm>
#include <cassert>

#include "client/framing.h"
#include "common/logging.h"

namespace pravega::client {

namespace {
constexpr const char* kLog = "writer";
constexpr uint64_t kMaxBatchBytes = 1024 * 1024;        // upper bound on one block
constexpr sim::Duration kMaxBatchTime = sim::msec(10);  // bound on the close timer
constexpr sim::Duration kInitialRttGuess = sim::msec(1);
}  // namespace

SegmentOutputStream::SegmentOutputStream(sim::Core& exec, sim::Network& net,
                                         sim::HostId clientHost,
                                         const controller::SegmentUri& uri, WriterId writerId,
                                         WriterConfig cfg, SealedHandler onSealed)
    : exec_(exec),
      channel_(net, clientHost, uri),
      containerId_(uri.containerId),
      segment_(uri.record.id),
      writerId_(writerId),
      cfg_(cfg),
      onSealed_(std::move(onSealed)),
      rttEstimateNs_(static_cast<double>(kInitialRttGuess)),
      mBlocks_(exec.metrics().counter("client.writer.blocks")),
      mEvents_(exec.metrics().counter("client.writer.events")),
      mBlockBytes_(exec.metrics().histogram("client.writer.block_bytes")),
      mBatchWaitNs_(exec.metrics().histogram("trace.write.0_client_batch_wait_ns")),
      mRttNs_(exec.metrics().histogram("client.writer.rtt_ns")),
      closeTimer_(exec, [this]() {
          if (!open_.events.empty()) closeBlock();
      }) {
    connect();
}

void SegmentOutputStream::connect() {
    // SetupAppend handshake: bind the connection to the container's current
    // owner and fetch the last event number recorded for this writer id, so
    // a resumed writer continues from the right place (§3.2). A reconnecting
    // writer has numbered its unacked blocks already and keeps its count.
    setupDone_ = false;
    boundOwner_ = channel_.owner();
    channel_.call<int64_t>(
        life_, 0,
        [segment = segment_, writer = writerId_](segmentstore::SegmentStore&,
                                                 segmentstore::SegmentContainer& c) {
            return sim::Future<int64_t>::ready(c.getWriterLastEventNumber(segment, writer));
        },
        connection_.guard([this](const Result<int64_t>& last) {
            // A handshake that failed (the container moved while it was on
            // the wire) keeps the count; trySend() then follows the move.
            if (last.isOk() && last.value() != segmentstore::kNullValue) {
                nextEventNumber_ = std::max(nextEventNumber_, last.value() + 1);
            }
            setupDone_ = true;
            trySend();
        }));
}

void SegmentOutputStream::write(BytesView payload, double keyHash, EventAck ack) {
    if (sealedSeen_) {
        // The owner is re-routing; new writes should not land here.
        if (ack) ack(Status(Err::Sealed, "segment sealed"));
        return;
    }
    if (open_.events.empty()) open_.openedAt = exec_.now();
    encodeEvent(open_.data, payload);
    open_.events.push_back(EventRecord{static_cast<uint32_t>(payload.size()), keyHash,
                                       std::move(ack)});

    // Input-rate EWMA (bytes/s) for the batch-size estimate.
    sim::TimePoint now = exec_.now();
    if (lastEventAt_ > 0 && now > lastEventAt_) {
        double instRate = static_cast<double>(payload.size() + kEventHeaderBytes) /
                          sim::toSeconds(now - lastEventAt_);
        inputRateBytesPerSec_ = inputRateBytesPerSec_ * 0.95 + instRate * 0.05;
    }
    lastEventAt_ = now;

    maybeCloseBlock();
}

uint64_t SegmentOutputStream::batchSizeEstimate() const {
    // §4.1: "the batch size is estimated as the minimum between the defined
    // maximum batch size and half the server round trip time" (i.e., the
    // bytes that arrive in RTT/2 at the current input rate).
    double halfRttSec = rttEstimateNs_ / 2.0 / 1e9;
    double bytesInHalfRtt = inputRateBytesPerSec_ * halfRttSec;
    return std::min<uint64_t>(kMaxBatchBytes,
                              std::max<uint64_t>(1, static_cast<uint64_t>(bytesInHalfRtt)));
}

void SegmentOutputStream::maybeCloseBlock() {
    if (open_.data.size() >= batchSizeEstimate()) {
        closeBlock();
        return;
    }
    if (!closeTimer_.armed()) {
        sim::Duration wait = std::min<sim::Duration>(
            kMaxBatchTime, static_cast<sim::Duration>(rttEstimateNs_ / 2.0));
        closeTimer_.arm(std::max<sim::Duration>(wait, 1));
    }
}

void SegmentOutputStream::closeBlock() {
    closeTimer_.cancel();
    if (open_.events.empty()) return;
    // Event numbers are NOT assigned here: the SetupAppend handshake may
    // still be in flight, and numbering must start after the server's last
    // recorded event number (§3.2). sendBlock() numbers each block exactly
    // once, in send order, after setup completes.
    open_.payload = SharedBuf(std::move(open_.data));  // freeze: move, not copy
    sendQueue_.push_back(std::move(open_));
    open_ = Block{};
    trySend();
}

void SegmentOutputStream::flush() {
    if (!open_.events.empty()) closeBlock();
}

void SegmentOutputStream::trySend() {
    if (!setupDone_ || sendQueue_.empty()) return;
    if (channel_.owner() != boundOwner_) {
        // The container moved or failed over since the handshake (§4.4).
        reconnect();
        return;
    }
    // Flow control: the outstanding window is how server-side backpressure
    // (WAL latency, LTS throttling) propagates into client-side queueing.
    while (!sendQueue_.empty() && outstandingBytes_ < cfg_.maxOutstandingBytes) {
        Block block = std::move(sendQueue_.front());
        sendQueue_.pop_front();
        sendBlock(std::move(block));
    }
}

void SegmentOutputStream::sendBlock(Block block) {
    uint64_t wireBytes = block.payload.size() + kWireOverheadBytes;
    outstandingBytes_ += wireBytes;
    block.sentAt = exec_.now();
    if (block.lastEventNumber < 0) {
        // First transmission only (not a retransmit): trace how long the
        // batch accumulated before hitting the wire.
        mBlocks_.inc();
        mEvents_.inc(block.events.size());
        mBlockBytes_.record(static_cast<sim::Duration>(block.payload.size()));
        mBatchWaitNs_.record(block.sentAt - block.openedAt);
        // Number the block's events. Retransmitted blocks keep their
        // numbers so the server can dedup them.
        block.lastEventNumber =
            nextEventNumber_ + static_cast<int64_t>(block.events.size()) - 1;
        nextEventNumber_ = block.lastEventNumber + 1;
    }

    SharedBuf payload = block.payload;  // shared ref; retained for retransmit
    int64_t lastEventNumber = block.lastEventNumber;
    uint32_t eventCount = static_cast<uint32_t>(block.events.size());
    inFlight_.push_back(std::move(block));

    channel_.call<int64_t>(
        // Ids by value: the server-side continuation may outlive this
        // stream object.
        life_, payload.size(),
        [cid = containerId_, segment = segment_, writer = writerId_, payload, lastEventNumber,
         eventCount](segmentstore::SegmentStore& store, segmentstore::SegmentContainer&) {
            return ContainerChannel::charged<int64_t>(
                store, cid, payload.size(), [=](segmentstore::SegmentContainer& c) {
                    return c.append(segment, payload, writer, lastEventNumber, eventCount);
                });
        },
        // A reply from a dropped connection is ignored: it must never pop
        // inFlight_, which the reconnect has already requeued.
        connection_.guard([this, wireBytes](const Result<int64_t>& r) {
            if ((r.code() == Err::ContainerOffline || r.code() == Err::Fenced) &&
                channel_.owner() != boundOwner_) {
                // The container moved or failed over under this block: resend
                // from here to the new owner. An unchanged owner means it died
                // in place and nothing reassigns it: reconnecting would spin.
                reconnect();
                return;
            }
            outstandingBytes_ -= std::min(outstandingBytes_, wireBytes);
            assert(!inFlight_.empty());
            Block acked = std::move(inFlight_.front());
            inFlight_.pop_front();
            onBlockAck(std::move(acked), r);
        }));
}

void SegmentOutputStream::onBlockAck(Block block, const Result<int64_t>& result) {
    double rttSample = static_cast<double>(exec_.now() - block.sentAt);
    rttEstimateNs_ = rttEstimateNs_ * 0.7 + rttSample * 0.3;
    mRttNs_.record(exec_.now() - block.sentAt);

    if (result.isOk()) {
        for (auto& e : block.events) {
            if (e.ack) e.ack(Status::ok());
        }
        trySend();
        return;
    }
    if (result.code() == Err::Sealed) {
        sealedSeen_ = true;
        connection_.reset();  // ignore acks for any later in-flight block
        handleSealed(std::move(block));
        return;
    }
    for (auto& e : block.events) {
        if (e.ack) e.ack(result.status());
    }
    trySend();
}

void SegmentOutputStream::handleSealed(Block first) {
    // Everything unacknowledged — this block, any block still on the wire
    // (all of which the sealed server will reject), queued blocks and the
    // open block — goes back to the owner for re-routing to the successors
    // in original order, preserving per-key order (§3.2).
    std::vector<ResendEvent> events;
    auto harvest = [&events](Block& b) {
        // Closed blocks were frozen into `payload`; only the open block
        // still accumulates in `data`.
        BytesView src = b.payload.empty() ? BytesView(b.data) : b.payload.view();
        size_t pos = 0;
        for (auto& e : b.events) {
            auto payload = decodeEvent(src, pos);
            ResendEvent re;
            if (payload) re.payload.assign(payload->begin(), payload->end());
            re.keyHash = e.keyHash;
            re.ack = std::move(e.ack);
            events.push_back(std::move(re));
        }
    };
    harvest(first);
    for (auto& b : inFlight_) harvest(b);
    inFlight_.clear();
    for (auto& b : sendQueue_) harvest(b);
    sendQueue_.clear();
    harvest(open_);
    open_ = Block{};
    outstandingBytes_ = 0;
    closeTimer_.cancel();
    PLOG_DEBUG(kLog, "segment %llu sealed; re-routing %zu events",
               static_cast<unsigned long long>(segment_), events.size());
    if (onSealed_) onSealed_(segment_, std::move(events));
}

void SegmentOutputStream::reconnect() {
    // Drop the connection: ignore in-flight acks, re-run the handshake and
    // retransmit everything unacknowledged. Server-side dedup (by writer id
    // and event number) turns retransmitted duplicates into no-op acks.
    connection_.reset();
    while (!inFlight_.empty()) {
        sendQueue_.push_front(std::move(inFlight_.back()));
        inFlight_.pop_back();
    }
    outstandingBytes_ = 0;
    connect();
}

}  // namespace pravega::client
