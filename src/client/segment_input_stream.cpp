#include "client/segment_input_stream.h"

#include "client/framing.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace pravega::client {

SegmentInputStream::SegmentInputStream(sim::Core& exec, sim::Network& net,
                                       sim::HostId clientHost, controller::SegmentUri uri,
                                       int64_t startOffset, ReaderConfig cfg,
                                       std::function<void()> onData)
    : exec_(exec),
      channel_(net, clientHost, uri),
      uri_(std::move(uri)),
      cfg_(cfg),
      onData_(std::move(onData)),
      bufferStart_(startOffset),
      fetchOffset_(startOffset) {
    ensureFetching();
}

std::optional<Bytes> SegmentInputStream::readNextEvent() {
    if (failed_) return std::nullopt;  // a failed stream stays failed
    uint32_t len = 0;
    DecodeStatus st = peekEvent(buffer_, len);
    if (st == DecodeStatus::Corrupt) {
        // A length prefix above the protocol bound means the stream is
        // desynchronized or the frame is damaged — retrying or resizing the
        // fetch cannot fix it, so fail the stream instead of looping.
        failed_ = true;
        exec_.metrics().counter("client.frame.corrupt").inc();
        PLOG_WARN("reader", "corrupt event frame at offset %lld (len=%u)",
                  static_cast<long long>(bufferStart_), len);
        if (onData_) onData_();
        return std::nullopt;
    }
    if (st != DecodeStatus::Ok) {
        ensureFetching();
        return std::nullopt;
    }
    Bytes out(len);
    buffer_.copyOut(kEventHeaderBytes, len, out.data());
    // Trim the consumed prefix immediately: buffered memory stays bounded
    // by the unconsumed backlog, never by total bytes read.
    buffer_.trimFront(kEventHeaderBytes + static_cast<size_t>(len));
    bufferStart_ += static_cast<int64_t>(kEventHeaderBytes) + len;
    if (buffer_.empty()) ensureFetching();
    return out;
}

void SegmentInputStream::ensureFetching() {
    if (fetching_ || endOfSegment_ || failed_) return;
    fetching_ = true;
    channel_.call<segmentstore::ReadResult>(
        life_, 0,
        [cid = uri_.containerId, id = uri_.record.id, offset = fetchOffset_,
         bytes = static_cast<int64_t>(cfg_.fetchBytes)](segmentstore::SegmentStore& store,
                                                        segmentstore::SegmentContainer&) {
            return ContainerChannel::charged<segmentstore::ReadResult>(
                store, cid, 0,
                [=](segmentstore::SegmentContainer& c) { return c.read(id, offset, bytes); });
        },
        life_.guard([this](Result<segmentstore::ReadResult>&& r) {
            onFetchComplete(std::move(r));
        }));
}

void SegmentInputStream::onFetchComplete(Result<segmentstore::ReadResult> r) {
    fetching_ = false;
    if (!r.isOk()) {
        // Container offline mid-read is transient during a move or
        // failover; the retry goes to the new owner.
        if (r.code() == Err::ContainerOffline || r.code() == Err::Timeout) {
            exec_.schedule(sim::msec(10), life_.guard([this]() { ensureFetching(); }));
            return;
        }
        failed_ = true;
        PLOG_WARN("reader", "segment read failed: %s", r.status().toString().c_str());
        if (onData_) onData_();
        return;
    }
    auto& res = r.value();
    if (!res.data.empty()) {
        // The reply is this reader's alone: adopt its bytes, copy nothing.
        fetchOffset_ += static_cast<int64_t>(res.data.size());
        buffer_.append(SharedBuf(std::move(res.data)));
    }
    if (res.endOfSegment) endOfSegment_ = true;
    if (onData_) onData_();
    // Keep the pipe primed for tail reads unless we are done or the buffer
    // already holds plenty of unparsed data.
    if (!endOfSegment_ && buffer_.size() < cfg_.fetchBytes) ensureFetching();
}

}  // namespace pravega::client
