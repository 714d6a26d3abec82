#include "client/event_writer.h"

#include "common/hash.h"
#include "common/logging.h"

namespace pravega::client {

namespace {
constexpr const char* kLog = "event-writer";
}

WriterId EventWriter::nextWriterId_ = 1;

EventWriter::EventWriter(sim::Core& exec, sim::Network& net, sim::HostId clientHost,
                         controller::Controller& controller, std::string scopedStream,
                         WriterConfig cfg)
    : exec_(exec),
      net_(net),
      clientHost_(clientHost),
      controller_(controller),
      scopedStream_(std::move(scopedStream)),
      cfg_(cfg),
      writerId_(nextWriterId_++),
      rng_(writerId_ * 0x9E3779B97F4A7C15ULL) {}

Status EventWriter::initialize() {
    auto segments = controller_.getCurrentSegments(scopedStream_);
    if (!segments) return segments.status();
    ranges_.clear();
    for (const auto& uri : segments.value()) ranges_[uri.record.keyStart] = uri;
    return Status::ok();
}

SegmentOutputStream* EventWriter::openStream(const controller::SegmentUri& uri) {
    auto it = streams_.find(uri.record.id);
    if (it != streams_.end()) return it->second.get();
    auto stream = std::make_unique<SegmentOutputStream>(
        exec_, net_, clientHost_, uri, writerId_, cfg_,
        [this](SegmentId segment, std::vector<SegmentOutputStream::ResendEvent> events) {
            onSealed(segment, std::move(events));
        });
    auto* ptr = stream.get();
    streams_[uri.record.id] = std::move(stream);
    return ptr;
}

SegmentOutputStream* EventWriter::streamForHash(double h) {
    auto it = ranges_.upper_bound(h);
    if (it == ranges_.begin()) return nullptr;
    --it;
    if (!it->second.record.covers(h)) return nullptr;
    return openStream(it->second);
}

void EventWriter::writeEvent(std::string_view routingKey, BytesView payload, EventAck ack) {
    double h = routingKey.empty() ? rng_.nextDouble() : keyHash01(routingKey);
    SegmentOutputStream* stream = streamForHash(h);
    if (!stream) {
        // Routing table stale (scale just committed); refresh and retry once.
        initialize();
        stream = streamForHash(h);
    }
    if (!stream) {
        if (ack) ack(Status(Err::NotFound, "no segment for key"));
        return;
    }
    ++eventsWritten_;
    if (!mSubmitted_) mSubmitted_ = &exec_.metrics().counter("client.writer.events_submitted");
    mSubmitted_->inc();
    if (stream->sealed()) {
        // A scale event is mid-flight for this key range: queue behind the
        // events already awaiting re-route so per-key order is preserved.
        SegmentOutputStream::ResendEvent re;
        re.payload.assign(payload.begin(), payload.end());
        re.keyHash = h;
        re.ack = std::move(ack);
        rerouting_[stream->segment()].push_back(std::move(re));
        return;
    }
    stream->write(payload, h, std::move(ack));
}

void EventWriter::flush() {
    for (auto& [id, stream] : streams_) stream->flush();
}

void EventWriter::simulateReconnect() {
    for (auto& [id, stream] : streams_) stream->reconnect();
}

void EventWriter::onSealed(SegmentId segment,
                           std::vector<SegmentOutputStream::ResendEvent> events) {
    // The harvested (unacknowledged) events go FIRST; writes issued while
    // the re-route is pending (writeEvent's sealed path) append after.
    auto& queue = rerouting_[segment];
    queue.insert(queue.begin(), std::make_move_iterator(events.begin()),
                 std::make_move_iterator(events.end()));
    rerouteWhenReady(segment, {}, 0);
}

void EventWriter::rerouteWhenReady(SegmentId segment,
                                   std::vector<SegmentOutputStream::ResendEvent> /*unused*/,
                                   int attempt) {
    // Fig 2b: successors only become visible after the scale event commits;
    // until then, retry (the segment is sealed, so nothing can be lost).
    auto successors = controller_.getSuccessors(segment);
    if (!successors || successors.value().empty()) {
        if (attempt > 200) {
            PLOG_ERROR(kLog, "successors of %llu never appeared",
                       static_cast<unsigned long long>(segment));
            auto queue = std::move(rerouting_[segment]);
            rerouting_.erase(segment);
            for (auto& e : queue) {
                if (e.ack) e.ack(Status(Err::Timeout, "successor lookup failed"));
            }
            return;
        }
        exec_.schedule(sim::msec(5), life_.guard([this, segment, attempt]() {
            rerouteWhenReady(segment, {}, attempt + 1);
        }));
        return;
    }

    streams_.erase(segment);
    auto queue = std::move(rerouting_[segment]);
    rerouting_.erase(segment);
    Status refreshed = initialize();
    if (!refreshed) {
        for (auto& e : queue) {
            if (e.ack) e.ack(refreshed);
        }
        return;
    }
    exec_.metrics().counter("client.writer.rerouted").inc(queue.size());
    for (auto& e : queue) {
        SegmentOutputStream* stream = streamForHash(e.keyHash);
        if (!stream) {
            if (e.ack) e.ack(Status(Err::NotFound, "no successor for key"));
            continue;
        }
        if (stream->sealed()) {
            // Successor already sealed again (rapid consecutive scales):
            // requeue behind it.
            rerouting_[stream->segment()].push_back(std::move(e));
            continue;
        }
        stream->write(BytesView(e.payload), e.keyHash, std::move(e.ack));
    }
}

}  // namespace pravega::client
