// EventWriter: the public write API (§2.1, §3.2).
//
// Routes each event by its routing key's hash onto the owning segment of
// the stream's current epoch and appends through a SegmentOutputStream per
// segment. Handles stream auto-scaling transparently: when a segment is
// sealed, unacknowledged events are re-routed (in order, preserving per-key
// order) to the successor segments obtained from the controller (Fig 2b).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "client/segment_output_stream.h"
#include "controller/controller.h"
#include "obs/metrics.h"
#include "sim/lifetime.h"
#include "sim/network.h"
#include "sim/random.h"

namespace pravega::client {

class EventWriter {
public:
    EventWriter(sim::Core& exec, sim::Network& net, sim::HostId clientHost,
                controller::Controller& controller, std::string scopedStream, WriterConfig cfg);

    /// Fetches the stream's current segments; must succeed before writing.
    Status initialize();

    /// Appends one event. Events with the same (non-empty) routing key are
    /// totally ordered; an empty key gets a random one (no order implied).
    /// `ack` (optional) fires when the event is durable.
    void writeEvent(std::string_view routingKey, BytesView payload, EventAck ack = {});

    /// Flushes all open blocks.
    void flush();

    WriterId id() const { return writerId_; }
    uint64_t eventsWritten() const { return eventsWritten_; }

    /// Test hook: drop and re-establish every segment connection.
    void simulateReconnect();

private:
    SegmentOutputStream* streamForHash(double h);
    SegmentOutputStream* openStream(const controller::SegmentUri& uri);
    void onSealed(SegmentId segment, std::vector<SegmentOutputStream::ResendEvent> events);
    void rerouteWhenReady(SegmentId segment,
                          std::vector<SegmentOutputStream::ResendEvent> events, int attempt);

    sim::Core& exec_;
    sim::Network& net_;
    sim::HostId clientHost_;
    controller::Controller& controller_;
    std::string scopedStream_;
    WriterConfig cfg_;
    WriterId writerId_;

    /// Current-epoch ranges: keyStart → uri (for O(log n) hash routing).
    std::map<double, controller::SegmentUri> ranges_;
    std::map<SegmentId, std::unique_ptr<SegmentOutputStream>> streams_;
    /// Events awaiting successor re-route per sealed segment, in append
    /// order: the harvest of unacked events first, then any writes issued
    /// while the scale event is still committing.
    std::map<SegmentId, std::vector<SegmentOutputStream::ResendEvent>> rerouting_;
    sim::Rng rng_;
    uint64_t eventsWritten_ = 0;
    /// `client.writer.events_submitted`, looked up at the first event so a
    /// writer that never writes adds nothing to the registry dump.
    obs::Counter* mSubmitted_ = nullptr;

    static WriterId nextWriterId_;
    sim::Lifetime life_;  // successor-retry timer
};

}  // namespace pravega::client
