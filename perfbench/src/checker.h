// Delivery checker: exactly-once delivery, per-(writer, key) order and byte
// identity of every event the benchmark writes.
//
// Writers report each send and its ack; readers report each delivered
// payload. Every delivery's header is validated (writer, sequence, key
// derived from the seed, body hash), and a seeded sample of events is
// regenerated and compared byte for byte. `finish()` counts every acked
// event that was never delivered. Latency samples (virtual ns) are kept raw
// for events marked as measured.
#pragma once

#include <cstdint>
#include <vector>

#include "payload.h"

namespace perfbench {

struct CheckCounts {
    uint64_t attempted = 0;    // events written
    uint64_t writeErrors = 0;  // acked with an error status
    uint64_t unacked = 0;      // no ack by the grace deadline
    uint64_t undelivered = 0;  // acked, never delivered
    uint64_t duplicates = 0;
    uint64_t outOfOrder = 0;
    uint64_t corrupt = 0;  // bad header, body hash or sampled bytes
    uint64_t failed() const {
        return writeErrors + unacked + undelivered + duplicates + outOfOrder + corrupt;
    }
};

class DeliveryChecker {
public:
    /// `fullCompareEvery`: 1 in N events (seeded) are compared byte for byte.
    DeliveryChecker(const PayloadGen& gen, uint32_t writers, uint32_t fullCompareEvery = 16);

    /// Sequence number the next event of `writer` gets.
    uint32_t nextSeq(uint32_t writer) const {
        return static_cast<uint32_t>(events_[writer].size());
    }
    /// Records the send of (writer, nextSeq(writer)) at virtual time `now`;
    /// `measured` events contribute latency samples.
    void onSent(uint32_t writer, int64_t now, bool measured);
    void onAck(uint32_t writer, uint32_t seq, bool ok, int64_t now);
    void onDelivered(const uint8_t* data, size_t size, int64_t now);

    /// Marks every event sent so far as the backlog.
    void markBacklog();
    bool backlogDelivered() const { return backlogDelivered_ >= backlogEvents_; }
    /// Virtual time of the delivery that completed the backlog (-1: not yet).
    int64_t backlogDoneAt() const { return backlogDoneAt_; }
    /// Bytes delivered up to and including that delivery.
    uint64_t backlogDoneBytes() const { return backlogDoneBytes_; }

    uint64_t sent() const { return sent_; }
    uint64_t acked() const { return acked_; }
    uint64_t deliveredBytes() const { return deliveredBytes_; }
    bool known(uint32_t writer, uint32_t seq) const {
        return writer < events_.size() && seq < events_[writer].size();
    }
    int64_t sentAt(uint32_t writer, uint32_t seq) const { return events_[writer][seq].sent; }
    bool allAcked() const { return acked_ + writeErrors_ >= sent_; }
    /// Every sent event is acked (or failed) and every acked one delivered.
    bool settled() const {
        return allAcked() && deliveredOnce_ >= acked_;
    }

    /// Final tally; call once, after the grace period.
    CheckCounts finish();

    std::vector<int64_t>& ackSamples() { return ackNs_; }
    std::vector<int64_t>& deliverSamples() { return deliverNs_; }

private:
    struct EventState {
        int64_t sent = 0;
        int64_t acked = -1;  // -1 pending, -2 failed
        uint8_t delivered = 0;
        bool measured = false;
    };

    const PayloadGen& gen_;
    uint32_t fullCompareEvery_;
    std::vector<std::vector<EventState>> events_;
    std::vector<uint32_t> backlogSeq_;  // per writer: seqs below are backlog
    /// Last delivered seq + 1 per (writer, key); 0 = none yet.
    std::vector<uint32_t> lastSeq_;
    std::vector<uint8_t> expected_;
    std::vector<int64_t> ackNs_;
    std::vector<int64_t> deliverNs_;
    uint64_t sent_ = 0;
    uint64_t acked_ = 0;
    uint64_t writeErrors_ = 0;
    uint64_t deliveredOnce_ = 0;
    uint64_t deliveredBytes_ = 0;
    uint64_t backlogEvents_ = 0;
    uint64_t backlogDelivered_ = 0;
    int64_t backlogDoneAt_ = -1;
    uint64_t backlogDoneBytes_ = 0;
    CheckCounts counts_;
};

/// Exact percentile (nearest rank) of raw ns samples, in ms; sorts `v`.
double percentileMs(std::vector<int64_t>& v, double p);

}  // namespace perfbench
