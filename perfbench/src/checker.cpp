#include "checker.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

DeliveryChecker::DeliveryChecker(const PayloadGen& gen, uint32_t writers,
                                 uint32_t fullCompareEvery)
    : gen_(gen),
      fullCompareEvery_(std::max<uint32_t>(fullCompareEvery, 1)),
      events_(writers),
      backlogSeq_(writers, 0),
      lastSeq_(static_cast<size_t>(writers) * gen.keySpace(), 0),
      expected_(gen.eventBytes()) {}

void DeliveryChecker::onSent(uint32_t writer, int64_t now, bool measured) {
    events_[writer].push_back(EventState{now, -1, 0, measured});
    ++sent_;
}

void DeliveryChecker::onAck(uint32_t writer, uint32_t seq, bool ok, int64_t now) {
    EventState& e = events_[writer][seq];
    if (e.acked != -1) return;  // a second ack for one event is ignored
    if (!ok) {
        e.acked = -2;
        ++writeErrors_;
        return;
    }
    e.acked = now;
    ++acked_;
    if (e.measured) ackNs_.push_back(now - e.sent);
}

void DeliveryChecker::onDelivered(const uint8_t* data, size_t size, int64_t now) {
    EventHeader h;
    if (size != gen_.eventBytes()) {
        ++counts_.corrupt;
        return;
    }
    std::memcpy(&h, data, sizeof(h));
    if (h.writer >= events_.size() || h.seq >= events_[h.writer].size() ||
        h.key != gen_.keyOf(h.writer, h.seq) ||
        h.bodyHash != hashBytes(data + PayloadGen::kHeaderBytes,
                                size - PayloadGen::kHeaderBytes)) {
        ++counts_.corrupt;
        return;
    }
    if (gen_.sampled(h.writer, h.seq, fullCompareEvery_)) {
        gen_.fill(h.writer, h.seq, expected_.data());
        if (std::memcmp(expected_.data(), data, size) != 0) {
            ++counts_.corrupt;
            return;
        }
    }
    EventState& e = events_[h.writer][h.seq];
    if (e.delivered != 0) {
        ++counts_.duplicates;
        return;
    }
    e.delivered = 1;
    ++deliveredOnce_;
    deliveredBytes_ += size;
    if (h.seq < backlogSeq_[h.writer] && ++backlogDelivered_ == backlogEvents_) {
        backlogDoneAt_ = now;
        backlogDoneBytes_ = deliveredBytes_;
    }
    uint32_t& last = lastSeq_[static_cast<size_t>(h.writer) * gen_.keySpace() + h.key];
    if (h.seq + 1 <= last) ++counts_.outOfOrder;
    last = std::max(last, h.seq + 1);
    if (e.measured) deliverNs_.push_back(now - e.sent);
}

void DeliveryChecker::markBacklog() {
    backlogEvents_ = 0;
    for (size_t w = 0; w < events_.size(); ++w) {
        backlogSeq_[w] = nextSeq(static_cast<uint32_t>(w));
        backlogEvents_ += backlogSeq_[w];
    }
}

CheckCounts DeliveryChecker::finish() {
    CheckCounts c = counts_;
    c.attempted = sent_;
    c.writeErrors = writeErrors_;
    for (const auto& writer : events_) {
        for (const EventState& e : writer) {
            if (e.acked == -1) ++c.unacked;
            if (e.acked >= 0 && e.delivered == 0) ++c.undelivered;
        }
    }
    return c;
}

double percentileMs(std::vector<int64_t>& v, double p) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
    return static_cast<double>(v[std::min(idx, v.size() - 1)]) / 1e6;
}

}  // namespace perfbench
