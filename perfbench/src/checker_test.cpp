// Self-test of the delivery checker: a clean delivery passes, and a dropped,
// duplicated, reordered or bit-flipped delivery is counted as failed.
// Exits non-zero on the first check that does not hold.
#include <cstdio>
#include <vector>

#include "checker.h"

namespace {

using perfbench::CheckCounts;
using perfbench::DeliveryChecker;
using perfbench::PayloadGen;

int failures = 0;

void expect(bool cond, const char* what) {
    if (!cond) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

struct Event {
    uint32_t writer;
    uint32_t seq;
    std::vector<uint8_t> bytes;
};

/// Writes `perWriter` events from each of two writers, all acked; returns
/// them in send order.
std::vector<Event> sendAll(const PayloadGen& gen, DeliveryChecker& chk, uint32_t perWriter) {
    std::vector<Event> out;
    for (uint32_t i = 0; i < perWriter; ++i) {
        for (uint32_t w = 0; w < 2; ++w) {
            Event e{w, chk.nextSeq(w), std::vector<uint8_t>(gen.eventBytes())};
            gen.fill(w, e.seq, e.bytes.data());
            chk.onSent(w, 100, true);
            chk.onAck(w, e.seq, true, 200);
            out.push_back(std::move(e));
        }
    }
    return out;
}

CheckCounts deliver(const std::vector<Event>& events) {
    // A fresh checker that has seen the same sends and acks.
    static const PayloadGen gen(7, 1024, 8);
    DeliveryChecker chk(gen, 2, /*fullCompareEvery=*/4);
    sendAll(gen, chk, 200);
    for (const Event& e : events) chk.onDelivered(e.bytes.data(), e.bytes.size(), 300);
    return chk.finish();
}

}  // namespace

int main() {
    const PayloadGen gen(7, 1024, 8);
    DeliveryChecker sender(gen, 2, 4);
    const std::vector<Event> events = sendAll(gen, sender, 200);

    CheckCounts clean = deliver(events);
    expect(clean.attempted == 400 && clean.failed() == 0, "clean delivery passes");

    std::vector<Event> dropped = events;
    dropped.erase(dropped.begin() + 17);
    CheckCounts d = deliver(dropped);
    expect(d.undelivered == 1 && d.failed() == 1, "dropped delivery counted");

    std::vector<Event> dup = events;
    dup.push_back(events[5]);
    CheckCounts u = deliver(dup);
    expect(u.duplicates == 1 && u.failed() == 1, "duplicated delivery counted");

    // Two events of one (writer, key) delivered in the wrong order.
    std::vector<Event> swapped = events;
    size_t a = 0, b = 0;
    for (size_t i = 0; i < swapped.size() && b == 0; ++i) {
        for (size_t j = i + 1; j < swapped.size(); ++j) {
            if (swapped[i].writer == swapped[j].writer &&
                gen.keyOf(swapped[i].writer, swapped[i].seq) ==
                    gen.keyOf(swapped[j].writer, swapped[j].seq)) {
                a = i;
                b = j;
                break;
            }
        }
    }
    std::swap(swapped[a], swapped[b]);
    CheckCounts o = deliver(swapped);
    expect(o.outOfOrder >= 1 && o.undelivered == 0, "per-key reorder counted");

    // A single flipped bit anywhere in an event: header, literal or run body.
    for (size_t pos : {0u, 5u, 13u, 16u, 40u, 100u, 1023u}) {
        std::vector<Event> flipped = events;
        flipped[33].bytes[pos] ^= 0x10;
        CheckCounts f = deliver(flipped);
        expect(f.corrupt == 1 && f.undelivered == 1, "bit flip counted");
    }

    // Compressibility: every 128-byte stride carries a 64-byte run.
    size_t runs = 0;
    for (size_t i = PayloadGen::kHeaderBytes + 64; i + 1 < events[0].bytes.size(); i += 128) {
        runs += events[0].bytes[i] == events[0].bytes[i + 1];
    }
    expect(runs >= 7, "body carries RLE runs");

    if (failures == 0) std::printf("checker self-test: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
