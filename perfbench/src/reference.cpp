#include "reference.h"

#include <algorithm>
#include <chrono>
#include <functional>

#include "payload.h"

namespace perfbench {
namespace {

constexpr size_t kTableSlots = size_t{1} << 20;  // 8 MB
constexpr size_t kTableKeys = 300000;
constexpr size_t kHeapOps = 300000;
/// Timed passes per run(); the host's slow and fast spells alternate
/// within a second, so run() averages several.
constexpr int kReps = 4;

}  // namespace

ReferenceJob::ReferenceJob() : table_(kTableSlots) {
    heap_.reserve(kHeapOps);
    checksum_ = once();
}

uint64_t ReferenceJob::once() {
    std::fill(table_.begin(), table_.end(), 0);
    const size_t mask = kTableSlots - 1;
    for (size_t i = 0; i < kTableKeys; ++i) {
        uint64_t key = splitmix(i) | 1;
        size_t slot = key & mask;
        while (table_[slot] != 0 && table_[slot] != key) slot = (slot + 1) & mask;
        table_[slot] = key;
    }
    uint64_t found = 0;
    for (size_t i = 0; i < kTableKeys; ++i) {
        uint64_t key = splitmix(i * 2) | 1;  // about half are present
        size_t slot = key & mask;
        while (table_[slot] != 0 && table_[slot] != key) slot = (slot + 1) & mask;
        found += table_[slot] == key;
    }

    // A timer queue: three of four pushes are followed by a pop of the
    // earliest deadline, which becomes the current time.
    heap_.clear();
    uint64_t t = 0, popped = 0;
    for (size_t i = 0; i < kHeapOps; ++i) {
        heap_.push_back(t + (splitmix(i) & 0xFFFF));
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
        if (i % 4 != 0) {
            std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
            t = heap_.back();
            heap_.pop_back();
            popped += t;
        }
    }
    return found * 31 + popped;
}

double ReferenceJob::run() {
    consistent_ = consistent_ && once() == checksum_;
    double total = 0;
    for (int rep = 0; rep < kReps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        const uint64_t sum = once();
        total += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
        consistent_ = consistent_ && sum == checksum_;
    }
    return total / kReps;
}

}  // namespace perfbench
