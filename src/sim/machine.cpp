#include "sim/machine.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/hash.h"
#include "obs/metrics.h"

namespace pravega::sim {

Core::Core(Machine& machine, int id, uint64_t rngSeed)
    : machine_(&machine),
      id_(id),
      rng_(rngSeed),
      metrics_(std::make_unique<obs::MetricsRegistry>(
          [m = &machine] { return m->now(); })) {}

Core::~Core() = default;

void Core::push(Duration delay, Task fn, bool weak) {
    assert(delay >= 0 && "cannot schedule into the past");
    if (!weak) {
        ++regularPending_;
        ++machine_->regularPending_;
    }
    uint32_t slot;
    if (freeSlots_.empty()) {
        slot = static_cast<uint32_t>(tasks_.size());
        tasks_.push_back(std::move(fn));
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        tasks_[slot] = std::move(fn);
    }
    heap_.push_back(Key{machine_->now() + delay, seq_++, slot, weak});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
}

Core::Task Core::pop() {
    assert(!heap_.empty() && "pop on empty core queue");
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Key k = heap_.back();
    heap_.pop_back();
    Task fn = std::move(tasks_[k.slot]);
    freeSlots_.push_back(k.slot);
    if (!k.weak) {
        --regularPending_;
        --machine_->regularPending_;
    }
    return fn;
}

Machine::Machine(MachineConfig cfg) : cfg_(cfg) {
    assert(cfg_.cores > 0);
    cores_.reserve(static_cast<size_t>(cfg_.cores));
    for (int c = 0; c < cfg_.cores; ++c) {
        cores_.emplace_back(new Core(*this, c,
                                     pravega::mix64(cfg_.rngSeed ^
                                                    static_cast<uint64_t>(c + 1))));
    }
}

Machine::~Machine() = default;

void Machine::submitTo(int core, Core::Task task) {
    assert(core >= 0 && core < coreCount());
    if (core == runningCore_) {
        // Same shard: a direct call, exactly like the pre-shard substrate's
        // synchronous dispatch (and like sharded runtimes' same-shard
        // submits). Keeps 1-core runs byte-identical to the seed traces.
        task();
        return;
    }
    ++xcoreMessages_;
    // Hand-off latency models the mailbox: queue transfer + remote wake-up.
    // Harness submits (runningCore_ == -1) are world setup, not modeled
    // shard-to-shard traffic, and pay nothing.
    Duration cost = runningCore_ >= 0 ? cfg_.handoffLatency : 0;
    if (runningCore_ >= 0) {
        cores_[static_cast<size_t>(runningCore_)]
            ->metrics()
            .counter("sim.xcore.sent")
            .inc();
    }
    cores_[static_cast<size_t>(core)]->schedule(cost, std::move(task));
}

int Machine::pickNext() {
    ++schedulerSelections_;
    int best = -1;
    for (int c = 0; c < coreCount(); ++c) {
        const Core& core = *cores_[static_cast<size_t>(c)];
        if (!core.hasPending()) continue;
        if (best < 0) {
            best = c;
            continue;
        }
        // Global merge order: (time, core id, per-core seq). Core id breaks
        // same-time ties across shards (strict < keeps the lowest id);
        // per-core seq orders within a shard and is part of the heap key.
        if (core.minAt() < cores_[static_cast<size_t>(best)]->minAt()) best = c;
    }
    return best;
}

void Machine::dispatch(int c) {
    Core& core = *cores_[static_cast<size_t>(c)];
    const TimePoint at = core.minAt();
    Core::Task fn = core.pop();
    assert(at >= now_ && "merge order regressed the clock");
    now_ = at;
    runningCore_ = c;
    fn();
    runningCore_ = -1;
    ++executedEvents_;
}

bool Machine::runOne() {
    int c = pickNext();
    if (c < 0) return false;
    dispatch(c);
    return true;
}

uint64_t Machine::runUntilIdle() {
    uint64_t n = 0;
    while (regularPending_ > 0 && runOne()) ++n;
    return n;
}

uint64_t Machine::runUntil(TimePoint deadline) {
    uint64_t n = 0;
    for (;;) {
        // Single scan per dispatched event: the selection that found the
        // core is the one we dispatch (the old code scanned once to check
        // the deadline and a second time inside runOne).
        int c = pickNext();
        if (c < 0 || cores_[static_cast<size_t>(c)]->minAt() > deadline) break;
        dispatch(c);
        ++n;
    }
    if (now_ < deadline) now_ = deadline;
    return n;
}

size_t Machine::pendingTasks() const {
    size_t n = 0;
    for (const auto& c : cores_) n += c->pendingTasks();
    return n;
}

const obs::MetricsRegistry& Machine::mergedMetrics() {
    if (cores_.size() == 1) return cores_[0]->metrics();
    // Rebuild the snapshot from scratch: per-core partitions stay the
    // source of truth, and same-name instruments across cores fold into a
    // single merged instrument (find-or-create + accumulate — the fix for
    // the counter double-registration two cores would otherwise cause).
    merged_ = std::make_unique<obs::MetricsRegistry>([this] { return now_; });
    for (const auto& c : cores_) merged_->mergeFrom(c->metrics());
    return *merged_;
}

}  // namespace pravega::sim
