// Shard-per-core simulation substrate: a Machine owns N Core shards, each
// with its own event queue, RNG stream, and metrics-registry partition —
// following the sharded-service architecture of systems like Redpanda
// ("each core manages a distinct set of logs"): state is partitioned across
// cores and cross-core communication goes through mailboxes with a modeled
// hand-off cost instead of direct calls.
//
// Determinism contract: the machine scheduler executes events in a single
// global merge order — (time, core id, per-core sequence number) — so every
// multi-core run is byte-replayable from its seed. A 1-core machine is
// exactly the old single-threaded executor: same queue discipline, same
// FIFO tie-break, same clock semantics, byte-identical traces.
//
// Clocks are kept in lockstep by the machine scheduler: every core's
// `now()` reads the machine's merged virtual time, which only advances when
// the globally-earliest event executes. Per-core clocks therefore never
// skew — a core that has been idle for a second still observes the same
// "now" as the core that just ran — which keeps cross-core reads of
// hardware models (disk backlogs, link cursors) exact.
//
// Tasks come in two strengths. Regular tasks represent pending work; WEAK
// tasks are self-rearming background timers (cache policy, storage-writer
// scans, monitor ticks). `runUntilIdle()` runs until no regular task
// remains on ANY core — weak timers never keep the system "busy" — while
// `runUntil`/`runFor` advance virtual time and run everything scheduled
// within it.
//
// Shard affinity: components hold the Core& they are pinned to and schedule
// ONLY through that handle. Work that must run on another shard goes
// through `Machine::submitTo(core, task)` — the cross-core mailbox — which
// charges the configured hand-off latency. A submit to the shard that is
// currently executing is a direct call (no queueing, no cost), mirroring
// what sharded runtimes do for same-shard submits.
//
// Event queue: each core keeps one binary min-heap of small keys
// `{at, seq, slot, weak}`, ordered by (time, seq). The tasks themselves sit
// in a slab indexed by `slot`, so heap sifts move 24-byte keys and never a
// 72-byte `Task`. The machine's dispatch loop compares the heap tops of the
// cores; across cores, ties in time go to the lowest core id.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/callback.h"
#include "sim/random.h"
#include "sim/time.h"

namespace pravega::obs {
class MetricsRegistry;
}

namespace pravega::sim {

class Machine;

struct MachineConfig {
    /// Number of Core shards.
    int cores = 1;
    /// Cross-core mailbox hand-off latency: queue transfer + remote-shard
    /// wake-up (the cost that makes "keep it on one shard" designs win
    /// until a core saturates).
    Duration handoffLatency = Duration(700);
    /// Base seed for the per-core RNG streams (stream c is derived as
    /// mix64(rngSeed ^ (c+1)), so streams are decorrelated but replayable).
    uint64_t rngSeed = 0xC0DE5EEDF00DULL;
};

/// One shard: an event queue plus the per-core state (RNG stream, metrics
/// partition) of everything pinned to it. Cores never run themselves — the
/// owning Machine's scheduler picks the globally-earliest event.
class Core {
public:
    /// Move-only; closures of up to 64 B are stored without allocating.
    using Task = Callback<void()>;

    Core(const Core&) = delete;
    Core& operator=(const Core&) = delete;
    ~Core();

    /// Shard index within the machine, 0-based.
    int id() const { return id_; }
    Machine& machine() const { return *machine_; }

    /// The machine's merged virtual clock (all cores observe it in
    /// lockstep; see file comment).
    TimePoint now() const;

    /// Runs `fn` on this shard after `delay` (>= 0) of virtual time.
    void schedule(Duration delay, Task fn) { push(delay, std::move(fn), /*weak=*/false); }

    /// Weak variant for self-rearming background timers: does not count
    /// toward `runUntilIdle`'s idleness.
    void scheduleWeak(Duration delay, Task fn) { push(delay, std::move(fn), /*weak=*/true); }

    /// Runs `fn` on this shard at the current time, after already-queued
    /// same-time tasks of this shard.
    void post(Task fn) { schedule(0, std::move(fn)); }

    /// This shard's metrics-registry partition. Components pinned to the
    /// core record here; `Machine::mergedMetrics()` aggregates partitions
    /// into the single-registry view.
    obs::MetricsRegistry& metrics() { return *metrics_; }
    const obs::MetricsRegistry& metrics() const { return *metrics_; }

    /// This shard's deterministic RNG stream.
    Rng& rng() { return rng_; }

    size_t pendingTasks() const { return heap_.size(); }
    size_t pendingRegularTasks() const { return regularPending_; }

private:
    friend class Machine;

    /// Heap entry; the task it stands for is `tasks_[slot]`.
    struct Key {
        TimePoint at;
        uint64_t seq;  // per-core FIFO tie-break for same-time events
        uint32_t slot;
        bool weak;
    };
    /// `std::push_heap` builds a max-heap, so "less" is "fires later".
    struct Later {
        bool operator()(const Key& a, const Key& b) const {
            if (a.at != b.at) return a.at > b.at;
            return a.seq > b.seq;
        }
    };

    Core(Machine& machine, int id, uint64_t rngSeed);
    void push(Duration delay, Task fn, bool weak);
    /// Removes the earliest task (the queue must be non-empty) and moves it
    /// out of the slab: the caller runs it, and a push from inside it may
    /// grow the slab.
    Task pop();

    bool hasPending() const { return !heap_.empty(); }
    TimePoint minAt() const { return heap_.front().at; }

    Machine* machine_;
    int id_;
    uint64_t seq_ = 0;
    size_t regularPending_ = 0;

    std::vector<Key> heap_;
    std::vector<Task> tasks_;         // slab; a free slot holds an empty Task
    std::vector<uint32_t> freeSlots_;

    Rng rng_;
    // unique_ptr + out-of-line ctor/dtor keep obs/metrics.h out of this
    // header (obs depends on sim/time.h only; no include cycle).
    std::unique_ptr<obs::MetricsRegistry> metrics_;
};

/// The sharded runtime: N cores driven by one deterministic merge-order
/// scheduler. For harness/test convenience a Machine converts to its home
/// core (core 0) and forwards the scheduling surface there — components,
/// by contrast, must hold the specific Core& they are pinned to.
class Machine {
public:
    Machine() : Machine(MachineConfig{}) {}
    explicit Machine(int cores) : Machine(makeConfig(cores)) {}
    explicit Machine(MachineConfig cfg);
    ~Machine();
    Machine(const Machine&) = delete;
    Machine& operator=(const Machine&) = delete;

    int coreCount() const { return static_cast<int>(cores_.size()); }
    Core& core(int i) { return *cores_[static_cast<size_t>(i)]; }
    const Core& core(int i) const { return *cores_[static_cast<size_t>(i)]; }

    /// Home-core handle: a 1-core machine IS the classic single-threaded
    /// executor, so harness code can pass the machine wherever a Core& is
    /// expected.
    operator Core&() { return *cores_[0]; }

    TimePoint now() const { return now_; }

    /// Id of the core whose event is currently executing, or -1 when
    /// control is in harness code between events.
    int runningCore() const { return runningCore_; }

    /// Cross-core mailbox: runs `task` on shard `core`. When `core` is the
    /// shard currently executing this IS a direct call (runs inline);
    /// otherwise the task is enqueued on the target shard after the
    /// configured hand-off latency (charged only when the submit originates
    /// from another shard — harness submits pay no hand-off).
    void submitTo(int core, Core::Task task);

    /// Cross-core messages sent so far (mailbox traffic, direct same-shard
    /// calls excluded).
    uint64_t crossCoreMessages() const { return xcoreMessages_; }

    // ---- home-core (core 0) conveniences for harness/test code ----------
    void schedule(Duration delay, Core::Task fn) { core(0).schedule(delay, std::move(fn)); }
    void scheduleWeak(Duration delay, Core::Task fn) {
        core(0).scheduleWeak(delay, std::move(fn));
    }
    void post(Core::Task fn) { core(0).post(std::move(fn)); }
    /// The home core's metrics partition (THE registry of 1-core worlds).
    obs::MetricsRegistry& metrics() { return core(0).metrics(); }
    const obs::MetricsRegistry& metrics() const { return core(0).metrics(); }

    /// Single-registry view across all core partitions: counters/gauges
    /// sum, histograms and meters merge. With 1 core this is the home
    /// registry itself (no copy); with N cores it is a snapshot valid until
    /// the next call. Same-name instruments on different cores fold into
    /// ONE instrument — never a duplicate registration.
    const obs::MetricsRegistry& mergedMetrics();

    /// Runs events until no REGULAR task remains on any core (weak timers
    /// may still be queued). Returns the number of events executed.
    uint64_t runUntilIdle();

    /// Runs events with timestamp <= deadline (regular and weak); advances
    /// the clock to `deadline` even if the queues drain earlier.
    uint64_t runUntil(TimePoint deadline);

    /// Runs for `d` of virtual time from now.
    uint64_t runFor(Duration d) { return runUntil(now_ + d); }

    /// Runs the globally-earliest event if one exists; false when idle.
    bool runOne();

    size_t pendingTasks() const;
    size_t pendingRegularTasks() const { return regularPending_; }

    /// Number of scheduler selections (pickNext tournaments) performed.
    /// The dispatch loops do exactly ONE selection per dispatched event
    /// (plus the final selection that observes the stop condition) — the
    /// regression tests pin this down.
    uint64_t schedulerSelections() const { return schedulerSelections_; }

    /// Total events dispatched by this machine over its lifetime.
    uint64_t executedEvents() const { return executedEvents_; }

    const MachineConfig& config() const { return cfg_; }

private:
    friend class Core;

    static MachineConfig makeConfig(int cores) {
        MachineConfig cfg;
        cfg.cores = cores;
        return cfg;
    }

    /// Core holding the globally-earliest event under the (time, core, seq)
    /// merge order, or -1 when every queue is empty. Compares the time of
    /// each core's heap top.
    int pickNext();

    /// Pops and runs the earliest event of core `c` (which pickNext just
    /// selected). Separated from pickNext so the dispatch loops scan the
    /// queues exactly once per event.
    void dispatch(int c);

    MachineConfig cfg_;
    TimePoint now_ = 0;
    int runningCore_ = -1;
    uint64_t xcoreMessages_ = 0;
    uint64_t schedulerSelections_ = 0;
    uint64_t executedEvents_ = 0;
    size_t regularPending_ = 0;  // incrementally maintained sum across cores
    std::vector<std::unique_ptr<Core>> cores_;
    std::unique_ptr<obs::MetricsRegistry> merged_;  // multi-core snapshot
};

inline TimePoint Core::now() const { return machine_->now(); }

}  // namespace pravega::sim
