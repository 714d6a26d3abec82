// One owned deadline: the frame-close delay, a writer's block-close timer,
// a storage-writer scan, a policy engine's poll.
//
// A component that owns a deadline holds a `Timer` and hands it the body
// once, at construction. `arm(delay)` runs the body once after `delay` as a
// REGULAR task (pending work: `runUntilIdle` waits for it). `every(period)`
// runs it every `period` as a WEAK task (background: `runUntilIdle` returns
// with it still armed); each run calls the body and then re-arms. Both are
// no-ops while the timer is armed. `cancel()` and the destructor void the
// pending run through an internal `Lifetime`, so, as with any guard, the
// queue entry still fires at its virtual time and only the body is skipped:
// converting a hand-rolled timer to this one changes no schedule.
//
// A body may cancel, re-arm or destroy its own timer. A periodic run re-arms
// only if the body did none of those. The timer is neither copyable nor
// movable: its pending run points at it.
#pragma once

#include <functional>
#include <utility>

#include "sim/lifetime.h"
#include "sim/machine.h"

namespace pravega::sim {

class Timer {
public:
    Timer(Core& exec, std::function<void()> fire) : exec_(exec), fire_(std::move(fire)) {}
    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

    /// Runs the body once, `delay` from now.
    void arm(Duration delay) {
        if (armed_) return;
        armed_ = true;
        exec_.schedule(delay, life_.guard([this] {
            armed_ = false;
            fire_();
        }));
    }

    /// Runs the body every `period`, first at `period` from now.
    void every(Duration period) {
        if (armed_) return;
        armed_ = true;
        period_ = period;
        scheduleTick();
    }

    void cancel() {
        if (!armed_) return;
        armed_ = false;
        life_.reset();
    }

    bool armed() const { return armed_; }

private:
    void scheduleTick() {
        exec_.scheduleWeak(period_, life_.guard([this] {
            Lifetime::Token run = life_.token();
            fire_();
            if (run.alive()) scheduleTick();
        }));
    }

    Core& exec_;
    std::function<void()> fire_;
    Duration period_ = 0;
    bool armed_ = false;
    Lifetime life_;
};

}  // namespace pravega::sim
