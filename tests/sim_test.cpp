// Unit tests for the discrete-event substrate: machine/cores, futures, and
// the hardware models (disk, link, CPU, object store).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "golden/scenario.h"
#include "sim/callback.h"
#include "sim/machine.h"
#include "sim/future.h"
#include "sim/lifetime.h"
#include "sim/models.h"
#include "sim/network.h"
#include "sim/timer.h"

namespace pravega::sim {
namespace {

TEST(MachineTest, RunsInTimeOrder) {
    Machine exec;
    std::vector<int> order;
    exec.schedule(msec(3), [&]() { order.push_back(3); });
    exec.schedule(msec(1), [&]() { order.push_back(1); });
    exec.schedule(msec(2), [&]() { order.push_back(2); });
    exec.runUntilIdle();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(exec.now(), msec(3));
}

TEST(MachineTest, SameTimeIsFifo) {
    Machine exec;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        exec.schedule(msec(1), [&, i]() { order.push_back(i); });
    }
    exec.runUntilIdle();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(MachineTest, NestedScheduling) {
    Machine exec;
    int fired = 0;
    exec.schedule(msec(1), [&]() {
        ++fired;
        exec.schedule(msec(1), [&]() { ++fired; });
    });
    exec.runUntilIdle();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(exec.now(), msec(2));
}

TEST(MachineTest, RunUntilStopsAtDeadline) {
    Machine exec;
    int fired = 0;
    exec.schedule(msec(5), [&]() { ++fired; });
    exec.schedule(msec(15), [&]() { ++fired; });
    exec.runUntil(msec(10));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(exec.now(), msec(10));
    exec.runUntilIdle();
    EXPECT_EQ(fired, 2);
}

TEST(MachineTest, RunForAdvancesClockWhenIdle) {
    Machine exec;
    exec.runFor(sec(1));
    EXPECT_EQ(exec.now(), sec(1));
}

TEST(FutureTest, ReadyValue) {
    auto fut = Future<int>::ready(7);
    ASSERT_TRUE(fut.isReady());
    EXPECT_EQ(fut.result().value(), 7);
}

TEST(FutureTest, CallbackOnCompletion) {
    Promise<int> p;
    auto fut = p.future();
    int got = 0;
    fut.onComplete([&](const Result<int>& r) { got = r.value(); });
    EXPECT_EQ(got, 0);
    p.setValue(42);
    EXPECT_EQ(got, 42);
}

TEST(FutureTest, CallbackAfterCompletionRunsImmediately) {
    Promise<int> p;
    p.setValue(5);
    int got = 0;
    p.future().onComplete([&](const Result<int>& r) { got = r.value(); });
    EXPECT_EQ(got, 5);
}

TEST(FutureTest, ThenTransforms) {
    Promise<int> p;
    auto fut = p.future().then([](const int& v) { return v * 2; });
    p.setValue(21);
    ASSERT_TRUE(fut.isReady());
    EXPECT_EQ(fut.result().value(), 42);
}

TEST(FutureTest, ThenShortCircuitsErrors) {
    Promise<int> p;
    bool called = false;
    auto fut = p.future().then([&](const int& v) {
        called = true;
        return v;
    });
    p.setError(Err::IoError);
    EXPECT_FALSE(called);
    ASSERT_TRUE(fut.isReady());
    EXPECT_EQ(fut.result().code(), Err::IoError);
}

TEST(FutureTest, ThenAsyncChains) {
    Promise<int> p;
    Promise<std::string> inner;
    auto fut = p.future().thenAsync([&](const int&) { return inner.future(); });
    p.setValue(1);
    EXPECT_FALSE(fut.isReady());
    inner.setValue("done");
    ASSERT_TRUE(fut.isReady());
    EXPECT_EQ(fut.result().value(), "done");
}

TEST(FutureTest, WhenAllWaitsForEveryFuture) {
    std::vector<Promise<int>> promises(3);
    std::vector<Future<int>> futures;
    for (auto& p : promises) futures.push_back(p.future());
    auto all = whenAll(futures);
    promises[0].setValue(1);
    promises[2].setError(Err::IoError);
    EXPECT_FALSE(all.isReady());
    promises[1].setValue(2);
    EXPECT_TRUE(all.isReady());  // completes despite individual errors
}

TEST(FutureTest, WhenAllEmptyIsReady) {
    EXPECT_TRUE(whenAll(std::vector<Future<int>>{}).isReady());
}

// ---- Callback: the move-only callable behind tasks and continuations ----

/// Counts live instances, so a test can see every copy of a capture
/// destroyed exactly once.
struct Tracked {
    static inline int live = 0;
    Tracked() { ++live; }
    Tracked(const Tracked&) { ++live; }
    Tracked(Tracked&&) noexcept { ++live; }
    Tracked& operator=(const Tracked&) = default;
    ~Tracked() { --live; }
};

TEST(CallbackTest, MoveOnlyCaptureRunsThroughScheduleAndFutures) {
    Machine exec;
    int got = 0;
    exec.schedule(msec(1), [v = std::make_unique<int>(1), &got]() { got += *v; });
    Promise<int> p;
    p.future().onComplete(
        [v = std::make_unique<int>(10), &got](const Result<int>& r) { got += *v * r.value(); });
    auto doubled = p.future().then([v = std::make_unique<int>(2)](const int& x) { return x * *v; });
    auto chained = p.future().thenAsync([v = std::make_unique<int>(3)](const int& x) {
        return Future<int>::ready(x + *v);
    });
    p.setValue(4);
    EXPECT_EQ(got, 40);
    exec.runUntilIdle();
    EXPECT_EQ(got, 41);
    EXPECT_EQ(doubled.result().value(), 8);
    EXPECT_EQ(chained.result().value(), 7);
}

TEST(CallbackTest, InlineAndSpilledCapturesAreDestroyedExactlyOnce) {
    using Task = Callback<void()>;
    Tracked::live = 0;
    {
        Task small([t = Tracked()] {});
        std::array<char, Task::kInlineBytes> pad{};
        Task big([t = Tracked(), pad] { (void)pad; });  // too large: heap
        EXPECT_EQ(Tracked::live, 2);
        Task movedSmall = std::move(small);
        Task movedBig = std::move(big);
        EXPECT_EQ(Tracked::live, 2);
        movedSmall();
        movedBig();
    }
    EXPECT_EQ(Tracked::live, 0);
}

TEST(CallbackTest, MoveAssignDestroysTheLiveCallableAndEmptiesTheSource) {
    Tracked::live = 0;
    int ran = 0;
    Callback<void()> a([t = Tracked(), &ran] { ran += 1; });
    Callback<void()> b([&ran] { ran += 10; });
    EXPECT_EQ(Tracked::live, 1);
    a = std::move(b);
    EXPECT_EQ(Tracked::live, 0);
    EXPECT_FALSE(b);  // NOLINT(bugprone-use-after-move): moved-from is empty
    ASSERT_TRUE(a);
    a();
    EXPECT_EQ(ran, 10);
}

// ---- Future state: one inline continuation, more in registration order ----

TEST(FutureTest, ContinuationsRunInRegistrationOrder) {
    for (int n = 1; n <= 3; ++n) {
        Promise<int> p;
        std::vector<int> order;
        for (int i = 0; i < n; ++i) {
            p.future().onComplete([&order, i](const Result<int>&) { order.push_back(i); });
        }
        p.setValue(0);
        std::vector<int> want(static_cast<size_t>(n));
        std::iota(want.begin(), want.end(), 0);
        EXPECT_EQ(order, want) << n << " continuations";
    }
}

TEST(FutureTest, LateRegistrationRunsSynchronouslyAfterEarlierOnes) {
    Promise<int> p;
    auto fut = p.future();
    std::vector<std::string> order;
    fut.onComplete([&](const Result<int>&) { order.push_back("early"); });
    p.setValue(1);
    fut.onComplete([&](const Result<int>&) { order.push_back("late"); });
    EXPECT_EQ(order, (std::vector<std::string>{"early", "late"}));
}

TEST(FutureTest, DroppingEitherSideFirstIsClean) {
    Tracked::live = 0;
    {
        auto p = std::make_unique<Promise<int>>();
        auto fut = p->future();
        fut.onComplete([t = Tracked()](const Result<int>&) {});
        p.reset();  // promise first: the pending continuation is never run
        EXPECT_EQ(Tracked::live, 1);
    }
    EXPECT_EQ(Tracked::live, 0);
    {
        Promise<int> p;
        p.future().onComplete([t = Tracked()](const Result<int>&) {});  // future first
        int got = 0;
        p.future().onComplete([&got](const Result<int>& r) { got = r.value(); });
        p.setValue(3);
        EXPECT_EQ(got, 3);
    }
    EXPECT_EQ(Tracked::live, 0);
}

/// A value that counts its copies.
struct Counted {
    static inline int copies = 0;
    std::string text;
    explicit Counted(std::string t) : text(std::move(t)) {}
    Counted(const Counted& o) : text(o.text) { ++copies; }
    Counted(Counted&&) noexcept = default;
    Counted& operator=(const Counted& o) {
        text = o.text;
        ++copies;
        return *this;
    }
    Counted& operator=(Counted&&) noexcept = default;
};

TEST(FutureTest, ThenAsyncMovesASoleResultThroughTheChain) {
    Counted::copies = 0;
    Promise<Unit> start;
    Promise<Counted> inner;
    std::string got;
    start.future()
        .thenAsync([&](const Unit&) { return inner.future(); })
        .consume([&](Result<Counted> r) { got = std::move(r).value().text; });
    start.setValue(Unit{});
    std::move(inner).complete(Counted("payload"));
    EXPECT_EQ(got, "payload");
    EXPECT_EQ(Counted::copies, 0);
}

TEST(FutureTest, ConsumerCopiesWhenAnotherHandleCanStillRead) {
    Counted::copies = 0;
    Promise<Counted> p;
    Future<Counted> kept = p.future();
    std::string got;
    p.future().consume([&](Result<Counted> r) { got = r.value().text; });
    std::move(p).complete(Counted("shared"));
    EXPECT_EQ(got, "shared");
    EXPECT_EQ(Counted::copies, 1);
    EXPECT_EQ(kept.result().value().text, "shared");  // intact for the other reader

    // A promise completed in place (not given up) may still hand out futures.
    Promise<Counted> q;
    q.future().consume([](Result<Counted>) {});
    q.setValue(Counted("kept"));
    EXPECT_EQ(q.future().result().value().text, "kept");
}

TEST(QueuedResourceTest, SerializesSingleLane) {
    Machine exec;
    QueuedResource res(exec, 1);
    TimePoint first = 0, second = 0;
    res.acquire(msec(10)).onComplete([&](const Result<Unit>&) { first = exec.now(); });
    res.acquire(msec(10)).onComplete([&](const Result<Unit>&) { second = exec.now(); });
    exec.runUntilIdle();
    EXPECT_EQ(first, msec(10));
    EXPECT_EQ(second, msec(20));
}

TEST(QueuedResourceTest, ParallelLanes) {
    Machine exec;
    QueuedResource res(exec, 2);
    std::vector<TimePoint> done;
    for (int i = 0; i < 4; ++i) {
        res.acquire(msec(10)).onComplete([&](const Result<Unit>&) { done.push_back(exec.now()); });
    }
    exec.runUntilIdle();
    ASSERT_EQ(done.size(), 4u);
    EXPECT_EQ(done[0], msec(10));
    EXPECT_EQ(done[1], msec(10));
    EXPECT_EQ(done[2], msec(20));
    EXPECT_EQ(done[3], msec(20));
}

// An owner whose destruction or reset must void its pending continuations.
struct LifetimeOwner {
    int runs = 0;
    Lifetime life;
};

TEST(LifetimeTest, GuardFiringAfterOwnerDestroyedRunsNothing) {
    Machine exec;
    int ran = 0;
    auto owner = std::make_unique<LifetimeOwner>();
    exec.schedule(msec(1), owner->life.guard([&ran, o = owner.get()]() { ++o->runs; ++ran; }));
    owner.reset();
    exec.runUntilIdle();
    EXPECT_EQ(ran, 0);
    // The queue entry itself still fired: guards skip bodies, never events.
    EXPECT_EQ(exec.now(), msec(1));
    EXPECT_EQ(exec.executedEvents(), 1u);
}

TEST(LifetimeTest, ResetVoidsEarlierGuardsButNotLaterOnes) {
    LifetimeOwner owner;
    std::vector<int> seen;
    auto earlier = owner.life.guard([&seen](int v) { seen.push_back(v); });
    auto token = owner.life.token();
    owner.life.reset();
    auto later = owner.life.guard([&seen](int v) { seen.push_back(v); });
    earlier(1);
    later(2);
    EXPECT_EQ(seen, (std::vector<int>{2}));
    EXPECT_FALSE(token.alive());
    EXPECT_TRUE(owner.life.token().alive());
}

TEST(LifetimeTest, GuardedCallbackMayDestroyItsOwner) {
    Machine exec;
    auto owner = std::make_unique<LifetimeOwner>();
    int after = 0;
    exec.schedule(msec(1), owner->life.guard([&owner]() {
        ++owner->runs;
        owner.reset();  // the owner and its Lifetime die mid-call
    }));
    exec.schedule(msec(1), owner->life.guard([&after]() { ++after; }));
    exec.runUntilIdle();
    EXPECT_EQ(owner, nullptr);
    EXPECT_EQ(after, 0);
}

// An owner of one deadline, counting the runs of its body.
struct TimerOwner {
    explicit TimerOwner(Core& exec) : timer(exec, [this]() { ++runs; }) {}
    int runs = 0;
    Timer timer;
};

TEST(TimerTest, ArmIsIdempotentWhileArmed) {
    Machine exec;
    TimerOwner owner(exec);
    owner.timer.arm(msec(1));
    owner.timer.arm(msec(5));  // already armed: keeps the first deadline
    EXPECT_TRUE(owner.timer.armed());
    exec.runUntilIdle();
    EXPECT_EQ(owner.runs, 1);
    EXPECT_EQ(exec.now(), msec(1));
    EXPECT_FALSE(owner.timer.armed());
    owner.timer.arm(msec(2));  // a fired one-shot arms again
    exec.runUntilIdle();
    EXPECT_EQ(owner.runs, 2);
    EXPECT_EQ(exec.now(), msec(3));
}

TEST(TimerTest, CancelVoidsThePendingRunAndTheNextArmStartsFresh) {
    Machine exec;
    TimerOwner owner(exec);
    owner.timer.arm(msec(1));
    owner.timer.cancel();
    EXPECT_FALSE(owner.timer.armed());
    owner.timer.arm(msec(3));
    exec.runUntilIdle();
    EXPECT_EQ(owner.runs, 1);
    EXPECT_EQ(exec.now(), msec(3));
    // The voided run still fired as an event: cancelling changes no schedule.
    EXPECT_EQ(exec.executedEvents(), 2u);
}

TEST(TimerTest, DestroyedOwnerRunsNothing) {
    Machine exec;
    int runs = 0;
    {
        TimerOwner once(exec);
        TimerOwner periodic(exec);
        once.timer.arm(msec(1));
        periodic.timer.every(msec(1));
        exec.runFor(usec(500));
        runs = once.runs + periodic.runs;
    }
    exec.runFor(msec(10));  // both queued runs fire into freed owners
    EXPECT_EQ(runs, 0);
    EXPECT_EQ(exec.executedEvents(), 2u);
}

TEST(TimerTest, FireThatCancelsOrDestroysItsOwnerDoesNotRearm) {
    Machine exec;
    int runs = 0;
    std::unique_ptr<Timer> timer;
    timer = std::make_unique<Timer>(exec, [&]() {
        if (++runs == 3) timer->cancel();
    });
    timer->every(msec(1));
    exec.runFor(msec(10));
    EXPECT_EQ(runs, 3);
    EXPECT_FALSE(timer->armed());

    runs = 0;
    timer = std::make_unique<Timer>(exec, [&]() {
        ++runs;
        timer.reset();  // the timer and its body die mid-call
    });
    timer->every(msec(1));
    exec.runFor(msec(10));
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(timer, nullptr);
}

TEST(TimerTest, EveryIsWeakAndRunsUntilCancelled) {
    Machine exec;
    TimerOwner owner(exec);
    owner.timer.every(msec(1));
    owner.timer.every(msec(7));  // already armed: keeps the first period
    EXPECT_EQ(exec.runUntilIdle(), 0u);  // background work never keeps it busy
    EXPECT_TRUE(owner.timer.armed());
    exec.runFor(msec(5));
    EXPECT_EQ(owner.runs, 5);
    EXPECT_TRUE(owner.timer.armed());
    owner.timer.cancel();
    exec.runFor(msec(5));
    EXPECT_EQ(owner.runs, 5);
}

TEST(TimerTest, CancelledRunsStillExecuteAsEvents) {
    // A cancelled run is a DES event whose body is skipped, exactly like a
    // guard voided by its Lifetime: the event count does not change.
    auto events = [](bool cancel) {
        Machine exec;
        TimerOwner once(exec);
        TimerOwner periodic(exec);
        once.timer.arm(msec(1));
        periodic.timer.every(msec(2));
        if (cancel) {
            once.timer.cancel();
            periodic.timer.cancel();
        }
        exec.runFor(msec(3));
        return std::pair(exec.executedEvents(), once.runs + periodic.runs);
    };
    EXPECT_EQ(events(false), std::pair(uint64_t{2}, 2));
    EXPECT_EQ(events(true), std::pair(uint64_t{2}, 0));
}

TEST(DiskModelTest, SequentialWritesToSameFileAvoidSwitchPenalty) {
    Machine exec;
    DiskModel::Config cfg;
    cfg.bytesPerSec = 1e9;
    cfg.writeLatency = usec(10);
    cfg.fileSwitchPenalty = usec(100);
    cfg.fsyncLatency = 0;
    DiskModel disk(exec, cfg);

    TimePoint sameFile = 0, twoFiles = 0;
    disk.write(1, 0, false);
    disk.write(1, 0, false).onComplete([&](const Result<Unit>&) { sameFile = exec.now(); });
    exec.runUntilIdle();

    Machine exec2;
    DiskModel disk2(exec2, cfg);
    disk2.write(1, 0, false);
    disk2.write(2, 0, false).onComplete([&](const Result<Unit>&) { twoFiles = exec2.now(); });
    exec2.runUntilIdle();

    // First write pays a switch (cold); the second only pays again when
    // targeting a different file.
    EXPECT_EQ(sameFile, usec(100) + 2 * usec(10));
    EXPECT_EQ(twoFiles, 2 * usec(100) + 2 * usec(10));
}

TEST(DiskModelTest, FsyncAddsLatency) {
    Machine exec;
    DiskModel::Config cfg;
    cfg.writeLatency = usec(10);
    cfg.fileSwitchPenalty = 0;
    cfg.fsyncLatency = usec(50);
    DiskModel disk(exec, cfg);
    TimePoint t = 0;
    disk.write(1, 0, true).onComplete([&](const Result<Unit>&) { t = exec.now(); });
    exec.runUntilIdle();
    EXPECT_EQ(t, usec(60));
}

TEST(DiskModelTest, BandwidthDominatesLargeWrites) {
    Machine exec;
    DiskModel::Config cfg;
    cfg.bytesPerSec = 100.0 * 1024 * 1024;
    cfg.writeLatency = 0;
    cfg.fileSwitchPenalty = 0;
    cfg.fsyncLatency = 0;
    DiskModel disk(exec, cfg);
    TimePoint t = 0;
    disk.write(1, 100 * 1024 * 1024, false).onComplete([&](const Result<Unit>&) { t = exec.now(); });
    exec.runUntilIdle();
    EXPECT_NEAR(static_cast<double>(t), static_cast<double>(sec(1)), static_cast<double>(msec(1)));
}

TEST(LinkTest, LatencyPlusSerialization) {
    Machine exec;
    Link::Config cfg;
    cfg.latency = msec(1);
    cfg.bytesPerSec = 1024 * 1024;  // 1 MB/s for easy math
    Link link(exec, cfg);
    TimePoint t = 0;
    link.deliver(1024 * 1024, [&]() { t = exec.now(); });
    exec.runUntilIdle();
    EXPECT_EQ(t, sec(1) + msec(1));
}

TEST(LinkTest, MessagesQueueBehindEachOther) {
    Machine exec;
    Link::Config cfg;
    cfg.latency = 0;
    cfg.bytesPerSec = 1024;
    Link link(exec, cfg);
    std::vector<TimePoint> arrivals;
    link.deliver(1024, [&]() { arrivals.push_back(exec.now()); });
    link.deliver(1024, [&]() { arrivals.push_back(exec.now()); });
    exec.runUntilIdle();
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_EQ(arrivals[0], sec(1));
    EXPECT_EQ(arrivals[1], sec(2));
}

TEST(NetworkTest, LinksAreLazyAndPerPair) {
    Machine exec;
    Network net(exec, Link::Config{});
    Link& ab = net.link(1, 2);
    Link& ba = net.link(2, 1);
    EXPECT_NE(&ab, &ba);
    EXPECT_EQ(&ab, &net.link(1, 2));
}

TEST(NetworkFaultTest, PartitionDropsBothDirectionsUntilHealed) {
    Machine exec;
    Network net(exec, Link::Config{});
    int delivered = 0;
    net.partition(1, 2);
    EXPECT_TRUE(net.isPartitioned(1, 2));
    EXPECT_EQ(net.partitionCount(), 1u);
    net.send(1, 2, 100, [&]() { ++delivered; });
    net.send(2, 1, 100, [&]() { ++delivered; });
    exec.runUntilIdle();
    EXPECT_EQ(delivered, 0);
    EXPECT_EQ(net.droppedMessages(), 2u);

    net.heal(1, 2);
    EXPECT_FALSE(net.isPartitioned(1, 2));
    net.send(1, 2, 100, [&]() { ++delivered; });
    exec.runUntilIdle();
    EXPECT_EQ(delivered, 1);
}

TEST(NetworkFaultTest, HealAllClearsEveryPartition) {
    Machine exec;
    Network net(exec, Link::Config{});
    net.partition(1, 2);
    net.partition(3, 4);
    EXPECT_EQ(net.partitionCount(), 2u);
    net.healAll();
    EXPECT_EQ(net.partitionCount(), 0u);
    int delivered = 0;
    net.send(3, 4, 10, [&]() { ++delivered; });
    exec.runUntilIdle();
    EXPECT_EQ(delivered, 1);
}

TEST(NetworkFaultTest, DropNextLosesExactlyThatManyMessages) {
    Machine exec;
    Network net(exec, Link::Config{});
    net.link(1, 2).dropNext(2);
    std::vector<int> arrived;
    for (int i = 0; i < 5; ++i) net.send(1, 2, 10, [&arrived, i]() { arrived.push_back(i); });
    exec.runUntilIdle();
    EXPECT_EQ(arrived, (std::vector<int>{2, 3, 4}));
}

TEST(NetworkFaultTest, ProbabilisticLossIsSeedDeterministic) {
    auto run = [](uint64_t seed) {
        Machine exec;
        Network net(exec, Link::Config{}, seed);
        net.setLoss(1, 2, 0.5);
        std::vector<int> arrived;
        for (int i = 0; i < 64; ++i) {
            net.send(1, 2, 10, [&arrived, i]() { arrived.push_back(i); });
        }
        exec.runUntilIdle();
        return arrived;
    };
    auto a = run(123);
    auto b = run(123);
    auto c = run(999);
    EXPECT_EQ(a, b);  // same seed, same losses
    EXPECT_NE(a, c);  // different seed, different losses
    EXPECT_GT(a.size(), 0u);
    EXPECT_LT(a.size(), 64u);
}

TEST(NetworkFaultTest, DegradationWindowAddsLatencyThenExpires) {
    Machine exec;
    Network net(exec, Link::Config{});
    net.degrade(1, 2, msec(5), 1.0, msec(50));
    TimePoint slow = 0;
    net.send(1, 2, 10, [&]() { slow = exec.now(); });
    exec.runUntilIdle();
    EXPECT_GE(slow, msec(5));

    exec.runFor(msec(60));  // past the window
    TimePoint start = exec.now();
    TimePoint fast = 0;
    net.send(1, 2, 10, [&]() { fast = exec.now(); });
    exec.runUntilIdle();
    EXPECT_LT(fast - start, msec(5));
}

TEST(ObjectStoreTest, PerStreamCapGovernsSingleTransfer) {
    Machine exec;
    ObjectStoreModel::Config cfg;
    cfg.opLatency = 0;
    cfg.perStreamBytesPerSec = 100.0 * 1024 * 1024;
    cfg.aggregateBytesPerSec = 1e12;
    ObjectStoreModel store(exec, cfg);
    TimePoint t = 0;
    store.put(100 * 1024 * 1024).onComplete([&](const Result<Unit>&) { t = exec.now(); });
    exec.runUntilIdle();
    EXPECT_NEAR(static_cast<double>(t), static_cast<double>(sec(1)), static_cast<double>(msec(10)));
}

TEST(ObjectStoreTest, ParallelTransfersExceedPerStreamCap) {
    Machine exec;
    ObjectStoreModel::Config cfg;
    cfg.opLatency = 0;
    cfg.perStreamBytesPerSec = 100.0 * 1024 * 1024;
    cfg.aggregateBytesPerSec = 400.0 * 1024 * 1024;
    cfg.maxConcurrent = 8;
    ObjectStoreModel store(exec, cfg);
    // 4 parallel 100MB transfers: per-stream alone → 1s total (parallel);
    // the aggregate cap also allows it; serial at per-stream would be 4s.
    std::vector<TimePoint> done;
    for (int i = 0; i < 4; ++i) {
        store.put(100 * 1024 * 1024).onComplete([&](const Result<Unit>&) {
            done.push_back(exec.now());
        });
    }
    exec.runUntilIdle();
    ASSERT_EQ(done.size(), 4u);
    EXPECT_LT(done.back(), sec(2));  // far better than 4s serial
}

TEST(ObjectStoreTest, AggregateCapLimitsManyStreams) {
    Machine exec;
    ObjectStoreModel::Config cfg;
    cfg.opLatency = 0;
    cfg.perStreamBytesPerSec = 100.0 * 1024 * 1024;
    cfg.aggregateBytesPerSec = 200.0 * 1024 * 1024;
    cfg.maxConcurrent = 64;
    ObjectStoreModel store(exec, cfg);
    // 8 × 100MB = 800MB through a 200MB/s pipe → ≥ 4s.
    TimePoint last = 0;
    for (int i = 0; i < 8; ++i) {
        store.put(100 * 1024 * 1024).onComplete([&](const Result<Unit>&) { last = exec.now(); });
    }
    exec.runUntilIdle();
    EXPECT_GE(last, sec(4) - msec(10));
}

TEST(ObjectStoreTest, BacklogVisibleForThrottling) {
    Machine exec;
    ObjectStoreModel::Config cfg;
    cfg.opLatency = 0;
    cfg.perStreamBytesPerSec = 10.0 * 1024 * 1024;
    cfg.aggregateBytesPerSec = 10.0 * 1024 * 1024;
    cfg.maxConcurrent = 1;
    ObjectStoreModel store(exec, cfg);
    EXPECT_DOUBLE_EQ(store.backlogSeconds(), 0.0);
    store.put(100 * 1024 * 1024);
    EXPECT_GT(store.backlogSeconds(), 5.0);
}

TEST(CpuModelTest, CoresRunInParallel) {
    Machine exec;
    CpuModel::Config cfg;
    cfg.cores = 4;
    cfg.perRequest = msec(1);
    CpuModel cpu(exec, cfg);
    std::vector<TimePoint> done;
    for (int i = 0; i < 8; ++i) {
        cpu.execute(0).onComplete([&](const Result<Unit>&) { done.push_back(exec.now()); });
    }
    exec.runUntilIdle();
    ASSERT_EQ(done.size(), 8u);
    EXPECT_EQ(done[3], msec(1));
    EXPECT_EQ(done[7], msec(2));
}

// ---------------------------------------------------------------- sharding

/// A deterministic multi-core scenario: work on every shard, cross-core
/// mailbox hops, weak timers, RNG draws, and metrics — returns a trace
/// string suitable for byte-equality assertions.
std::string runShardScenario(Machine& m) {
    std::string trace;
    auto log = [&](int core, const char* label) {
        trace += "t=" + std::to_string(m.now()) + " c" + std::to_string(core) +
                 " " + label + "\n";
    };
    for (int c = 0; c < m.coreCount(); ++c) {
        Core& core = m.core(c);
        core.schedule(100 + 10 * c, [&, c] {
            log(c, "work");
            core.metrics().counter("shard.work").inc();
            uint64_t draw = core.rng().nextBounded(1000);
            trace += "  draw=" + std::to_string(draw) + "\n";
            // Hop to the next shard through the mailbox.
            int next = (c + 1) % m.coreCount();
            m.submitTo(next, [&, next] { log(next, "hopped"); });
        });
        core.scheduleWeak(500, [&, c] { log(c, "weak"); });
    }
    m.runUntilIdle();
    m.runFor(1000);
    trace += "xcore=" + std::to_string(m.crossCoreMessages()) + "\n";
    trace += m.mergedMetrics().dump();
    return trace;
}

TEST(ShardingTest, SameSeedSameCoreCountIsByteIdentical) {
    for (int cores : {2, 4, 8}) {
        Machine a(cores), b(cores);
        EXPECT_EQ(runShardScenario(a), runShardScenario(b)) << cores << " cores";
    }
}

TEST(ShardingTest, CrossCoreHopPaysHandoffLatency) {
    Machine m(2);
    TimePoint hopAt = -1;
    m.core(0).schedule(100, [&] { m.submitTo(1, [&] { hopAt = m.now(); }); });
    m.runUntilIdle();
    EXPECT_EQ(hopAt, 100 + m.config().handoffLatency);
    EXPECT_EQ(m.crossCoreMessages(), 1u);
}

TEST(ShardingTest, SameShardSubmitRunsInline) {
    Machine m(2);
    bool ranInline = false;
    m.core(1).schedule(100, [&] {
        m.submitTo(1, [&] { ranInline = true; });
        EXPECT_TRUE(ranInline) << "same-shard submit must be a direct call";
    });
    m.runUntilIdle();
    EXPECT_TRUE(ranInline);
    EXPECT_EQ(m.crossCoreMessages(), 0u);
}

TEST(ShardingTest, ClocksStayInLockstep) {
    Machine m(4);
    m.core(3).schedule(777, [&] {
        for (int c = 0; c < 4; ++c) EXPECT_EQ(m.core(c).now(), 777);
    });
    m.runUntilIdle();
    for (int c = 0; c < 4; ++c) EXPECT_EQ(m.core(c).now(), m.now());
}

TEST(ShardingTest, MergedMetricsFoldsSameNameAcrossCores) {
    Machine m(3);
    for (int c = 0; c < 3; ++c) {
        m.core(c).metrics().counter("shared.count").inc(static_cast<uint64_t>(c + 1));
        m.core(c).metrics().histogram("shared.lat").record(1000 * (c + 1));
    }
    const obs::MetricsRegistry& merged = m.mergedMetrics();
    EXPECT_EQ(merged.counterValue("shared.count"), 6u);
    const obs::LatencyHistogram* h = merged.findHistogram("shared.lat");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), 3u);
    EXPECT_EQ(h->maxNs(), 3000.0);
    // Per-core partitions are untouched by the merge.
    EXPECT_EQ(m.core(0).metrics().counterValue("shared.count"), 1u);
}

TEST(ShardingTest, SingleCoreMergedMetricsIsTheHomeRegistry) {
    Machine m;
    m.metrics().counter("x").inc();
    EXPECT_EQ(&m.mergedMetrics(), &m.metrics());
}

// Golden regression: the sharded substrate at N=1 must reproduce the
// pre-refactor single-executor trace byte-for-byte. The golden file was
// captured by running tests/golden/scenario.h against the legacy
// sim::Executor at the commit that introduced the Machine.
TEST(ShardingTest, SingleCoreReproducesPreShardGoldenTrace) {
    std::filesystem::path golden =
        std::filesystem::path(__FILE__).parent_path() / "golden" / "sim_trace_seed.txt";
    std::ifstream in(golden);
    ASSERT_TRUE(in.good()) << "missing golden file: " << golden;
    std::stringstream want;
    want << in.rdbuf();

    Machine exec;
    EXPECT_EQ(pravega::golden::runSimTraceScenario(exec), want.str());
}


// --- event queue -----------------------------------------------------------
// Each core keeps one binary min-heap of (time, seq) keys over a slab of
// tasks. These tests pin down (a) the merge order against a brute-force
// reference, (b) the one-selection-per-dispatch contract of the dispatch
// loops, (c) order across delays from zero to tens of milliseconds, and
// (d) that a running task survives a push that grows the slab.

TEST(SchedulerFastPath, DifferentialOrderMatchesReferenceMergeOrder) {
    Machine m;
    Core& core = m;
    // Reference model: every push records (fire time, push index). Within
    // one core the scheduler contract is exactly (time, seq) order, and seq
    // is assigned in push order, so a stable sort by time of the push log
    // IS the expected execution order.
    std::vector<std::pair<TimePoint, uint64_t>> pushed;
    std::vector<uint64_t> executed;
    uint64_t lcg = 0x5EEDu;
    auto rnd = [&]() {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        return lcg >> 33;
    };
    // Delay menu from due-now (listed twice, so zero delays are common)
    // through nanoseconds and microseconds to tens of milliseconds, so keys
    // pushed at different times interleave in the heap.
    const Duration menu[] = {0, 0, 13, usec(3), usec(300), msec(5),
                             msec(16), msec(17), msec(60)};
    size_t total = 0;
    std::function<void(uint64_t)> fire = [&](uint64_t id) {
        executed.push_back(id);
        int kids = static_cast<int>(rnd() % 4);
        for (int k = 0; k < kids && total < 1200; ++k) {
            Duration d = menu[rnd() % (sizeof(menu) / sizeof(menu[0]))];
            uint64_t child = total++;
            pushed.emplace_back(core.now() + d, child);
            core.schedule(d, [&fire, child] { fire(child); });
        }
    };
    for (int i = 0; i < 40; ++i) {
        Duration d = menu[rnd() % (sizeof(menu) / sizeof(menu[0]))];
        uint64_t id = total++;
        pushed.emplace_back(d, id);
        core.schedule(d, [&fire, id] { fire(id); });
    }
    m.runUntil(sec(10));
    ASSERT_EQ(executed.size(), pushed.size());

    std::vector<std::pair<TimePoint, uint64_t>> want = pushed;
    std::stable_sort(want.begin(), want.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(executed[i], want[i].second) << "divergence at event " << i;
    }
}

TEST(SchedulerFastPath, OneSelectionPerDispatchedEventInRunUntil) {
    Machine m(3);
    for (int c = 0; c < 3; ++c) {
        for (int i = 0; i < 50; ++i) {
            m.core(c).schedule(i * 37 + c + 1, [] {});
        }
    }
    uint64_t sel0 = m.schedulerSelections();
    uint64_t n = m.runUntil(sec(1));
    EXPECT_EQ(n, 150u);
    // Exactly one queue scan per dispatched event, plus the final scan that
    // observes the stop condition (the old loop scanned twice per event:
    // once for the deadline check and again inside runOne).
    EXPECT_EQ(m.schedulerSelections() - sel0, n + 1);
    EXPECT_EQ(m.executedEvents(), n);
}

TEST(SchedulerFastPath, RunOneDoesASingleSelection) {
    Machine m;
    m.schedule(5, [] {});
    uint64_t sel0 = m.schedulerSelections();
    EXPECT_TRUE(m.runOne());
    EXPECT_EQ(m.schedulerSelections() - sel0, 1u);
    EXPECT_FALSE(m.runOne());  // idle: one more selection, no dispatch
    EXPECT_EQ(m.schedulerSelections() - sel0, 2u);
    EXPECT_EQ(m.executedEvents(), 1u);
}

TEST(SchedulerFastPath, LaterPushesDueEarlierRunBeforePendingEvent) {
    Machine m;
    std::vector<int> order;
    // A: pushed first, due 50 ms out.
    m.schedule(msec(50), [&] { order.push_back(0); });
    m.runUntil(msec(40));
    // B: pushed at 40 ms, due at 41 ms, before A. C: a due-now post,
    // pushed last and run first.
    m.schedule(msec(1), [&] { order.push_back(1); });
    m.post([&] { order.push_back(2); });
    m.runUntil(msec(100));
    EXPECT_EQ(order, (std::vector<int>{2, 1, 0}));
}

TEST(SchedulerFastPath, ChainedTimersInterleaveWithPendingEvent) {
    Machine m;
    std::vector<int> order;
    // A chain of 16 ms timers, each scheduled when the previous one fires,
    // against one event pushed up front that falls between two of them.
    m.schedule(msec(16), [&] {
        order.push_back(0);
        m.schedule(msec(16), [&] {
            order.push_back(1);
            m.schedule(msec(16), [&] { order.push_back(2); });
        });
    });
    m.schedule(msec(40), [&] { order.push_back(3); });
    m.runUntil(msec(200));
    EXPECT_EQ(order, (std::vector<int>{0, 1, 3, 2}));
}

TEST(SchedulerFastPath, CrossCoreTiesGoToLowestCoreId) {
    Machine m(4);
    std::vector<int> order;
    for (int c = 3; c >= 0; --c) {
        m.core(c).schedule(100, [&order, c] { order.push_back(c); });
    }
    m.runUntilIdle();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SchedulerFastPath, PendingRegularTasksIsIncremental) {
    Machine m(2);
    EXPECT_EQ(m.pendingRegularTasks(), 0u);
    m.core(0).schedule(10, [] {});
    m.core(1).schedule(20, [] {});
    m.core(1).scheduleWeak(30, [] {});
    EXPECT_EQ(m.pendingRegularTasks(), 2u);
    EXPECT_EQ(m.pendingTasks(), 3u);
    m.runUntilIdle();
    EXPECT_EQ(m.pendingRegularTasks(), 0u);
    EXPECT_EQ(m.pendingTasks(), 1u);  // the weak timer stays queued
}

TEST(SchedulerFastPath, SlabGrowsWhileATaskRuns) {
    // Each task schedules enough others to reallocate the task slab several
    // times, then reads its own capture. The task must have been moved out
    // of the slab before it ran: run in place, an inline closure would read
    // freed slab storage.
    Machine m;
    std::string text(100, 'x');  // not const: a const capture is copied, not moved
    std::vector<size_t> seen;
    auto spawn = [&m] {
        for (int i = 0; i < 1000; ++i) m.schedule(1, [] {});
    };
    std::array<char, 16> pad16{};
    auto inlineTask = [&seen, &spawn, text, pad16] {
        spawn();
        seen.push_back(text.size() + pad16.size());
    };
    std::array<char, 64> pad64{};
    auto spilledTask = [&seen, &spawn, text, pad64] {
        spawn();
        seen.push_back(text.size() + pad64.size());
    };
    static_assert(sizeof(inlineTask) <= Core::Task::kInlineBytes);
    static_assert(sizeof(spilledTask) > Core::Task::kInlineBytes);
    m.post(std::move(inlineTask));
    m.post(std::move(spilledTask));
    m.runUntilIdle();
    EXPECT_EQ(seen, (std::vector<size_t>{116, 164}));
    EXPECT_EQ(m.executedEvents(), 2002u);
    EXPECT_EQ(m.pendingTasks(), 0u);
}

}  // namespace
}  // namespace pravega::sim
