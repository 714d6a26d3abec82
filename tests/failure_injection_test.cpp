// Failure-injection tests: LTS outages and flaky operations against the
// storage writer (§4.3: "if LTS is not available or is temporarily slow"),
// reader resilience across repeated failovers, and rapid consecutive scale
// events (successor-of-successor re-routing).
#include <gtest/gtest.h>

#include "client/event_reader.h"
#include "cluster/pravega_cluster.h"
#include "lts/fault_injection.h"
#include "segmentstore/container.h"
#include "sim/network.h"

namespace pravega {
namespace {

using cluster::ClusterConfig;
using cluster::PravegaCluster;
using controller::StreamConfig;
using segmentstore::ContainerConfig;
using segmentstore::SegmentContainer;
using segmentstore::SegmentId;
using segmentstore::makeSegmentId;

// ------------------- decorator unit behavior -----------------------------

TEST(FaultInjectionDecoratorTest, ReadFailureCountsExactlyOnce) {
    sim::Machine exec;
    lts::InMemoryChunkStorage inner;
    lts::FaultInjectionChunkStorage flaky(exec, inner,
                                          lts::FaultInjectionChunkStorage::Config{});
    flaky.startOutage(sim::sec(1));
    auto fut = flaky.read("c", 0, 10);
    ASSERT_TRUE(fut.isReady());
    EXPECT_EQ(fut.result().code(), Err::IoError);
    // Regression: the read path used to bump the counter a second time on
    // top of shouldFail()'s own accounting.
    EXPECT_EQ(flaky.injectedFailures(), 1u);
}

TEST(FaultInjectionDecoratorTest, StatHonorsOutagesAndOpMask) {
    sim::Machine exec;
    lts::InMemoryChunkStorage inner;
    inner.create("c");
    inner.append("c", SharedBuf(toBytes("abc")));
    exec.runUntilIdle();
    lts::FaultInjectionChunkStorage flaky(exec, inner,
                                          lts::FaultInjectionChunkStorage::Config{});
    ASSERT_TRUE(flaky.stat("c").isOk());

    // An unavailable LTS cannot answer metadata probes either.
    flaky.startOutage(sim::sec(1));
    EXPECT_EQ(flaky.stat("c").code(), Err::IoError);

    // Restricting the failure mask to appends exempts stat and read even
    // inside the outage window.
    flaky.setFailOps(lts::FaultInjectionChunkStorage::kAppend);
    EXPECT_TRUE(flaky.stat("c").isOk());
    auto read = flaky.read("c", 0, 3);
    ASSERT_TRUE(read.isReady());
    EXPECT_TRUE(read.result().isOk());
    auto append = flaky.append("c", SharedBuf(toBytes("x")));
    ASSERT_TRUE(append.isReady());
    EXPECT_EQ(append.result().code(), Err::IoError);

    flaky.endOutage();
    flaky.setFailOps(lts::FaultInjectionChunkStorage::kAllOps);
    EXPECT_TRUE(flaky.stat("c").isOk());
}

// ------------------- container + flaky LTS (direct wiring) ---------------

struct FlakyLtsFixture : public ::testing::Test {
    sim::Machine exec;
    sim::Network net{exec, sim::Link::Config{}};
    sim::DiskModel::Config diskCfg;
    std::vector<std::unique_ptr<sim::DiskModel>> disks;
    std::vector<std::unique_ptr<wal::Bookie>> bookies;
    wal::LedgerRegistry registry;
    wal::LogMetadataStore logMeta;
    lts::InMemoryChunkStorage innerLts;
    segmentstore::BlockCache cache{segmentstore::BlockCache::Config{}};
    static constexpr SegmentId kSeg = makeSegmentId(0, 1);

    FlakyLtsFixture() {
        for (int i = 0; i < 3; ++i) {
            disks.push_back(std::make_unique<sim::DiskModel>(exec, diskCfg));
            bookies.push_back(std::make_unique<wal::Bookie>(exec, 100 + i, *disks.back(),
                                                            wal::Bookie::Config{}));
        }
    }
    wal::WalEnv env() {
        std::vector<wal::Bookie*> ptrs;
        for (auto& b : bookies) ptrs.push_back(b.get());
        return wal::WalEnv{exec, net, registry, logMeta, ptrs};
    }
    ContainerConfig fastConfig() {
        ContainerConfig cfg;
        cfg.storage.flushTimeout = sim::msec(50);
        cfg.storage.scanInterval = sim::msec(10);
        cfg.storage.flushSizeBytes = 4096;
        cfg.checkpointEveryOps = 50;
        return cfg;
    }
};

TEST_F(FlakyLtsFixture, FlushesResumeAfterLtsOutage) {
    lts::FaultInjectionChunkStorage flaky(exec, innerLts,
                                          lts::FaultInjectionChunkStorage::Config{});
    SegmentContainer c(exec, 1, env(), 1, flaky, cache, fastConfig());
    ASSERT_TRUE(c.start().isOk());
    c.createSegment(kSeg, "s");
    exec.runUntilIdle();

    // Write during a hard LTS outage: appends must still acknowledge (the
    // WAL is the durability anchor), and nothing lands in LTS.
    flaky.startOutage(sim::sec(5));
    int acked = 0;
    for (int i = 0; i < 20; ++i) {
        c.append(kSeg, SharedBuf(Bytes(1000, 'o')), 0, -1, 1)
            .onComplete([&](const Result<int64_t>& r) { acked += r.isOk(); });
    }
    exec.runFor(sim::sec(2));
    EXPECT_EQ(acked, 20);
    EXPECT_EQ(innerLts.totalBytes(), 0u);
    EXPECT_GT(flaky.injectedFailures(), 0u);
    EXPECT_EQ(c.getInfo(kSeg).value().storageLength, 0);

    // After the outage ends the storage writer retries and drains the
    // entire backlog to LTS (idempotent flush resumption).
    exec.runFor(sim::sec(5));
    EXPECT_EQ(c.getInfo(kSeg).value().storageLength, 20000);
    EXPECT_EQ(innerLts.totalBytes(), 20000u);
}

TEST_F(FlakyLtsFixture, RandomLtsFailuresNeverLoseData) {
    lts::FaultInjectionChunkStorage::Config fcfg;
    fcfg.failureProbability = 0.3;
    fcfg.seed = 99;
    lts::FaultInjectionChunkStorage flaky(exec, innerLts, fcfg);
    SegmentContainer c(exec, 1, env(), 1, flaky, cache, fastConfig());
    ASSERT_TRUE(c.start().isOk());
    c.createSegment(kSeg, "s");
    exec.runUntilIdle();

    Bytes expected;
    for (int i = 0; i < 50; ++i) {
        Bytes piece(997, static_cast<uint8_t>(i));
        expected.insert(expected.end(), piece.begin(), piece.end());
        c.append(kSeg, SharedBuf(std::move(piece)), 0, -1, 1);
        exec.runFor(sim::msec(20));
    }
    exec.runFor(sim::sec(20));  // enough retries to win 30% failure odds

    EXPECT_GT(flaky.injectedFailures(), 0u);
    EXPECT_EQ(c.getInfo(kSeg).value().storageLength,
              static_cast<int64_t>(expected.size()));

    // Every byte matches what was appended (no duplication or holes from
    // retried flushes), verified through the container read path.
    auto fut = c.read(kSeg, 0, static_cast<int64_t>(expected.size()));
    exec.runUntilIdle();
    ASSERT_TRUE(fut.isReady());
    ASSERT_TRUE(fut.result().isOk());
    // The read may return a prefix (iterator semantics); walk to the end.
    Bytes got = fut.result().value().data;
    while (got.size() < expected.size()) {
        auto more = c.read(kSeg, static_cast<int64_t>(got.size()),
                           static_cast<int64_t>(expected.size() - got.size()));
        exec.runUntilIdle();
        ASSERT_TRUE(more.isReady() && more.result().isOk());
        ASSERT_FALSE(more.result().value().data.empty());
        got.insert(got.end(), more.result().value().data.begin(),
                   more.result().value().data.end());
    }
    EXPECT_EQ(got, expected);
}

TEST_F(FlakyLtsFixture, SlowLtsAddsLatencyButKeepsOrder) {
    lts::FaultInjectionChunkStorage::Config fcfg;
    fcfg.extraLatency = sim::msec(50);
    lts::FaultInjectionChunkStorage slow(exec, innerLts, fcfg);
    SegmentContainer c(exec, 1, env(), 1, slow, cache, fastConfig());
    ASSERT_TRUE(c.start().isOk());
    c.createSegment(kSeg, "s");
    exec.runUntilIdle();
    for (int i = 0; i < 10; ++i) {
        c.append(kSeg, SharedBuf(toBytes("e" + std::to_string(i) + ";")), 0, -1, 1);
    }
    exec.runFor(sim::sec(3));
    EXPECT_GT(c.getInfo(kSeg).value().storageLength, 0);
    auto fut = c.read(kSeg, 0, 1024);
    exec.runUntilIdle();
    ASSERT_TRUE(fut.result().isOk());
    EXPECT_EQ(toString(BytesView(fut.result().value().data)).substr(0, 6), "e0;e1;");
}

// ------------------- whole-cluster failure scenarios ---------------------

struct ClusterFailureFixture : public ::testing::Test {
    ClusterConfig cfg() {
        ClusterConfig c;
        c.ltsKind = cluster::LtsKind::InMemory;
        return c;
    }
    PravegaCluster cluster{cfg()};
};

TEST_F(ClusterFailureFixture, TwoSequentialStoreCrashes) {
    ASSERT_TRUE(cluster.createStream("sc", "st", StreamConfig{}).isOk());
    auto writer = cluster.makeWriter("sc/st");
    int acked = 0;
    auto writeBatch = [&](const std::string& tag) {
        for (int i = 0; i < 30; ++i) {
            writer = cluster.makeWriter("sc/st");  // fresh writer per phase
            break;
        }
        for (int i = 0; i < 30; ++i) {
            writer->writeEvent("k", toBytes(tag + std::to_string(i)),
                               [&](Status s) { acked += s.isOk(); });
        }
        writer->flush();
        cluster.runUntilIdle();
    };
    writeBatch("a");
    ASSERT_TRUE(cluster.crashStore(0).isOk());
    cluster.runUntilIdle();
    writeBatch("b");
    ASSERT_TRUE(cluster.crashStore(1).isOk());
    cluster.runUntilIdle();
    writeBatch("c");
    EXPECT_EQ(acked, 90);

    // All 90 events survive two crashes, in order.
    auto group = cluster.makeReaderGroup("g", {"sc/st"});
    auto reader = group.value()->createReader("r", cluster.newClientHost());
    std::vector<std::string> got;
    for (int i = 0; i < 90; ++i) {
        auto fut = reader->readNextEvent();
        ASSERT_TRUE(cluster.runUntil([&]() { return fut.isReady(); }, sim::sec(10))) << i;
        ASSERT_TRUE(fut.result().isOk());
        got.push_back(toString(BytesView(fut.result().value().payload)));
    }
    for (int i = 0; i < 30; ++i) {
        EXPECT_EQ(got[static_cast<size_t>(i)], "a" + std::to_string(i));
        EXPECT_EQ(got[static_cast<size_t>(i + 30)], "b" + std::to_string(i));
        EXPECT_EQ(got[static_cast<size_t>(i + 60)], "c" + std::to_string(i));
    }
}

TEST_F(ClusterFailureFixture, WriterFollowsStoreCrash) {
    // One writer spans the crash of its container's store: the registry
    // names a survivor, so the writer reconnects there and the second
    // burst lands exactly once, after the first (§4.4, §3.2).
    ASSERT_TRUE(cluster.createStream("sc", "st", StreamConfig{}).isOk());
    auto writer = cluster.makeWriter("sc/st");
    int acked = 0;
    auto writeBurst = [&](const std::string& tag) {
        for (int i = 0; i < 20; ++i) {
            writer->writeEvent("k", toBytes(tag + std::to_string(i)),
                               [&](Status s) { acked += s.isOk() ? 1 : 0; });
        }
        writer->flush();
        cluster.runUntilIdle();
    };
    writeBurst("a");
    ASSERT_EQ(acked, 20);

    uint32_t cid = cluster.ctrl().getCurrentSegments("sc/st").value().at(0).containerId;
    sim::HostId ownerHost = cluster.registry().ownerOf(cid)->host();
    size_t victim = 0;
    while (cluster.storeHost(victim) != ownerHost) ++victim;
    ASSERT_TRUE(cluster.crashStore(victim).isOk());
    cluster.runUntilIdle();
    writeBurst("b");
    EXPECT_EQ(acked, 40);

    auto group = cluster.makeReaderGroup("g", {"sc/st"});
    auto reader = group.value()->createReader("r", cluster.newClientHost());
    for (int i = 0; i < 40; ++i) {
        auto fut = reader->readNextEvent();
        ASSERT_TRUE(cluster.runUntil([&]() { return fut.isReady(); }, sim::sec(10))) << i;
        ASSERT_TRUE(fut.result().isOk()) << fut.result().status().toString();
        std::string want = (i < 20 ? "a" : "b") + std::to_string(i % 20);
        EXPECT_EQ(toString(BytesView(fut.result().value().payload)), want);
    }
    auto extra = reader->readNextEvent();
    cluster.runFor(sim::sec(1));
    EXPECT_FALSE(extra.isReady()) << "an event was delivered twice";
}

TEST_F(ClusterFailureFixture, WriterFailsWhenContainerDiesInPlace) {
    // Every bookie down: the container's WAL loses quorum and the container
    // shuts itself down, but stays registered to its store. The writer must
    // fail the events rather than reconnect to the same owner forever.
    ASSERT_TRUE(cluster.createStream("sc", "st", StreamConfig{}).isOk());
    auto writer = cluster.makeWriter("sc/st");
    writer->writeEvent("k", toBytes("before"));
    writer->flush();
    cluster.runUntilIdle();
    for (size_t b = 0; b < 3; ++b) ASSERT_TRUE(cluster.crashBookie(b).isOk());
    // The first block's WAL write fails and takes the container offline;
    // the second block reaches the offline container.
    for (int round = 0; round < 2; ++round) {
        int done = 0, ok = 0;
        for (int i = 0; i < 5; ++i) {
            writer->writeEvent("k", toBytes("after" + std::to_string(i)), [&](Status s) {
                ++done;
                ok += s.isOk() ? 1 : 0;
            });
        }
        writer->flush();
        ASSERT_TRUE(cluster.runUntil([&]() { return done == 5; }, sim::sec(30))) << round;
        EXPECT_EQ(ok, 0);
    }
}

TEST_F(ClusterFailureFixture, CrashDuringActiveReaders) {
    ASSERT_TRUE(cluster.createStream("sc", "st", StreamConfig{}).isOk());
    auto writer = cluster.makeWriter("sc/st");
    for (int i = 0; i < 60; ++i) {
        writer->writeEvent("k", toBytes("ev" + std::to_string(i)));
    }
    writer->flush();
    cluster.runUntilIdle();

    auto group = cluster.makeReaderGroup("g", {"sc/st"});
    auto reader = group.value()->createReader("r", cluster.newClientHost());
    int total = 0;
    for (; total < 20; ++total) {
        auto fut = reader->readNextEvent();
        ASSERT_TRUE(cluster.runUntil([&]() { return fut.isReady(); }, sim::sec(10)));
        ASSERT_TRUE(fut.result().isOk());
    }
    // Crash mid-read: the reader's in-flight fetches fail over and retry.
    ASSERT_TRUE(cluster.crashStore(2).isOk());
    for (; total < 60; ++total) {
        auto fut = reader->readNextEvent();
        ASSERT_TRUE(cluster.runUntil([&]() { return fut.isReady(); }, sim::sec(10))) << total;
        ASSERT_TRUE(fut.result().isOk()) << fut.result().status().toString();
        EXPECT_EQ(toString(BytesView(fut.result().value().payload)),
                  "ev" + std::to_string(total));
    }
}

TEST_F(ClusterFailureFixture, RapidConsecutiveScales) {
    // Split the same key range twice in quick succession: events queued for
    // re-route may find their successor ALREADY sealed again and must
    // requeue behind the successor's successor.
    StreamConfig scfg;
    scfg.initialSegments = 1;
    ASSERT_TRUE(cluster.createStream("sc", "st", scfg).isOk());
    auto writer = cluster.makeWriter("sc/st");
    std::map<std::string, int> written;
    int acked = 0;
    auto burst = [&](int n) {
        for (int i = 0; i < n; ++i) {
            std::string key = "key-" + std::to_string(i % 4);
            writer->writeEvent(key, toBytes(key + "#" + std::to_string(written[key]++)),
                               [&](Status s) { acked += s.isOk(); });
        }
        writer->flush();
    };
    burst(100);
    // First scale: split [0,1) → [0,0.5) + [0.5,1).
    SegmentId s0 = cluster.ctrl().getCurrentSegments("sc/st").value()[0].record.id;
    auto scale1 = cluster.ctrl().scaleStream("sc/st", {s0}, {{0.0, 0.5}, {0.5, 1.0}});
    burst(100);
    ASSERT_TRUE(cluster.runUntil([&]() { return scale1.isReady(); }, sim::sec(10)));
    // Second scale immediately: split one of the new halves again.
    auto current = cluster.ctrl().getCurrentSegments("sc/st").value();
    auto scale2 = cluster.ctrl().scaleStream(
        "sc/st", {current[0].record.id},
        {{current[0].record.keyStart,
          (current[0].record.keyStart + current[0].record.keyEnd) / 2},
         {(current[0].record.keyStart + current[0].record.keyEnd) / 2,
          current[0].record.keyEnd}});
    burst(100);
    ASSERT_TRUE(cluster.runUntil([&]() { return scale2.isReady(); }, sim::sec(10)));
    burst(100);
    writer->flush();
    cluster.runUntilIdle();
    cluster.runFor(sim::sec(1));
    cluster.runUntilIdle();
    EXPECT_EQ(acked, 400);

    auto group = cluster.makeReaderGroup("g", {"sc/st"});
    auto reader = group.value()->createReader("r", cluster.newClientHost());
    std::map<std::string, int> seen;
    int total = 0;
    while (total < 400) {
        auto fut = reader->readNextEvent();
        if (!cluster.runUntil([&]() { return fut.isReady(); }, sim::sec(5))) break;
        if (!fut.result().isOk()) break;
        std::string s = toString(BytesView(fut.result().value().payload));
        auto hash = s.find('#');
        std::string key = s.substr(0, hash);
        int seq = std::stoi(s.substr(hash + 1));
        EXPECT_EQ(seq, seen[key]) << key;
        seen[key] = seq + 1;
        ++total;
    }
    EXPECT_EQ(total, 400);
}

TEST_F(ClusterFailureFixture, ScaleDownMergeHoldsUntilPredecessorsDone) {
    // Fig 2c: after a merge, the merged segment may not be read until BOTH
    // predecessors are fully consumed.
    StreamConfig scfg;
    scfg.initialSegments = 2;
    ASSERT_TRUE(cluster.createStream("sc", "st", scfg).isOk());
    auto writer = cluster.makeWriter("sc/st");
    std::map<std::string, int> written;
    for (int i = 0; i < 200; ++i) {
        std::string key = "key-" + std::to_string(i % 6);
        writer->writeEvent(key, toBytes(key + "#" + std::to_string(written[key]++)));
    }
    writer->flush();
    cluster.runUntilIdle();

    // Merge the two segments into one.
    auto current = cluster.ctrl().getCurrentSegments("sc/st").value();
    auto merge = cluster.ctrl().scaleStream(
        "sc/st", {current[0].record.id, current[1].record.id}, {{0.0, 1.0}});
    ASSERT_TRUE(cluster.runUntil([&]() { return merge.isReady(); }, sim::sec(10)));
    ASSERT_TRUE(merge.result().isOk());
    for (int i = 0; i < 200; ++i) {
        std::string key = "key-" + std::to_string(i % 6);
        writer->writeEvent(key, toBytes(key + "#" + std::to_string(written[key]++)));
    }
    writer->flush();
    cluster.runUntilIdle();

    auto group = cluster.makeReaderGroup("g", {"sc/st"});
    auto r1 = group.value()->createReader("r1", cluster.newClientHost());
    auto r2 = group.value()->createReader("r2", cluster.newClientHost());
    std::map<std::string, int> seen;
    int total = 0;
    auto consume = [&](client::EventReader& r) {
        auto fut = r.readNextEvent();
        if (!cluster.runUntil([&]() { return fut.isReady(); }, sim::sec(2))) return false;
        if (!fut.result().isOk()) return false;
        std::string s = toString(BytesView(fut.result().value().payload));
        auto hash = s.find('#');
        std::string key = s.substr(0, hash);
        int seq = std::stoi(s.substr(hash + 1));
        // THE merge-hold invariant: post-merge events (seq >= pre-merge
        // count) may never appear before the predecessor's are done.
        EXPECT_EQ(seq, seen[key]) << "merge hold violated for " << key;
        seen[key] = seq + 1;
        ++total;
        return true;
    };
    while (total < 400) {
        if (!consume(*r1) && !consume(*r2)) break;
    }
    EXPECT_EQ(total, 400);
}

}  // namespace
}  // namespace pravega
