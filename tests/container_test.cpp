// Tests for the segment container: the operation pipeline, exactly-once
// writer protocol, reads (cache/LTS/tail), storage tiering with WAL
// truncation, metadata checkpoints, crash recovery, and fencing (§4).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "lts/chunk_storage.h"
#include "lts/fault_injection.h"
#include "segmentstore/container.h"
#include "sim/network.h"

namespace pravega::segmentstore {
namespace {

struct ContainerFixture : public ::testing::Test {
    sim::Machine exec;
    sim::Network net{exec, sim::Link::Config{}};
    sim::DiskModel::Config diskCfg;
    std::vector<std::unique_ptr<sim::DiskModel>> disks;
    std::vector<std::unique_ptr<wal::Bookie>> bookies;
    wal::LedgerRegistry registry;
    wal::LogMetadataStore logMeta;
    lts::InMemoryChunkStorage lts;
    BlockCache cache{BlockCache::Config{}};

    static constexpr SegmentId kSeg = makeSegmentId(0, 1);

    ContainerFixture() {
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
        cfg.maxBatchDelay = sim::msec(2);
        cfg.checkpointEveryOps = 50;
        cfg.checkpointEveryBytes = 1024 * 1024;
        cfg.storage.flushTimeout = sim::msec(50);
        cfg.storage.scanInterval = sim::msec(10);
        cfg.storage.flushSizeBytes = 4096;
        return cfg;
    }

    std::unique_ptr<SegmentContainer> makeContainer(uint32_t id = 1,
                                                    ContainerConfig cfg = {},
                                                    lts::ChunkStorage* storage = nullptr) {
        auto c = std::make_unique<SegmentContainer>(exec, id, env(), /*host=*/1,
                                                    storage ? *storage : lts, cache, cfg);
        EXPECT_TRUE(c->start().isOk());
        return c;
    }

    SharedBuf payload(const std::string& s) { return SharedBuf(toBytes(s)); }

    /// Appends and runs the sim until the append is durable.
    int64_t appendSync(SegmentContainer& c, SegmentId seg, const std::string& data,
                       WriterId writer = 0, int64_t eventNumber = -1) {
        auto fut = c.append(seg, payload(data), writer, eventNumber, 1);
        exec.runUntilIdle();
        EXPECT_TRUE(fut.isReady());
        EXPECT_TRUE(fut.result().isOk()) << fut.result().status().toString();
        return fut.result().isOk() ? fut.result().value() : -999;
    }

    /// "ok" when [0, length) of `seg`, read straight from the LTS chunks its
    /// storage writer lists, is `length` bytes of `fill`; else what is wrong.
    std::string chunksHold(SegmentContainer& c, SegmentId seg, int64_t length, char fill) {
        int64_t cursor = 0;
        for (const auto& rec : c.storageWriter().findChunks(seg, 0, length)) {
            if (rec.startOffset != cursor) return "gap at " + std::to_string(cursor);
            auto data = lts.read(rec.name, 0, static_cast<uint64_t>(rec.length));
            exec.runUntilIdle();
            if (!data.result().isOk()) return "missing chunk " + rec.name;
            for (uint8_t b : data.result().value().view()) {
                if (b != static_cast<uint8_t>(fill)) {
                    return "wrong byte at " + std::to_string(cursor);
                }
                ++cursor;
            }
        }
        return cursor == length ? "ok" : "chunks end at " + std::to_string(cursor);
    }

    Bytes readSync(SegmentContainer& c, SegmentId seg, int64_t offset, int64_t maxBytes) {
        auto fut = c.read(seg, offset, maxBytes);
        exec.runUntilIdle();
        EXPECT_TRUE(fut.isReady());
        EXPECT_TRUE(fut.result().isOk()) << fut.result().status().toString();
        return fut.result().isOk() ? fut.result().value().data : Bytes{};
    }
};

TEST_F(ContainerFixture, CreateAppendRead) {
    auto c = makeContainer(1, fastConfig());
    c->createSegment(kSeg, "scope/stream/segment-0.1");
    exec.runUntilIdle();

    EXPECT_EQ(appendSync(*c, kSeg, "hello "), 0);
    EXPECT_EQ(appendSync(*c, kSeg, "world"), 6);
    EXPECT_EQ(toString(BytesView(readSync(*c, kSeg, 0, 100))), "hello world");

    auto info = c->getInfo(kSeg);
    ASSERT_TRUE(info.isOk());
    EXPECT_EQ(info.value().length, 11);
    EXPECT_EQ(info.value().name, "scope/stream/segment-0.1");
}

TEST_F(ContainerFixture, AppendToMissingSegmentFails) {
    auto c = makeContainer(1, fastConfig());
    auto fut = c->append(kSeg, payload("x"), 0, -1, 1);
    exec.runUntilIdle();
    EXPECT_EQ(fut.result().code(), Err::NotFound);
}

TEST_F(ContainerFixture, DuplicateCreateFails) {
    auto c = makeContainer(1, fastConfig());
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();
    auto fut = c->createSegment(kSeg, "s");
    exec.runUntilIdle();
    EXPECT_EQ(fut.result().code(), Err::AlreadyExists);
}

TEST_F(ContainerFixture, ManyAppendsMultiplexIntoFewFrames) {
    auto c = makeContainer(1, fastConfig());
    // Two segments share the container's single WAL log.
    SegmentId segB = makeSegmentId(0, 2);
    c->createSegment(kSeg, "a");
    c->createSegment(segB, "b");
    exec.runUntilIdle();
    int acked = 0;
    for (int i = 0; i < 200; ++i) {
        c->append((i % 2) ? kSeg : segB, payload("0123456789"), 0, -1, 1)
            .onComplete([&](const Result<int64_t>& r) {
                ASSERT_TRUE(r.isOk());
                ++acked;
            });
    }
    exec.runUntilIdle();
    EXPECT_EQ(acked, 200);
    // 200 ops but far fewer WAL entries (frames batch ops together).
    EXPECT_LT(c->walLog().nextSequence(), 60);
    EXPECT_EQ(c->getInfo(kSeg).value().length, 1000);
    EXPECT_EQ(c->getInfo(segB).value().length, 1000);
}

TEST_F(ContainerFixture, WriterDedupIgnoresStaleEventNumbers) {
    auto c = makeContainer(1, fastConfig());
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();

    constexpr WriterId writer = 77;
    EXPECT_EQ(appendSync(*c, kSeg, "batch-1", writer, 10), 0);
    EXPECT_EQ(c->getWriterLastEventNumber(kSeg, writer), 10);

    // Retransmission of the same batch: acknowledged but NOT appended.
    EXPECT_EQ(appendSync(*c, kSeg, "batch-1", writer, 10), -1);
    EXPECT_EQ(c->getInfo(kSeg).value().length, 7);

    // Newer event number appends normally.
    EXPECT_EQ(appendSync(*c, kSeg, "batch-2", writer, 20), 7);
    EXPECT_EQ(c->getWriterLastEventNumber(kSeg, writer), 20);
    EXPECT_EQ(toString(BytesView(readSync(*c, kSeg, 0, 100))), "batch-1batch-2");
}

TEST_F(ContainerFixture, WritersTrackedIndependently) {
    auto c = makeContainer(1, fastConfig());
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();
    appendSync(*c, kSeg, "a", 1, 5);
    appendSync(*c, kSeg, "b", 2, 3);
    EXPECT_EQ(c->getWriterLastEventNumber(kSeg, 1), 5);
    EXPECT_EQ(c->getWriterLastEventNumber(kSeg, 2), 3);
    EXPECT_EQ(c->getWriterLastEventNumber(kSeg, 3), kNullValue);
}

TEST_F(ContainerFixture, ConditionalAppend) {
    auto c = makeContainer(1, fastConfig());
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();
    auto ok = c->conditionalAppend(kSeg, payload("first"), 0);
    exec.runUntilIdle();
    EXPECT_TRUE(ok.result().isOk());

    auto stale = c->conditionalAppend(kSeg, payload("lost-race"), 0);
    exec.runUntilIdle();
    EXPECT_EQ(stale.result().code(), Err::BadOffset);

    auto next = c->conditionalAppend(kSeg, payload("!"), 5);
    exec.runUntilIdle();
    EXPECT_TRUE(next.result().isOk());
    EXPECT_EQ(toString(BytesView(readSync(*c, kSeg, 0, 100))), "first!");
}

TEST_F(ContainerFixture, SealRejectsAppendsAndEndsReads) {
    auto c = makeContainer(1, fastConfig());
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();
    appendSync(*c, kSeg, "data");
    c->seal(kSeg);
    exec.runUntilIdle();

    auto fut = c->append(kSeg, payload("more"), 0, -1, 1);
    exec.runUntilIdle();
    EXPECT_EQ(fut.result().code(), Err::Sealed);

    // Reading past the data returns end-of-segment instead of blocking.
    auto read = c->read(kSeg, 4, 100);
    exec.runUntilIdle();
    ASSERT_TRUE(read.result().isOk());
    EXPECT_TRUE(read.result().value().endOfSegment);
}

TEST_F(ContainerFixture, TailReadCompletesOnAppend) {
    auto c = makeContainer(1, fastConfig());
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();

    auto read = c->read(kSeg, 0, 100);  // nothing written yet
    exec.runUntilIdle();
    EXPECT_FALSE(read.isReady());  // §4.2: a future completed on new data

    c->append(kSeg, payload("tail-data"), 0, -1, 1);
    exec.runUntilIdle();
    ASSERT_TRUE(read.isReady());
    ASSERT_TRUE(read.result().isOk());
    EXPECT_EQ(toString(BytesView(read.result().value().data)), "tail-data");
}

TEST_F(ContainerFixture, TruncateMovesStartOffset) {
    auto c = makeContainer(1, fastConfig());
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();
    appendSync(*c, kSeg, "0123456789");
    c->truncate(kSeg, 4);
    exec.runUntilIdle();

    auto before = c->read(kSeg, 0, 10);
    exec.runUntilIdle();
    EXPECT_EQ(before.result().code(), Err::Truncated);
    EXPECT_EQ(toString(BytesView(readSync(*c, kSeg, 4, 10))), "456789");
    EXPECT_EQ(c->getInfo(kSeg).value().startOffset, 4);
}

TEST_F(ContainerFixture, DeleteSegment) {
    auto c = makeContainer(1, fastConfig());
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();
    appendSync(*c, kSeg, "bye");
    c->deleteSegment(kSeg);
    exec.runUntilIdle();
    EXPECT_EQ(c->getInfo(kSeg).code(), Err::NotFound);
    auto fut = c->append(kSeg, payload("x"), 0, -1, 1);
    exec.runUntilIdle();
    EXPECT_EQ(fut.result().code(), Err::NotFound);
}

TEST_F(ContainerFixture, StorageWriterFlushesToLts) {
    auto c = makeContainer(1, fastConfig());
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();
    appendSync(*c, kSeg, std::string(10000, 'x'));  // above flushSizeBytes

    exec.runFor(sim::sec(1));  // let the storage writer run
    EXPECT_GT(c->storageWriter().flushedBytes(), 0u);
    EXPECT_EQ(c->getInfo(kSeg).value().storageLength, 10000);
    EXPECT_GT(lts.totalBytes(), 0u);
    // Chunk metadata recorded in the container's system table segment.
    auto chunks = c->tableScan(c->systemTableSegment(), "chunks/");
    EXPECT_FALSE(chunks.empty());
}

TEST_F(ContainerFixture, ChunksRollOver) {
    auto cfg = fastConfig();
    cfg.storage.maxChunkBytes = 4096;
    auto c = makeContainer(1, cfg);
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();
    appendSync(*c, kSeg, std::string(20000, 'y'));
    exec.runFor(sim::sec(1));
    auto chunks = c->tableScan(c->systemTableSegment(), "chunks/");
    EXPECT_GE(chunks.size(), 5u);  // 20000 / 4096
    EXPECT_EQ(c->getInfo(kSeg).value().storageLength, 20000);
}

TEST_F(ContainerFixture, CompactorMergesSmallChunksAndPreservesOffsets) {
    // Phase 1: a container configured with tiny chunks litters LTS with
    // small objects (the real-world source of small-chunk runs is a raised
    // maxChunkBytes across restarts — reproduced here via recovery).
    {
        auto cfg = fastConfig();
        cfg.storage.maxChunkBytes = 1024;
        auto c = makeContainer(1, cfg);
        c->createSegment(kSeg, "s");
        exec.runUntilIdle();
        appendSync(*c, kSeg, std::string(8192, 'y'));
        exec.runFor(sim::sec(1));
        auto before = c->tableScan(c->systemTableSegment(), "chunks/");
        ASSERT_GE(before.size(), 8u);
    }  // container dies; metadata + chunks survive in lts/WAL

    // Phase 2: successor with bigger chunks and compaction enabled.
    auto cfg = fastConfig();
    cfg.storage.maxChunkBytes = 16 * 1024;
    cfg.storage.compactMinChunkBytes = 4096;  // the 1 KB chunks qualify
    cfg.storage.compactInterval = sim::msec(100);
    auto c = makeContainer(1, cfg);
    exec.runUntilIdle();
    // An append registers the segment with the storage writer's scan.
    appendSync(*c, kSeg, std::string(100, 'z'));
    exec.runFor(sim::sec(2));  // flush + compaction scans run

    auto after = c->tableScan(c->systemTableSegment(), "chunks/");
    ASSERT_FALSE(after.empty());
    EXPECT_LT(after.size(), 8u);  // small-chunk run collapsed
    EXPECT_GT(c->storageWriter().compactions(), 0u);

    // findChunks' invariants: records contiguous from 0, keys in offset
    // order, and every record's chunk exists in LTS at the recorded length.
    int64_t cursor = 0;
    for (const auto& [key, value] : after) {
        auto rec = ChunkRecord::deserialize(BytesView(value.value));
        ASSERT_TRUE(rec.isOk());
        EXPECT_EQ(rec.value().startOffset, cursor) << "gap/overlap at key " << key;
        cursor += rec.value().length;
        auto info = lts.stat(rec.value().name);
        ASSERT_TRUE(info.isOk()) << rec.value().name;
        EXPECT_EQ(static_cast<int64_t>(info.value().length), rec.value().length);
    }
    EXPECT_EQ(cursor, 8192 + 100);

    // Data identical after the merge: every byte of the original run.
    auto merged = ChunkRecord::deserialize(BytesView(after.front().second.value)).value();
    auto data = lts.read(merged.name, 0, static_cast<uint64_t>(merged.length));
    exec.runUntilIdle();
    ASSERT_TRUE(data.result().isOk());
    for (uint8_t b : data.result().value().view()) EXPECT_EQ(b, 'y');

    // Regression (chunk index from KEY, not record count): a post-compaction
    // flush must key its new chunks after the surviving ones.
    appendSync(*c, kSeg, std::string(20000, 'w'));
    exec.runFor(sim::sec(1));
    auto later = c->tableScan(c->systemTableSegment(), "chunks/");
    cursor = 0;
    std::string prevKey;
    for (const auto& [key, value] : later) {
        EXPECT_GT(key, prevKey);
        prevKey = key;
        auto rec = ChunkRecord::deserialize(BytesView(value.value));
        ASSERT_TRUE(rec.isOk());
        EXPECT_EQ(rec.value().startOffset, cursor) << "order broken at " << key;
        cursor += rec.value().length;
    }
    EXPECT_EQ(cursor, 8192 + 100 + 20000);
    EXPECT_EQ(c->getInfo(kSeg).value().storageLength, 8192 + 100 + 20000);
}

TEST_F(ContainerFixture, CompactionSurvivesWriterRestart) {
    // Regression guard: a stop()/start() cycle while the pre-stop compaction
    // timer is still in flight must leave compaction working. start() once
    // skipped arming on a stale armed flag, and the stale timer cleared the
    // flag but bailed on the epoch mismatch without re-arming — compaction
    // then stayed dead until the next start() call happened to re-arm it.
    {
        auto cfg = fastConfig();
        cfg.storage.maxChunkBytes = 1024;
        auto c = makeContainer(1, cfg);
        c->createSegment(kSeg, "s");
        exec.runUntilIdle();
        appendSync(*c, kSeg, std::string(8192, 'y'));
        exec.runFor(sim::sec(1));
    }  // small-chunk litter survives in LTS/WAL

    auto cfg = fastConfig();
    cfg.storage.maxChunkBytes = 16 * 1024;
    cfg.storage.compactMinChunkBytes = 4096;
    cfg.storage.compactInterval = sim::msec(100);
    auto c = makeContainer(1, cfg);
    exec.runUntilIdle();
    // Cycle the writer before the first compactInterval elapses: the timer
    // armed by the initial start() is still pending across this restart.
    c->storageWriter().stop();
    c->storageWriter().start();
    appendSync(*c, kSeg, std::string(100, 'z'));
    exec.runFor(sim::sec(2));  // flush + compaction scans run
    EXPECT_GT(c->storageWriter().compactions(), 0u);
}

TEST_F(ContainerFixture, WalTruncatedAfterFlushAndCheckpoint) {
    auto cfg = fastConfig();
    cfg.checkpointEveryOps = 10;
    cfg.log.rolloverBytes = 8 * 1024;
    auto c = makeContainer(1, cfg);
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();
    for (int i = 0; i < 100; ++i) {
        c->append(kSeg, payload(std::string(1000, 'z')), 0, -1, 1);
        exec.runFor(sim::msec(20));
    }
    exec.runFor(sim::sec(2));
    EXPECT_GT(c->checkpointsWritten(), 0u);
    EXPECT_GT(c->walTruncations(), 0u);
    // Truncation keeps the ledger count bounded (old ledgers deleted).
    EXPECT_LT(c->walLog().ledgerCount(), 6u);
}

TEST_F(ContainerFixture, RecoveryRestoresDataAndAttributes) {
    auto cfg = fastConfig();
    {
        auto c = makeContainer(1, cfg);
        c->createSegment(kSeg, "recoverable");
        exec.runUntilIdle();
        appendSync(*c, kSeg, "persisted-", 55, 1);
        appendSync(*c, kSeg, "data", 55, 2);
        // NOT shut down cleanly: recovery must come from the WAL alone.
    }
    auto fresh = makeContainer(1, cfg);
    auto info = fresh->getInfo(kSeg);
    ASSERT_TRUE(info.isOk());
    EXPECT_EQ(info.value().length, 14);
    EXPECT_EQ(info.value().name, "recoverable");
    EXPECT_EQ(fresh->getWriterLastEventNumber(kSeg, 55), 2);
    EXPECT_EQ(toString(BytesView(readSync(*fresh, kSeg, 0, 100))), "persisted-data");
}

TEST_F(ContainerFixture, RecoveryAfterCheckpointAndTruncation) {
    auto cfg = fastConfig();
    cfg.checkpointEveryOps = 10;
    {
        auto c = makeContainer(1, cfg);
        c->createSegment(kSeg, "s");
        exec.runUntilIdle();
        // Writer 42's appends all precede the later checkpoints, so after
        // the WAL truncation only a checkpoint still holds its attribute.
        for (int i = 0; i < 60; ++i) {
            WriterId writer = i < 30 ? 42 : 0;
            c->append(kSeg, payload("0123456789"), writer, writer != 0 ? i : -1, 1);
            exec.runFor(sim::msec(10));
        }
        exec.runFor(sim::sec(2));  // flush + checkpoint + truncate
        ASSERT_GT(c->walTruncations(), 0u);
    }
    auto fresh = makeContainer(1, cfg);
    auto info = fresh->getInfo(kSeg);
    ASSERT_TRUE(info.isOk());
    EXPECT_EQ(info.value().length, 600);
    EXPECT_EQ(fresh->getWriterLastEventNumber(kSeg, 42), 29);
    // All data readable: the pre-truncation prefix comes from LTS.
    Bytes all = readSync(*fresh, kSeg, 0, 600);
    size_t got = all.size();
    int64_t offset = static_cast<int64_t>(got);
    while (offset < 600) {
        Bytes more = readSync(*fresh, kSeg, offset, 600 - offset);
        ASSERT_FALSE(more.empty());
        offset += static_cast<int64_t>(more.size());
    }
    EXPECT_EQ(offset, 600);
}

TEST_F(ContainerFixture, RecoveryPreservesTables) {
    auto cfg = fastConfig();
    SegmentId table = makeSegmentId(0, 9);
    {
        auto c = makeContainer(1, cfg);
        c->createSegment(table, "meta", /*isTable=*/true);
        exec.runUntilIdle();
        std::vector<TableUpdate> batch(1);
        batch[0].key = "stream/s1";
        batch[0].value = toBytes("config-v1");
        c->tableUpdate(table, std::move(batch));
        exec.runUntilIdle();
    }
    auto fresh = makeContainer(1, cfg);
    auto value = fresh->tableGet(table, "stream/s1");
    ASSERT_TRUE(value.isOk());
    EXPECT_EQ(toString(BytesView(value.value().value)), "config-v1");
}

TEST_F(ContainerFixture, FencingTakesContainerOffline) {
    auto cfg = fastConfig();
    auto old = makeContainer(1, cfg);
    old->createSegment(kSeg, "s");
    exec.runUntilIdle();
    appendSync(*old, kSeg, "before-failover");

    // A new owner starts the same container (crash takeover, §4.4). Its
    // recovery fences the WAL...
    auto fresh = makeContainer(1, cfg);
    EXPECT_EQ(toString(BytesView(readSync(*fresh, kSeg, 0, 100))), "before-failover");

    // ...so the old instance's next WAL write fails and it shuts down.
    auto fut = old->append(kSeg, payload("zombie-write"), 0, -1, 1);
    exec.runUntilIdle();
    EXPECT_FALSE(fut.result().isOk());
    EXPECT_TRUE(old->isOffline());

    // The data written by the zombie never became visible at the new owner.
    EXPECT_EQ(fresh->getInfo(kSeg).value().length, 15);
}

TEST_F(ContainerFixture, ThrottlingDelaysAppendsWhenLtsBacklogged) {
    sim::Machine exec2;
    // An LTS that cannot keep up: 1 MB/s.
    sim::ObjectStoreModel::Config slowCfg;
    slowCfg.perStreamBytesPerSec = 1024 * 1024;
    slowCfg.aggregateBytesPerSec = 1024 * 1024;
    slowCfg.maxConcurrent = 1;
    lts::SimulatedObjectStorage slowLts(exec, slowCfg);

    auto cfg = fastConfig();
    cfg.storage.flushSizeBytes = 1024 * 1024;  // push data to LTS quickly
    cfg.throttleStartSeconds = 0.05;
    cfg.throttleFullSeconds = 1.0;
    cfg.maxThrottleDelay = sim::msec(100);
    auto c = makeContainer(1, cfg, &slowLts);
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();

    // Build a backlog: 8 MB into a 1 MB/s LTS, without draining the sim.
    for (int i = 0; i < 8; ++i) c->append(kSeg, payload(std::string(1024 * 1024, 'b')), 0, -1, 1);
    exec.runFor(sim::msec(300));  // flushes start queueing on the slow LTS
    ASSERT_GT(slowLts.backlogSeconds(), cfg.throttleStartSeconds);

    // Appends now incur a visible admission delay (§4.3 backpressure).
    sim::TimePoint start = exec.now();
    auto fut = c->append(kSeg, payload("throttled"), 0, -1, 1);
    bool done = false;
    fut.onComplete([&](const Result<int64_t>&) { done = true; });
    while (!done) exec.runOne();
    ASSERT_TRUE(fut.result().isOk());
    EXPECT_GT(exec.now() - start, sim::msec(5));
}

TEST_F(ContainerFixture, ReadFromLtsAfterEviction) {
    // A tiny cache forces eviction of flushed data; reads must transparently
    // come back from LTS (§4.2's unified view).
    BlockCache::Config tiny;
    tiny.blockSize = 4096;
    tiny.blocksPerBuffer = 4;
    tiny.maxBuffers = 2;  // 32 KB
    BlockCache smallCache(tiny);
    auto cfg = fastConfig();
    auto c = std::make_unique<SegmentContainer>(exec, 1, env(), 1, lts, smallCache, cfg);
    ASSERT_TRUE(c->start().isOk());
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();

    std::string first(16000, 'A');
    std::string second(16000, 'B');
    appendSync(*c, kSeg, first);
    exec.runFor(sim::sec(1));  // flush 'A' region to LTS
    appendSync(*c, kSeg, second);
    exec.runFor(sim::sec(1));  // evicts the 'A' region

    Bytes head = readSync(*c, kSeg, 0, 100);
    ASSERT_FALSE(head.empty());
    EXPECT_EQ(head[0], 'A');
}

TEST_F(ContainerFixture, DrainRatesReportsPerSegmentTraffic) {
    auto c = makeContainer(1, fastConfig());
    SegmentId segB = makeSegmentId(0, 2);
    c->createSegment(kSeg, "a");
    c->createSegment(segB, "b");
    exec.runUntilIdle();
    appendSync(*c, kSeg, "0123456789");
    appendSync(*c, segB, "01234");
    auto rates = c->drainRates();
    EXPECT_EQ(rates[kSeg].bytes, 10u);
    EXPECT_EQ(rates[kSeg].events, 1u);
    EXPECT_EQ(rates[segB].bytes, 5u);
    // Draining resets the counters.
    EXPECT_TRUE(c->drainRates().empty());

    // The cumulative totals survive the drain and keep counting.
    appendSync(*c, kSeg, "abc");
    EXPECT_EQ(c->drainRates()[kSeg].bytes, 3u);
    std::map<SegmentId, SegmentRate> cum;
    c->forEachCumulativeRate([&](SegmentId seg, const SegmentRate& r) { cum[seg] = r; });
    ASSERT_EQ(cum.size(), 2u);
    EXPECT_EQ(cum[kSeg].bytes, 13u);
    EXPECT_EQ(cum[kSeg].events, 2u);
    EXPECT_EQ(cum[segB].bytes, 5u);
    EXPECT_EQ(c->totalBytesIn(), 18u);
    EXPECT_EQ(c->totalEventsIn(), 3u);

    // WAL replay adds nothing: a recovered instance starts from zero.
    auto fresh = makeContainer(1, fastConfig());
    ASSERT_EQ(fresh->getInfo(kSeg).value().length, 13);
    EXPECT_TRUE(fresh->drainRates().empty());
    int visited = 0;
    fresh->forEachCumulativeRate([&](SegmentId, const SegmentRate&) { ++visited; });
    EXPECT_EQ(visited, 0);
    EXPECT_EQ(fresh->totalBytesIn(), 0u);
    EXPECT_EQ(fresh->totalEventsIn(), 0u);
}

/// Wraps a chunk store and defers read completion by a fixed virtual-time
/// delay, so concurrent readers can pile onto one in-flight LTS fetch (the
/// in-memory backend completes synchronously, which would hide coalescing).
class DelayedChunkStorage : public lts::ChunkStorage {
public:
    DelayedChunkStorage(sim::Machine& exec, lts::ChunkStorage& inner, sim::Duration readDelay)
        : exec_(exec), inner_(inner), delay_(readDelay) {}

    sim::Future<sim::Unit> create(const std::string& name) override { return inner_.create(name); }
    sim::Future<sim::Unit> append(const std::string& name, BufChain data) override {
        return inner_.append(name, std::move(data));
    }
    sim::Future<SharedBuf> read(const std::string& name, uint64_t offset,
                                uint64_t length) override {
        ++reads_;
        sim::Promise<SharedBuf> p;
        auto fut = p.future();
        exec_.schedule(delay_, [this, name, offset, length, p]() mutable {
            inner_.read(name, offset, length)
                .onComplete([p](const Result<SharedBuf>& r) mutable { p.complete(r); });
        });
        return fut;
    }
    sim::Future<sim::Unit> remove(const std::string& name) override { return inner_.remove(name); }
    Result<lts::ChunkInfo> stat(const std::string& name) const override {
        return inner_.stat(name);
    }
    uint64_t totalBytes() const override { return inner_.totalBytes(); }
    uint64_t readOps() const override { return reads_; }

private:
    sim::Machine& exec_;
    lts::ChunkStorage& inner_;
    sim::Duration delay_;
    uint64_t reads_ = 0;
};

TEST_F(ContainerFixture, ConcurrentMissStormCoalescesIntoOneLtsRead) {
    // N readers miss on the same cold range at once; the in-flight fetch
    // table must issue exactly ONE object-store read and park the rest.
    BlockCache::Config tiny;
    tiny.blockSize = 4096;
    tiny.blocksPerBuffer = 4;
    tiny.maxBuffers = 2;  // 32 KB
    BlockCache smallCache(tiny);
    DelayedChunkStorage slowLts(exec, lts, sim::msec(10));
    auto cfg = fastConfig();
    cfg.readPipeline.readahead = false;  // isolate coalescing from prefetch
    auto c = std::make_unique<SegmentContainer>(exec, 1, env(), 1, slowLts, smallCache, cfg);
    ASSERT_TRUE(c->start().isOk());
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();

    appendSync(*c, kSeg, std::string(16000, 'A'));
    exec.runFor(sim::sec(1));  // flush the 'A' region to LTS
    appendSync(*c, kSeg, std::string(16000, 'B'));
    exec.runFor(sim::sec(1));  // cache policy evicts the 'A' region

    uint64_t readsBefore = slowLts.readOps();
    uint64_t coalescedBefore = exec.metrics().counter("store.read.coalesced").value();
    constexpr int kReaders = 8;
    std::vector<sim::Future<ReadResult>> futs;
    for (int i = 0; i < kReaders; ++i) futs.push_back(c->read(kSeg, 0, 100));
    exec.runUntilIdle();

    for (auto& f : futs) {
        ASSERT_TRUE(f.isReady());
        ASSERT_TRUE(f.result().isOk()) << f.result().status().toString();
        ASSERT_FALSE(f.result().value().data.empty());
        EXPECT_EQ(f.result().value().data[0], 'A');
    }
    EXPECT_EQ(slowLts.readOps() - readsBefore, 1u);
    EXPECT_EQ(exec.metrics().counter("store.read.coalesced").value() - coalescedBefore,
              static_cast<uint64_t>(kReaders - 1));
}

TEST_F(ContainerFixture, PrefetchNeverEvictsUnflushedTail) {
    // A catch-up reader with readahead on races through a flushed backlog
    // while an unflushed tail sits in cache. The prefetch budget/utilization
    // guard plus the watermark eviction rule must keep the tail resident:
    // the tail read is a cache hit (it CANNOT come from LTS — no chunks).
    BlockCache::Config tiny;
    tiny.blockSize = 4096;
    tiny.blocksPerBuffer = 4;
    tiny.maxBuffers = 2;  // 32 KB, much smaller than the backlog
    BlockCache smallCache(tiny);
    auto cfg = fastConfig();
    cfg.readPipeline.readahead = true;
    cfg.readPipeline.prefetchFetchBytes = 8192;
    cfg.readPipeline.prefetchWindows = 2;
    cfg.readPipeline.sequentialStreak = 1;
    auto c = std::make_unique<SegmentContainer>(exec, 1, env(), 1, lts, smallCache, cfg);
    ASSERT_TRUE(c->start().isOk());
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();

    constexpr int64_t kBacklog = 64000;
    appendSync(*c, kSeg, std::string(kBacklog, 'A'));
    exec.runFor(sim::sec(1));  // backlog flushed to LTS, mostly evicted
    ASSERT_EQ(c->getInfo(kSeg).value().storageLength, kBacklog);
    appendSync(*c, kSeg, std::string(8000, 'B'));  // unflushed tail (no runFor)

    // Catch up sequentially through the backlog; readahead kicks in.
    int64_t offset = 0;
    while (offset < kBacklog) {
        Bytes got = readSync(*c, kSeg, offset, 4000);
        ASSERT_FALSE(got.empty());
        for (uint8_t b : got) ASSERT_EQ(b, 'A');
        offset += static_cast<int64_t>(got.size());
    }
    EXPECT_GT(exec.metrics().counter("store.prefetch.issued").value(), 0u);

    // The tail must still be served from cache: no LTS read can satisfy it
    // (nothing above the watermark has chunks), so success == residency.
    uint64_t ltsReadsBefore = lts.readOps();
    Bytes tail = readSync(*c, kSeg, kBacklog, 4000);
    ASSERT_FALSE(tail.empty());
    for (uint8_t b : tail) ASSERT_EQ(b, 'B');
    EXPECT_EQ(lts.readOps(), ltsReadsBefore);
}

TEST_F(ContainerFixture, TinyCacheServesEvictedHeadFromLts) {
    // The flushed head is evicted from a tiny cache; the read pipeline
    // fetches it back from LTS.
    BlockCache::Config tiny;
    tiny.blockSize = 4096;
    tiny.blocksPerBuffer = 4;
    tiny.maxBuffers = 2;
    BlockCache smallCache(tiny);
    auto c = std::make_unique<SegmentContainer>(exec, 1, env(), 1, lts, smallCache, fastConfig());
    ASSERT_TRUE(c->start().isOk());
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();
    appendSync(*c, kSeg, std::string(16000, 'A'));
    exec.runFor(sim::sec(1));
    appendSync(*c, kSeg, std::string(16000, 'B'));
    exec.runFor(sim::sec(1));
    uint64_t readsBefore = lts.readOps();
    Bytes head = readSync(*c, kSeg, 0, 100);
    ASSERT_FALSE(head.empty());
    EXPECT_EQ(head[0], 'A');
    EXPECT_GT(lts.readOps(), readsBefore);
}

TEST_F(ContainerFixture, DestroyWithOpenFrameIsSafe) {
    // Regression (ASan): a frame timer firing after its container was
    // destroyed read freed memory.
    auto c = makeContainer(1, fastConfig());
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();
    auto fut = c->append(kSeg, payload("x"), 0, -1, 1);
    ASSERT_GT(exec.pendingRegularTasks(), 0u);  // the frame timer is armed
    c.reset();
    exec.runUntilIdle();
    ASSERT_TRUE(fut.isReady());
    EXPECT_EQ(fut.result().code(), Err::ContainerOffline);
}

TEST_F(ContainerFixture, DestroyWithLtsFetchInFlightIsSafe) {
    // Regression (ASan): an LTS piece completion landing after its container
    // was destroyed read freed memory.
    BlockCache::Config tiny;
    tiny.blockSize = 4096;
    tiny.blocksPerBuffer = 4;
    tiny.maxBuffers = 2;
    BlockCache smallCache(tiny);
    lts::SimulatedObjectStorage slowLts(exec, sim::ObjectStoreModel::Config{});
    auto c = std::make_unique<SegmentContainer>(exec, 1, env(), 1, slowLts, smallCache,
                                                fastConfig());
    ASSERT_TRUE(c->start().isOk());
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();
    appendSync(*c, kSeg, std::string(16000, 'A'));
    exec.runFor(sim::sec(1));
    appendSync(*c, kSeg, std::string(16000, 'B'));
    exec.runFor(sim::sec(1));
    uint64_t readsBefore = slowLts.readOps();
    auto fut = c->read(kSeg, 0, 100);
    ASSERT_GT(slowLts.readOps(), readsBefore);  // the miss is on the wire
    ASSERT_FALSE(fut.isReady());
    c.reset();
    exec.runUntilIdle();
    ASSERT_TRUE(fut.isReady());
    EXPECT_EQ(fut.result().code(), Err::ContainerOffline);
}

TEST_F(ContainerFixture, OfflineContainerRejectsEverything) {
    auto c = makeContainer(1, fastConfig());
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();
    c->shutdown();
    auto a = c->append(kSeg, payload("x"), 0, -1, 1);
    auto r = c->read(kSeg, 0, 10);
    exec.runUntilIdle();
    EXPECT_EQ(a.result().code(), Err::ContainerOffline);
    EXPECT_EQ(r.result().code(), Err::ContainerOffline);
}

TEST_F(ContainerFixture, ReadAboveStorageLengthWaitsForFlushUnderCachePressure) {
    // A 256 KB cache fills with unflushed data faster than a 1 MB/s LTS
    // drains it, so ReadIndex::append returns CacheFull and leaves holes
    // above storageLength whose only copy is the storage writer's queue. A
    // read landing in a hole waits for the flush past it and is then served
    // from LTS; every acked byte reads back.
    BlockCache::Config tiny;
    tiny.blockSize = 4096;
    tiny.blocksPerBuffer = 4;
    tiny.maxBuffers = 16;
    BlockCache smallCache(tiny);
    sim::ObjectStoreModel::Config slowCfg;
    slowCfg.perStreamBytesPerSec = 1024 * 1024;
    slowCfg.aggregateBytesPerSec = 1024 * 1024;
    lts::SimulatedObjectStorage slowLts(exec, slowCfg);
    auto cfg = fastConfig();
    cfg.storage.flushSizeBytes = 64 * 1024;
    auto c = std::make_unique<SegmentContainer>(exec, 1, env(), 1, slowLts, smallCache, cfg);
    ASSERT_TRUE(c->start().isOk());
    const SegmentId segs[] = {kSeg, makeSegmentId(0, 2)};
    for (SegmentId seg : segs) c->createSegment(seg, "s" + std::to_string(seg));
    exec.runUntilIdle();

    constexpr int64_t kAppend = 4096;
    constexpr int64_t kLength = 1024 * 1024;  // per segment: 4x the cache
    auto byteAt = [](SegmentId seg, int64_t offset) {
        return static_cast<uint8_t>(offset * 31 + offset / kAppend + seg * 7);
    };
    int acked = 0;
    for (int64_t off = 0; off < kLength; off += kAppend) {
        for (SegmentId seg : segs) {
            Bytes data(kAppend);
            for (int64_t i = 0; i < kAppend; ++i) data[i] = byteAt(seg, off + i);
            c->append(seg, SharedBuf(std::move(data)), 0, -1, 1)
                .onComplete([&](const Result<int64_t>& r) {
                    ASSERT_TRUE(r.isOk()) << r.status().toString();
                    ++acked;
                });
        }
    }
    const int appends = static_cast<int>(2 * kLength / kAppend);
    while (acked < appends) ASSERT_TRUE(exec.runOne());
    for (SegmentId seg : segs) ASSERT_LT(c->getInfo(seg).value().storageLength, kLength / 2);

    // One sequential reader per 64 KB stretch of each segment, all started
    // while most of the data is still unflushed.
    constexpr int64_t kStretch = 64 * 1024;
    std::vector<std::string> failures;
    int64_t verified = 0;
    std::function<void(SegmentId, int64_t, int64_t)> readFrom = [&](SegmentId seg,
                                                                    int64_t off,
                                                                    int64_t end) {
        if (off >= end) return;
        c->read(seg, off, end - off).onComplete([&, seg, off, end](const Result<ReadResult>& r) {
            if (!r.isOk()) {
                failures.push_back(r.status().toString());
                return;
            }
            const Bytes& data = r.value().data;
            for (size_t i = 0; i < data.size(); ++i) {
                if (data[i] != byteAt(seg, off + static_cast<int64_t>(i))) {
                    failures.push_back("wrong byte at " + std::to_string(off + i));
                    return;
                }
            }
            verified += static_cast<int64_t>(data.size());
            readFrom(seg, off + static_cast<int64_t>(data.size()), end);
        });
    };
    for (SegmentId seg : segs) {
        for (int64_t off = 0; off < kLength; off += kStretch) readFrom(seg, off, off + kStretch);
    }
    exec.runFor(sim::sec(10));  // the scan timer is weak: runUntilIdle would stop it
    EXPECT_TRUE(failures.empty()) << failures.size() << " reads failed, first: " << failures[0];
    EXPECT_EQ(verified, 2 * kLength);
}

TEST_F(ContainerFixture, DeleteResolvesEveryParkedRead) {
    // One segment holds a read of each parked kind when it is deleted: a
    // tail reader, a reader waiting on a delayed LTS fetch, and a read in a
    // cache hole above storageLength waiting for a flush that an LTS append
    // outage holds back. The Delete must resolve all three with NotFound.
    BlockCache::Config tiny;
    tiny.blockSize = 4096;
    tiny.blocksPerBuffer = 4;
    tiny.maxBuffers = 16;
    BlockCache smallCache(tiny);
    lts::FaultInjectionChunkStorage::Config faults;
    faults.failOps = lts::FaultInjectionChunkStorage::kAppend;
    lts::FaultInjectionChunkStorage flaky(exec, lts, faults);
    DelayedChunkStorage slowReads(exec, flaky, sim::msec(50));
    auto cfg = fastConfig();
    cfg.readPipeline.readahead = false;  // no prefetch fetches of its own
    auto c = std::make_unique<SegmentContainer>(exec, 1, env(), 1, slowReads, smallCache, cfg);
    ASSERT_TRUE(c->start().isOk());
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();

    constexpr int64_t kFlushed = 128 * 1024;  // one whole read-index entry: evictable
    appendSync(*c, kSeg, std::string(kFlushed, 'A'));
    exec.runFor(sim::sec(1));
    ASSERT_EQ(c->getInfo(kSeg).value().storageLength, kFlushed);

    // With flushes failing, 512 KB of unflushed appends overflow the 256 KB
    // cache: the flushed head is evicted and later appends leave holes.
    flaky.startOutage(sim::sec(3600));
    constexpr int64_t kAppend = 4096;
    constexpr int64_t kLength = kFlushed + 512 * 1024;
    for (int64_t off = kFlushed; off < kLength; off += kAppend) {
        appendSync(*c, kSeg, std::string(kAppend, 'B'));
    }
    exec.runFor(sim::sec(1));  // cache policy runs
    ASSERT_EQ(c->getInfo(kSeg).value().storageLength, kFlushed);

    auto fetchRider = c->read(kSeg, 0, 100);  // evicted head: LTS fetch in flight
    ASSERT_FALSE(fetchRider.isReady());
    sim::Future<ReadResult> flushParked;  // first hole above storageLength
    for (int64_t off = kFlushed; off < kLength && !flushParked.valid(); off += kAppend) {
        auto fut = c->read(kSeg, off, 100);
        if (!fut.isReady()) flushParked = fut;
    }
    ASSERT_TRUE(flushParked.valid()) << "no cache hole above storageLength";
    auto tailReader = c->read(kSeg, kLength, 100);
    ASSERT_FALSE(tailReader.isReady());

    c->deleteSegment(kSeg);
    exec.runUntilIdle();
    for (auto* fut : {&fetchRider, &flushParked, &tailReader}) {
        ASSERT_TRUE(fut->isReady());
        EXPECT_EQ(fut->result().code(), Err::NotFound) << fut->result().status().toString();
    }
    flaky.endOutage();
}

TEST_F(ContainerFixture, StorageWriterIndexesMatchBruteForce) {
    // A seeded random mix of appends over 200 segments, sim steps (flushes),
    // LTS append outages (failed flushes keep their queue) and deletes.
    // After every step the indexed throttle input, WAL-truncation frontier
    // and flush candidates must equal a walk over every segment.
    lts::FaultInjectionChunkStorage::Config faults;
    faults.failOps = lts::FaultInjectionChunkStorage::kAppend;
    faults.extraLatency = sim::msec(3);  // flushes stay in flight across steps
    lts::FaultInjectionChunkStorage flaky(exec, lts, faults);
    auto cfg = fastConfig();
    cfg.throttleStartSegmentBytes = 16 * 1024;
    cfg.throttleFullSegmentBytes = 64 * 1024;
    cfg.maxThrottleDelay = sim::msec(5);
    cfg.storage.flushSizeBytes = 32 * 1024;
    cfg.storage.maxConcurrentFlushes = 4;
    auto c = makeContainer(1, cfg, &flaky);
    constexpr int kSegments = 200;
    std::vector<SegmentId> live;
    for (int i = 0; i < kSegments; ++i) {
        live.push_back(makeSegmentId(0, static_cast<uint32_t>(i + 1)));
        c->createSegment(live.back(), "s" + std::to_string(i));
    }
    exec.runUntilIdle();

    const StorageWriter& sw = c->storageWriter();
    auto expectedDelay = [&](uint64_t maxPending) {
        if (maxPending <= cfg.throttleStartSegmentBytes) return sim::Duration{0};
        double g = static_cast<double>(maxPending - cfg.throttleStartSegmentBytes) /
                   static_cast<double>(cfg.throttleFullSegmentBytes -
                                       cfg.throttleStartSegmentBytes);
        g = std::clamp(g, 0.0, 1.0);
        return static_cast<sim::Duration>(g * static_cast<double>(cfg.maxThrottleDelay));
    };
    uint64_t throttledChecks = 0;
    uint64_t frontierChecks = 0;
    auto check = [&](int step) {
        auto brute = sw.recomputeAggregates();
        uint64_t overLimit =
            brute.maxPendingBytes > cfg.throttleStartSegmentBytes ? brute.maxPendingBytes : 0;
        ASSERT_EQ(sw.maxBacklogBytes(), overLimit) << "step " << step;
        ASSERT_EQ(c->throttleDelay(), expectedDelay(brute.maxPendingBytes)) << "step " << step;
        ASSERT_EQ(sw.flushedWalSequence(), brute.flushedWalSequence) << "step " << step;
        ASSERT_EQ(sw.flushCandidates(), brute.flushCandidates) << "step " << step;
        if (overLimit > 0) ++throttledChecks;
        if (brute.flushedWalSequence < c->lastAppliedSequence()) ++frontierChecks;
    };

    sim::Rng rng(16);
    for (int step = 0; step < 3000; ++step) {
        uint64_t dice = rng.nextBounded(100);
        if (dice < 60 && !live.empty()) {
            // Skewed: a few hot segments build backlogs over the limit.
            size_t pick = rng.nextBounded(4) == 0 ? rng.nextBounded(live.size())
                                                  : rng.nextBounded(std::min<size_t>(8, live.size()));
            c->append(live[pick], payload(std::string(1 + rng.nextBounded(4096), 'x')), 0, -1, 1);
        } else if (dice < 90) {
            exec.runFor(sim::msec(1 + static_cast<int64_t>(rng.nextBounded(20))));
        } else if (dice < 95) {
            flaky.startOutage(sim::msec(10 + static_cast<int64_t>(rng.nextBounded(200))));
        } else if (dice < 97 && live.size() > 1) {
            size_t pick = rng.nextBounded(live.size());
            c->deleteSegment(live[pick]);
            live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
        } else {
            flaky.endOutage();
        }
        check(step);
        if (HasFatalFailure()) return;
    }
    EXPECT_GT(flaky.injectedFailures(), 0u);
    EXPECT_GT(throttledChecks, 0u);
    EXPECT_GT(frontierChecks, 0u);

    // Failed flushes kept their queues: once LTS is back everything drains
    // and every surviving segment is durable to its full length.
    flaky.endOutage();
    exec.runFor(sim::sec(2));
    check(-1);
    EXPECT_EQ(sw.pendingBytes(), 0u);
    EXPECT_EQ(sw.flushedWalSequence(), c->lastAppliedSequence());
    for (SegmentId seg : live) {
        auto info = c->getInfo(seg).value();
        EXPECT_EQ(info.storageLength, info.length) << seg;
    }
}

TEST_F(ContainerFixture, CreateRefusedWhileDeleteIsQueued) {
    // A Delete queued behind the WAL would apply to a record re-created in
    // the meantime: the create is refused until the Delete has applied.
    auto c = makeContainer(1, fastConfig());
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();
    auto del = c->deleteSegment(kSeg);
    auto create = c->createSegment(kSeg, "s2");
    exec.runUntilIdle();
    EXPECT_TRUE(del.result().isOk());
    EXPECT_EQ(create.result().code(), Err::AlreadyExists);
    EXPECT_EQ(c->getInfo(kSeg).code(), Err::NotFound);

    auto again = c->createSegment(kSeg, "s3");
    exec.runUntilIdle();
    EXPECT_TRUE(again.result().isOk());
    EXPECT_EQ(c->getInfo(kSeg).value().name, "s3");
}

/// Creates kSeg, flushes 10,000 B of 'a', deletes it, re-creates it and
/// appends 10,000 B of 'b', then lets the storage writer run.
void deleteAndRecreate(ContainerFixture& f, SegmentContainer& c) {
    c.createSegment(ContainerFixture::kSeg, "s");
    f.exec.runUntilIdle();
    f.appendSync(c, ContainerFixture::kSeg, std::string(10000, 'a'));
    f.exec.runFor(sim::sec(1));
    ASSERT_EQ(c.getInfo(ContainerFixture::kSeg).value().storageLength, 10000);
    c.deleteSegment(ContainerFixture::kSeg);
    f.exec.runUntilIdle();
    EXPECT_TRUE(c.tableScan(c.systemTableSegment(),
                            StorageWriter::chunkKeyPrefix(ContainerFixture::kSeg))
                    .empty());
    c.createSegment(ContainerFixture::kSeg, "s2");
    f.exec.runUntilIdle();
    f.appendSync(c, ContainerFixture::kSeg, std::string(10000, 'b'));
    f.exec.runFor(sim::sec(2));
}

TEST_F(ContainerFixture, DeleteThenRecreateFlushesTheNewIncarnation) {
    // The writer state and chunk records of a deleted segment die with it:
    // the new incarnation's appends are flushed (not dropped as deleted)
    // and recorded from key 0 again.
    auto c = makeContainer(1, fastConfig());
    deleteAndRecreate(*this, *c);
    auto info = c->getInfo(kSeg).value();
    EXPECT_EQ(info.length, 10000);
    EXPECT_EQ(info.storageLength, 10000);
    EXPECT_EQ(c->storageWriter().flushedWalSequence(), c->lastAppliedSequence());
    EXPECT_EQ(chunksHold(*c, kSeg, 10000, 'b'), "ok");
    auto records = c->tableScan(c->systemTableSegment(), StorageWriter::chunkKeyPrefix(kSeg));
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].first, StorageWriter::chunkKeyPrefix(kSeg) + "000000000000");
}

TEST_F(ContainerFixture, DeleteThenRecreateSurvivesRestart) {
    // Replaying the Delete drops the old records again, and removes no
    // chunk by name: the new incarnation's chunks carry the same names.
    {
        auto c = makeContainer(1, fastConfig());
        deleteAndRecreate(*this, *c);
    }
    auto c = makeContainer(1, fastConfig());
    exec.runFor(sim::sec(1));
    auto info = c->getInfo(kSeg).value();
    EXPECT_EQ(info.length, 10000);
    EXPECT_EQ(info.storageLength, 10000);
    EXPECT_EQ(chunksHold(*c, kSeg, 10000, 'b'), "ok");
    EXPECT_TRUE(toString(BytesView(readSync(*c, kSeg, 0, 10000))) == std::string(10000, 'b'));
}

/// Forwards to `inner`, but holds each append's completion until release().
class GatedAppendStorage : public lts::ChunkStorage {
public:
    explicit GatedAppendStorage(lts::ChunkStorage& inner) : inner_(inner) {}

    sim::Future<sim::Unit> create(const std::string& name) override { return inner_.create(name); }
    sim::Future<sim::Unit> append(const std::string& name, BufChain data) override {
        sim::Promise<sim::Unit> p;
        auto fut = p.future();
        inner_.append(name, std::move(data)).onComplete([this, p](const Result<sim::Unit>& r) {
            held_.push_back([p, r]() mutable { p.complete(r); });
        });
        return fut;
    }
    sim::Future<SharedBuf> read(const std::string& name, uint64_t offset,
                                uint64_t length) override {
        return inner_.read(name, offset, length);
    }
    sim::Future<sim::Unit> remove(const std::string& name) override { return inner_.remove(name); }
    Result<lts::ChunkInfo> stat(const std::string& name) const override {
        return inner_.stat(name);
    }
    uint64_t totalBytes() const override { return inner_.totalBytes(); }

    size_t held() const { return held_.size(); }
    void release() {
        for (auto& complete : std::exchange(held_, {})) complete();
    }

private:
    lts::ChunkStorage& inner_;
    std::vector<std::function<void()>> held_;
};

TEST_F(ContainerFixture, FlushLandingWhileDeleteIsQueuedFilesNoRecord) {
    // A flush whose LTS append lands after the segment's Delete is queued
    // files no chunk record (it would outlive the records the Delete
    // dropped) and removes the chunk it made.
    GatedAppendStorage gated(lts);
    auto c = makeContainer(1, fastConfig(), &gated);
    c->createSegment(kSeg, "s");
    exec.runUntilIdle();
    appendSync(*c, kSeg, std::string(10000, 'a'));
    exec.runFor(sim::msec(100));
    ASSERT_EQ(gated.held(), 1u);  // the flush's append is in flight
    c->deleteSegment(kSeg);       // queued, not applied yet
    gated.release();
    exec.runUntilIdle();
    EXPECT_TRUE(
        c->tableScan(c->systemTableSegment(), StorageWriter::chunkKeyPrefix(kSeg)).empty());
    EXPECT_EQ(lts.totalBytes(), 0u);
}

TEST_F(ContainerFixture, ChunkListsMatchSystemTableBruteForce) {
    // A seeded mix of appends, sim steps, LTS outages (creates, appends and
    // compaction reads fail) and deletes over 40 segments, with one
    // container restart halfway that raises maxChunkBytes so compaction
    // merges the small chunks written before it. After every step each live
    // segment's chunk list must equal its system-table records, and a
    // deleted segment must have none.
    lts::FaultInjectionChunkStorage::Config faults;
    faults.failOps = lts::FaultInjectionChunkStorage::kCreate |
                     lts::FaultInjectionChunkStorage::kAppend |
                     lts::FaultInjectionChunkStorage::kRead;
    faults.extraLatency = sim::msec(3);  // LTS work stays in flight across steps
    lts::FaultInjectionChunkStorage flaky(exec, lts, faults);
    auto cfg = fastConfig();
    cfg.storage.flushSizeBytes = 2048;
    cfg.storage.maxChunkBytes = 1024;
    cfg.storage.compactMinChunkBytes = 512;
    cfg.storage.compactInterval = sim::msec(30);
    cfg.storage.maxConcurrentFlushes = 4;
    auto c = makeContainer(1, cfg, &flaky);
    constexpr int kSegments = 40;
    std::vector<SegmentId> live;
    std::vector<SegmentId> deleted;
    for (int i = 0; i < kSegments; ++i) {
        live.push_back(makeSegmentId(0, static_cast<uint32_t>(i + 1)));
        c->createSegment(live.back(), "s" + std::to_string(i));
    }
    exec.runUntilIdle();

    uint64_t recordsChecked = 0;
    auto check = [&](int step) {
        for (SegmentId seg : live) {
            auto records =
                c->tableScan(c->systemTableSegment(), StorageWriter::chunkKeyPrefix(seg));
            auto list = c->storageWriter().findChunks(seg, 0, INT64_MAX);
            ASSERT_EQ(list.size(), records.size()) << "step " << step << " segment " << seg;
            for (size_t i = 0; i < list.size(); ++i) {
                auto rec = ChunkRecord::deserialize(BytesView(records[i].second.value));
                ASSERT_TRUE(rec.isOk());
                ASSERT_EQ(list[i].name, rec.value().name) << "step " << step;
                ASSERT_EQ(list[i].startOffset, rec.value().startOffset) << "step " << step;
                ASSERT_EQ(list[i].length, rec.value().length) << "step " << step;
            }
            recordsChecked += list.size();
        }
        for (SegmentId seg : deleted) {
            ASSERT_TRUE(
                c->tableScan(c->systemTableSegment(), StorageWriter::chunkKeyPrefix(seg)).empty())
                << "step " << step << " deleted segment " << seg;
        }
    };

    sim::Rng rng(21);
    constexpr int kSteps = 2000;
    for (int step = 0; step < kSteps; ++step) {
        if (step == kSteps / 2) {
            c.reset();
            cfg.storage.maxChunkBytes = 8192;
            cfg.storage.compactMinChunkBytes = 2048;
            c = makeContainer(1, cfg, &flaky);
        }
        uint64_t dice = rng.nextBounded(100);
        if (dice < 55) {
            size_t hot = std::min<size_t>(6, live.size());
            size_t pick = rng.nextBounded(rng.nextBounded(4) == 0 ? live.size() : hot);
            c->append(live[pick], payload(std::string(1 + rng.nextBounded(1500), 'x')), 0, -1, 1);
        } else if (dice < 88) {
            exec.runFor(sim::msec(1 + static_cast<int64_t>(rng.nextBounded(40))));
        } else if (dice < 92) {
            flaky.startOutage(sim::msec(10 + static_cast<int64_t>(rng.nextBounded(100))));
        } else if (dice < 94 && live.size() > 1) {
            size_t pick = rng.nextBounded(live.size());
            c->deleteSegment(live[pick]);
            deleted.push_back(live[pick]);
            live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
        } else {
            flaky.endOutage();
        }
        check(step);
        if (HasFatalFailure()) return;
    }
    EXPECT_GT(flaky.injectedFailures(), 0u);
    EXPECT_GT(c->storageWriter().compactions(), 0u);
    EXPECT_GT(recordsChecked, 0u);
    EXPECT_FALSE(deleted.empty());

    // Once LTS is back every live segment is durable to its full length, in
    // chunks that exist at their recorded lengths.
    flaky.endOutage();
    exec.runFor(sim::sec(3));
    check(-1);
    for (SegmentId seg : live) {
        auto info = c->getInfo(seg).value();
        EXPECT_EQ(info.storageLength, info.length) << seg;
        for (const auto& rec : c->storageWriter().findChunks(seg, 0, INT64_MAX)) {
            auto stat = lts.stat(rec.name);
            ASSERT_TRUE(stat.isOk()) << rec.name;
            EXPECT_EQ(static_cast<int64_t>(stat.value().length), rec.length) << rec.name;
        }
    }
}

}  // namespace
}  // namespace pravega::segmentstore
