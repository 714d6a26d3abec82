// SegmentContainer: the unit of the data plane (§2.2, §4.1).
//
// Every request that modifies a segment becomes an Operation queued for
// processing. A container has a single dedicated WAL log to which ALL of
// its segments' operations are multiplexed — the crucial design feature
// that lets Pravega support enormous segment counts without per-segment
// physical resources. Operations are aggregated into data frames whose
// close is governed by the paper's delay formula
//     Delay = RecentLatency * (1 - AvgWriteSize / MaxFrameSize)
// and each acknowledged frame is applied to the in-memory state (read
// index, attributes, tables), acknowledged to clients, and handed to the
// storage writer for tiering.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "lts/chunk_storage.h"
#include "segmentstore/cache.h"
#include "segmentstore/operations.h"
#include "segmentstore/read_index.h"
#include "segmentstore/storage_writer.h"
#include "segmentstore/table_segment.h"
#include "segmentstore/types.h"
#include "sim/machine.h"
#include "sim/future.h"
#include "sim/lifetime.h"
#include "sim/timer.h"
#include "wal/log_client.h"

namespace pravega::segmentstore {

struct ContainerConfig {
    sim::Duration maxBatchDelay = sim::msec(20);  // bound on the delay formula
    uint64_t checkpointEveryOps = 4000;
    uint64_t checkpointEveryBytes = 32 * 1024 * 1024;
    StorageWriterConfig storage;
    wal::LogClient::Config log;

    /// Ingest throttling (§4.3): appends are delayed proportionally when
    /// either the LTS device backlog (seconds of queued transfers) or the
    /// hottest segment's unflushed backlog (bytes waiting for LTS) exceeds
    /// its start threshold, ramping to `maxThrottleDelay` at the full one.
    double throttleStartSeconds = 1.0;
    double throttleFullSeconds = 10.0;
    uint64_t throttleStartSegmentBytes = 64ULL * 1024 * 1024;
    uint64_t throttleFullSegmentBytes = 256ULL * 1024 * 1024;
    sim::Duration maxThrottleDelay = sim::msec(500);

    /// Storage read pipeline (§4.2, §5.7): coalesced LTS fetches, parallel
    /// multi-chunk demand fetches, and budget-bounded segment readahead for
    /// catch-up readers.
    struct ReadPipelineConfig {
        /// Readahead ablation flag (Fig 12): prefetch the next windows into
        /// the block cache on a miss or a sequential-hit streak.
        bool readahead = true;
        /// Fetch windows the prefetcher keeps in flight ahead of a reader.
        int prefetchWindows = 4;
        /// Size of each prefetch fetch window.
        uint64_t prefetchFetchBytes = 4 * 1024 * 1024;
        /// Sequential depth-0 hits in a row that trigger readahead.
        int sequentialStreak = 2;
    };
    ReadPipelineConfig readPipeline;
};

struct ReadResult {
    Bytes data;
    int64_t offset = 0;
    bool endOfSegment = false;
};

/// Per-segment throughput counters for the control-plane feedback loop
/// (§3.1): the data plane reports rates, the controller reacts.
struct SegmentRate {
    uint64_t bytes = 0;
    uint64_t events = 0;
};

class SegmentContainer {
public:
    SegmentContainer(sim::Core& exec, uint32_t containerId, wal::WalEnv walEnv,
                     sim::HostId host, lts::ChunkStorage& lts, BlockCache& cache,
                     ContainerConfig cfg);
    ~SegmentContainer();

    SegmentContainer(const SegmentContainer&) = delete;
    SegmentContainer& operator=(const SegmentContainer&) = delete;

    /// Recovery + startup (§4.4): fences the WAL, replays checkpoint +
    /// operations, reconciles LTS chunks, starts background work.
    Status start();

    /// Severe-error shutdown: fails pending operations; a future owner (or
    /// this one, via start()) recovers from WAL.
    void shutdown();
    bool isOffline() const { return offline_; }

    uint32_t id() const { return containerId_; }

    // ---- segment API --------------------------------------------------
    sim::Future<sim::Unit> createSegment(SegmentId id, std::string name, bool isTable = false);

    /// Event-writer append with the exactly-once protocol (§3.2): if
    /// `writer` != 0, `eventNumber` must exceed the writer's last recorded
    /// event number; stale appends are acknowledged idempotently without
    /// writing. Completes with the offset at which data was appended.
    sim::Future<int64_t> append(SegmentId id, SharedBuf data, WriterId writer = 0,
                                int64_t eventNumber = -1, uint32_t eventCount = 1);

    /// Compare-and-append at an expected offset (the primitive beneath the
    /// state synchronizer's optimistic concurrency, §3.3).
    sim::Future<int64_t> conditionalAppend(SegmentId id, SharedBuf data, int64_t expectedOffset);

    /// Read with tail semantics: returns immediately-available data, fetches
    /// from LTS on a miss, or waits for new data at the tail (§4.2).
    sim::Future<ReadResult> read(SegmentId id, int64_t offset, int64_t maxBytes);

    sim::Future<sim::Unit> seal(SegmentId id);
    sim::Future<sim::Unit> truncate(SegmentId id, int64_t newStartOffset);
    sim::Future<sim::Unit> deleteSegment(SegmentId id);

    Result<SegmentProperties> getInfo(SegmentId id) const;

    /// Writer-reconnect handshake: last event number recorded for `writer`
    /// on this segment (kNullValue when none).
    int64_t getWriterLastEventNumber(SegmentId id, WriterId writer) const;

    // ---- table API (metadata KV, §4.3) --------------------------------
    /// Validates and applies `batch` to the table's index at once, then makes
    /// it durable; completes with the versions assigned. `applied`, when
    /// given, receives those versions at once (left empty when the batch is
    /// refused).
    sim::Future<std::vector<int64_t>> tableUpdate(SegmentId id, std::vector<TableUpdate> batch,
                                                  std::vector<int64_t>* applied = nullptr);
    Result<TableValue> tableGet(SegmentId id, const std::string& key) const;
    std::vector<std::pair<std::string, TableValue>> tableScan(SegmentId id,
                                                              const std::string& prefix) const;

    /// The container's own metadata table segment (chunk records etc.).
    SegmentId systemTableSegment() const { return systemTable_; }

    // ---- feedback / observability -------------------------------------
    /// Drains per-segment rate counters accumulated since the last call.
    std::map<SegmentId, SegmentRate> drainRates();

    /// Monotonic ingest totals since this container instance started
    /// (replay excluded). Unlike drainRates() these are not destructive,
    /// so the rebalancer and the quota manager can take window deltas
    /// without stealing the auto-scaler's feedback signal. A container
    /// that moves to another store restarts from zero — consumers treat a
    /// decrease as a fresh instance.
    uint64_t totalBytesIn() const { return cumBytes_; }
    uint64_t totalEventsIn() const { return cumEvents_; }
    /// The same totals per segment: calls `fn(SegmentId, const
    /// SegmentRate&)` in SegmentId order for every segment with ingest.
    template <typename F>
    void forEachCumulativeRate(F&& fn) const {
        for (const auto& [id, meta] : segments_) {
            if (meta.cumRate.bytes != 0 || meta.cumRate.events != 0) fn(id, meta.cumRate);
        }
    }

    uint64_t appliedOps() const { return appliedOps_; }
    int64_t lastAppliedSequence() const { return lastAppliedSeq_; }
    uint64_t walTruncations() const { return walTruncations_; }
    uint64_t checkpointsWritten() const { return checkpointsWritten_; }
    sim::Duration currentBatchDelay() const;
    StorageWriter& storageWriter() { return *storageWriter_; }
    wal::LogClient& walLog() { return *log_; }

    /// Admission delay an append admitted now would get (§4.3 throttling).
    sim::Duration throttleDelay() const;

    // ---- used by StorageWriter ----------------------------------------
    /// True while `id` is live: created, and no Delete of it enqueued.
    bool hasSegment(SegmentId id) const { return findSegment(id) != nullptr; }
    void onSegmentFlushed(SegmentId id, int64_t newStorageLength);
    void onStorageProgress();

private:
    /// Runs once an op is applied (its offset) or has failed.
    using Completion = sim::Callback<void(Result<int64_t>)>;
    struct PendingFrame {
        std::vector<Operation> ops;
        std::vector<Completion> completions;
        uint64_t bytes = 0;
        sim::TimePoint openedAt = 0;  // first op's enqueue time (trace stage)
    };
    /// A read parked until something changes: new data at the tail, a
    /// flush past its offset, or an in-flight LTS fetch landing (the
    /// original misser and any coalesced riders). Retried through
    /// attemptRead, or failed with the container's shutdown status.
    struct PendingRead {
        int64_t offset;
        int64_t maxBytes;
        sim::Promise<ReadResult> promise;
        int depth;
        bool counted;  // hit/miss already attributed (first resolution)
    };
    /// One outstanding LTS fetch for [start, end) of a segment, possibly
    /// split into parallel per-chunk piece reads.
    struct InflightFetch {
        int64_t end = 0;
        bool prefetch = false;
        int piecesRemaining = 0;
        sim::TimePoint startedAt = 0;
        Status status;  // ok, or the first piece failure
        std::vector<PendingRead> waiters;
    };
    /// Per-segment readahead state.
    struct SegmentReadState {
        int64_t lastReadEnd = -1;
        int streak = 0;
        std::map<int64_t, int64_t> prefetched;  // inserted, unconsumed ranges
    };
    /// Everything the container knows about one segment. A deleted segment
    /// stays as a tombstone (`props.deleted`) whose parked reads, fetches,
    /// readahead state and attributes are dropped when its Delete applies;
    /// its rate counters stay until drained. A checkpoint restore replaces
    /// every record (tombstones are not checkpointed). While its Delete is
    /// queued (`deleteQueued`) the id cannot be created again: the Delete
    /// would apply to the new record.
    struct SegmentMeta {
        SegmentProperties props;
        bool deleteQueued = false;  // deleteSegment() ran, its Delete not yet applied
        int64_t appliedLength = 0;  // readable prefix (apply-time)
        TableIndex table;           // only for isTable segments
        /// Writer attributes (§3.2): writer id -> last event number.
        std::map<AttributeId, int64_t> attributes;
        SegmentRate rate;     // since the last drainRates()
        SegmentRate cumRate;  // since this instance started (replay excluded)
        std::vector<PendingRead> tailWaiters;  // reads at the tail, woken by appends
        /// Demand reads that missed at or above storageLength with no chunk
        /// to fetch: the bytes are only in the storage writer's queue (the
        /// cache had no room for them). Retried once a flush passes them.
        std::vector<PendingRead> flushWaiters;
        std::map<int64_t, InflightFetch> fetches;  // fetch start offset -> fetch
        SegmentReadState readState;
    };

    /// The live record for `id`; null when absent or deleted.
    SegmentMeta* findSegment(SegmentId id);
    const SegmentMeta* findSegment(SegmentId id) const;
    /// (Re)creates the record for `id` with fresh metadata. Re-creating a
    /// tombstone keeps the rest of its record.
    SegmentMeta& resetSegment(SegmentId id, std::string name, bool isTable);

    /// Admission gate: serializes op processing and applies throttling.
    /// Runs `fn` at once unless throttled, so the unthrottled path erases
    /// no closure (defined in container.cpp, its only user).
    template <typename F>
    void admit(F fn);

    void enqueueOp(Operation op, Completion completion);
    /// enqueueOp for ops whose callers only learn success or failure.
    sim::Future<sim::Unit> enqueueUnitOp(Operation op);
    void closeFrame();
    void applyFrame(std::vector<Operation> ops, std::vector<Completion> completions,
                    int64_t walSequence);
    void applyOp(Operation& op, int64_t walSequence, bool replay);
    void maybeCheckpoint();
    Bytes serializeCheckpoint() const;
    Status restoreCheckpoint(BytesView snapshot);
    void wakeTailWaiters(SegmentMeta& meta);
    void wakeFlushWaiters(SegmentMeta& meta);
    /// Moves every read parked on `list` with an offset below `limit` off
    /// it, then retries them in parking order.
    void retryParked(SegmentMeta& meta, std::vector<PendingRead>& list, int64_t limit);
    void failAllPending(Status error);
    /// Fails every in-flight fetch's riders with `error`, refunds the
    /// prefetch budget of the prefetches among them, and drops the
    /// segment's readahead state.
    void dropFetches(SegmentMeta& meta, const Status& error);
    void refundPrefetch(int64_t start, int64_t end);
    void attemptRead(SegmentMeta& meta, int64_t offset, int64_t maxBytes,
                     sim::Promise<ReadResult> promise, int depth, bool counted);
    /// Starts an LTS fetch for [start, end) (parallel per-chunk pieces,
    /// capped at kMaxParallelChunkFetches). `demand` (when non-null) becomes
    /// the fetch's first waiter; on setup failure its promise is failed.
    /// Returns the end of the range actually being fetched (`start` when no
    /// fetch could be started, e.g. no chunks cover the range yet).
    int64_t startFetch(SegmentMeta& meta, int64_t start, int64_t end, bool prefetch,
                       PendingRead* demand);
    void finishFetchPiece(SegmentMeta& meta, int64_t start, Status st);
    void maybePrefetch(SegmentMeta& meta, int64_t from);
    void noteSequentialHit(SegmentMeta& meta, int64_t offset, int64_t readEnd);
    /// Removes [start, end) from the segment's prefetched ranges, splitting
    /// any range that straddles an end; returns the bytes removed. A read
    /// hit counts a prefetch hit when it removes any; a demand miss charges
    /// what it removes as wasted prefetch.
    int64_t carvePrefetched(SegmentMeta& meta, int64_t start, int64_t end);
    void truncateWalIfPossible();
    /// Drops `id`'s chunk records from the system table, as its Delete is
    /// enqueued or replayed: the same point in the log either way.
    void dropChunkRecords(SegmentId id);

    sim::Core& exec_;
    uint32_t containerId_;
    sim::HostId host_;
    lts::ChunkStorage& lts_;
    BlockCache& cache_;
    ContainerConfig cfg_;

    std::unique_ptr<wal::LogClient> log_;
    ReadIndex readIndex_;
    std::unique_ptr<StorageWriter> storageWriter_;

    std::map<SegmentId, SegmentMeta> segments_;
    SegmentId systemTable_;

    // Open frame + in-flight frames.
    PendingFrame openFrame_;
    uint64_t inFlightFrames_ = 0;

    // Delay-formula inputs (EWMAs, §4.1).
    double recentWalLatencyNs_ = 1.0e6;  // start at 1 ms
    double avgWriteSizeBytes_ = 0.0;

    // Admission gate (ordering + throttle).
    sim::TimePoint admitCursor_ = 0;

    // Checkpoint / truncation bookkeeping.
    uint64_t opsSinceCheckpoint_ = 0;
    uint64_t bytesSinceCheckpoint_ = 0;
    std::deque<int64_t> checkpointSeqs_;  // applied checkpoint WAL sequences
    int64_t lastAppliedSeq_ = -1;
    int64_t lastTruncatedSeq_ = -1;
    bool checkpointPending_ = false;
    uint64_t walTruncations_ = 0;
    uint64_t checkpointsWritten_ = 0;

    uint64_t cumBytes_ = 0;
    uint64_t cumEvents_ = 0;
    uint64_t prefetchInflightBytes_ = 0;  // across every segment's fetches

    uint64_t appliedOps_ = 0;
    bool offline_ = true;  // start() brings the container online

    // World-aggregate container metrics (cached registry instruments).
    obs::Counter& mOpsEnqueued_;
    obs::Counter& mFramesClosed_;
    obs::Counter& mThrottleCount_;
    obs::Counter& mThrottleNs_;
    obs::Counter& mCacheHits_;
    obs::Counter& mCacheMisses_;
    obs::Counter& mCacheEvictions_;
    obs::Counter& mTailWaits_;
    obs::Counter& mReadCoalesced_;
    obs::Counter& mLtsFetches_;
    obs::Counter& mPrefetchIssued_;
    obs::Counter& mPrefetchHits_;
    obs::Counter& mPrefetchWasted_;
    obs::Gauge& mQueueDepth_;
    obs::LatencyHistogram& mFrameBytes_;
    obs::LatencyHistogram& mFrameOps_;
    obs::LatencyHistogram& mStoreQueueNs_;
    obs::LatencyHistogram& mWalCommitNs_;
    obs::LatencyHistogram& mDemandFetchNs_;
    obs::LatencyHistogram& mPrefetchFetchNs_;

    sim::Timer frameTimer_;     // closes the open frame; cancelled when it closes
    sim::Timer cacheTimer_;     // cache policy; cancelled at shutdown
    sim::Lifetime fetches_;     // LTS piece completions; reset at shutdown
    sim::Lifetime admissions_;  // ops held back by throttling
};

}  // namespace pravega::segmentstore
