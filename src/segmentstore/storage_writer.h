// The storage writer (§4.3): de-multiplexes operations written to WAL,
// groups them by segment, aggregates small appends into larger writes, and
// applies them to LTS as chunks. After a flush it records chunk metadata in
// the container's system table segment (conditional updates, as the paper
// prescribes) and advances the WAL truncation watermark. Each segment's
// chunk list stays in memory; the table is its durable copy, read back only
// at recovery.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/buf_chain.h"
#include "common/bytes.h"
#include "common/result.h"
#include "lts/chunk_storage.h"
#include "obs/metrics.h"
#include "segmentstore/types.h"
#include "sim/machine.h"
#include "sim/future.h"
#include "sim/lifetime.h"
#include "sim/timer.h"

namespace pravega::segmentstore {

class SegmentContainer;

struct StorageWriterConfig {
    /// Flush a segment's pending data once it reaches this size...
    uint64_t flushSizeBytes = 4 * 1024 * 1024;
    /// ...or once its oldest pending byte is this old.
    sim::Duration flushTimeout = sim::msec(500);
    /// Chunks roll over at this size; historical reads fetch chunks in
    /// parallel (§5.7), so the chunk size bounds read parallelism grain.
    uint64_t maxChunkBytes = 16 * 1024 * 1024;
    /// How often the writer scans for flush-ready segments.
    sim::Duration scanInterval = sim::msec(50);
    /// Max segment flushes in flight at once (parallel LTS streams).
    int maxConcurrentFlushes = 16;
    /// Chunk compaction: merge a run of >= 2 adjacent flushed chunks each
    /// smaller than this into one chunk (timeout-driven flushes of a slow
    /// segment otherwise litter LTS with tiny objects). 0 disables
    /// compaction (the default).
    uint64_t compactMinChunkBytes = 0;
    /// How often the compactor scans chunk metadata for merge candidates.
    sim::Duration compactInterval = sim::sec(2);
};

/// Chunk metadata record stored in the container's system table.
struct ChunkRecord {
    std::string name;
    int64_t startOffset = 0;
    int64_t length = 0;

    Bytes serialize() const;
    static Result<ChunkRecord> deserialize(BytesView data);
};

class StorageWriter {
public:
    /// `backlogLimit` is the container's throttle start: only backlogs above
    /// it are indexed for maxBacklogBytes().
    StorageWriter(sim::Core& exec, SegmentContainer& container, lts::ChunkStorage& storage,
                  StorageWriterConfig cfg, uint64_t backlogLimit);

    void start();
    void stop();

    /// Called by the container for every applied append (and during WAL
    /// replay), with the segment's current `storageLength`. Appends
    /// already durable in LTS (ending at or below it) are dropped here.
    void queueAppend(SegmentId segment, int64_t offset, SharedBuf data, int64_t walSequence,
                     int64_t storageLength);

    /// Drops `segment`'s state and queue and removes its chunks from LTS, as
    /// its Delete applies (the container drops its chunk records).
    void notifyDeleted(SegmentId segment);

    /// Loads a recovered segment's chunk list from the system table (the
    /// writer's only read of it) and reconciles it against LTS: a chunk
    /// longer than its record means a flush landed whose metadata update was
    /// lost, so the actual length is adopted (appends replay verbatim).
    Result<int64_t> reconcileSegment(SegmentId segment);

    /// The system-table key prefix of `segment`'s chunk records.
    static std::string chunkKeyPrefix(SegmentId segment);

    /// All chunks overlapping [offset, offset+length), in offset order.
    /// Lets the read pipeline fetch a multi-chunk range in parallel instead
    /// of discovering chunks one fetch-retry round at a time (§5.7).
    std::vector<ChunkRecord> findChunks(SegmentId segment, int64_t offset, int64_t length) const;

    /// Highest WAL sequence S such that every append with sequence <= S is
    /// durable in LTS (drives WAL truncation).
    int64_t flushedWalSequence() const;

    uint64_t pendingBytes() const { return pendingBytes_; }
    uint64_t flushedBytes() const { return flushedBytes_; }
    /// Completed chunk-compaction merges (see compactMinChunkBytes).
    uint64_t compactions() const { return mCompactions_.value(); }

    /// Largest single-segment unflushed backlog when it exceeds the
    /// backlog limit, else 0. Flushes are serialized per segment, so this
    /// measures how far LTS drain lags ingest for the hottest segment — the
    /// ingest-throttling signal (§4.3).
    uint64_t maxBacklogBytes() const {
        return backlogs_.empty() ? 0 : backlogs_.rbegin()->first;
    }

    /// Segments the next scan() flushes, in order, until it reaches the
    /// maxConcurrentFlushes cut-off: idle non-empty queues that are size-
    /// or age-ready.
    std::vector<SegmentId> flushCandidates() const;

    /// What the indexes answer, recomputed by walking every segment (tests
    /// check the indexed accessors against it).
    struct Aggregates {
        uint64_t maxPendingBytes = 0;  // over all segments, limit or not
        int64_t flushedWalSequence = 0;
        std::vector<SegmentId> flushCandidates;
    };
    Aggregates recomputeAggregates() const;

private:
    struct PendingAppend {
        int64_t offset;
        SharedBuf data;
        int64_t walSequence;
    };
    /// One chunk record as the system table holds it: the record, the index
    /// in its key and the table version its last update was given.
    struct ChunkEntry {
        ChunkRecord record;
        int64_t index;
        int64_t version;
    };
    struct SegmentState {
        uint64_t incarnation = 0;  // unique per state: late completions check it
        std::deque<PendingAppend> pending;
        uint64_t pendingBytes = 0;
        sim::TimePoint oldestPending = 0;
        /// The segment's chunk records in key order, which is offset order.
        /// Equal to the system table's: changed where the table changes.
        std::vector<ChunkEntry> chunks;
        bool flushing = false;
        // Keys this segment is filed under in heads_ and backlogs_.
        int64_t indexedHead = kUnindexed;
        uint64_t indexedBacklog = 0;  // 0: not in backlogs_
    };
    static constexpr int64_t kUnindexed = INT64_MIN;

    /// One flush in flight: its per-chunk writes, run in order by flushStep.
    struct Flush {
        SegmentId segment;
        uint64_t incarnation;
        int64_t finalLength;
        size_t count;  // queue entries the flush retires
        uint64_t bytes;
        sim::TimePoint start;
        struct Write {
            ChunkEntry entry;  // record after the write; version = expected
            BufChain data;     // zero-copy slice of the aggregate chain
        };
        std::vector<Write> writes = {};
        size_t next = 0;
    };
    /// One compaction in flight: a run of chunks merged into one.
    struct Compaction {
        SegmentId segment;
        uint64_t incarnation;
        std::vector<ChunkEntry> victims;
        ChunkRecord merged;
    };

    /// The state for `segment`, made with a fresh incarnation if absent.
    SegmentState& stateOf(SegmentId segment);
    /// `segment`'s state while incarnation `incarnation` lives: null once
    /// its Delete has applied (a queued one shows in container_.hasSegment).
    SegmentState* liveState(SegmentId segment, uint64_t incarnation);
    /// Re-files `segment` in the three indexes after its queue changed.
    void reindex(SegmentId segment, SegmentState& state);
    /// Pops `count` flushed entries of `bytes` off the queue.
    void retire(SegmentId segment, SegmentState& state, size_t count, uint64_t bytes);
    bool flushReady(const SegmentState& state) const;
    void scan();
    void flushSegment(SegmentId segment, SegmentState& state);
    /// Runs write `f->next` of a flush (create when new, then append), or
    /// retires the flushed entries once every write is done.
    void flushStep(std::unique_ptr<Flush> f);
    /// Appends write `f->next`, records its chunk, and steps on.
    void appendChunk(std::unique_ptr<Flush> f);
    void compactScan();
    void compactSegment(SegmentId segment, SegmentState& state);
    void swapCompacted(std::unique_ptr<Compaction> job, const Result<sim::Unit>& appended);
    void endCompaction(const Compaction& job, bool removeMerged);
    /// Files `put` (its version is the expected one) and the removal of
    /// `removed`, the entries right after it, in the system table as one
    /// batch, and mirrors them into `state.chunks` if the table applied it.
    sim::Future<std::vector<int64_t>> updateRecords(SegmentId segment, SegmentState& state,
                                                    const ChunkEntry& put,
                                                    const std::vector<ChunkEntry>& removed = {});

    sim::Core& exec_;
    SegmentContainer& container_;
    lts::ChunkStorage& storage_;
    StorageWriterConfig cfg_;

    std::map<SegmentId, SegmentState> segments_;
    // Indexes over segments_, kept equal to a walk over it by reindex():
    // non-empty queues in SegmentId order (the flush scan), (head WAL
    // sequence, segment) of non-empty queues (the WAL-truncation frontier),
    // and (pendingBytes, segment) of queues above backlogLimit_ (the
    // throttle input).
    std::set<SegmentId> nonEmpty_;
    std::set<std::pair<int64_t, SegmentId>> heads_;
    std::set<std::pair<uint64_t, SegmentId>> backlogs_;
    uint64_t backlogLimit_;
    uint64_t pendingBytes_ = 0;
    uint64_t flushedBytes_ = 0;
    int activeFlushes_ = 0;
    int64_t compactGen_ = 0;     // uniquifies merged-chunk names
    uint64_t incarnations_ = 0;  // last SegmentState::incarnation handed out

    /// Best-effort chunk removal with one retry; failures land on the
    /// `lts.orphan_chunks` gauge instead of being silently dropped.
    void removeChunk(const std::string& name, bool isRetry);

    // World-aggregate storage-writer metrics.
    obs::Counter& mFlushes_;
    obs::Counter& mFlushBytes_;
    obs::Counter& mFlushFailures_;
    obs::Counter& mCompactions_;
    obs::Counter& mCompactedBytes_;
    obs::Gauge& mOrphanChunks_;
    obs::LatencyHistogram& mFlushNs_;
    obs::LatencyHistogram& mFlushBatchBytes_;

    sim::Lifetime life_;       // LTS completions of flushes and compactions
    sim::Timer scanTimer_;     // armed from start() to stop()
    sim::Timer compactTimer_;  // likewise, when compaction is on
};

}  // namespace pravega::segmentstore
