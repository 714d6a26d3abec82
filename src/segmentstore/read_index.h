// The read index (§4.2): a complete view of each segment's data across WAL
// (tail, cache-resident) and LTS, without readers knowing where data lives.
//
// Per segment, an AVL tree sorted by start offset maps to entries holding a
// cache address plus the usage metadata that drives eviction. Tail appends
// extend the last entry in O(1) via the block cache's append; cache misses
// are reported to the caller, which fetches from LTS and re-inserts.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <variant>

#include "common/buf_chain.h"
#include "common/result.h"
#include "obs/metrics.h"
#include "segmentstore/avl_map.h"
#include "segmentstore/cache.h"
#include "segmentstore/types.h"

namespace pravega::segmentstore {

/// Outcome of a read-index lookup.
struct ReadHit {
    BufChain data;       // slices of cached bytes, from exactly the requested offset
};
struct ReadMiss {
    int64_t offset;      // fetch this range from LTS...
    int64_t length;      // ...then insertFromStorage() and retry
};
struct ReadAtTail {};    // offset == segment length; caller registers a tail future
using ReadOutcome = std::variant<ReadHit, ReadMiss, ReadAtTail>;

class ReadIndex {
public:
    struct Config {
        /// Entries are split beyond this length to bound reassembly cost.
        int64_t maxEntryLength = 128 * 1024;
        /// Cache utilization above which applyCachePolicy evicts.
        double evictionThreshold = 0.80;
        /// Utilization the eviction pass drives down to.
        double evictionTarget = 0.70;
    };

    explicit ReadIndex(BlockCache& cache) : ReadIndex(cache, Config{}) {}
    ReadIndex(BlockCache& cache, Config cfg);

    /// Releases every cached entry: the cache is shared by all containers
    /// on a segment store and outlives any one container (failover).
    ~ReadIndex();

    ReadIndex(const ReadIndex&) = delete;
    ReadIndex& operator=(const ReadIndex&) = delete;

    /// Registers a segment (idempotent).
    void addSegment(SegmentId segment);
    void removeSegment(SegmentId segment);

    /// Tail append at `offset` (must equal current indexed length unless
    /// the index has gaps from eviction — gaps are fine, appends are not
    /// required to be contiguous with evicted history).
    /// The cache entry holds the chain's fragments by reference.
    Status append(SegmentId segment, int64_t offset, const BufChain& data);

    /// Inserts data fetched from LTS covering [offset, offset+size). Bytes
    /// already indexed are trimmed away on BOTH sides: against an
    /// overlapping floor entry (possible after eviction plus a concurrent
    /// refetch of a stale gap) and against any ceiling entries, filling
    /// only the real gaps. Never double-indexes a byte.
    Status insertFromStorage(SegmentId segment, int64_t offset, BufChain data);

    /// Attempts to serve [offset, offset+maxBytes) for a segment whose
    /// current length is `segmentLength` and truncation point `startOffset`.
    Result<ReadOutcome> read(SegmentId segment, int64_t offset, int64_t maxBytes,
                             int64_t segmentLength, int64_t startOffset);

    /// Drops indexed data before `newStartOffset` (segment truncation).
    void truncate(SegmentId segment, int64_t newStartOffset);

    /// End of the contiguous indexed run covering `offset` (== `offset`
    /// when nothing covers it). Capped at `limit` so the walk stays cheap;
    /// used by the readahead prefetcher to find where cached data runs out.
    int64_t contiguousEnd(SegmentId segment, int64_t offset, int64_t limit);

    /// Advances the flushed-to-LTS watermark; data below it is evictable.
    void setStorageLength(SegmentId segment, int64_t storageLength);

    /// Generation-based eviction: bumps the current generation and, if the
    /// cache is above the eviction threshold, evicts least-recently-used
    /// entries (only below each segment's storage watermark) until at the
    /// target. Returns the number of entries evicted.
    int applyCachePolicy();

    /// Optional registry counter bumped on every eviction (any trigger:
    /// timer-driven policy runs and insert-time pressure evictions alike).
    void setEvictionCounter(obs::Counter* c) { evictionCounter_ = c; }

    uint64_t indexedBytes() const { return indexedBytes_; }
    uint64_t entryCount() const;

private:
    struct Entry {
        int64_t length = 0;
        CacheAddress address = kInvalidAddress;
        uint64_t lastUsedGeneration = 0;
    };
    struct SegmentIndex {
        AvlMap<int64_t, Entry> entries;
        int64_t storageLength = 0;
    };

    Status insertEntry(SegmentIndex& idx, int64_t offset, BufChain data);

    /// Debug-build invariant: entries of `idx` are non-overlapping and
    /// offset-ordered. No-op in release builds.
    void checkSegmentInvariants(SegmentIndex& idx);

    BlockCache& cache_;
    Config cfg_;
    std::map<SegmentId, SegmentIndex> segments_;
    uint64_t generation_ = 0;
    uint64_t indexedBytes_ = 0;
    obs::Counter* evictionCounter_ = nullptr;
};

}  // namespace pravega::segmentstore
