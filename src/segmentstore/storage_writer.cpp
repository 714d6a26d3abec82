#include "segmentstore/storage_writer.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "common/logging.h"
#include "common/serde.h"
#include "segmentstore/container.h"

namespace pravega::segmentstore {

namespace {
constexpr const char* kLog = "storage-writer";
}

Bytes ChunkRecord::serialize() const {
    Bytes out;
    BinaryWriter w(out);
    w.str(name);
    w.i64(startOffset);
    w.i64(length);
    return out;
}

Result<ChunkRecord> ChunkRecord::deserialize(BytesView data) {
    BinaryReader r(data);
    auto name = r.str();
    auto startOffset = r.i64();
    auto length = r.i64();
    if (!name || !startOffset || !length) return Status(Err::IoError, "corrupt chunk record");
    return ChunkRecord{std::move(name.value()), startOffset.value(), length.value()};
}

StorageWriter::StorageWriter(sim::Core& exec, SegmentContainer& container,
                             lts::ChunkStorage& storage, StorageWriterConfig cfg,
                             uint64_t backlogLimit)
    : exec_(exec),
      container_(container),
      storage_(storage),
      cfg_(cfg),
      backlogLimit_(backlogLimit),
      mFlushes_(exec.metrics().counter("store.writer.flushes")),
      mFlushBytes_(exec.metrics().counter("store.writer.flush_bytes")),
      mFlushFailures_(exec.metrics().counter("store.writer.flush_failures")),
      mCompactions_(exec.metrics().counter("store.writer.compactions")),
      mCompactedBytes_(exec.metrics().counter("store.writer.compacted_bytes")),
      mOrphanChunks_(exec.metrics().gauge("lts.orphan_chunks")),
      mFlushNs_(exec.metrics().histogram("store.writer.flush_ns")),
      mFlushBatchBytes_(exec.metrics().histogram("store.writer.flush_batch_bytes")),
      scanTimer_(exec, [this]() { scan(); }),
      compactTimer_(exec, [this]() { compactScan(); }) {}

void StorageWriter::start() {
    scanTimer_.every(cfg_.scanInterval);
    if (cfg_.compactMinChunkBytes > 0) compactTimer_.every(cfg_.compactInterval);
}

void StorageWriter::stop() {
    scanTimer_.cancel();
    compactTimer_.cancel();
}

std::string StorageWriter::chunkKey(SegmentId segment, int64_t index) const {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "chunks/%016llx/%012lld",
                  static_cast<unsigned long long>(segment), static_cast<long long>(index));
    return buf;
}

std::string StorageWriter::chunkName(SegmentId segment, int64_t startOffset) const {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "seg-%016llx-%012lld",
                  static_cast<unsigned long long>(segment), static_cast<long long>(startOffset));
    return buf;
}

int64_t StorageWriter::chunkIndexFromKey(const std::string& key) {
    size_t slash = key.find_last_of('/');
    if (slash == std::string::npos) return -1;
    return std::strtoll(key.c_str() + slash + 1, nullptr, 10);
}

void StorageWriter::queueAppend(SegmentId segment, int64_t offset, SharedBuf data,
                                int64_t walSequence, int64_t storageLength) {
    auto& state = segments_[segment];
    if (state.deleted) return;
    // Drop bytes already durable in LTS (recovery replays the WAL tail,
    // which may overlap the flushed prefix).
    if (offset + static_cast<int64_t>(data.size()) <= storageLength) return;
    if (state.pending.empty()) state.oldestPending = exec_.now();
    state.pendingBytes += data.size();
    pendingBytes_ += data.size();
    state.pending.push_back(PendingAppend{offset, std::move(data), walSequence});
    reindex(segment, state);
}

void StorageWriter::reindex(SegmentId segment, SegmentState& state) {
    int64_t head = state.pending.empty() ? kUnindexed : state.pending.front().walSequence;
    if (head != state.indexedHead) {
        if (state.indexedHead == kUnindexed) {
            nonEmpty_.insert(segment);
        } else {
            heads_.erase({state.indexedHead, segment});
        }
        if (head == kUnindexed) {
            nonEmpty_.erase(segment);
        } else {
            heads_.insert({head, segment});
        }
        state.indexedHead = head;
    }
    uint64_t backlog = state.pendingBytes > backlogLimit_ ? state.pendingBytes : 0;
    if (backlog != state.indexedBacklog) {
        if (state.indexedBacklog != 0) backlogs_.erase({state.indexedBacklog, segment});
        if (backlog != 0) backlogs_.insert({backlog, segment});
        state.indexedBacklog = backlog;
    }
}

void StorageWriter::notifyDeleted(SegmentId segment) {
    auto it = segments_.find(segment);
    if (it != segments_.end()) {
        pendingBytes_ -= it->second.pendingBytes;
        it->second.pending.clear();
        it->second.pendingBytes = 0;
        it->second.deleted = true;
        reindex(segment, it->second);
    }
    // Chunk removal is best-effort and asynchronous, but a dropped failure
    // would leave an orphan chunk that totalBytes() counts forever — so
    // failures are logged, retried once, and then surfaced on a gauge.
    auto chunks = container_.tableScan(container_.systemTableSegment(),
                                       chunkKey(segment, 0).substr(0, 24));
    for (const auto& [key, value] : chunks) {
        auto rec = ChunkRecord::deserialize(value.value);
        if (rec) removeChunk(rec.value().name, /*isRetry=*/false);
    }
}

void StorageWriter::removeChunk(const std::string& name, bool isRetry) {
    storage_.remove(name).onComplete(life_.guard([this, name,
                                                  isRetry](const Result<sim::Unit>& r) {
        if (r.isOk() || r.status().code() == Err::NotFound) return;
        if (!isRetry) {
            PLOG_WARN(kLog, "chunk remove failed (%s), retrying once: %s",
                      r.status().toString().c_str(), name.c_str());
            removeChunk(name, /*isRetry=*/true);
            return;
        }
        PLOG_WARN(kLog, "chunk remove retry failed (%s); orphaning %s",
                  r.status().toString().c_str(), name.c_str());
        mOrphanChunks_.add(1.0);
    }));
}

bool StorageWriter::flushReady(const SegmentState& state) const {
    return !state.flushing && !state.pending.empty() &&
           (state.pendingBytes >= cfg_.flushSizeBytes ||
            exec_.now() - state.oldestPending >= cfg_.flushTimeout);
}

std::vector<SegmentId> StorageWriter::flushCandidates() const {
    std::vector<SegmentId> out;
    for (SegmentId segment : nonEmpty_) {
        if (flushReady(segments_.find(segment)->second)) out.push_back(segment);
    }
    return out;
}

void StorageWriter::scan() {
    for (auto it = nonEmpty_.begin(); it != nonEmpty_.end();) {
        SegmentId segment = *it;
        auto& state = segments_.find(segment)->second;
        if (!flushReady(state)) {
            ++it;
            continue;
        }
        if (activeFlushes_ >= cfg_.maxConcurrentFlushes) break;
        flushSegment(segment, state);
        // Found again by key: a flush with nothing new to write retires its
        // queue inline, which removes it from nonEmpty_.
        it = nonEmpty_.upper_bound(segment);
    }
}

void StorageWriter::flushSegment(SegmentId segment, SegmentState& state) {
    // Current durable frontier from chunk metadata; anything below it is
    // already in LTS (makes flush retries and recovery overlap idempotent).
    auto chunks = container_.tableScan(container_.systemTableSegment(),
                                       chunkKey(segment, 0).substr(0, 24));
    ChunkRecord last;
    int64_t lastIndex = -1;
    int64_t lastVersion = kNotExists;
    if (!chunks.empty()) {
        auto rec = ChunkRecord::deserialize(chunks.back().second.value);
        if (rec) {
            last = rec.value();
            // The index comes from the KEY, not the record count: compaction
            // deletes records, and a new chunk keyed `size()-1` would sort
            // before surviving keys, breaking findChunks' key-order ==
            // offset-order invariant.
            lastIndex = chunkIndexFromKey(chunks.back().first);
            lastVersion = chunks.back().second.version;
        }
    }
    int64_t storageStart = lastIndex >= 0 ? last.startOffset + last.length : 0;

    // Aggregate pending appends into one contiguous write (§4.3: "it
    // buffers small appends into larger writes to LTS"). The aggregate is a
    // fragment chain over the queued payloads — no bytes move here. The
    // chunk backend copies it once into an extent of its own (or, codec on,
    // encodes it into one block it adopts), so each byte is copied once
    // however many appends fill the chunk (DESIGN.md §11). Entries stay in
    // the queue until the flush succeeds so flushedWalSequence() cannot
    // advance (and truncate the WAL) past data not yet durable in LTS.
    BufChain agg;
    size_t flushCount = 0;
    uint64_t flushBytes = 0;
    int64_t cursor = -1;
    for (const auto& entry : state.pending) {
        if (agg.size() >= cfg_.flushSizeBytes * 2) break;
        int64_t end = entry.offset + static_cast<int64_t>(entry.data.size());
        if (end <= storageStart) {
            // Entirely below the durable frontier (replayed prefix).
            ++flushCount;
            flushBytes += entry.data.size();
            continue;
        }
        int64_t from = std::max<int64_t>(0, storageStart - entry.offset);
        if (cursor < 0) cursor = entry.offset + from;
        assert(entry.offset + from == cursor && "storage queue must be contiguous");
        agg.append(entry.data.slice(static_cast<size_t>(from),
                                    entry.data.size() - static_cast<size_t>(from)));
        cursor = end;
        ++flushCount;
        flushBytes += entry.data.size();
    }
    if (agg.empty()) {
        // Nothing new to write (all below the frontier): just retire.
        for (size_t i = 0; i < flushCount; ++i) state.pending.pop_front();
        state.pendingBytes -= flushBytes;
        pendingBytes_ -= flushBytes;
        if (!state.pending.empty()) state.oldestPending = exec_.now();
        reindex(segment, state);
        container_.onStorageProgress();
        return;
    }

    state.flushing = true;
    ++activeFlushes_;
    mFlushes_.inc();
    mFlushBatchBytes_.record(static_cast<sim::Duration>(agg.size()));
    sim::TimePoint flushStart = exec_.now();

    // Build the per-chunk write plan, rolling chunks at maxChunkBytes.
    struct FlushPlan {
        std::string chunk;
        std::string key;
        int64_t version;     // expected table version for the metadata CAS
        ChunkRecord record;  // record after this write
        BufChain data;       // zero-copy slice of the aggregate chain
        bool createChunk;
    };
    auto plans = std::make_shared<std::vector<FlushPlan>>();
    size_t pos = 0;
    int64_t offset = storageStart;
    while (pos < agg.size()) {
        bool needNew = lastIndex < 0 ||
                       last.length >= static_cast<int64_t>(cfg_.maxChunkBytes);
        if (needNew) {
            ++lastIndex;
            last = ChunkRecord{chunkName(segment, offset), offset, 0};
            lastVersion = kNotExists;
        }
        size_t room = cfg_.maxChunkBytes - static_cast<size_t>(last.length);
        size_t n = std::min(room, agg.size() - pos);
        FlushPlan plan;
        plan.chunk = last.name;
        plan.key = chunkKey(segment, lastIndex);
        plan.version = lastVersion;
        plan.createChunk = (lastVersion == kNotExists);
        plan.data = agg.share(pos, n);
        last.length += static_cast<int64_t>(n);
        plan.record = last;
        plans->push_back(std::move(plan));
        pos += n;
        offset += static_cast<int64_t>(n);
        lastVersion = kAnyVersion;  // subsequent writes in this flush chain
    }

    // Execute plans sequentially: create-if-needed, append, record metadata
    // via a conditional table update, then continue or finish.
    auto runPlan = std::make_shared<std::function<void(size_t)>>();
    int64_t finalLength = cursor;
    // The stored function holds only a weak ref to itself; the strong refs
    // live in the in-flight continuations. A chain interrupted mid-flight
    // (executor wound down with an LTS write outstanding) is then reclaimed
    // with the futures instead of leaking the self-ownership cycle.
    *runPlan = [this, segment, plans,
                weakPlan = std::weak_ptr<std::function<void(size_t)>>(runPlan),
                finalLength, flushCount, flushBytes, flushStart](size_t i) {
        auto runPlan = weakPlan.lock();
        if (!runPlan) return;
        auto& st = segments_[segment];
        if (i >= plans->size()) {
            mFlushNs_.record(exec_.now() - flushStart);
            // Success: retire the flushed entries.
            for (size_t k = 0; k < flushCount && !st.pending.empty(); ++k) {
                st.pending.pop_front();
            }
            st.pendingBytes -= std::min<uint64_t>(flushBytes, st.pendingBytes);
            pendingBytes_ -= std::min<uint64_t>(flushBytes, pendingBytes_);
            if (!st.pending.empty()) st.oldestPending = exec_.now();
            reindex(segment, st);
            st.flushing = false;
            --activeFlushes_;
            container_.onSegmentFlushed(segment, finalLength);
            container_.onStorageProgress();
            // Keep draining a backlogged segment immediately instead of
            // waiting for the next scan tick (the drain must be limited by
            // LTS, not by the scan cadence).
            if (st.pendingBytes >= cfg_.flushSizeBytes && scanTimer_.armed()) {
                exec_.post(life_.guard([this, segment]() {
                    auto it = segments_.find(segment);
                    if (it != segments_.end() && !it->second.flushing &&
                        !it->second.deleted && scanTimer_.armed() &&
                        activeFlushes_ < cfg_.maxConcurrentFlushes) {
                        flushSegment(segment, it->second);
                    }
                }));
            }
            return;
        }
        auto runAppend = [this, plans, runPlan, i, segment]() {
            auto& plan = (*plans)[i];
            uint64_t n = plan.data.size();
            storage_.append(plan.chunk, std::move(plan.data))
                .onComplete(life_.guard([this, plans, runPlan, i, n,
                             segment](const Result<sim::Unit>& r) {
                    auto& st2 = segments_[segment];
                    if (!r.isOk()) {
                        // Leave the queue untouched; the next scan retries
                        // and the durable-frontier trim keeps it idempotent.
                        PLOG_WARN(kLog, "LTS append failed (%s); will retry",
                                  r.status().toString().c_str());
                        mFlushFailures_.inc();
                        st2.flushing = false;
                        --activeFlushes_;
                        return;
                    }
                    flushedBytes_ += n;
                    mFlushBytes_.inc(n);
                    std::vector<TableUpdate> batch;
                    TableUpdate u;
                    u.key = (*plans)[i].key;
                    u.value = (*plans)[i].record.serialize();
                    u.expectedVersion = (*plans)[i].version;
                    batch.push_back(std::move(u));
                    container_.tableUpdate(container_.systemTableSegment(), std::move(batch))
                        .onComplete([runPlan, i](const Result<std::vector<int64_t>>& tr) {
                            if (!tr.isOk()) {
                                PLOG_WARN(kLog, "chunk metadata update failed: %s",
                                          tr.status().toString().c_str());
                            }
                            (*runPlan)(i + 1);
                        });
                }));
        };
        if ((*plans)[i].createChunk) {
            storage_.create((*plans)[i].chunk)
                .onComplete(life_.guard([runAppend](const Result<sim::Unit>&) { runAppend(); }));
        } else {
            runAppend();
        }
    };
    (*runPlan)(0);
}

uint64_t StorageWriter::compactions() const { return mCompactions_.value(); }

void StorageWriter::compactScan() {
    for (auto& [segment, state] : segments_) {
        if (state.flushing || state.deleted) continue;
        if (activeFlushes_ >= cfg_.maxConcurrentFlushes) break;
        compactSegment(segment, state);
    }
}

void StorageWriter::compactSegment(SegmentId segment, SegmentState& state) {
    auto chunks = container_.tableScan(container_.systemTableSegment(),
                                       chunkKey(segment, 0).substr(0, 24));
    if (chunks.size() < 3) return;  // need a run of >= 2 plus the active tail
    // Find the first run of >= 2 adjacent small chunks. The LAST record is
    // never a candidate: it is still receiving appends, and merging it would
    // race the flush path's durable-frontier math.
    struct Victim {
        std::string key;
        int64_t version;
        ChunkRecord rec;
    };
    std::vector<Victim> run;
    size_t limit = chunks.size() - 1;
    for (size_t i = 0; i < limit; ++i) {
        auto rec = ChunkRecord::deserialize(chunks[i].second.value);
        bool small = rec && rec.value().length > 0 &&
                     rec.value().length < static_cast<int64_t>(cfg_.compactMinChunkBytes);
        if (small) {
            int64_t runBytes = 0;
            for (const auto& v : run) runBytes += v.rec.length;
            if (runBytes + rec.value().length <= static_cast<int64_t>(cfg_.maxChunkBytes)) {
                run.push_back(
                    Victim{chunks[i].first, chunks[i].second.version, rec.value()});
                continue;
            }
        }
        if (run.size() >= 2) break;  // a full run ended here — merge it
        run.clear();
    }
    if (run.size() < 2) return;

    // Lock the segment against concurrent flushes: the metadata CAS below
    // and flushSegment's frontier scan must not interleave.
    state.flushing = true;
    ++activeFlushes_;

    auto victims = std::make_shared<std::vector<Victim>>(std::move(run));
    int64_t mergedStart = victims->front().rec.startOffset;
    int64_t mergedLen = 0;
    for (const auto& v : *victims) mergedLen += v.rec.length;
    // `-c<gen>` uniquifies: plain chunkName(segment, mergedStart) is the
    // first victim's own name (or a prior generation's).
    std::string mergedName =
        chunkName(segment, mergedStart) + "-c" + std::to_string(++compactGen_);

    auto finish = [this, segment](bool ok, const std::string& newChunk) {
        auto it = segments_.find(segment);
        if (it != segments_.end()) it->second.flushing = false;
        --activeFlushes_;
        if (!ok && !newChunk.empty()) removeChunk(newChunk, /*isRetry=*/false);
    };

    // Read every victim chunk fully (in parallel — they are immutable), then
    // write the merged chunk, then swap the metadata atomically.
    auto payloads = std::make_shared<std::vector<SharedBuf>>(victims->size());
    auto remaining = std::make_shared<size_t>(victims->size());
    auto failed = std::make_shared<bool>(false);
    for (size_t i = 0; i < victims->size(); ++i) {
        const auto& v = (*victims)[i];
        storage_.read(v.rec.name, 0, static_cast<uint64_t>(v.rec.length))
            .onComplete(life_.guard([this, segment, victims, payloads, remaining, failed, i,
                         mergedName, mergedStart, mergedLen,
                         finish](const Result<SharedBuf>& r) {
                if (!r.isOk() ||
                    r.value().size() != static_cast<uint64_t>((*victims)[i].rec.length)) {
                    *failed = true;
                }
                (*payloads)[i] = r.isOk() ? r.value() : SharedBuf();
                if (--*remaining > 0) return;
                if (*failed) {
                    finish(false, "");
                    return;
                }
                BufChain merged;
                for (auto& buf : *payloads) merged.append(std::move(buf));
                storage_.create(mergedName)
                    .onComplete(life_.guard([this, segment, victims, merged = std::move(merged),
                                 mergedName, mergedStart, mergedLen,
                                 finish](const Result<sim::Unit>& cr) mutable {
                        if (!cr.isOk()) {
                            finish(false, "");
                            return;
                        }
                        storage_.append(mergedName, std::move(merged))
                            .onComplete(life_.guard([this, segment, victims, mergedName,
                                         mergedStart, mergedLen,
                                         finish](const Result<sim::Unit>& ar) {
                                if (!ar.isOk()) {
                                    finish(false, mergedName);
                                    return;
                                }
                                // Atomic swap: the first victim's record
                                // becomes the merged record; the rest are
                                // deleted. Version guards abort the whole
                                // batch if anything moved underneath us.
                                std::vector<TableUpdate> batch;
                                TableUpdate u;
                                u.key = victims->front().key;
                                u.value =
                                    ChunkRecord{mergedName, mergedStart, mergedLen}
                                        .serialize();
                                u.expectedVersion = victims->front().version;
                                batch.push_back(std::move(u));
                                for (size_t k = 1; k < victims->size(); ++k) {
                                    TableUpdate d;
                                    d.key = (*victims)[k].key;
                                    d.value = std::nullopt;
                                    d.expectedVersion = (*victims)[k].version;
                                    batch.push_back(std::move(d));
                                }
                                container_
                                    .tableUpdate(container_.systemTableSegment(),
                                                 std::move(batch))
                                    .onComplete([this, victims, mergedName, mergedLen,
                                                 finish](const Result<
                                                         std::vector<int64_t>>& tr) {
                                        if (!tr.isOk()) {
                                            PLOG_WARN(kLog,
                                                      "compaction CAS failed: %s",
                                                      tr.status().toString().c_str());
                                            finish(false, mergedName);
                                            return;
                                        }
                                        mCompactions_.inc();
                                        mCompactedBytes_.inc(
                                            static_cast<uint64_t>(mergedLen));
                                        // Old chunks are unreachable now; any
                                        // read already in flight captured its
                                        // data when it was issued.
                                        for (const auto& v : *victims) {
                                            removeChunk(v.rec.name,
                                                        /*isRetry=*/false);
                                        }
                                        finish(true, "");
                                    });
                            }));
                    }));
            }));
    }
}

Result<int64_t> StorageWriter::reconcileSegment(SegmentId segment) {
    auto chunks = container_.tableScan(container_.systemTableSegment(),
                                       chunkKey(segment, 0).substr(0, 24));
    if (chunks.empty()) return static_cast<int64_t>(0);
    auto rec = ChunkRecord::deserialize(chunks.back().second.value);
    if (!rec) return rec.status();
    ChunkRecord last = rec.value();
    // A chunk longer than its record means a flush landed whose metadata
    // update was lost with the WAL tail; adopt the actual length.
    auto actual = storage_.stat(last.name);
    if (actual && static_cast<int64_t>(actual.value().length) > last.length) {
        last.length = static_cast<int64_t>(actual.value().length);
        std::vector<TableUpdate> fix;
        TableUpdate u;
        u.key = chunks.back().first;
        u.value = last.serialize();
        fix.push_back(std::move(u));
        container_.tableUpdate(container_.systemTableSegment(), std::move(fix));
    }
    return last.startOffset + last.length;
}

std::vector<ChunkRecord> StorageWriter::findChunks(SegmentId segment, int64_t offset,
                                                   int64_t length) const {
    std::vector<ChunkRecord> out;
    if (length <= 0) return out;
    int64_t end = offset + length;
    auto chunks = container_.tableScan(container_.systemTableSegment(),
                                       chunkKey(segment, 0).substr(0, 24));
    for (const auto& [key, value] : chunks) {
        auto rec = ChunkRecord::deserialize(value.value);
        if (!rec) continue;
        const ChunkRecord& r = rec.value();
        if (r.startOffset >= end) break;  // records are in offset order
        if (r.startOffset + r.length > offset) out.push_back(r);
    }
    return out;
}

int64_t StorageWriter::flushedWalSequence() const {
    if (heads_.empty()) return container_.lastAppliedSequence();
    return heads_.begin()->first - 1;
}

StorageWriter::Aggregates StorageWriter::recomputeAggregates() const {
    Aggregates out;
    int64_t minHead = INT64_MAX;
    for (const auto& [segment, state] : segments_) {
        out.maxPendingBytes = std::max(out.maxPendingBytes, state.pendingBytes);
        if (!state.pending.empty()) {
            minHead = std::min(minHead, state.pending.front().walSequence);
        }
        if (flushReady(state)) out.flushCandidates.push_back(segment);
    }
    out.flushedWalSequence =
        minHead == INT64_MAX ? container_.lastAppliedSequence() : minHead - 1;
    return out;
}

}  // namespace pravega::segmentstore
