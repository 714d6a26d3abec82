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

std::string chunkKey(SegmentId segment, int64_t index) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "chunks/%016llx/%012lld",
                  static_cast<unsigned long long>(segment), static_cast<long long>(index));
    return buf;
}

std::string chunkName(SegmentId segment, int64_t startOffset) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "seg-%016llx-%012lld",
                  static_cast<unsigned long long>(segment), static_cast<long long>(startOffset));
    return buf;
}

int64_t endOf(const ChunkRecord& r) { return r.startOffset + r.length; }
}  // namespace

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

std::string StorageWriter::chunkKeyPrefix(SegmentId segment) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "chunks/%016llx/", static_cast<unsigned long long>(segment));
    return buf;
}

StorageWriter::SegmentState& StorageWriter::stateOf(SegmentId segment) {
    auto [it, fresh] = segments_.try_emplace(segment);
    if (fresh) it->second.incarnation = ++incarnations_;
    return it->second;
}

StorageWriter::SegmentState* StorageWriter::liveState(SegmentId segment, uint64_t incarnation) {
    auto it = segments_.find(segment);
    return it == segments_.end() || it->second.incarnation != incarnation ? nullptr : &it->second;
}

void StorageWriter::queueAppend(SegmentId segment, int64_t offset, SharedBuf data,
                                int64_t walSequence, int64_t storageLength) {
    SegmentState& state = stateOf(segment);
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
    if (it == segments_.end()) return;
    SegmentState& state = it->second;
    pendingBytes_ -= state.pendingBytes;
    state.pending.clear();
    state.pendingBytes = 0;
    reindex(segment, state);
    // Chunk removal is best-effort and asynchronous, but a dropped failure
    // would leave an orphan chunk that totalBytes() counts forever — so
    // failures are logged, retried once, and then surfaced on a gauge.
    for (const auto& c : state.chunks) removeChunk(c.record.name, /*isRetry=*/false);
    // A flush or compaction still in flight finds no state of its
    // incarnation and stands down.
    segments_.erase(it);
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

sim::Future<std::vector<int64_t>> StorageWriter::updateRecords(
    SegmentId segment, SegmentState& state, const ChunkEntry& put,
    const std::vector<ChunkEntry>& removed) {
    std::vector<TableUpdate> batch{
        {chunkKey(segment, put.index), put.record.serialize(), put.version}};
    for (const auto& r : removed) {
        batch.push_back({chunkKey(segment, r.index), std::nullopt, r.version});
    }
    std::vector<int64_t> versions;  // stays empty when the table refuses the batch
    auto done =
        container_.tableUpdate(container_.systemTableSegment(), std::move(batch), &versions);
    if (versions.empty()) return done;
    auto at = std::lower_bound(state.chunks.begin(), state.chunks.end(), put.index,
                               [](const ChunkEntry& e, int64_t index) { return e.index < index; });
    if (at == state.chunks.end() || at->index != put.index) at = state.chunks.insert(at, put);
    at->record = put.record;
    at->version = versions[0];
    // The removals are the entries right after the put: a compaction's
    // other victims, which no flush can have moved while it ran.
    assert(static_cast<size_t>(state.chunks.end() - at) > removed.size());
    state.chunks.erase(at + 1, at + 1 + static_cast<ptrdiff_t>(removed.size()));
    return done;
}

void StorageWriter::retire(SegmentId segment, SegmentState& state, size_t count, uint64_t bytes) {
    for (size_t k = 0; k < count && !state.pending.empty(); ++k) state.pending.pop_front();
    state.pendingBytes -= std::min<uint64_t>(bytes, state.pendingBytes);
    pendingBytes_ -= std::min<uint64_t>(bytes, pendingBytes_);
    if (!state.pending.empty()) state.oldestPending = exec_.now();
    reindex(segment, state);
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
    // Current durable frontier from the chunk list; anything below it is
    // already in LTS (makes flush retries and recovery overlap idempotent).
    int64_t storageStart = state.chunks.empty() ? 0 : endOf(state.chunks.back().record);

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
        retire(segment, state, flushCount, flushBytes);
        container_.onStorageProgress();
        return;
    }

    state.flushing = true;
    ++activeFlushes_;
    mFlushes_.inc();
    mFlushBatchBytes_.record(static_cast<sim::Duration>(agg.size()));
    auto f = std::make_unique<Flush>(
        Flush{segment, state.incarnation, cursor, flushCount, flushBytes, exec_.now()});
    // Plan the per-chunk writes, rolling chunks at maxChunkBytes. The first
    // continues the last chunk and expects its record's version; a new
    // chunk's record must not exist yet; later writes expect any version. A
    // new key follows the last record's (not the record count, which
    // compaction lowers), so key order stays offset order.
    ChunkEntry last = state.chunks.empty() ? ChunkEntry{{}, -1, kNotExists} : state.chunks.back();
    for (size_t pos = 0; pos < agg.size();) {
        int64_t offset = storageStart + static_cast<int64_t>(pos);
        if (last.index < 0 || last.record.length >= static_cast<int64_t>(cfg_.maxChunkBytes)) {
            last = {{chunkName(segment, offset), offset, 0}, last.index + 1, kNotExists};
        }
        size_t n = std::min(cfg_.maxChunkBytes - static_cast<size_t>(last.record.length),
                            agg.size() - pos);
        last.record.length += static_cast<int64_t>(n);
        f->writes.push_back({last, agg.share(pos, n)});
        pos += n;
        last.version = kAnyVersion;
    }
    flushStep(std::move(f));
}

void StorageWriter::flushStep(std::unique_ptr<Flush> f) {
    SegmentState* state = liveState(f->segment, f->incarnation);
    if (!state) {
        --activeFlushes_;  // the segment's Delete applied first
        return;
    }
    if (f->next < f->writes.size()) {
        // A new chunk is created first; a failed create shows in the append.
        const ChunkEntry& e = f->writes[f->next].entry;
        if (e.version != kNotExists) return appendChunk(std::move(f));
        storage_.create(e.record.name)
            .onComplete(life_.guard([this, f = std::move(f)](const Result<sim::Unit>&) mutable {
                appendChunk(std::move(f));
            }));
        return;
    }
    mFlushNs_.record(exec_.now() - f->start);
    retire(f->segment, *state, f->count, f->bytes);
    state->flushing = false;
    --activeFlushes_;
    container_.onSegmentFlushed(f->segment, f->finalLength);
    container_.onStorageProgress();
    // Keep draining a backlogged segment immediately instead of waiting for
    // the next scan tick (the drain must be limited by LTS, not by the scan
    // cadence).
    if (state->pendingBytes >= cfg_.flushSizeBytes && scanTimer_.armed()) {
        exec_.post(life_.guard([this, segment = f->segment]() {
            auto it = segments_.find(segment);
            if (it != segments_.end() && !it->second.flushing && scanTimer_.armed() &&
                activeFlushes_ < cfg_.maxConcurrentFlushes) {
                flushSegment(segment, it->second);
            }
        }));
    }
}

void StorageWriter::appendChunk(std::unique_ptr<Flush> f) {
    Flush::Write& w = f->writes[f->next];
    uint64_t n = w.data.size();
    storage_.append(w.entry.record.name, std::move(w.data))
        .onComplete(life_.guard([this, f = std::move(f), n](const Result<sim::Unit>& r) mutable {
            const ChunkEntry& e = f->writes[f->next].entry;
            SegmentState* state = liveState(f->segment, f->incarnation);
            // Once the segment's Delete is queued, a record filed now would
            // outlive the records the Delete drops: stand down, and remove
            // the chunk this write made.
            if (!state || !container_.hasSegment(f->segment)) {
                if (e.version == kNotExists) removeChunk(e.record.name, /*isRetry=*/false);
                --activeFlushes_;
                return;
            }
            if (!r.isOk()) {
                // Leave the queue untouched; the next scan retries and the
                // durable-frontier trim keeps it idempotent.
                PLOG_WARN(kLog, "LTS append failed (%s); will retry",
                          r.status().toString().c_str());
                mFlushFailures_.inc();
                state->flushing = false;
                --activeFlushes_;
                return;
            }
            flushedBytes_ += n;
            mFlushBytes_.inc(n);
            updateRecords(f->segment, *state, e)
                .onComplete(life_.guard(
                    [this, f = std::move(f)](const Result<std::vector<int64_t>>& tr) mutable {
                        if (!tr.isOk()) {
                            PLOG_WARN(kLog, "chunk metadata update failed: %s",
                                      tr.status().toString().c_str());
                        }
                        ++f->next;
                        flushStep(std::move(f));
                    }));
        }));
}

void StorageWriter::compactScan() {
    for (auto& [segment, state] : segments_) {
        if (state.flushing) continue;
        if (activeFlushes_ >= cfg_.maxConcurrentFlushes) break;
        compactSegment(segment, state);
    }
}

void StorageWriter::compactSegment(SegmentId segment, SegmentState& state) {
    const auto& chunks = state.chunks;
    if (chunks.size() < 3) return;  // need a run of >= 2 plus the active tail
    // Find the first run of >= 2 adjacent small chunks. The LAST record is
    // never a candidate: it is still receiving appends, and merging it would
    // race the flush path's durable-frontier math.
    size_t first = 0;
    size_t count = 0;
    int64_t runBytes = 0;
    for (size_t i = 0; i + 1 < chunks.size(); ++i) {
        int64_t len = chunks[i].record.length;
        if (len > 0 && len < static_cast<int64_t>(cfg_.compactMinChunkBytes) &&
            runBytes + len <= static_cast<int64_t>(cfg_.maxChunkBytes)) {
            if (count++ == 0) first = i;
            runBytes += len;
            continue;
        }
        if (count >= 2) break;  // a full run ended here — merge it
        count = 0;
        runBytes = 0;
    }
    if (count < 2) return;

    // Lock the segment against concurrent flushes: the record swap below
    // and flushSegment's durable frontier must not interleave.
    state.flushing = true;
    ++activeFlushes_;
    auto run = chunks.begin() + static_cast<ptrdiff_t>(first);
    int64_t start = run->record.startOffset;
    // `-c<gen>` uniquifies: plain chunkName(segment, start) is the first
    // victim's own name (or a prior generation's).
    auto job = std::make_unique<Compaction>(Compaction{
        segment, state.incarnation, {run, run + static_cast<ptrdiff_t>(count)},
        {chunkName(segment, start) + "-c" + std::to_string(++compactGen_), start, runBytes}});

    // Read every victim chunk fully (in parallel — they are immutable), then
    // write the merged chunk, then swap the records atomically.
    std::vector<sim::Future<SharedBuf>> reads;
    for (const auto& v : job->victims) {
        reads.push_back(storage_.read(v.record.name, 0, static_cast<uint64_t>(v.record.length)));
    }
    sim::whenAll(reads).onComplete(life_.guard(
        [this, job = std::move(job), reads = std::move(reads)](const Result<sim::Unit>&) mutable {
            BufChain merged;
            for (size_t i = 0; i < reads.size(); ++i) {
                const Result<SharedBuf>& r = reads[i].result();
                if (!r.isOk() ||
                    r.value().size() != static_cast<uint64_t>(job->victims[i].record.length)) {
                    return endCompaction(*job, /*removeMerged=*/false);
                }
                merged.append(r.value());
            }
            storage_.create(job->merged.name).onComplete(life_.guard(
                [this, job = std::move(job), merged = std::move(merged)](
                    const Result<sim::Unit>& cr) mutable {
                    if (!cr.isOk()) return endCompaction(*job, /*removeMerged=*/false);
                    storage_.append(job->merged.name, std::move(merged))
                        .onComplete(life_.guard([this, job = std::move(job)](
                                                    const Result<sim::Unit>& ar) mutable {
                            swapCompacted(std::move(job), ar);
                        }));
                }));
        }));
}

void StorageWriter::swapCompacted(std::unique_ptr<Compaction> job, const Result<sim::Unit>& ar) {
    SegmentState* state = liveState(job->segment, job->incarnation);
    if (!ar.isOk() || !state) return endCompaction(*job, /*removeMerged=*/true);
    // Atomic swap: the first victim's record becomes the merged record; the
    // rest are deleted. Version guards abort the whole batch if anything
    // moved underneath us, a queued Delete's dropped records included.
    const auto& victims = job->victims;
    updateRecords(job->segment, *state, {job->merged, victims[0].index, victims[0].version},
                  {victims.begin() + 1, victims.end()})
        .onComplete(life_.guard(
            [this, job = std::move(job)](const Result<std::vector<int64_t>>& tr) mutable {
                if (!tr.isOk()) {
                    PLOG_WARN(kLog, "compaction CAS failed: %s", tr.status().toString().c_str());
                    return endCompaction(*job, /*removeMerged=*/true);
                }
                mCompactions_.inc();
                mCompactedBytes_.inc(static_cast<uint64_t>(job->merged.length));
                // Old chunks are unreachable now; any read already in flight
                // captured its data when it was issued.
                for (const auto& v : job->victims) removeChunk(v.record.name, /*isRetry=*/false);
                endCompaction(*job, /*removeMerged=*/false);
            }));
}

void StorageWriter::endCompaction(const Compaction& job, bool removeMerged) {
    if (SegmentState* state = liveState(job.segment, job.incarnation)) state->flushing = false;
    --activeFlushes_;
    if (removeMerged) removeChunk(job.merged.name, /*isRetry=*/false);
}

Result<int64_t> StorageWriter::reconcileSegment(SegmentId segment) {
    // The chunk list's one load from the system table. The index in a
    // record's key is parsed here, once, and carried by the list after.
    std::string prefix = chunkKeyPrefix(segment);
    auto records = container_.tableScan(container_.systemTableSegment(), prefix);
    if (records.empty()) return static_cast<int64_t>(0);
    SegmentState& state = stateOf(segment);
    state.chunks.clear();
    for (const auto& [key, value] : records) {
        auto rec = ChunkRecord::deserialize(value.value);
        if (!rec) return rec.status();
        int64_t index = std::strtoll(key.c_str() + prefix.size(), nullptr, 10);
        state.chunks.push_back({std::move(rec.value()), index, value.version});
    }
    ChunkEntry last = state.chunks.back();
    // A chunk longer than its record means a flush landed whose metadata
    // update was lost with the WAL tail; adopt the actual length.
    auto actual = storage_.stat(last.record.name);
    if (actual && static_cast<int64_t>(actual.value().length) > last.record.length) {
        last.record.length = static_cast<int64_t>(actual.value().length);
        last.version = kAnyVersion;
        updateRecords(segment, state, last);
    }
    return endOf(last.record);
}

std::vector<ChunkRecord> StorageWriter::findChunks(SegmentId segment, int64_t offset,
                                                   int64_t length) const {
    std::vector<ChunkRecord> out;
    auto it = segments_.find(segment);
    if (length <= 0 || it == segments_.end()) return out;
    const auto& chunks = it->second.chunks;
    // Records are in offset order, so their ends rise too: skip every chunk
    // that ends at or before `offset`, then take chunks until `end`.
    auto c = std::partition_point(chunks.begin(), chunks.end(), [offset](const ChunkEntry& e) {
        return endOf(e.record) <= offset;
    });
    for (int64_t end = offset + length; c != chunks.end() && c->record.startOffset < end; ++c) {
        out.push_back(c->record);
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
