#include "segmentstore/container.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/buf_chain.h"
#include "common/logging.h"

namespace pravega::segmentstore {

namespace {
constexpr const char* kLog = "container";

/// Frame size cap: frames close at 1 MB (paper §4.1), the MaxFrameSize of
/// the delay formula.
constexpr uint64_t kMaxFrameBytes = 1024 * 1024;
/// Cache policy cadence (read-index eviction).
constexpr sim::Duration kCachePolicyInterval = sim::msec(250);
/// Fan-out bound for one demand miss spanning chunk boundaries.
constexpr int kMaxParallelChunkFetches = 8;
/// Cap on in-flight prefetch bytes per container.
constexpr uint64_t kPrefetchBudgetBytes = 32 * 1024 * 1024;
/// Prefetch stops above this cache utilization so readahead can never push
/// the cache into evicting the live tail (§4.2 policy evicts only below the
/// storage watermark; this margin keeps prefetch from forcing those
/// evictions either).
constexpr double kPrefetchMaxCacheUtilization = 0.75;

SegmentId systemTableIdFor(uint32_t containerId) {
    return makeSegmentId(0xFFFFFFFFu, containerId);
}

int64_t getAttribute(const std::map<AttributeId, int64_t>& attributes, AttributeId id) {
    auto it = attributes.find(id);
    return it == attributes.end() ? kNullValue : it->second;
}

/// A read reply's bytes: one gather of the hit's slices into a reserved
/// vector, with no zero-fill (ReadResult::data owns its bytes).
Bytes gatherReply(const BufChain& hit) {
    Bytes out;
    out.reserve(hit.size());
    hit.forEachFragment([&](const SharedBuf& frag) { pravega::append(out, frag.view()); });
    bufstats::recordStoreCopy(out.size());
    return out;
}

/// Setting kNullValue removes the attribute.
void setAttribute(std::map<AttributeId, int64_t>& attributes, AttributeId id, int64_t value) {
    if (value == kNullValue) {
        attributes.erase(id);
    } else {
        attributes[id] = value;
    }
}
}  // namespace

SegmentContainer::SegmentContainer(sim::Core& exec, uint32_t containerId, wal::WalEnv walEnv,
                                   sim::HostId host, lts::ChunkStorage& lts, BlockCache& cache,
                                   ContainerConfig cfg)
    : exec_(exec),
      containerId_(containerId),
      host_(host),
      lts_(lts),
      cache_(cache),
      cfg_(cfg),
      log_(std::make_unique<wal::LogClient>(walEnv, host, containerId, cfg.log)),
      readIndex_(cache),
      systemTable_(systemTableIdFor(containerId)),
      mOpsEnqueued_(exec.metrics().counter("store.ops.enqueued")),
      mFramesClosed_(exec.metrics().counter("store.frames.closed")),
      mThrottleCount_(exec.metrics().counter("store.throttle.count")),
      mThrottleNs_(exec.metrics().counter("store.throttle.ns")),
      mCacheHits_(exec.metrics().counter("store.cache.read_hits")),
      mCacheMisses_(exec.metrics().counter("store.cache.read_misses")),
      mCacheEvictions_(exec.metrics().counter("store.cache.evictions")),
      mTailWaits_(exec.metrics().counter("store.read.tail_waits")),
      mReadCoalesced_(exec.metrics().counter("store.read.coalesced")),
      mLtsFetches_(exec.metrics().counter("store.read.lts_fetches")),
      mPrefetchIssued_(exec.metrics().counter("store.prefetch.issued")),
      mPrefetchHits_(exec.metrics().counter("store.prefetch.hits")),
      mPrefetchWasted_(exec.metrics().counter("store.prefetch.wasted_bytes")),
      mQueueDepth_(exec.metrics().gauge("store.op_queue.depth")),
      mFrameBytes_(exec.metrics().histogram("store.frame.bytes")),
      mFrameOps_(exec.metrics().histogram("store.frame.ops")),
      mStoreQueueNs_(exec.metrics().histogram("trace.write.1_store_queue_ns")),
      mWalCommitNs_(exec.metrics().histogram("trace.write.2_wal_commit_ns")),
      mDemandFetchNs_(exec.metrics().histogram("trace.read.1_lts_fetch_ns")),
      mPrefetchFetchNs_(exec.metrics().histogram("trace.read.2_prefetch_fetch_ns")),
      frameTimer_(exec, [this]() {
          if (!offline_ && !openFrame_.ops.empty()) closeFrame();
      }),
      cacheTimer_(exec, [this]() { readIndex_.applyCachePolicy(); }) {
    readIndex_.setEvictionCounter(&mCacheEvictions_);
    storageWriter_ = std::make_unique<StorageWriter>(exec, *this, lts, cfg.storage,
                                                     cfg.throttleStartSegmentBytes);
}

SegmentContainer::~SegmentContainer() {
    if (!offline_) shutdown();
}

SegmentContainer::SegmentMeta* SegmentContainer::findSegment(SegmentId id) {
    auto it = segments_.find(id);
    return it == segments_.end() || it->second.props.deleted ? nullptr : &it->second;
}

const SegmentContainer::SegmentMeta* SegmentContainer::findSegment(SegmentId id) const {
    auto it = segments_.find(id);
    return it == segments_.end() || it->second.props.deleted ? nullptr : &it->second;
}

SegmentContainer::SegmentMeta& SegmentContainer::resetSegment(SegmentId id, std::string name,
                                                              bool isTable) {
    SegmentMeta& meta = segments_[id];
    meta.props = SegmentProperties{};
    meta.props.id = id;
    meta.props.name = std::move(name);
    meta.props.isTable = isTable;
    meta.appliedLength = 0;
    meta.table = TableIndex{};
    readIndex_.addSegment(id);
    return meta;
}

// --------------------------------------------------------------- startup

Status SegmentContainer::start() {
    auto recovered = log_->recover();
    if (!recovered) return recovered.status();

    for (auto& [addr, frame] : recovered.value()) {
        auto ops = deserializeFrame(frame.view());
        if (!ops) return ops.status();
        for (auto& op : ops.value()) applyOp(op, addr.sequence, /*replay=*/true);
        lastAppliedSeq_ = addr.sequence;
    }
    offline_ = false;

    // Reconcile recovered segments against LTS (chunk metadata is in the
    // system table, which the replay above restored).
    for (auto& [id, meta] : segments_) {
        if (meta.props.isTable || meta.props.deleted) continue;
        auto len = storageWriter_->reconcileSegment(id);
        if (len) {
            meta.props.storageLength = len.value();
            readIndex_.setStorageLength(id, len.value());
        }
        meta.appliedLength = meta.props.length;
    }
    for (auto& [id, meta] : segments_) meta.appliedLength = meta.props.length;

    if (!segments_.contains(systemTable_)) {
        createSegment(systemTable_, "_system/container_" + std::to_string(containerId_), true);
    }

    storageWriter_->start();
    cacheTimer_.every(kCachePolicyInterval);
    PLOG_INFO(kLog, "container %u online, %zu segments recovered", containerId_,
              segments_.size());
    return Status::ok();
}

void SegmentContainer::shutdown() {
    if (offline_) return;
    offline_ = true;
    storageWriter_->stop();
    cacheTimer_.cancel();
    failAllPending(Status(Err::ContainerOffline, "container shut down"));
    PLOG_WARN(kLog, "container %u shut down", containerId_);
}

void SegmentContainer::failAllPending(Status error) {
    auto frame = std::move(openFrame_);
    openFrame_ = PendingFrame{};
    for (auto& c : frame.completions) c(error);
    // Every segment's tail waiters, then every flush waiter, then the
    // in-flight fetches, whose late piece completions are dropped.
    for (auto& [id, meta] : segments_) {
        for (auto& w : std::exchange(meta.tailWaiters, {})) w.promise.setError(error);
    }
    for (auto& [id, meta] : segments_) {
        for (auto& w : std::exchange(meta.flushWaiters, {})) w.promise.setError(error);
    }
    fetches_.reset();
    for (auto& [id, meta] : segments_) dropFetches(meta, error);
}

void SegmentContainer::dropFetches(SegmentMeta& meta, const Status& error) {
    meta.readState = SegmentReadState{};
    for (auto& [start, fetch] : std::exchange(meta.fetches, {})) {
        if (fetch.prefetch) refundPrefetch(start, fetch.end);
        for (auto& w : fetch.waiters) w.promise.setError(error);
    }
}

void SegmentContainer::refundPrefetch(int64_t start, int64_t end) {
    uint64_t bytes = static_cast<uint64_t>(end - start);
    prefetchInflightBytes_ -= std::min(prefetchInflightBytes_, bytes);
}

// ------------------------------------------------------------- admission

sim::Duration SegmentContainer::throttleDelay() const {
    double f = 0.0;
    double backlog = lts_.backlogSeconds();
    if (backlog > cfg_.throttleStartSeconds) {
        f = (backlog - cfg_.throttleStartSeconds) /
            (cfg_.throttleFullSeconds - cfg_.throttleStartSeconds);
    }
    uint64_t segPending = storageWriter_->maxBacklogBytes();  // 0 at or below the start
    if (segPending > cfg_.throttleStartSegmentBytes) {
        double g = static_cast<double>(segPending - cfg_.throttleStartSegmentBytes) /
                   static_cast<double>(cfg_.throttleFullSegmentBytes -
                                       cfg_.throttleStartSegmentBytes);
        f = std::max(f, g);
    }
    f = std::clamp(f, 0.0, 1.0);
    return static_cast<sim::Duration>(f * static_cast<double>(cfg_.maxThrottleDelay));
}

template <typename F>
void SegmentContainer::admit(F fn) {
    sim::Duration d = throttleDelay();
    sim::TimePoint at = std::max(exec_.now() + d, admitCursor_);
    if (at <= exec_.now()) {
        fn();
        return;
    }
    // LTS-backpressure accounting: how long admission held this op back.
    mThrottleCount_.inc();
    mThrottleNs_.inc(static_cast<uint64_t>(at - exec_.now()));
    admitCursor_ = at;
    exec_.schedule(at - exec_.now(), admissions_.guard(std::move(fn)));
}

// ------------------------------------------------------------ public API

sim::Future<sim::Unit> SegmentContainer::createSegment(SegmentId id, std::string name,
                                                       bool isTable) {
    if (offline_) return sim::Future<sim::Unit>::failed(Status(Err::ContainerOffline, ""));
    auto existing = segments_.find(id);
    if (existing != segments_.end() &&
        (!existing->second.props.deleted || existing->second.deleteQueued)) {
        return sim::Future<sim::Unit>::failed(Status(Err::AlreadyExists, name));
    }
    resetSegment(id, name, isTable);

    Operation op;
    op.type = OpType::Create;
    op.segment = id;
    op.name = std::move(name);
    op.isTable = isTable;
    return enqueueUnitOp(std::move(op));
}

sim::Future<int64_t> SegmentContainer::append(SegmentId id, SharedBuf data, WriterId writer,
                                              int64_t eventNumber, uint32_t eventCount) {
    if (offline_) return sim::Future<int64_t>::failed(Status(Err::ContainerOffline, ""));
    sim::Promise<int64_t> p;
    auto fut = p.future();
    admit([this, id, data = std::move(data), writer, eventNumber, eventCount,
           p = std::move(p)]() mutable {
        if (offline_) {
            p.setError(Err::ContainerOffline);
            return;
        }
        SegmentMeta* meta = findSegment(id);
        if (!meta) {
            p.setError(Err::NotFound, "no such segment");
            return;
        }
        if (meta->props.sealed) {
            p.setError(Err::Sealed, "segment is sealed");
            return;
        }
        if (writer != 0) {
            // Exactly-once: stale event numbers are duplicates from a
            // writer retry; acknowledge without appending (§3.2).
            int64_t last = getAttribute(meta->attributes, writer);
            if (last != kNullValue && eventNumber <= last) {
                p.setValue(-1);
                return;
            }
            setAttribute(meta->attributes, writer, eventNumber);
        }
        Operation op;
        op.type = OpType::Append;
        op.segment = id;
        op.offset = meta->props.length;
        op.writer = writer;
        op.eventNumber = eventNumber;
        op.eventCount = eventCount;
        op.data = std::move(data);
        meta->props.length += static_cast<int64_t>(op.data.size());
        enqueueOp(std::move(op),
                  [p = std::move(p)](const Result<int64_t>& r) mutable { p.complete(r); });
    });
    return fut;
}

sim::Future<int64_t> SegmentContainer::conditionalAppend(SegmentId id, SharedBuf data,
                                                         int64_t expectedOffset) {
    if (offline_) return sim::Future<int64_t>::failed(Status(Err::ContainerOffline, ""));
    SegmentMeta* meta = findSegment(id);
    if (!meta) return sim::Future<int64_t>::failed(Status(Err::NotFound, ""));
    if (meta->props.sealed) return sim::Future<int64_t>::failed(Status(Err::Sealed, ""));
    if (meta->props.length != expectedOffset) {
        return sim::Future<int64_t>::failed(Status(Err::BadOffset, "conditional append lost"));
    }
    Operation op;
    op.type = OpType::Append;
    op.segment = id;
    op.offset = meta->props.length;
    op.eventCount = 1;
    op.data = std::move(data);
    meta->props.length += static_cast<int64_t>(op.data.size());

    sim::Promise<int64_t> p;
    auto fut = p.future();
    enqueueOp(std::move(op), [p](const Result<int64_t>& r) mutable { p.complete(r); });
    return fut;
}

sim::Future<sim::Unit> SegmentContainer::seal(SegmentId id) {
    if (offline_) return sim::Future<sim::Unit>::failed(Status(Err::ContainerOffline, ""));
    SegmentMeta* meta = findSegment(id);
    if (!meta) return sim::Future<sim::Unit>::failed(Status(Err::NotFound, ""));
    if (meta->props.sealed) return sim::Future<sim::Unit>::ready(sim::Unit{});
    meta->props.sealed = true;

    Operation op;
    op.type = OpType::Seal;
    op.segment = id;
    return enqueueUnitOp(std::move(op));
}

sim::Future<sim::Unit> SegmentContainer::truncate(SegmentId id, int64_t newStartOffset) {
    if (offline_) return sim::Future<sim::Unit>::failed(Status(Err::ContainerOffline, ""));
    SegmentMeta* meta = findSegment(id);
    if (!meta) return sim::Future<sim::Unit>::failed(Status(Err::NotFound, ""));
    if (newStartOffset > meta->props.length) {
        return sim::Future<sim::Unit>::failed(Status(Err::BadOffset, "beyond segment length"));
    }
    meta->props.startOffset = std::max(meta->props.startOffset, newStartOffset);

    Operation op;
    op.type = OpType::Truncate;
    op.segment = id;
    op.offset = newStartOffset;
    return enqueueUnitOp(std::move(op));
}

sim::Future<sim::Unit> SegmentContainer::deleteSegment(SegmentId id) {
    if (offline_) return sim::Future<sim::Unit>::failed(Status(Err::ContainerOffline, ""));
    SegmentMeta* meta = findSegment(id);
    if (!meta) return sim::Future<sim::Unit>::failed(Status(Err::NotFound, ""));
    meta->props.deleted = true;
    meta->deleteQueued = true;
    dropChunkRecords(id);

    Operation op;
    op.type = OpType::Delete;
    op.segment = id;
    return enqueueUnitOp(std::move(op));
}

Result<SegmentProperties> SegmentContainer::getInfo(SegmentId id) const {
    const SegmentMeta* meta = findSegment(id);
    if (!meta) return Status(Err::NotFound, "no such segment");
    SegmentProperties props = meta->props;
    // External view: the readable prefix, not yet-unacknowledged appends.
    props.length = meta->appliedLength;
    return props;
}

int64_t SegmentContainer::getWriterLastEventNumber(SegmentId id, WriterId writer) const {
    // A tombstone answers until its Delete applies and drops its attributes.
    auto it = segments_.find(id);
    return it == segments_.end() ? kNullValue : getAttribute(it->second.attributes, writer);
}

sim::Future<std::vector<int64_t>> SegmentContainer::tableUpdate(SegmentId id,
                                                                std::vector<TableUpdate> batch,
                                                                std::vector<int64_t>* applied) {
    using Out = std::vector<int64_t>;
    if (offline_) return sim::Future<Out>::failed(Status(Err::ContainerOffline, ""));
    SegmentMeta* meta = findSegment(id);
    if (!meta || !meta->props.isTable) {
        return sim::Future<Out>::failed(Status(Err::NotFound, "no such table segment"));
    }
    // Validate + apply against the (enqueue-time) index so concurrent
    // conditional updates serialize correctly, then make it durable.
    Status valid = meta->table.validate(batch);
    if (!valid) return sim::Future<Out>::failed(valid);
    auto versions = meta->table.apply(batch);
    if (applied) *applied = versions;

    Bytes serialized;
    BinaryWriter w(serialized);
    TableIndex::serializeBatch(batch, w);

    Operation op;
    op.type = OpType::TableUpdate;
    op.segment = id;
    op.offset = meta->props.length;
    op.data = SharedBuf(std::move(serialized));
    meta->props.length += static_cast<int64_t>(op.data.size());

    sim::Promise<Out> p;
    auto fut = p.future();
    enqueueOp(std::move(op), [p, versions = std::move(versions)](const Result<int64_t>& r) mutable {
        if (r.isOk()) {
            p.setValue(std::move(versions));
        } else {
            p.setError(r.status());
        }
    });
    return fut;
}

Result<TableValue> SegmentContainer::tableGet(SegmentId id, const std::string& key) const {
    const SegmentMeta* meta = findSegment(id);
    if (!meta || !meta->props.isTable) return Status(Err::NotFound, "no such table segment");
    return meta->table.get(key);
}

std::vector<std::pair<std::string, TableValue>> SegmentContainer::tableScan(
    SegmentId id, const std::string& prefix) const {
    const SegmentMeta* meta = findSegment(id);
    if (!meta || !meta->props.isTable) return {};
    return meta->table.scanPrefix(prefix);
}

// ------------------------------------------------------------ frame path

void SegmentContainer::enqueueOp(Operation op, Completion completion) {
    if (openFrame_.ops.empty()) openFrame_.openedAt = exec_.now();
    openFrame_.bytes += op.serializedSize();
    openFrame_.ops.push_back(std::move(op));
    openFrame_.completions.push_back(std::move(completion));
    mOpsEnqueued_.inc();
    mQueueDepth_.set(static_cast<double>(openFrame_.ops.size()) +
                     static_cast<double>(inFlightFrames_));

    if (openFrame_.bytes >= kMaxFrameBytes) {
        closeFrame();
    } else {
        frameTimer_.arm(currentBatchDelay());
    }
}

sim::Future<sim::Unit> SegmentContainer::enqueueUnitOp(Operation op) {
    sim::Promise<sim::Unit> p;
    auto fut = p.future();
    enqueueOp(std::move(op), [p = std::move(p)](const Result<int64_t>& r) mutable {
        if (r.isOk()) {
            p.setValue(sim::Unit{});
        } else {
            p.setError(r.status());
        }
    });
    return fut;
}

sim::Duration SegmentContainer::currentBatchDelay() const {
    // Delay = RecentLatency * (1 - AvgWriteSize / MaxFrameSize), bounded.
    double fill = avgWriteSizeBytes_ / static_cast<double>(kMaxFrameBytes);
    fill = std::clamp(fill, 0.0, 1.0);
    auto d = static_cast<sim::Duration>(recentWalLatencyNs_ * (1.0 - fill));
    return std::clamp<sim::Duration>(d, 0, cfg_.maxBatchDelay);
}

void SegmentContainer::closeFrame() {
    frameTimer_.cancel();
    if (openFrame_.ops.empty()) return;

    auto frame = std::move(openFrame_);
    openFrame_ = PendingFrame{};

    // Serialize every op's header (fixed fields + payload length prefix)
    // into one small buffer, then splice the payloads in as shared
    // fragments: the resulting chain is byte-identical to the old
    // serializeOp stream, but payload bytes ride into the WAL entry by
    // reference instead of being copied a second time.
    Bytes headers;
    BinaryWriter w(headers);
    std::vector<size_t> cuts;
    cuts.reserve(frame.ops.size() + 1);
    for (const auto& op : frame.ops) {
        cuts.push_back(headers.size());
        serializeOpHeader(w, op);
    }
    cuts.push_back(headers.size());
    SharedBuf hbuf{std::move(headers)};
    BufChain serialized;
    for (size_t i = 0; i < frame.ops.size(); ++i) {
        serialized.append(hbuf.slice(cuts[i], cuts[i + 1] - cuts[i]));
        serialized.append(frame.ops[i].data);
    }
    uint64_t frameBytes = serialized.size();

    // EWMA of frame sizes feeds the delay formula.
    avgWriteSizeBytes_ = avgWriteSizeBytes_ * 0.8 + static_cast<double>(frameBytes) * 0.2;

    sim::TimePoint sentAt = exec_.now();
    mFramesClosed_.inc();
    mFrameBytes_.record(static_cast<sim::Duration>(frameBytes));
    mFrameOps_.record(static_cast<sim::Duration>(frame.ops.size()));
    mStoreQueueNs_.record(sentAt - frame.openedAt);
    ++inFlightFrames_;
    log_->append(std::move(serialized))
        .onComplete([this, ops = std::move(frame.ops), completions = std::move(frame.completions),
                     sentAt](const Result<wal::LogAddress>& r) mutable {
            --inFlightFrames_;
            if (!r.isOk()) {
                for (auto& c : completions) c(r.status());
                PLOG_ERROR(kLog, "container %u WAL write failed (%s); shutting down",
                           containerId_, r.status().toString().c_str());
                shutdown();
                return;
            }
            double latency = static_cast<double>(exec_.now() - sentAt);
            recentWalLatencyNs_ = recentWalLatencyNs_ * 0.8 + latency * 0.2;
            mWalCommitNs_.record(exec_.now() - sentAt);
            applyFrame(std::move(ops), std::move(completions), r.value().sequence);
        });
}

void SegmentContainer::applyFrame(std::vector<Operation> ops, std::vector<Completion> completions,
                                  int64_t walSequence) {
    assert(ops.size() == completions.size());
    for (size_t i = 0; i < ops.size(); ++i) {
        applyOp(ops[i], walSequence, /*replay=*/false);
        completions[i](ops[i].offset);
    }
    lastAppliedSeq_ = walSequence;
    maybeCheckpoint();
}

void SegmentContainer::applyOp(Operation& op, int64_t walSequence, bool replay) {
    ++appliedOps_;
    ++opsSinceCheckpoint_;
    bytesSinceCheckpoint_ += op.data.size();

    switch (op.type) {
        case OpType::Create: {
            if (replay) resetSegment(op.segment, op.name, op.isTable);
            break;
        }
        case OpType::Append: {
            SegmentMeta* meta = findSegment(op.segment);
            if (!meta) {
                if (!replay) break;
                // Pre-checkpoint tail during replay: materialize a
                // placeholder; a later checkpoint restores authoritative
                // metadata (§4.4 recovery).
                auto& m = segments_[op.segment];
                m.props.id = op.segment;
                readIndex_.addSegment(op.segment);
                meta = &m;
            }
            if (replay) {
                meta->props.length = std::max(meta->props.length,
                                              op.offset + static_cast<int64_t>(op.data.size()));
                if (op.writer != 0) setAttribute(meta->attributes, op.writer, op.eventNumber);
            }
            readIndex_.append(op.segment, op.offset, BufChain(op.data));
            meta->appliedLength = std::max(meta->appliedLength,
                                           op.offset + static_cast<int64_t>(op.data.size()));
            if (!meta->props.isTable) {
                storageWriter_->queueAppend(op.segment, op.offset, op.data, walSequence,
                                            meta->props.storageLength);
                if (!replay) {
                    meta->rate.bytes += op.data.size();
                    meta->rate.events += op.eventCount;
                    meta->cumRate.bytes += op.data.size();
                    meta->cumRate.events += op.eventCount;
                    cumBytes_ += op.data.size();
                    cumEvents_ += op.eventCount;
                }
            }
            if (!replay) wakeTailWaiters(*meta);
            break;
        }
        case OpType::Seal: {
            SegmentMeta* meta = findSegment(op.segment);
            if (meta) {
                if (replay) meta->props.sealed = true;
                if (!replay) wakeTailWaiters(*meta);  // waiters see end-of-segment
            }
            break;
        }
        case OpType::Truncate: {
            SegmentMeta* meta = findSegment(op.segment);
            if (meta) {
                if (replay) {
                    meta->props.startOffset = std::max(meta->props.startOffset, op.offset);
                }
                readIndex_.truncate(op.segment, op.offset);
            }
            break;
        }
        case OpType::Delete: {
            // The one place a segment's state dies: the record becomes a
            // tombstone, the storage writer drops its queue, chunk list and
            // chunks, and every parked read resolves NotFound — fetch riders
            // first, then tail waiters, then flush waiters.
            if (replay) dropChunkRecords(op.segment);
            auto it = segments_.find(op.segment);
            if (it != segments_.end()) {
                SegmentMeta& meta = it->second;
                meta.props.deleted = true;
                meta.deleteQueued = false;
                readIndex_.removeSegment(op.segment);
                meta.attributes.clear();
                storageWriter_->notifyDeleted(op.segment);
                dropFetches(meta, Status(Err::NotFound, "segment deleted"));
                if (!replay) wakeTailWaiters(meta);
                wakeFlushWaiters(meta);
            }
            break;
        }
        case OpType::TableUpdate: {
            if (replay) {
                SegmentMeta* meta = findSegment(op.segment);
                if (meta) {
                    BinaryReader r(op.data.view());
                    auto batch = TableIndex::deserializeBatch(r);
                    if (batch) {
                        meta->table.apply(batch.value());
                        meta->props.length += static_cast<int64_t>(op.data.size());
                    }
                }
            }
            break;
        }
        case OpType::MetadataCheckpoint: {
            if (replay) {
                restoreCheckpoint(op.data.view());
            } else {
                checkpointSeqs_.push_back(walSequence);
                checkpointPending_ = false;
                ++checkpointsWritten_;
                truncateWalIfPossible();
            }
            break;
        }
    }
}

void SegmentContainer::wakeTailWaiters(SegmentMeta& meta) {
    bool closed = meta.props.deleted || meta.props.sealed;  // waiters see the end
    retryParked(meta, meta.tailWaiters, closed ? INT64_MAX : meta.appliedLength);
}

void SegmentContainer::wakeFlushWaiters(SegmentMeta& meta) {
    retryParked(meta, meta.flushWaiters,
                meta.props.deleted ? INT64_MAX : meta.props.storageLength);
}

void SegmentContainer::retryParked(SegmentMeta& meta, std::vector<PendingRead>& list,
                                   int64_t limit) {
    if (list.empty()) return;
    std::vector<PendingRead> ready;
    for (auto it = list.begin(); it != list.end();) {
        if (it->offset < limit) {
            ready.push_back(std::move(*it));
            it = list.erase(it);
        } else {
            ++it;
        }
    }
    for (auto& w : ready) {
        attemptRead(meta, w.offset, w.maxBytes, std::move(w.promise), w.depth + 1, w.counted);
    }
}

// ----------------------------------------------------------- checkpoints

void SegmentContainer::maybeCheckpoint() {
    if (checkpointPending_ || offline_) return;
    if (opsSinceCheckpoint_ < cfg_.checkpointEveryOps &&
        bytesSinceCheckpoint_ < cfg_.checkpointEveryBytes) {
        return;
    }
    checkpointPending_ = true;
    opsSinceCheckpoint_ = 0;
    bytesSinceCheckpoint_ = 0;

    Operation op;
    op.type = OpType::MetadataCheckpoint;
    op.data = SharedBuf(serializeCheckpoint());
    enqueueOp(std::move(op), [](const Result<int64_t>&) {});
}

Bytes SegmentContainer::serializeCheckpoint() const {
    Bytes out;
    BinaryWriter w(out);
    uint64_t live = 0;
    for (const auto& [id, meta] : segments_) {
        if (!meta.props.deleted) ++live;
    }
    w.varint(live);
    for (const auto& [id, meta] : segments_) {
        if (meta.props.deleted) continue;
        w.u64(id);
        w.str(meta.props.name);
        w.u8(meta.props.isTable ? 1 : 0);
        w.u8(meta.props.sealed ? 1 : 0);
        w.i64(meta.props.length);
        w.i64(meta.props.startOffset);
        w.i64(meta.props.storageLength);
        w.varint(meta.attributes.size());
        for (const auto& [attribute, value] : meta.attributes) {
            w.u64(attribute);
            w.i64(value);
        }
        if (meta.props.isTable) meta.table.serialize(w);
    }
    return out;
}

Status SegmentContainer::restoreCheckpoint(BytesView snapshot) {
    BinaryReader r(snapshot);
    auto count = r.varint();
    if (!count) return count.status();

    std::map<SegmentId, SegmentMeta> restored;
    for (uint64_t i = 0; i < count.value(); ++i) {
        auto id = r.u64();
        auto name = r.str();
        auto isTable = r.u8();
        auto sealed = r.u8();
        auto length = r.i64();
        auto startOffset = r.i64();
        auto storageLength = r.i64();
        if (!id || !name || !isTable || !sealed || !length || !startOffset || !storageLength) {
            return Status(Err::IoError, "corrupt checkpoint");
        }
        SegmentMeta meta;
        meta.props.id = id.value();
        meta.props.name = std::move(name.value());
        meta.props.isTable = isTable.value() != 0;
        meta.props.sealed = sealed.value() != 0;
        meta.props.length = length.value();
        meta.props.startOffset = startOffset.value();
        meta.props.storageLength = storageLength.value();
        meta.appliedLength = meta.props.length;
        auto attributes = r.varint();
        if (!attributes) return attributes.status();
        for (uint64_t a = 0; a < attributes.value(); ++a) {
            auto attribute = r.u64();
            auto value = r.i64();
            if (!attribute || !value) return Status(Err::IoError, "corrupt attribute record");
            meta.attributes[attribute.value()] = value.value();
        }
        if (meta.props.isTable) {
            Status table = meta.table.deserialize(r);
            if (!table) return table;
        }
        readIndex_.addSegment(id.value());
        restored.emplace(id.value(), std::move(meta));
    }
    // Preserve read-index contents (replayed appends); metadata resets to
    // the snapshot, which is authoritative at this point in the log.
    segments_ = std::move(restored);
    return Status::ok();
}

void SegmentContainer::truncateWalIfPossible() {
    int64_t flushed = storageWriter_->flushedWalSequence();
    int64_t candidate = -1;
    while (!checkpointSeqs_.empty() && checkpointSeqs_.front() <= flushed) {
        candidate = checkpointSeqs_.front();
        checkpointSeqs_.pop_front();
    }
    if (candidate > lastTruncatedSeq_ + 1) {
        log_->truncate(wal::LogAddress{0, 0, candidate - 1});
        lastTruncatedSeq_ = candidate - 1;
        ++walTruncations_;
    }
}

void SegmentContainer::dropChunkRecords(SegmentId id) {
    SegmentMeta* system = findSegment(systemTable_);
    if (!system) return;
    std::vector<TableUpdate> drop;
    for (auto& [key, value] : system->table.scanPrefix(StorageWriter::chunkKeyPrefix(id))) {
        drop.push_back(TableUpdate{key, std::nullopt});
    }
    system->table.apply(drop);
}

void SegmentContainer::onSegmentFlushed(SegmentId id, int64_t newStorageLength) {
    SegmentMeta* meta = findSegment(id);
    if (!meta) return;
    meta->props.storageLength = std::max(meta->props.storageLength, newStorageLength);
    readIndex_.setStorageLength(id, meta->props.storageLength);
    wakeFlushWaiters(*meta);
}

void SegmentContainer::onStorageProgress() {
    if (!offline_) truncateWalIfPossible();
}

// ------------------------------------------------------------- read path

sim::Future<ReadResult> SegmentContainer::read(SegmentId id, int64_t offset, int64_t maxBytes) {
    if (offline_) return sim::Future<ReadResult>::failed(Status(Err::ContainerOffline, ""));
    SegmentMeta* meta = findSegment(id);
    if (!meta) return sim::Future<ReadResult>::failed(Status(Err::NotFound, "no such segment"));
    sim::Promise<ReadResult> p;
    auto fut = p.future();
    attemptRead(*meta, offset, maxBytes, std::move(p), 0, /*counted=*/false);
    return fut;
}

void SegmentContainer::attemptRead(SegmentMeta& meta, int64_t offset, int64_t maxBytes,
                                   sim::Promise<ReadResult> promise, int depth, bool counted) {
    // A retry can find its segment deleted since the read parked.
    if (meta.props.deleted) {
        promise.setError(Err::NotFound, "no such segment");
        return;
    }
    auto outcome = readIndex_.read(meta.props.id, offset, maxBytes, meta.appliedLength,
                                   meta.props.startOffset);
    if (!outcome) {
        promise.setError(outcome.status());
        return;
    }
    if (auto* hit = std::get_if<ReadHit>(&outcome.value())) {
        // Hit/miss accounting is by *first resolution*: a read counts once,
        // at the first attempt that resolves to data-in-cache (hit) or
        // needs-LTS (miss). Tail-woken reads land here uncounted and count
        // as hits; fetch retries arrive with counted=true and count nothing.
        if (!counted) mCacheHits_.inc();
        ReadResult res;
        res.data = gatherReply(hit->data);
        res.offset = offset;
        res.endOfSegment =
            meta.props.sealed &&
            offset + static_cast<int64_t>(res.data.size()) >= meta.appliedLength;
        int64_t readEnd = offset + static_cast<int64_t>(res.data.size());
        if (carvePrefetched(meta, offset, readEnd) > 0) mPrefetchHits_.inc();
        noteSequentialHit(meta, offset, readEnd);
        std::move(promise).complete(std::move(res));
        return;
    }
    if (std::holds_alternative<ReadAtTail>(outcome.value())) {
        if (meta.props.sealed) {
            ReadResult res;
            res.offset = offset;
            res.endOfSegment = true;
            promise.setValue(std::move(res));
            return;
        }
        // Register a tail waiter; retry when new data is applied (§4.2:
        // "return a future that will be completed when new data is added").
        // The wait itself is neither a hit nor a miss — `counted` rides
        // along so the woken retry attributes the read at its resolution.
        mTailWaits_.inc();
        meta.tailWaiters.push_back(
            PendingRead{offset, maxBytes, std::move(promise), depth, counted});
        return;
    }

    // Cache miss: fetch the gap from LTS, index it, retry (§4.2).
    if (!counted) {
        mCacheMisses_.inc();
        counted = true;
    }
    auto miss = std::get<ReadMiss>(outcome.value());
    if (depth > 8) {
        promise.setError(Err::IoError, "read did not converge");
        return;
    }
    // A demand miss over a range we prefetched means the prefetch was
    // evicted before use — charge it as waste.
    int64_t wasted = carvePrefetched(meta, miss.offset, miss.offset + miss.length);
    if (wasted > 0) mPrefetchWasted_.inc(static_cast<uint64_t>(wasted));

    // Coalesce onto an in-flight fetch already covering the miss offset:
    // this reader rides that fetch instead of issuing its own.
    int64_t start = miss.offset;
    int64_t end = miss.offset + miss.length;
    auto next = meta.fetches.upper_bound(start);
    if (next != meta.fetches.begin()) {
        auto prev = std::prev(next);
        if (prev->second.end > start) {
            mReadCoalesced_.inc();
            prev->second.waiters.push_back(
                PendingRead{offset, maxBytes, std::move(promise), depth, counted});
            return;
        }
    }
    // Clip against the next in-flight fetch so fetched ranges never overlap.
    if (next != meta.fetches.end() && next->first < end) end = next->first;
    PendingRead demand{offset, maxBytes, std::move(promise), depth, counted};
    int64_t fetched = startFetch(meta, start, end, /*prefetch=*/false, &demand);
    // The fetch's callbacks may have deleted the segment meanwhile.
    if (cfg_.readPipeline.readahead && fetched > start && !meta.props.deleted) {
        maybePrefetch(meta, fetched);
    }
}

int64_t SegmentContainer::startFetch(SegmentMeta& meta, int64_t start, int64_t end,
                                     bool prefetch, PendingRead* demand) {
    SegmentId id = meta.props.id;
    auto chunks = storageWriter_->findChunks(id, start, end - start);
    // Build contiguous per-chunk pieces covering [start, ...), bounded by
    // the parallel-fetch fan-out cap. A gap (or a range past the flushed
    // chunks) stops coverage. A demand read at or above storageLength waits
    // for the storage writer to flush its bytes; below it, a gap is chunk
    // metadata out of step with the read index, a hard error that surfaces
    // instead of looping.
    struct Piece {
        std::string name;
        uint64_t within = 0;
        uint64_t length = 0;
    };
    std::vector<Piece> pieces;
    int64_t cursor = start;
    for (const auto& c : chunks) {
        if (c.startOffset > cursor) break;  // gap in chunk coverage
        int64_t pieceEnd = std::min(end, c.startOffset + c.length);
        if (pieceEnd <= cursor) continue;
        pieces.push_back(Piece{c.name, static_cast<uint64_t>(cursor - c.startOffset),
                               static_cast<uint64_t>(pieceEnd - cursor)});
        cursor = pieceEnd;
        if (cursor >= end) break;
        if (static_cast<int>(pieces.size()) >= kMaxParallelChunkFetches) break;
    }
    if (pieces.empty()) {
        if (!demand) return start;
        if (!meta.props.isTable && start >= meta.props.storageLength) {
            meta.flushWaiters.push_back(std::move(*demand));
        } else {
            demand->promise.setError(Err::IoError, "chunk metadata inconsistent with read index");
        }
        return start;
    }
    int64_t fetchEnd = cursor;

    auto& entry = meta.fetches[start];
    entry.end = fetchEnd;
    entry.prefetch = prefetch;
    entry.piecesRemaining = static_cast<int>(pieces.size());
    entry.startedAt = exec_.now();
    // The demand waiter must be registered BEFORE any piece is issued: a
    // synchronous backend completes reads inline, which would drain the
    // entry before the waiter existed.
    if (demand) entry.waiters.push_back(std::move(*demand));

    if (prefetch) {
        mPrefetchIssued_.inc();
        prefetchInflightBytes_ += static_cast<uint64_t>(fetchEnd - start);
    }
    int64_t pieceOffset = start;
    for (auto& piece : pieces) {
        int64_t insertAt = pieceOffset;
        pieceOffset += static_cast<int64_t>(piece.length);
        mLtsFetches_.inc();
        lts_.read(piece.name, piece.within, piece.length)
            .onComplete(fetches_.guard([this, id, start, insertAt](const Result<SharedBuf>& r) {
                Status st;
                if (r.isOk()) {
                    readIndex_.insertFromStorage(id, insertAt, r.value());
                } else {
                    st = r.status();
                }
                // The record outlives a Delete as a tombstone, whose fetch
                // table the Delete emptied.
                auto it = segments_.find(id);
                if (it != segments_.end()) finishFetchPiece(it->second, start, st);
            }));
    }
    return fetchEnd;
}

void SegmentContainer::finishFetchPiece(SegmentMeta& meta, int64_t start, Status st) {
    auto eit = meta.fetches.find(start);
    if (eit == meta.fetches.end()) return;
    InflightFetch& entry = eit->second;
    if (!st && entry.status) entry.status = st;  // keep the first failure
    if (--entry.piecesRemaining > 0) return;

    // Fetch complete: detach the entry before waking waiters — their
    // retries may start new fetches on this segment.
    InflightFetch done = std::move(entry);
    meta.fetches.erase(eit);

    if (done.prefetch) {
        refundPrefetch(start, done.end);
        mPrefetchFetchNs_.record(exec_.now() - done.startedAt);
        if (done.status) {
            // Record the landed range so later hits count as prefetch hits
            // and eviction-before-use lands on the waste counter.
            auto& pf = meta.readState.prefetched;
            int64_t s = start;
            int64_t e = done.end;
            auto it = pf.lower_bound(s);
            if (it != pf.begin()) {
                auto prev = std::prev(it);
                if (prev->second >= s) {
                    s = prev->first;
                    e = std::max(e, prev->second);
                    pf.erase(prev);
                }
            }
            while (it != pf.end() && it->first <= e) {
                e = std::max(e, it->second);
                it = pf.erase(it);
            }
            pf[s] = e;
        }
    } else {
        mDemandFetchNs_.record(exec_.now() - done.startedAt);
    }

    for (auto& w : done.waiters) {
        if (done.status) {
            attemptRead(meta, w.offset, w.maxBytes, std::move(w.promise), w.depth + 1, w.counted);
        } else {
            w.promise.setError(done.status);
        }
    }
}

void SegmentContainer::maybePrefetch(SegmentMeta& meta, int64_t from) {
    const auto& rp = cfg_.readPipeline;
    if (!rp.readahead || offline_) return;
    // Only flushed data has chunks to prefetch from; the unflushed tail is
    // already in cache (and the eviction policy protects it — prefetch must
    // not change that, hence the utilization margin below).
    int64_t horizon = std::min(
        meta.props.storageLength,
        from + static_cast<int64_t>(rp.prefetchWindows) *
                   static_cast<int64_t>(rp.prefetchFetchBytes));
    int64_t cursor = from;
    while (cursor < horizon) {
        cursor = readIndex_.contiguousEnd(meta.props.id, cursor, horizon);  // skip cached runs
        if (cursor >= horizon) break;
        if (cache_.utilization() >= kPrefetchMaxCacheUtilization) break;
        if (prefetchInflightBytes_ >= kPrefetchBudgetBytes) break;
        int64_t end = std::min(horizon, cursor + static_cast<int64_t>(rp.prefetchFetchBytes));
        // Skip past (or clip against) fetches already in flight.
        auto next = meta.fetches.upper_bound(cursor);
        if (next != meta.fetches.begin()) {
            auto prev = std::prev(next);
            if (prev->second.end > cursor) {
                cursor = prev->second.end;
                continue;
            }
        }
        if (next != meta.fetches.end() && next->first < end) end = next->first;
        if (end <= cursor) break;
        int64_t got = startFetch(meta, cursor, end, /*prefetch=*/true, nullptr);
        if (got <= cursor) break;  // no chunk coverage yet: stop
        cursor = got;
    }
}

void SegmentContainer::noteSequentialHit(SegmentMeta& meta, int64_t offset, int64_t readEnd) {
    auto& state = meta.readState;
    state.streak = offset == state.lastReadEnd ? state.streak + 1 : 1;
    state.lastReadEnd = readEnd;
    if (state.streak >= cfg_.readPipeline.sequentialStreak) maybePrefetch(meta, readEnd);
}

int64_t SegmentContainer::carvePrefetched(SegmentMeta& meta, int64_t start, int64_t end) {
    auto& pf = meta.readState.prefetched;
    int64_t overlap = 0;
    auto it = pf.lower_bound(start);
    if (it != pf.begin()) {
        auto prev = std::prev(it);
        if (prev->second > start) it = prev;
    }
    while (it != pf.end() && it->first < end) {
        int64_t a = it->first;
        int64_t b = it->second;
        overlap += std::min(b, end) - std::max(a, start);
        it = pf.erase(it);
        if (a < start) pf.emplace(a, start);
        if (b > end) {
            it = pf.emplace(end, b).first;
            ++it;
        }
    }
    return overlap;
}

// ----------------------------------------------------------- observation

std::map<SegmentId, SegmentRate> SegmentContainer::drainRates() {
    std::map<SegmentId, SegmentRate> out;
    for (auto& [id, meta] : segments_) {
        if (meta.rate.bytes != 0 || meta.rate.events != 0) {
            out.emplace_hint(out.end(), id, std::exchange(meta.rate, SegmentRate{}));
        }
    }
    return out;
}

}  // namespace pravega::segmentstore
