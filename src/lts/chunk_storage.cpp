#include "lts/chunk_storage.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "common/logging.h"

namespace pravega::lts {

namespace {
using sim::Future;
using sim::Unit;

Future<Unit> okUnit() { return Future<Unit>::ready(Unit{}); }
Future<Unit> fail(Err code, const char* msg) {
    return Future<Unit>::failed(Status(code, msg));
}
}  // namespace

// ---------------------------------------------------------------- InMemory

Future<Unit> InMemoryChunkStorage::create(const std::string& name) {
    if (chunks_.contains(name)) return fail(Err::AlreadyExists, "chunk exists");
    chunks_[name] = {};
    return okUnit();
}

Future<Unit> InMemoryChunkStorage::append(const std::string& name, BufChain data) {
    auto it = chunks_.find(name);
    if (it == chunks_.end()) return fail(Err::NotFound, "no such chunk");
    if (data.empty()) return okUnit();
    Chunk& chunk = it->second;
    data.forEachFragment([&](const SharedBuf& frag) {
        chunk.starts.push_back(chunk.size);
        chunk.extents.push_back(frag);
        chunk.size += frag.size();
    });
    totalBytes_ += data.size();
    return okUnit();
}

Future<SharedBuf> InMemoryChunkStorage::read(const std::string& name, uint64_t offset,
                                             uint64_t length) {
    ++readOps_;
    auto it = chunks_.find(name);
    if (it == chunks_.end()) return Future<SharedBuf>::failed(Status(Err::NotFound, name));
    const Chunk& chunk = it->second;
    if (offset > chunk.size) return Future<SharedBuf>::failed(Status(Err::BadOffset, name));
    const uint64_t n = std::min<uint64_t>(length, chunk.size - offset);
    if (n == 0) return Future<SharedBuf>::ready(SharedBuf());
    // The extent holding `offset`: the last one starting at or before it.
    size_t i = static_cast<size_t>(
        std::upper_bound(chunk.starts.begin(), chunk.starts.end(), offset) -
        chunk.starts.begin() - 1);
    size_t skip = static_cast<size_t>(offset - chunk.starts[i]);
    if (skip + n <= chunk.extents[i].size()) {
        return Future<SharedBuf>::ready(chunk.extents[i].slice(skip, static_cast<size_t>(n)));
    }
    Bytes out;
    out.reserve(static_cast<size_t>(n));
    for (; out.size() < n; ++i, skip = 0) {
        BytesView ext = chunk.extents[i].view().subspan(skip);
        pravega::append(out, ext.first(std::min<size_t>(ext.size(), n - out.size())));
    }
    bufstats::recordStoreCopy(out.size());
    return Future<SharedBuf>::ready(SharedBuf(std::move(out)));
}

Future<Unit> InMemoryChunkStorage::remove(const std::string& name) {
    auto it = chunks_.find(name);
    if (it == chunks_.end()) return fail(Err::NotFound, "no such chunk");
    totalBytes_ -= it->second.size;
    chunks_.erase(it);
    return okUnit();
}

Result<ChunkInfo> InMemoryChunkStorage::stat(const std::string& name) const {
    auto it = chunks_.find(name);
    if (it == chunks_.end()) return Status(Err::NotFound, name);
    return ChunkInfo{name, it->second.size};
}

// ------------------------------------------------------- SimulatedObject

Future<Unit> SimulatedObjectStorage::create(const std::string& name) {
    // Creation is a metadata op; charge one zero-byte round trip.
    auto data = mem_.create(name);
    if (data.isReady() && !data.result().isOk()) return data;
    return model_.put(0);
}

Future<Unit> SimulatedObjectStorage::append(const std::string& name, BufChain data) {
    uint64_t n = data.size();
    auto stored = mem_.append(name, std::move(data));
    if (stored.isReady() && !stored.result().isOk()) return stored;
    return model_.put(n);
}

Future<SharedBuf> SimulatedObjectStorage::read(const std::string& name, uint64_t offset,
                                               uint64_t length) {
    auto data = mem_.read(name, offset, length);
    // mem_ is the always-ready InMemoryChunkStorage: resolving result()
    // before the model charge is only safe because it can never be pending.
    assert(data.isReady());
    if (!data.result().isOk()) return data;
    // Charge the model for the bytes actually transferred, not the requested
    // length: a tail read near EOF returns fewer bytes and must not pay
    // latency/throughput for bytes that never move.
    uint64_t actual = data.result().value().size();
    return model_.get(actual).then(
        [data](const Unit&) { return data.result().value(); });
}

Future<Unit> SimulatedObjectStorage::remove(const std::string& name) {
    auto r = mem_.remove(name);
    if (r.isReady() && !r.result().isOk()) return r;
    return model_.put(0);
}

Result<ChunkInfo> SimulatedObjectStorage::stat(const std::string& name) const {
    return mem_.stat(name);
}

// ------------------------------------------------------------------ NoOp

Future<Unit> NoOpChunkStorage::create(const std::string& name) {
    if (sizes_.contains(name)) return fail(Err::AlreadyExists, "chunk exists");
    sizes_[name] = 0;
    return okUnit();
}

Future<Unit> NoOpChunkStorage::append(const std::string& name, BufChain data) {
    auto it = sizes_.find(name);
    if (it == sizes_.end()) return fail(Err::NotFound, "no such chunk");
    it->second += data.size();
    return okUnit();
}

Future<SharedBuf> NoOpChunkStorage::read(const std::string& name, uint64_t offset,
                                         uint64_t length) {
    ++readOps_;
    auto it = sizes_.find(name);
    if (it == sizes_.end()) return Future<SharedBuf>::failed(Status(Err::NotFound, name));
    if (offset > it->second) return Future<SharedBuf>::failed(Status(Err::BadOffset, name));
    // Data was discarded; return zero-filled bytes of the right size so
    // read paths can still be exercised for timing.
    uint64_t n = std::min(length, it->second - offset);
    bufstats::recordStoreZeroFill(static_cast<size_t>(n));
    return Future<SharedBuf>::ready(SharedBuf(Bytes(static_cast<size_t>(n), 0)));
}

Future<Unit> NoOpChunkStorage::remove(const std::string& name) {
    if (sizes_.erase(name) == 0) return fail(Err::NotFound, "no such chunk");
    return okUnit();
}

Result<ChunkInfo> NoOpChunkStorage::stat(const std::string& name) const {
    auto it = sizes_.find(name);
    if (it == sizes_.end()) return Status(Err::NotFound, name);
    return ChunkInfo{name, it->second};
}

}  // namespace pravega::lts
