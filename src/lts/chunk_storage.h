// Long-Term Storage: chunk storage interface and backends (§4.3).
//
// Pravega stores segment data in LTS as *chunks* — contiguous ranges of
// segment bytes with no extra metadata inside. The interface below is what
// the storage writer programs against; backends model the paper's EFS/S3
// (SimulatedObjectStorage), local testing (InMemory) and the
// paper's metadata-only test feature used in Fig 7a (NoOp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/buf_chain.h"
#include "common/bytes.h"
#include "common/result.h"
#include "sim/future.h"
#include "sim/models.h"

namespace pravega::lts {

struct ChunkInfo {
    std::string name;
    uint64_t length = 0;
};

/// Abstract chunk store. Chunks are created once, appended while open, and
/// immutable after that (mirrors object-store semantics: Pravega never
/// rewrites LTS data).
class ChunkStorage {
public:
    virtual ~ChunkStorage() = default;

    virtual sim::Future<sim::Unit> create(const std::string& name) = 0;
    /// Appends a fragment chain; backends consume per-fragment (the
    /// terminal media write), never flattening the chain first.
    virtual sim::Future<sim::Unit> append(const std::string& name, BufChain data) = 0;
    /// Reads up to `length` bytes from `offset`. The out-of-range contract
    /// is uniform across every backend: `offset > size` fails with
    /// Err::BadOffset, `offset == size` returns an empty buffer, and a
    /// length past EOF is clamped to the available bytes (a short read).
    virtual sim::Future<SharedBuf> read(const std::string& name, uint64_t offset,
                                        uint64_t length) = 0;
    virtual sim::Future<sim::Unit> remove(const std::string& name) = 0;
    virtual Result<ChunkInfo> stat(const std::string& name) const = 0;

    virtual uint64_t totalBytes() const = 0;
    /// Seconds of queued work; drives ingest throttling (§4.3). Zero for
    /// backends without a timing model.
    virtual double backlogSeconds() const { return 0.0; }
    /// Number of read() calls issued against this backend. Lets tests
    /// assert fetch coalescing (N readers, one object-store read).
    virtual uint64_t readOps() const { return 0; }
};

/// In-memory backend: exact data semantics, no timing model. The reference
/// backend for unit tests, and the data plane under SimulatedObjectStorage
/// and the archive tier.
///
/// A chunk is an append-only list of immutable extents, one per fragment
/// of each appended chain, so filling a chunk costs O(fragments) however
/// many appends it takes, and no byte is copied. A flush chain's fragments
/// are slices of the appended Operation::data (the client's block), so the
/// chunk shares the one physical copy of those bytes with the cache; an
/// extent pins its whole buffer (growth slack included) until the chunk is
/// removed (DESIGN.md §8). A read inside one extent returns a slice of it;
/// a read across extents is gathered once (a store-side copy in bufstats).
class InMemoryChunkStorage : public ChunkStorage {
public:
    sim::Future<sim::Unit> create(const std::string& name) override;
    sim::Future<sim::Unit> append(const std::string& name, BufChain data) override;
    sim::Future<SharedBuf> read(const std::string& name, uint64_t offset,
                                uint64_t length) override;
    sim::Future<sim::Unit> remove(const std::string& name) override;
    Result<ChunkInfo> stat(const std::string& name) const override;
    uint64_t totalBytes() const override { return totalBytes_; }
    uint64_t readOps() const override { return readOps_; }

private:
    struct Chunk {
        std::vector<SharedBuf> extents;
        std::vector<uint64_t> starts;  // chunk offset of each extent, ascending
        uint64_t size = 0;
    };

    std::map<std::string, Chunk> chunks_;
    uint64_t totalBytes_ = 0;
    uint64_t readOps_ = 0;
};

/// Object-store backend: in-memory data plus an ObjectStoreModel timing
/// model (per-op latency, per-stream and aggregate throughput caps). This
/// is the stand-in for AWS EFS / S3 in every benchmark.
class SimulatedObjectStorage : public ChunkStorage {
public:
    SimulatedObjectStorage(sim::Core& exec, sim::ObjectStoreModel::Config cfg)
        : model_(exec, cfg) {}

    sim::Future<sim::Unit> create(const std::string& name) override;
    sim::Future<sim::Unit> append(const std::string& name, BufChain data) override;
    sim::Future<SharedBuf> read(const std::string& name, uint64_t offset,
                                uint64_t length) override;
    sim::Future<sim::Unit> remove(const std::string& name) override;
    Result<ChunkInfo> stat(const std::string& name) const override;
    uint64_t totalBytes() const override { return mem_.totalBytes(); }
    double backlogSeconds() const override { return model_.backlogSeconds(); }
    uint64_t readOps() const override { return mem_.readOps(); }

    const sim::ObjectStoreModel& model() const { return model_; }

private:
    InMemoryChunkStorage mem_;
    sim::ObjectStoreModel model_;
};

/// Metadata-only backend: accepts and immediately discards data. This is
/// the paper's "NoOp LTS" test feature (§5.4) used to show the LTS
/// bandwidth bottleneck.
class NoOpChunkStorage : public ChunkStorage {
public:
    sim::Future<sim::Unit> create(const std::string& name) override;
    sim::Future<sim::Unit> append(const std::string& name, BufChain data) override;
    sim::Future<SharedBuf> read(const std::string& name, uint64_t offset,
                                uint64_t length) override;
    sim::Future<sim::Unit> remove(const std::string& name) override;
    Result<ChunkInfo> stat(const std::string& name) const override;
    uint64_t totalBytes() const override { return 0; }
    uint64_t readOps() const override { return readOps_; }

private:
    std::map<std::string, uint64_t> sizes_;
    uint64_t readOps_ = 0;
};

}  // namespace pravega::lts
