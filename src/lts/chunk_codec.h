// LTS data reduction: per-block compression + checksums on the flush path.
//
// Every append that flows through CodecChunkStorage is encoded as one
// self-describing *block*: a fixed 20-byte header (magic, codec method, raw
// and encoded lengths, CRC-32 over the raw payload) followed by the encoded
// body. The stored chunk is the concatenation of its blocks, so the bytes
// that land in the backing store are physically smaller than the segment
// bytes they carry — the backend's timing model (object-store bandwidth,
// archive-tier streaming) naturally charges the reduced size.
//
// Readers address chunks in RAW (segment-byte) coordinates exactly as
// before; the codec keeps a per-chunk block index mapping raw ranges to
// stored ranges, fetches the covering blocks, verifies each CRC, and
// decodes. A failed CRC surfaces as Err::ChecksumMismatch (counted on
// `lts.checksum_failures`) and never as data. Compression and decompression
// charge virtual CPU time on a dedicated sim::CpuModel, so the codec's cost
// shows up in read/flush latency the way a real zstd stage would.
//
// The body codec is a deliberately simple PackBits-style RLE: deterministic,
// dependency-free, and effective on the repetitive payloads the benches and
// real telemetry streams carry; incompressible blocks fall back to method
// kRaw so a block never expands beyond header overhead (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "lts/chunk_storage.h"
#include "obs/metrics.h"
#include "sim/machine.h"
#include "sim/models.h"

namespace pravega::lts {

/// Pure block-format helpers (stateless; unit-testable without a sim).
struct ChunkCodec {
    static constexpr uint32_t kMagic = 0x50434B31;  // "PCK1"
    static constexpr uint8_t kVersion = 1;
    static constexpr size_t kHeaderBytes = 20;

    enum Method : uint8_t { kRaw = 0, kRle = 1 };

    struct BlockHeader {
        uint8_t method = kRaw;
        uint32_t rawLen = 0;
        uint32_t encLen = 0;
        uint32_t crc = 0;  // CRC-32 over the raw payload
    };

    /// PackBits-style RLE: control byte c < 0x80 → (c+1) literal bytes
    /// follow; c >= 0x80 → the next byte repeats ((c & 0x7F) + 3) times.
    /// Greedy: a run is taken wherever three equal bytes start (up to 130),
    /// literals stretch up to 128 bytes. The scan is word-at-a-time
    /// (DESIGN.md §12); the output is fixed by the format, not the scan.
    static Bytes rleEncode(BytesView raw);
    /// Upper bound on rleEncode output for `n` input bytes. A run spends 2
    /// bytes on >= 3, so only literals expand, by one control byte each. A
    /// literal shorter than 128 ends at a run (whose saving pays for its
    /// control byte) or at the end of input, so the unpaid control bytes
    /// are at most ceil(n / 128): n + ceil(n/128) <= n + n/128 + 1. Tight
    /// for input with no three equal bytes in a row.
    static constexpr size_t rleBound(size_t n) { return n + (n + 127) / 128; }
    /// Decodes exactly `rawLen` bytes or fails (malformed stream).
    static Result<Bytes> rleDecode(BytesView enc, size_t rawLen);

    /// Encodes one append into header + body (RLE, or raw fallback when RLE
    /// would not shrink the payload). The body is encoded into `scratch`,
    /// which only ever grows, so a caller that keeps it pays no allocation
    /// or zero-fill per block; the returned block is one exact-size
    /// allocation that a store can adopt without copying.
    static Bytes encodeBlock(BytesView raw, Bytes& scratch);
    /// Parses a header at the front of `stored`. Fails on bad magic/version
    /// or lengths inconsistent with the available bytes.
    static Result<BlockHeader> parseHeader(BytesView stored);
    /// Decodes and CRC-verifies one block (header + body). A CRC or format
    /// failure is Err::ChecksumMismatch — corruption must never decode.
    static Result<Bytes> decodeBlock(BytesView stored);
};

/// Decorator that compresses/checksums every block written to `inner` and
/// transparently decodes on read. Callers keep raw-byte addressing;
/// `stat()` reports raw length (what ChunkRecord offset math expects) while
/// `totalBytes()` reports the backend's stored (reduced) footprint.
class CodecChunkStorage : public ChunkStorage {
public:
    CodecChunkStorage(sim::Core& exec, ChunkStorage& inner);

    sim::Future<sim::Unit> create(const std::string& name) override;
    sim::Future<sim::Unit> append(const std::string& name, BufChain data) override;
    sim::Future<SharedBuf> read(const std::string& name, uint64_t offset,
                                uint64_t length) override;
    sim::Future<sim::Unit> remove(const std::string& name) override;
    Result<ChunkInfo> stat(const std::string& name) const override;

    uint64_t totalBytes() const override { return inner_.totalBytes(); }
    double backlogSeconds() const override { return inner_.backlogSeconds(); }
    uint64_t readOps() const override { return inner_.readOps(); }

    uint64_t rawBytes() const { return rawBytes_; }
    uint64_t storedBytes() const { return storedBytes_; }
    uint64_t checksumFailures() const { return mChecksumFailures_.value(); }

private:
    struct Block {
        uint64_t rawOff = 0;
        uint64_t rawLen = 0;
        uint64_t storedOff = 0;
        uint64_t storedLen = 0;
    };
    struct ChunkIndex {
        uint64_t rawSize = 0;
        uint64_t storedSize = 0;
        std::vector<Block> blocks;  // sorted by rawOff, contiguous
    };

    sim::Core& exec_;
    ChunkStorage& inner_;
    sim::CpuModel cpu_;
    std::map<std::string, ChunkIndex> chunks_;
    Bytes rawScratch_;     // grow-only: the flattened append
    Bytes encodeScratch_;  // grow-only: the RLE body before it is sized
    uint64_t rawBytes_ = 0;
    uint64_t storedBytes_ = 0;

    obs::Counter& mRawBytes_;
    obs::Counter& mStoredBytes_;
    obs::Counter& mBlocks_;
    obs::Counter& mChecksumFailures_;
    obs::Gauge& mRatio_;
    obs::LatencyHistogram& mDecodeNs_;
};

}  // namespace pravega::lts
