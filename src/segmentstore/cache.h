// The Pravega block cache (§4.2, Fig 4), byte-exact to the paper's layout.
//
// The cache is divided into equal-sized blocks inside pre-allocated
// contiguous buffers. Blocks are daisy-chained (each block points to its
// predecessor) to form cache entries; an entry's address is the address of
// its LAST block, which makes appends O(1): locate the last block, fill its
// remaining capacity, then chain new blocks. Empty blocks are chained in a
// per-buffer free list (small concurrency domain in the real system), and a
// queue of buffers-with-available-blocks makes finding a free block O(1).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/buf_chain.h"
#include "common/bytes.h"
#include "common/result.h"

namespace pravega::segmentstore {

/// 32-bit block address: (buffer id << blockBits) | block id.
using CacheAddress = uint32_t;
constexpr CacheAddress kInvalidAddress = 0xFFFFFFFFu;

class BlockCache {
public:
    struct Config {
        uint32_t blockSize = 4 * 1024;
        uint32_t blocksPerBuffer = 512;  // 2 MB buffers, as in Fig 4's example
        uint32_t maxBuffers = 2048;      // 4 GB cap by default
    };

    explicit BlockCache(Config cfg);

    /// Stores a new entry; returns the address of its last block. Copies
    /// fragment by fragment straight into cache blocks (the single
    /// block-granularity copy of the ingest path: the chain is never
    /// flattened first). On CacheFull no block stays allocated.
    Result<CacheAddress> insert(const BufChain& data);

    /// Appends to an existing entry; returns the (possibly new) address of
    /// the entry's last block. O(1) in the entry length. On CacheFull the
    /// entry keeps its old blocks, its old last block filled up with the
    /// first bytes of `data`; callers resync via entryLength.
    Result<CacheAddress> append(CacheAddress address, const BufChain& data);

    /// Reassembles the full entry by walking the predecessor chain.
    Result<Bytes> get(CacheAddress address) const;

    /// Ranged read: copies only [offset, offset+length) of the entry
    /// (clamped to the entry length), skipping preceding blocks without
    /// touching their bytes.
    Result<Bytes> get(CacheAddress address, uint64_t offset, uint64_t length) const;

    /// Total payload bytes stored in the entry.
    Result<uint64_t> entryLength(CacheAddress address) const;

    /// Frees every block of the entry.
    Status remove(CacheAddress address);

    // --- observability ------------------------------------------------
    uint32_t usedBlocks() const { return usedBlocks_; }
    uint32_t allocatedBuffers() const { return static_cast<uint32_t>(buffers_.size()); }
    uint64_t storedBytes() const { return storedBytes_; }
    uint64_t capacityBytes() const {
        return static_cast<uint64_t>(cfg_.maxBuffers) * cfg_.blocksPerBuffer * cfg_.blockSize;
    }
    /// Fraction of maximum capacity currently holding data blocks.
    double utilization() const {
        return static_cast<double>(usedBlocks_) /
               (static_cast<double>(cfg_.maxBuffers) * cfg_.blocksPerBuffer);
    }
    const Config& config() const { return cfg_; }

private:
    struct BlockMeta {
        bool used = false;
        uint32_t length = 0;          // payload bytes in this block
        CacheAddress prev = kInvalidAddress;  // predecessor in the entry chain
        uint32_t nextFree = UINT32_MAX;       // free-list link within the buffer
    };

    struct Buffer {
        std::unique_ptr<uint8_t[]> data;
        std::vector<BlockMeta> blocks;
        uint32_t freeHead = UINT32_MAX;
        uint32_t freeCount = 0;
    };

    CacheAddress makeAddress(uint32_t bufferId, uint32_t blockId) const {
        return (bufferId << blockBits_) | blockId;
    }
    uint32_t bufferOf(CacheAddress a) const { return a >> blockBits_; }
    uint32_t blockOf(CacheAddress a) const { return a & ((1u << blockBits_) - 1); }

    bool validAddress(CacheAddress a) const;
    uint8_t* blockData(CacheAddress a);
    const uint8_t* blockData(CacheAddress a) const;
    BlockMeta& meta(CacheAddress a);
    const BlockMeta& meta(CacheAddress a) const;

    /// Pops a free block (allocating a new buffer if needed and allowed).
    Result<CacheAddress> allocBlock();
    void freeBlock(CacheAddress a);

    Config cfg_;
    uint32_t blockBits_;
    std::vector<Buffer> buffers_;
    /// Buffers that currently have at least one free block.
    std::deque<uint32_t> buffersWithSpace_;
    std::vector<bool> inSpaceQueue_;
    uint32_t usedBlocks_ = 0;
    uint64_t storedBytes_ = 0;
};

}  // namespace pravega::segmentstore
