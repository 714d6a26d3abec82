// The Pravega block cache (§4.2, Fig 4), exact to the paper's block
// accounting.
//
// The cache is divided into equal-sized blocks grouped into buffers (in
// the real system, pre-allocated contiguous memory). Blocks are daisy-chained (each block points to its
// predecessor) to form cache entries; an entry's address is the address of
// its LAST block, which makes appends O(1): locate the last block, fill its
// remaining capacity, then chain new blocks. Empty blocks are chained in a
// per-buffer free list (small concurrency domain in the real system), and a
// queue of buffers-with-available-blocks makes finding a free block O(1).
//
// What is modeled and what is held (DESIGN.md §8): the block accounting
// above — addresses, chains, free lists, buffer counts, storedBytes,
// utilization and so the CacheFull points and eviction order — is the
// model. The bytes are not copied into blocks: each entry keeps one
// BufChain of slices of the data it was given (a client's appended block,
// or a fetched LTS read), and get() hands out slices of it. A slice pins
// its whole buffer until the entry is removed; that buffer is at most one
// client block (growth slack included) or one LTS fetch.
#pragma once

#include <cstdint>
#include <deque>
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

    /// Stores a new entry; returns the address of its last block. The
    /// entry holds `data`'s fragments by reference; no byte is copied. On
    /// CacheFull no block stays allocated and no fragment is held.
    Result<CacheAddress> insert(const BufChain& data);

    /// Appends to an existing entry (`address` must be its current last
    /// block); returns the (possibly new) address of the entry's last
    /// block. O(1) in the entry length. On CacheFull the entry keeps its
    /// old blocks, its old last block filled up with the first bytes of
    /// `data`; callers resync via entryLength.
    Result<CacheAddress> append(CacheAddress address, const BufChain& data);

    /// The entry's bytes up to and including the block at `address`, as
    /// slices of the stored data.
    Result<BufChain> get(CacheAddress address) const;

    /// Ranged read: slices of [offset, offset+length) of the entry (clamped
    /// to the entry length). No zero-fill and no copy.
    Result<BufChain> get(CacheAddress address, uint64_t offset, uint64_t length) const;

    /// Payload bytes stored in the entry up to and including the block at
    /// `address` (the whole entry at its current address).
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
        uint32_t length = 0;          // payload bytes this block accounts for
        uint32_t entry = UINT32_MAX;  // slot in entries_ holding the bytes
        CacheAddress prev = kInvalidAddress;  // predecessor in the entry chain
        uint32_t nextFree = UINT32_MAX;       // free-list link within the buffer
    };

    /// Block metadata only: the bytes live in the entries' chains.
    struct Buffer {
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
    /// Each entry's bytes, one slot per entry; every block of the entry
    /// names the slot. Freed slots are reused, chain capacity and all.
    std::vector<BufChain> entries_;
    std::vector<uint32_t> freeEntries_;
    uint32_t usedBlocks_ = 0;
    uint64_t storedBytes_ = 0;
};

}  // namespace pravega::segmentstore
