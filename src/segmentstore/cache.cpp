#include "segmentstore/cache.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace pravega::segmentstore {

BlockCache::BlockCache(Config cfg) : cfg_(cfg) {
    assert(std::has_single_bit(cfg_.blocksPerBuffer) && "blocksPerBuffer must be a power of 2");
    assert(cfg_.blockSize > 0 && cfg_.maxBuffers > 0);
    blockBits_ = static_cast<uint32_t>(std::countr_zero(cfg_.blocksPerBuffer));
    inSpaceQueue_.assign(cfg_.maxBuffers, false);
}

bool BlockCache::validAddress(CacheAddress a) const {
    if (a == kInvalidAddress) return false;
    uint32_t buf = bufferOf(a);
    uint32_t blk = blockOf(a);
    return buf < buffers_.size() && blk < cfg_.blocksPerBuffer && buffers_[buf].blocks[blk].used;
}

BlockCache::BlockMeta& BlockCache::meta(CacheAddress a) {
    return buffers_[bufferOf(a)].blocks[blockOf(a)];
}

const BlockCache::BlockMeta& BlockCache::meta(CacheAddress a) const {
    return buffers_[bufferOf(a)].blocks[blockOf(a)];
}

Result<CacheAddress> BlockCache::allocBlock() {
    while (!buffersWithSpace_.empty()) {
        uint32_t bufId = buffersWithSpace_.front();
        Buffer& buf = buffers_[bufId];
        if (buf.freeHead == UINT32_MAX) {
            // Buffer filled up since it was queued; drop it.
            buffersWithSpace_.pop_front();
            inSpaceQueue_[bufId] = false;
            continue;
        }
        uint32_t blk = buf.freeHead;
        BlockMeta& m = buf.blocks[blk];
        buf.freeHead = m.nextFree;
        --buf.freeCount;
        m = BlockMeta{};
        m.used = true;
        ++usedBlocks_;
        if (buf.freeCount == 0) {
            buffersWithSpace_.pop_front();
            inSpaceQueue_[bufId] = false;
        }
        return makeAddress(bufId, blk);
    }

    if (buffers_.size() >= cfg_.maxBuffers) return Status(Err::CacheFull, "all buffers full");

    // Open a new buffer and chain all its blocks as free.
    uint32_t bufId = static_cast<uint32_t>(buffers_.size());
    Buffer buf;
    buf.blocks.resize(cfg_.blocksPerBuffer);
    for (uint32_t i = 0; i < cfg_.blocksPerBuffer; ++i) {
        buf.blocks[i].nextFree = (i + 1 < cfg_.blocksPerBuffer) ? i + 1 : UINT32_MAX;
    }
    buf.freeHead = 0;
    buf.freeCount = cfg_.blocksPerBuffer;
    buffers_.push_back(std::move(buf));
    buffersWithSpace_.push_back(bufId);
    inSpaceQueue_[bufId] = true;
    return allocBlock();
}

void BlockCache::freeBlock(CacheAddress a) {
    uint32_t bufId = bufferOf(a);
    uint32_t blk = blockOf(a);
    Buffer& buf = buffers_[bufId];
    BlockMeta& m = buf.blocks[blk];
    assert(m.used);
    m = BlockMeta{};
    m.nextFree = buf.freeHead;
    buf.freeHead = blk;
    ++buf.freeCount;
    --usedBlocks_;
    if (!inSpaceQueue_[bufId]) {
        buffersWithSpace_.push_back(bufId);
        inSpaceQueue_[bufId] = true;
    }
}

Result<CacheAddress> BlockCache::insert(const BufChain& data) {
    auto first = allocBlock();
    if (!first) return first.status();
    uint32_t slot;
    if (freeEntries_.empty()) {
        slot = static_cast<uint32_t>(entries_.size());
        entries_.emplace_back();
    } else {
        slot = freeEntries_.back();
        freeEntries_.pop_back();
    }
    meta(first.value()).entry = slot;
    auto last = append(first.value(), data);
    // A failed append has freed every block but the first: drop it too.
    if (!last) remove(first.value());
    return last;
}

Result<CacheAddress> BlockCache::append(CacheAddress address, const BufChain& data) {
    if (!validAddress(address)) return Status(Err::InvalidArgument, "bad cache address");
    const uint32_t slot = meta(address).entry;
    // What the entry keeps if a fresh block cannot be had: the bytes that
    // fit in its old last block.
    const size_t kept = std::min<size_t>(cfg_.blockSize - meta(address).length, data.size());
    CacheAddress last = address;
    size_t rest = data.size();
    while (rest > 0) {
        if (meta(last).length == cfg_.blockSize) {
            // The last block is full: chain a fresh one.
            auto blk = allocBlock();
            if (!blk) {
                // Unwind blocks chained by THIS call before failing:
                // callers only know `address`, and chains point
                // backward, so anything past it would be unreachable
                // and leak forever. The entry survives in its topped-up
                // original state (old blocks plus the fill of the old
                // last block), which is what `entryLength(address)`
                // reports.
                while (last != address) {
                    CacheAddress prev = meta(last).prev;
                    storedBytes_ -= meta(last).length;
                    freeBlock(last);
                    last = prev;
                }
                entries_[slot].append(data.share(0, kept));
                return blk.status();
            }
            BlockMeta& m = meta(blk.value());
            m.prev = last;
            m.entry = slot;
            last = blk.value();
        }
        BlockMeta& m = meta(last);
        const size_t n = std::min<size_t>(cfg_.blockSize - m.length, rest);
        m.length += static_cast<uint32_t>(n);
        storedBytes_ += n;
        rest -= n;
    }
    for (const auto& frag : data.fragments()) entries_[slot].append(frag);
    return last;
}

Result<BufChain> BlockCache::get(CacheAddress address) const {
    return get(address, 0, UINT64_MAX);
}

Result<BufChain> BlockCache::get(CacheAddress address, uint64_t offset, uint64_t length) const {
    // The blocks up to `address` account for the entry's first `total`
    // bytes, and the entry's chain holds those bytes in order.
    auto total = entryLength(address);
    if (!total) return total.status();
    offset = std::min(offset, total.value());
    length = std::min(length, total.value() - offset);
    return entries_[meta(address).entry].share(static_cast<size_t>(offset),
                                                static_cast<size_t>(length));
}

Result<uint64_t> BlockCache::entryLength(CacheAddress address) const {
    if (!validAddress(address)) return Status(Err::InvalidArgument, "bad cache address");
    uint64_t total = 0;
    for (CacheAddress a = address; a != kInvalidAddress; a = meta(a).prev) total += meta(a).length;
    return total;
}

Status BlockCache::remove(CacheAddress address) {
    if (!validAddress(address)) return Status(Err::InvalidArgument, "bad cache address");
    const uint32_t slot = meta(address).entry;
    CacheAddress a = address;
    while (a != kInvalidAddress) {
        CacheAddress prev = meta(a).prev;
        storedBytes_ -= meta(a).length;
        freeBlock(a);
        a = prev;
    }
    // Drops the entry's hold on its payload buffers.
    entries_[slot].clear();
    freeEntries_.push_back(slot);
    return Status::ok();
}

}  // namespace pravega::segmentstore
