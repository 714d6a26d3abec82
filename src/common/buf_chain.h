// BufChain: an iobuf-style chained, reference-counted, sliceable byte
// buffer (after the idiom of Redpanda's iobuf / folly's IOBuf).
//
// A chain is an ordered list of SharedBuf fragments viewed as one logical
// byte sequence. Appending a fragment, sharing a sub-range, and trimming
// either end never copy payload bytes — they only adjust fragment
// bookkeeping — so a payload framed once by the client can ride through
// block build, WAL entry, cache insertion and LTS flush aggregation by
// reference. Copying happens only at explicit boundaries (`copyOf`,
// `appendCopy`, `linearize` of a multi-fragment chain, `toBytes`,
// `copyOut`), and each such copy is recorded in pravega::bufstats.
//
// The block cache and the in-memory LTS keep the fragments they are given
// (DESIGN.md §8), so the client's block is the one physical copy of an
// appended byte. A fragment pins its whole storage, slack capacity
// included, for as long as any holder keeps it: a slice is cheap to take
// and costs its buffer's memory to keep.
//
// Chains are value types: copying a BufChain copies the fragment vector
// (cheap shared_ptr bumps), never the payload. Fragments are immutable, so
// two chains sharing storage can never observe each other's appends.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/buf_stats.h"
#include "common/bytes.h"

namespace pravega {

class BufChain {
public:
    BufChain() = default;

    /// Implicit on purpose: a SharedBuf *is* a one-fragment chain, which
    /// lets `f(BufChain)` accept every existing SharedBuf call site
    /// without copies or churn.
    /*implicit*/ BufChain(SharedBuf buf) { append(std::move(buf)); }

    /// Takes ownership of `data` (one move, no copy).
    explicit BufChain(Bytes data) : BufChain(SharedBuf(std::move(data))) {}

    /// Copying constructor boundary — recorded in bufstats (via
    /// SharedBuf::copyOf).
    static BufChain copyOf(BytesView view) { return BufChain(SharedBuf::copyOf(view)); }

    // ---- building --------------------------------------------------------
    void append(SharedBuf buf);
    void append(BufChain other);
    void append(Bytes data) { append(SharedBuf(std::move(data))); }
    /// Copies `view` into a fresh fragment — recorded in bufstats.
    void appendCopy(BytesView view) { append(SharedBuf::copyOf(view)); }

    // ---- observers -------------------------------------------------------
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    size_t fragmentCount() const { return frags_.size(); }
    const std::vector<SharedBuf>& fragments() const { return frags_; }

    /// Calls `f(const SharedBuf&)` for each fragment in order.
    template <typename F>
    void forEachFragment(F&& f) const {
        for (const auto& frag : frags_) f(frag);
    }

    // ---- zero-copy slicing -----------------------------------------------
    /// Chain over [offset, offset+len) sharing the same storage. Clamps to
    /// bounds. O(fragments), no payload copies.
    BufChain share(size_t offset, size_t len) const;

    /// Drops the first `n` logical bytes (fragment bookkeeping only).
    void trimFront(size_t n);
    /// Drops the last `n` logical bytes.
    void trimBack(size_t n);
    void clear();

    // ---- copying boundaries (recorded in bufstats) -------------------------
    /// One contiguous SharedBuf of the whole chain. A single-fragment chain
    /// returns its fragment unchanged (no copy); otherwise the fragments
    /// are flattened into fresh storage.
    SharedBuf linearize() const;
    /// Flattens the whole chain into an owned vector.
    Bytes toBytes() const;
    /// Copies [pos, pos+len) into `dst` (caller guarantees capacity and
    /// that the range is in bounds).
    void copyOut(size_t pos, size_t len, uint8_t* dst) const;

    // ---- stream helpers (uncounted header peeks) ---------------------------
    /// Reads a native-order u32 at `pos`, possibly spanning fragments.
    /// False when fewer than 4 bytes remain.
    bool peekU32(size_t pos, uint32_t& out) const;

private:
    /// Uncounted gather of [pos, pos+len) into dst; range must be in bounds.
    void gather(size_t pos, size_t len, uint8_t* dst) const;

    std::vector<SharedBuf> frags_;
    size_t size_ = 0;
};

}  // namespace pravega
