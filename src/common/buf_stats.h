// Copy accounting for the buffer abstraction.
//
// Every operation that duplicates payload bytes *through the buffer layer*
// (client event framing, SharedBuf::copyOf, BufChain copy ops) records the
// byte count here. That is the client copy budget: "how many times does a
// payload cross the buffer abstraction by value", which DESIGN.md §11 pins
// to exactly one (the client framing copy) on the append path.
//
// The segment store's own byte moves are counted apart, in the store-side
// counters: the container's read-reply gather, the in-memory LTS gather of
// a read that spans extents, and any zero-fill of a payload-sized buffer
// there. The cache and the in-memory LTS hold slices of the appended bytes
// (DESIGN.md §8), so the append path records none.
//
// Counters are always on (RelWithDebInfo defines NDEBUG, so assert-only
// instrumentation would vanish from the default build) and are plain
// non-atomic globals: the simulation substrate is single-threaded, and
// benches/tests only read them between runs.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pravega::bufstats {

inline uint64_t bytesCopied = 0;
inline uint64_t copyOps = 0;

inline void recordCopy(size_t n) {
    bytesCopied += static_cast<uint64_t>(n);
    ++copyOps;
}

/// Store-side payload bytes copied and zero-filled.
inline uint64_t storeBytesCopied = 0;
inline uint64_t storeBytesZeroed = 0;

inline void recordStoreCopy(size_t n) { storeBytesCopied += static_cast<uint64_t>(n); }
inline void recordStoreZeroFill(size_t n) { storeBytesZeroed += static_cast<uint64_t>(n); }

inline void reset() {
    bytesCopied = 0;
    copyOps = 0;
    storeBytesCopied = 0;
    storeBytesZeroed = 0;
}

}  // namespace pravega::bufstats
