// Byte buffer utilities used throughout the system.
//
// `Bytes` is an owning byte vector; `BytesView` a non-owning span.
// `SharedBuf` provides cheap zero-copy slicing of an immutable buffer, used
// on read paths where the same appended data is handed to the WAL, the
// cache and client responses without copies.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/buf_stats.h"
#include "common/counted.h"

namespace pravega {

using Bytes = std::vector<uint8_t>;
using BytesView = std::span<const uint8_t>;

inline Bytes toBytes(std::string_view s) {
    return Bytes(s.begin(), s.end());
}

inline std::string toString(BytesView b) {
    return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

/// Immutable, reference-counted buffer with O(1) sub-slicing. The bytes sit
/// behind a `Counted` handle: one allocation, a plain count.
class SharedBuf {
public:
    SharedBuf() = default;

    explicit SharedBuf(Bytes data)
        : storage_(Counted<const Bytes>::make(std::move(data))),
          offset_(0),
          size_(storage_->size()) {}

    static SharedBuf copyOf(BytesView view) {
        bufstats::recordCopy(view.size());
        return SharedBuf(Bytes(view.begin(), view.end()));
    }

    /// O(1) sub-slice sharing the same storage. Clamps to bounds.
    SharedBuf slice(size_t offset, size_t len) const;

    BytesView view() const {
        if (!storage_) return {};
        return BytesView(storage_->data() + offset_, size_);
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const uint8_t* data() const { return storage_ ? storage_->data() + offset_ : nullptr; }
    /// Handles sharing this buffer's storage, this one included (0 if empty).
    uint32_t useCount() const { return storage_ ? storage_.useCount() : 0; }

private:
    Counted<const Bytes> storage_;
    size_t offset_ = 0;
    size_t size_ = 0;
};

/// Little-endian 64-bit load from any address. memcpy keeps word-at-a-time
/// kernels free of alignment and aliasing UB; compilers emit one load.
inline uint64_t loadLe64(const uint8_t* p) {
    uint64_t v;
    std::memcpy(&v, p, sizeof v);
    if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
    return v;
}

/// Appends `src` to `dst`.
inline void append(Bytes& dst, BytesView src) {
    dst.insert(dst.end(), src.begin(), src.end());
}

}  // namespace pravega
