// Seeded event payloads for the benchmark.
//
// Every event is a 16-byte header followed by a body:
//   u32 writer | u32 seq | u32 key | u32 bodyHash
// The body is a pure function of (seed, writer, seq). It alternates 64
// random bytes with a 64-byte run of one byte, so PackBits-style RLE (the
// LTS codec) stores about 67 bytes per 128: roughly 2:1. The routing key of
// event (writer, seq) is also a function of the seed, so the checker can
// recompute everything from the header alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace perfbench {

inline uint64_t splitmix(uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/// Word-at-a-time 32-bit hash of a byte range (not a CRC: the benchmark
/// keeps its own checks independent of the library's hash code).
inline uint32_t hashBytes(const uint8_t* p, size_t n) {
    uint64_t h = 0x243F6A8885A308D3ULL ^ n;
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        uint64_t w;
        std::memcpy(&w, p + i, 8);
        h = (h ^ w) * 0x9E3779B97F4A7C15ULL;
        h ^= h >> 29;
    }
    for (; i < n; ++i) h = (h ^ p[i]) * 0x100000001B3ULL;
    return static_cast<uint32_t>(splitmix(h) >> 32);
}

struct EventHeader {
    uint32_t writer = 0;
    uint32_t seq = 0;
    uint32_t key = 0;
    uint32_t bodyHash = 0;
};

class PayloadGen {
public:
    static constexpr size_t kHeaderBytes = sizeof(EventHeader);
    static constexpr size_t kStride = 128;  // 64 literal bytes + 64-byte run

    PayloadGen(uint64_t seed, uint32_t eventBytes, uint32_t keySpace)
        : seed_(splitmix(seed)), eventBytes_(eventBytes), keySpace_(keySpace) {}

    uint32_t eventBytes() const { return eventBytes_; }
    uint32_t keySpace() const { return keySpace_; }

    uint32_t keyOf(uint32_t writer, uint32_t seq) const {
        return static_cast<uint32_t>(mix(writer, seq, 1) % keySpace_);
    }

    /// True for the seeded subset of events whose full bytes are compared.
    bool sampled(uint32_t writer, uint32_t seq, uint32_t every) const {
        return mix(writer, seq, 2) % every == 0;
    }

    /// Writes the full event (header + body) into `out` (eventBytes long).
    void fill(uint32_t writer, uint32_t seq, uint8_t* out) const {
        uint8_t* body = out + kHeaderBytes;
        size_t n = eventBytes_ - kHeaderBytes;
        fillBody(writer, seq, body, n);
        EventHeader h{writer, seq, keyOf(writer, seq), hashBytes(body, n)};
        std::memcpy(out, &h, kHeaderBytes);
    }

    void fillBody(uint32_t writer, uint32_t seq, uint8_t* body, size_t n) const {
        uint64_t state = mix(writer, seq, 3);
        for (size_t off = 0; off < n; off += kStride) {
            size_t lit = n - off < 64 ? n - off : 64;
            for (size_t i = 0; i < lit; i += 8) {
                state = splitmix(state);
                std::memcpy(body + off + i, &state, lit - i < 8 ? lit - i : 8);
            }
            if (off + 64 < n) {
                size_t run = n - off - 64 < 64 ? n - off - 64 : 64;
                std::memset(body + off + 64, static_cast<int>(state >> 56), run);
            }
        }
    }

private:
    uint64_t mix(uint32_t writer, uint32_t seq, uint64_t salt) const {
        return splitmix(seed_ ^ splitmix((static_cast<uint64_t>(writer) << 32 | seq) * 4 + salt));
    }

    uint64_t seed_;
    uint32_t eventBytes_;
    uint32_t keySpace_;
};

}  // namespace perfbench
