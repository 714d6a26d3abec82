#include "common/hash.h"

#include <array>

#include "common/bytes.h"

// The folding kernel needs x86 PCLMULQDQ and SSE4.1, compiled per function
// (`target` attribute) and used only where the CPU reports both; every
// other host runs slicing-by-16 alone.
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define PRAVEGA_CRC_FOLDING 1
#include <immintrin.h>
#else
#define PRAVEGA_CRC_FOLDING 0
#endif

namespace pravega {

uint64_t fnv1a64(std::string_view data) {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : data) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

namespace {

// Slicing-by-16 tables for the reflected IEEE polynomial. kCrcTables[0] is
// the classic byte-wise table; kCrcTables[k][b] is the CRC contribution of
// byte b followed by k zero bytes, so sixteen independent lookups advance
// the CRC over 16 bytes. 16 x 256 x 4 B = 16 KiB, computed at compile time.
// Slicing-by-16 measured 0.55 ms/MB against 0.80 for slicing-by-8 and 3.4
// for the byte loop (x86-64, -O2).
constexpr auto kCrcTables = [] {
    std::array<std::array<uint32_t, 256>, 16> t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (size_t k = 1; k < t.size(); ++k) {
        for (uint32_t i = 0; i < 256; ++i) {
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
        }
    }
    return t;
}();

/// Slicing-by-16 over `c`, the running CRC in its inverted (internal) form.
uint32_t crcSliced(uint32_t c, const uint8_t* data, size_t len) {
    const auto& t = kCrcTables;
    for (; len >= 16; data += 16, len -= 16) {
        const uint64_t a = loadLe64(data) ^ c;
        const uint64_t b = loadLe64(data + 8);
        c = t[15][a & 0xFFu] ^ t[14][(a >> 8) & 0xFFu] ^ t[13][(a >> 16) & 0xFFu] ^
            t[12][(a >> 24) & 0xFFu] ^ t[11][(a >> 32) & 0xFFu] ^ t[10][(a >> 40) & 0xFFu] ^
            t[9][(a >> 48) & 0xFFu] ^ t[8][a >> 56] ^ t[7][b & 0xFFu] ^
            t[6][(b >> 8) & 0xFFu] ^ t[5][(b >> 16) & 0xFFu] ^ t[4][(b >> 24) & 0xFFu] ^
            t[3][(b >> 32) & 0xFFu] ^ t[2][(b >> 40) & 0xFFu] ^ t[1][(b >> 48) & 0xFFu] ^
            t[0][b >> 56];
    }
    for (; len > 0; ++data, --len) c = t[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
    return c;
}

#if PRAVEGA_CRC_FOLDING

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009), in the
// bit-reflected form for 0xEDB88320. k1..k5 are x^n mod P(x) for a fold
// distance n, bit-reflected over 32 bits and shifted left by one:
//   k1, k2: n = 4*128+32, 4*128-32   fold a lane 512 bits forward
//   k3, k4: n = 128+32,   128-32     fold a lane 128 bits forward
//   k5:     n = 64                   fold 96 bits down to 64
// mu = floor(x^64 / P(x)) and P(x) itself, each reflected over 33 bits,
// drive the Barrett reduction to 32 bits. The Linux kernel's crc32-pclmul
// and zlib's SIMD CRC-32 use the same values.
constexpr uint64_t kK1 = 0x0154442bd4, kK2 = 0x01c6e41596;
constexpr uint64_t kK3 = 0x01751997d0, kK4 = 0x00ccaa009e;
constexpr uint64_t kK5 = 0x0163cd6124;
constexpr uint64_t kP = 0x01db710641, kMu = 0x01f7011641;

/// `x` carried forward by the fold distance of `k` and added to `next`: the
/// low half multiplied by the constant in `k`'s low lane, the high half by
/// the one in its high lane.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold(__m128i x, __m128i k,
                                                             __m128i next) {
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                       _mm_clmulepi64_si128(x, k, 0x11)),
                         next);
}

/// Folds `len` bytes (a multiple of 16, at least 64) into `c`, the running
/// CRC in its inverted form, and returns the new inverted CRC.
__attribute__((target("pclmul,sse4.1"))) uint32_t crcFolded(uint32_t c, const uint8_t* data,
                                                            size_t len) {
    auto load = [](const uint8_t* p) {
        return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    };
    // Four 128-bit lanes, each folded 512 bits forward per 64 B step.
    __m128i x0 = _mm_xor_si128(load(data), _mm_cvtsi32_si128(static_cast<int>(c)));
    __m128i x1 = load(data + 16);
    __m128i x2 = load(data + 32);
    __m128i x3 = load(data + 48);
    data += 64;
    len -= 64;
    const __m128i k12 = _mm_set_epi64x(kK2, kK1);
    for (; len >= 64; data += 64, len -= 64) {
        x0 = fold(x0, k12, load(data));
        x1 = fold(x1, k12, load(data + 16));
        x2 = fold(x2, k12, load(data + 32));
        x3 = fold(x3, k12, load(data + 48));
    }
    // The four lanes into one, then the remaining 16 B blocks into it.
    const __m128i k34 = _mm_set_epi64x(kK4, kK3);
    x0 = fold(x0, k34, x1);
    x0 = fold(x0, k34, x2);
    x0 = fold(x0, k34, x3);
    for (; len >= 16; data += 16, len -= 16) x0 = fold(x0, k34, load(data));

    // 128 bits to 64: the low half times k4 onto the high half, then the
    // low 32 bits of that times k5 onto the upper 64.
    const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
    x0 = _mm_xor_si128(_mm_clmulepi64_si128(x0, k34, 0x10), _mm_srli_si128(x0, 8));
    x0 = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x0, low32), _mm_set_epi64x(0, kK5), 0x00),
        _mm_srli_si128(x0, 4));

    // Barrett reduction of the 64-bit remainder to 32 bits.
    const __m128i pmu = _mm_set_epi64x(kMu, kP);
    __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), pmu, 0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), pmu, 0x00);
    return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

#endif  // PRAVEGA_CRC_FOLDING

}  // namespace

namespace detail {

uint32_t crc32Table(const uint8_t* data, size_t len, uint32_t seed) {
    return crcSliced(seed ^ 0xFFFFFFFFu, data, len) ^ 0xFFFFFFFFu;
}

bool crc32Folds() {
#if PRAVEGA_CRC_FOLDING
    static const bool folds = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
    }();
    return folds;
#else
    return false;
#endif
}

}  // namespace detail

uint32_t crc32(const uint8_t* data, size_t len, uint32_t seed) {
    uint32_t c = seed ^ 0xFFFFFFFFu;
#if PRAVEGA_CRC_FOLDING
    if (len >= 64 && detail::crc32Folds()) {
        const size_t folded = len & ~size_t{15};
        c = crcFolded(c, data, folded);
        data += folded;
        len -= folded;
    }
#endif
    return crcSliced(c, data, len) ^ 0xFFFFFFFFu;
}

uint64_t mix64(uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

double keyHash01(std::string_view routingKey) {
    // Top 53 bits → exactly representable double in [0, 1).
    uint64_t h = fnv1a64(routingKey);
    return static_cast<double>(h >> 11) / static_cast<double>(1ULL << 53);
}

uint32_t containerFor(uint64_t segmentId, uint32_t containerCount) {
    if (containerCount == 0) return 0;
    return static_cast<uint32_t>(mix64(segmentId) % containerCount);
}

}  // namespace pravega
