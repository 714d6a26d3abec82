// CRC-32 known answers, and both kernels against the classic byte-at-a-time
// table loop kept here as the oracle: `crc32` (the PCLMULQDQ folding kernel
// on hosts that have it, slicing-by-16 elsewhere) and `detail::crc32Table`
// (slicing-by-16 everywhere). Whole buffers, running CRCs chained across
// every split (also from one kernel into the other), and every start
// alignment and length across the 16-byte step and the 64-byte fold.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string_view>

#include "common/bytes.h"
#include "common/hash.h"
#include "sim/random.h"

using namespace pravega;

namespace {

/// The byte-wise table-driven CRC-32/IEEE the word kernel replaced.
uint32_t crc32Oracle(const uint8_t* data, size_t len, uint32_t seed = 0) {
    static const auto table = [] {
        std::array<uint32_t, 256> t{};
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    uint32_t c = seed ^ 0xFFFFFFFFu;
    for (size_t i = 0; i < len; ++i) c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

Bytes patterned(size_t n) {
    Bytes b(n);
    for (size_t i = 0; i < n; ++i) b[i] = static_cast<uint8_t>((i * 2654435761u) >> 13);
    return b;
}

/// Both kernels, under a name for failure messages.
struct Kernel {
    const char* name;
    uint32_t (*fn)(const uint8_t*, size_t, uint32_t);
};
const Kernel kKernels[] = {{"crc32", &crc32}, {"crc32Table", &detail::crc32Table}};

}  // namespace

TEST(Crc32Test, KnownAnswers) {
    const std::string_view check = "123456789";
    const auto* p = reinterpret_cast<const uint8_t*>(check.data());
    for (const Kernel& k : kKernels) {
        EXPECT_EQ(k.fn(nullptr, 0, 0), 0u) << k.name;
        EXPECT_EQ(k.fn(p, check.size(), 0), 0xCBF43926u) << k.name;
        // The seed is a previous result: an empty update leaves it unchanged.
        EXPECT_EQ(k.fn(nullptr, 0, 0xCBF43926u), 0xCBF43926u) << k.name;
    }
    std::printf("crc32 kernel on this host: %s\n",
                detail::crc32Folds() ? "PCLMULQDQ folding" : "slicing-by-16");
}

TEST(Crc32Test, MatchesByteLoopOnOneMiB) {
    const Bytes buf = patterned(1 << 20);
    const uint32_t want = crc32Oracle(buf.data(), buf.size());
    for (const Kernel& k : kKernels) EXPECT_EQ(k.fn(buf.data(), buf.size(), 0), want) << k.name;
}

TEST(Crc32Test, ChainsAcrossEverySplit) {
    // Splits on both sides of the 64 B fold threshold and of the 128 B
    // second fold step; either half may fold, slice, or both.
    const Bytes buf = patterned(300);
    const uint32_t whole = crc32Oracle(buf.data(), buf.size());
    for (size_t split = 0; split <= 200; ++split) {
        for (const Kernel& first : kKernels) {
            for (const Kernel& second : kKernels) {
                const uint32_t a = first.fn(buf.data(), split, 0);
                EXPECT_EQ(second.fn(buf.data() + split, buf.size() - split, a), whole)
                    << first.name << " then " << second.name << ", split " << split;
            }
        }
    }
}

TEST(Crc32Test, EveryAlignmentAndLengthMatchesOracle) {
    const Bytes buf = patterned(1200);
    sim::Rng rng(7);
    for (size_t off = 0; off < 16; ++off) {
        for (size_t len = 0; len <= 1100; ++len) {
            const uint32_t seed = static_cast<uint32_t>(rng.next());
            const uint32_t want = crc32Oracle(buf.data() + off, len, seed);
            for (const Kernel& k : kKernels) {
                ASSERT_EQ(k.fn(buf.data() + off, len, seed), want)
                    << k.name << ", offset " << off << " length " << len;
            }
        }
    }
}

TEST(Crc32Test, FuzzedBuffersAndSeedsMatchOracle) {
    sim::Rng rng(13);
    Bytes buf;
    for (int iter = 0; iter < 20000; ++iter) {
        buf.resize(rng.nextBounded(300));
        for (auto& b : buf) b = static_cast<uint8_t>(rng.next());
        const uint32_t seed = iter % 2 ? static_cast<uint32_t>(rng.next()) : 0;
        const uint32_t want = crc32Oracle(buf.data(), buf.size(), seed);
        for (const Kernel& k : kKernels) {
            ASSERT_EQ(k.fn(buf.data(), buf.size(), seed), want)
                << k.name << ", iteration " << iter;
        }
    }
}
