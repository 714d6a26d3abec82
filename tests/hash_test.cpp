// CRC-32 known answers, and the slicing-by-16 kernel against the classic
// byte-at-a-time table loop kept here as the oracle: whole buffers, running
// CRCs chained across every split, and every start alignment and tail
// length around the 8-byte word and the 16-byte step.
#include <gtest/gtest.h>

#include <array>
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

}  // namespace

TEST(Crc32Test, KnownAnswers) {
    EXPECT_EQ(crc32(nullptr, 0), 0u);
    const std::string_view check = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const uint8_t*>(check.data()), check.size()),
              0xCBF43926u);
    // The seed is a previous result: an empty update leaves it unchanged.
    EXPECT_EQ(crc32(nullptr, 0, 0xCBF43926u), 0xCBF43926u);
}

TEST(Crc32Test, MatchesByteLoopOnOneMiB) {
    const Bytes buf = patterned(1 << 20);
    EXPECT_EQ(crc32(buf.data(), buf.size()), crc32Oracle(buf.data(), buf.size()));
}

TEST(Crc32Test, ChainsAcrossEverySplit) {
    const Bytes buf = patterned(200);
    const uint32_t whole = crc32(buf.data(), buf.size());
    for (size_t split = 0; split <= 64; ++split) {
        const uint32_t a = crc32(buf.data(), split);
        EXPECT_EQ(crc32(buf.data() + split, buf.size() - split, a), whole) << "split " << split;
    }
}

TEST(Crc32Test, EveryAlignmentAndTailMatchesOracle) {
    const Bytes buf = patterned(64);
    sim::Rng rng(7);
    for (size_t off = 0; off < 8; ++off) {
        for (size_t len = 0; len <= 33; ++len) {
            const uint32_t seed = static_cast<uint32_t>(rng.next());
            EXPECT_EQ(crc32(buf.data() + off, len, seed), crc32Oracle(buf.data() + off, len, seed))
                << "offset " << off << " length " << len;
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
        ASSERT_EQ(crc32(buf.data(), buf.size(), seed), crc32Oracle(buf.data(), buf.size(), seed))
            << "iteration " << iter;
    }
}
