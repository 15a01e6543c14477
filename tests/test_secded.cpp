/**
 * @file
 * Tests for the Hsiao (72,64) SEC-DED code: exhaustive single-error
 * correction, double-error detection, the odd-weight-column
 * construction invariants, and the byte-sliced encoder against the
 * AND + parity reference.
 */

#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "ecc/secded.hpp"

namespace cachecraft::ecc {
namespace {

TEST(Hsiao7264, ColumnsAreUniqueOddWeight)
{
    std::set<std::uint8_t> seen;
    for (unsigned i = 0; i < 64; ++i) {
        const std::uint8_t col = Hsiao7264::dataColumn(i);
        EXPECT_EQ(std::popcount(static_cast<unsigned>(col)) % 2, 1)
            << "column " << i << " has even weight";
        EXPECT_GE(std::popcount(static_cast<unsigned>(col)), 3)
            << "column " << i << " collides with a check column";
        EXPECT_TRUE(seen.insert(col).second)
            << "column " << i << " duplicates another";
    }
}

TEST(Hsiao7264, CleanDecode)
{
    Xoshiro256 rng(1);
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t data = rng.next();
        const std::uint8_t check = Hsiao7264::encode(data);
        const auto res = Hsiao7264::decode(data, check);
        EXPECT_EQ(res.status, DecodeStatus::kClean);
        EXPECT_EQ(res.data, data);
        EXPECT_EQ(res.correctedBits, 0u);
    }
}

/** The AND + parity form of the encoder: check bit j is the parity of
 *  the data bits in columnMask(j). */
std::uint8_t
parityReferenceEncode(std::uint64_t data)
{
    std::uint8_t check = 0;
    for (unsigned j = 0; j < 8; ++j) {
        const int parity =
            std::popcount(data & Hsiao7264::columnMask(j)) & 1;
        check |= static_cast<std::uint8_t>(parity << j);
    }
    return check;
}

TEST(Hsiao7264, ByteSlicedEncodeMatchesParityReference)
{
    std::vector<std::uint64_t> words = {0, ~std::uint64_t{0}};
    for (unsigned i = 0; i < 64; ++i) {
        words.push_back(std::uint64_t{1} << i);
        // A lone data bit encodes to its own column.
        EXPECT_EQ(Hsiao7264::encode(std::uint64_t{1} << i),
                  Hsiao7264::dataColumn(i))
            << "bit " << i;
    }
    Xoshiro256 rng(22);
    for (int i = 0; i < 100000; ++i)
        words.push_back(rng.next());
    for (const std::uint64_t word : words) {
        ASSERT_EQ(Hsiao7264::encode(word), parityReferenceEncode(word))
            << std::hex << "word 0x" << word;
    }
}

TEST(Hsiao7264, CorrectsEverySingleFlipOfDataAndCheck)
{
    Xoshiro256 rng(23);
    for (const std::uint64_t data :
         {std::uint64_t{0}, ~std::uint64_t{0}, rng.next(), rng.next()}) {
        const std::uint8_t check = Hsiao7264::encode(data);
        for (unsigned bit = 0; bit < 72; ++bit) {
            const bool in_data = bit < 64;
            const auto res = Hsiao7264::decode(
                in_data ? data ^ (std::uint64_t{1} << bit) : data,
                in_data ? check
                        : static_cast<std::uint8_t>(check ^
                                                    (1u << (bit - 64))));
            ASSERT_EQ(res.status, DecodeStatus::kCorrected)
                << std::hex << "data 0x" << data << std::dec << " bit "
                << bit;
            EXPECT_EQ(res.data, data);
            EXPECT_EQ(res.check, check);
            EXPECT_EQ(res.correctedBits, 1u);
        }
    }
}

/** Exhaustive sweep over every single-bit data error position. */
class SecDedSingleBit : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SecDedSingleBit, CorrectsDataBit)
{
    const unsigned bit = GetParam();
    Xoshiro256 rng(bit + 100);
    for (int i = 0; i < 50; ++i) {
        const std::uint64_t data = rng.next();
        const std::uint8_t check = Hsiao7264::encode(data);
        const auto res = Hsiao7264::decode(data ^ (1ull << bit), check);
        EXPECT_EQ(res.status, DecodeStatus::kCorrected);
        EXPECT_EQ(res.data, data);
        EXPECT_EQ(res.correctedBits, 1u);
    }
}

INSTANTIATE_TEST_SUITE_P(AllDataBits, SecDedSingleBit,
                         ::testing::Range(0u, 64u));

/** Exhaustive sweep over every single-bit check error position. */
class SecDedCheckBit : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SecDedCheckBit, CorrectsCheckBit)
{
    const unsigned bit = GetParam();
    Xoshiro256 rng(bit + 200);
    for (int i = 0; i < 50; ++i) {
        const std::uint64_t data = rng.next();
        const std::uint8_t check = Hsiao7264::encode(data);
        const auto res = Hsiao7264::decode(
            data, static_cast<std::uint8_t>(check ^ (1u << bit)));
        EXPECT_EQ(res.status, DecodeStatus::kCorrected);
        EXPECT_EQ(res.data, data);
        EXPECT_EQ(res.check, check);
    }
}

INSTANTIATE_TEST_SUITE_P(AllCheckBits, SecDedCheckBit,
                         ::testing::Range(0u, 8u));

TEST(Hsiao7264, DetectsAllDoubleDataBitErrors)
{
    // Hsiao guarantee: any 2-bit error has an even-weight syndrome and
    // is flagged, never miscorrected. Sweep all 64*63/2 pairs once.
    Xoshiro256 rng(9);
    const std::uint64_t data = rng.next();
    const std::uint8_t check = Hsiao7264::encode(data);
    for (unsigned b0 = 0; b0 < 64; ++b0) {
        for (unsigned b1 = b0 + 1; b1 < 64; ++b1) {
            const auto res = Hsiao7264::decode(
                data ^ (1ull << b0) ^ (1ull << b1), check);
            ASSERT_EQ(res.status, DecodeStatus::kUncorrectable)
                << "bits " << b0 << "," << b1;
        }
    }
}

TEST(Hsiao7264, DetectsDataPlusCheckDoubleErrors)
{
    Xoshiro256 rng(10);
    const std::uint64_t data = rng.next();
    const std::uint8_t check = Hsiao7264::encode(data);
    for (unsigned db = 0; db < 64; ++db) {
        for (unsigned cb = 0; cb < 8; ++cb) {
            const auto res = Hsiao7264::decode(
                data ^ (1ull << db),
                static_cast<std::uint8_t>(check ^ (1u << cb)));
            ASSERT_EQ(res.status, DecodeStatus::kUncorrectable)
                << "data bit " << db << ", check bit " << cb;
        }
    }
}

TEST(SecDedCodec, SectorRoundTrip)
{
    SecDedCodec codec;
    Xoshiro256 rng(11);
    for (int i = 0; i < 200; ++i) {
        SectorData data;
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.next());
        const SectorCheck check = codec.encode(data, 0);
        const auto res = codec.decode(data, check, 0);
        EXPECT_EQ(res.status, DecodeStatus::kClean);
        EXPECT_EQ(res.data, data);
    }
}

TEST(SecDedCodec, CorrectsOneBitPerWordIndependently)
{
    // One single-bit error in each of the four codewords of a sector
    // is four independent corrections.
    SecDedCodec codec;
    Xoshiro256 rng(12);
    SectorData data;
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next());
    const SectorCheck check = codec.encode(data, 0);

    SectorData corrupt = data;
    for (int word = 0; word < 4; ++word)
        corrupt[word * 8 + 3] ^= 0x10; // one bit in each 64-bit word
    const auto res = codec.decode(corrupt, check, 0);
    EXPECT_EQ(res.status, DecodeStatus::kCorrected);
    EXPECT_EQ(res.correctedUnits, 4u);
    EXPECT_EQ(res.data, data);
}

TEST(SecDedCodec, DoubleBitInOneWordUncorrectable)
{
    SecDedCodec codec;
    Xoshiro256 rng(13);
    SectorData data;
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next());
    const SectorCheck check = codec.encode(data, 0);
    SectorData corrupt = data;
    corrupt[0] ^= 0x03; // two bits in word 0
    const auto res = codec.decode(corrupt, check, 0);
    EXPECT_EQ(res.status, DecodeStatus::kUncorrectable);
}

TEST(SecDedCodec, IgnoresTag)
{
    SecDedCodec codec;
    EXPECT_FALSE(codec.supportsTags());
    EXPECT_EQ(codec.tagBits(), 0u);
    SectorData data{};
    const SectorCheck c0 = codec.encode(data, 0x00);
    const SectorCheck c1 = codec.encode(data, 0xFF);
    EXPECT_EQ(c0, c1);
}

} // namespace
} // namespace cachecraft::ecc
