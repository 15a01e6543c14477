/**
 * @file
 * Cross-codec property tests through the common SectorCodec
 * interface: every codec in the factory must satisfy the same basic
 * contract under the same 12.5 % redundancy budget.
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "ecc/codec.hpp"

namespace cachecraft::ecc {
namespace {

class CodecContract : public ::testing::TestWithParam<CodecKind>
{
  protected:
    std::unique_ptr<SectorCodec> codec_ = makeCodec(GetParam());
};

TEST_P(CodecContract, FactoryProducesNamedCodec)
{
    ASSERT_NE(codec_, nullptr);
    EXPECT_FALSE(codec_->name().empty());
}

TEST_P(CodecContract, CleanRoundTrip)
{
    Xoshiro256 rng(1);
    for (int i = 0; i < 100; ++i) {
        SectorData data;
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.next());
        const SectorCheck check = codec_->encode(data, 0);
        const auto res = codec_->decode(data, check, 0);
        ASSERT_EQ(res.status, DecodeStatus::kClean);
        ASSERT_EQ(res.data, data);
    }
}

TEST_P(CodecContract, EncodeIsDeterministic)
{
    Xoshiro256 rng(2);
    SectorData data;
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next());
    EXPECT_EQ(codec_->encode(data, 7), codec_->encode(data, 7));
}

TEST_P(CodecContract, SingleBitErrorAlwaysCorrected)
{
    // Every codec in this library corrects at least one arbitrary
    // single-bit error per sector.
    Xoshiro256 rng(3);
    for (int trial = 0; trial < 200; ++trial) {
        SectorData data;
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.next());
        const SectorCheck check = codec_->encode(data, 0);
        SectorData corrupt = data;
        const unsigned bit = static_cast<unsigned>(rng.below(256));
        corrupt[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        const auto res = codec_->decode(corrupt, check, 0);
        ASSERT_EQ(res.status, DecodeStatus::kCorrected)
            << codec_->name() << " bit " << bit;
        ASSERT_EQ(res.data, data);
    }
}

TEST_P(CodecContract, DifferentDataDifferentCheck)
{
    // Sanity: the check bytes actually depend on the data.
    SectorData a{};
    SectorData b{};
    b[17] = 1;
    EXPECT_NE(codec_->encode(a, 0), codec_->encode(b, 0));
}

TEST_P(CodecContract, TagSupportConsistent)
{
    EXPECT_EQ(codec_->supportsTags(), codec_->tagBits() > 0);
    if (!codec_->supportsTags()) {
        SectorData data{};
        EXPECT_EQ(codec_->encode(data, 0), codec_->encode(data, 0xFF));
    }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecContract,
                         ::testing::ValuesIn(allCodecs()),
                         [](const auto &param_info) {
                             std::string s = toString(param_info.param);
                             for (char &c : s)
                                 if (c == '-')
                                     c = '_';
                             return s;
                         });

TEST(CodecFactory, AllCodecsEnumerated)
{
    EXPECT_EQ(allCodecs().size(), 4u);
    for (CodecKind kind : allCodecs())
        EXPECT_NE(makeCodec(kind), nullptr);
}

TEST(CodecEnums, StatusNames)
{
    EXPECT_STREQ(toString(DecodeStatus::kClean), "clean");
    EXPECT_STREQ(toString(DecodeStatus::kCorrected), "corrected");
    EXPECT_STREQ(toString(DecodeStatus::kUncorrectable),
                 "uncorrectable");
    EXPECT_STREQ(toString(DecodeStatus::kTagMismatch), "tag-mismatch");
}

} // namespace
} // namespace cachecraft::ecc
