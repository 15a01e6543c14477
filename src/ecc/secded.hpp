/**
 * @file
 * Hsiao (72,64) SEC-DED code, applied as four independent codewords
 * per 32 B sector (one per 64-bit word, one check byte each).
 *
 * This is the baseline GPU DRAM protection code: corrects any single
 * bit error and detects any double bit error within a 64-bit word.
 * Hsiao's construction (all parity-check columns of odd weight) makes
 * double errors always produce an even-weight — hence detectable —
 * syndrome, and minimizes the total number of ones in H for fast,
 * shallow XOR trees in hardware.
 *
 * The software encoder is byte-sliced: a constexpr [8][256] table holds
 * the check byte of every (byte position, byte value) pair, and a
 * word's check byte is the XOR of eight lookups. It equals the XOR-tree
 * form (check bit j = parity of data & columnMask(j)) because the code
 * is linear, without a software popcount per check bit on builds
 * that lack a popcount instruction. All code tables are built
 * constexpr.
 */

#ifndef CACHECRAFT_ECC_SECDED_HPP
#define CACHECRAFT_ECC_SECDED_HPP

#include <array>
#include <cstdint>

#include "ecc/codec.hpp"

namespace cachecraft::ecc {

/**
 * One (72,64) Hsiao codeword: 64 data bits, 8 check bits.
 * Exposed separately from the SectorCodec wrapper so reliability
 * studies can exercise the word-level code directly.
 */
class Hsiao7264
{
  public:
    /** Outcome of decoding a single 72-bit word. */
    struct WordResult
    {
        DecodeStatus status = DecodeStatus::kClean;
        std::uint64_t data = 0;
        std::uint8_t check = 0;
        unsigned correctedBits = 0;
    };

    /** Compute the 8 check bits for @p data. */
    static std::uint8_t encode(std::uint64_t data);

    /** Verify/correct a received (data, check) pair. */
    static WordResult decode(std::uint64_t data, std::uint8_t check);

    /** Parity-check column for data bit @p i (odd weight, unique). */
    static std::uint8_t dataColumn(unsigned i);

    /**
     * Row mask for check bit @p j: bit i is set iff data bit i
     * participates in check bit j (i.e. dataColumn(i) has bit j).
     */
    static std::uint64_t columnMask(unsigned j);
};

/** Sector-granularity SEC-DED codec (4 x Hsiao (72,64)). */
class SecDedCodec : public SectorCodec
{
  public:
    std::string name() const override { return "secded-hsiao-72-64"; }
    bool supportsTags() const override { return false; }
    unsigned tagBits() const override { return 0; }

    SectorCheck encode(const SectorData &data, MemTag tag) const override;
    DecodeResult decode(const SectorData &data, const SectorCheck &check,
                        MemTag tag) const override;

    void encodeChunk(const ChunkData &data, MemTag tag,
                     ChunkCheck &check) const override;
    ChunkDecodeResult decodeChunk(const ChunkData &data,
                                  const ChunkCheck &check,
                                  MemTag tag) const override;
    bool verifySectorClean(const SectorData &data,
                           const SectorCheck &check,
                           MemTag tag) const override;
    bool verifyChunkClean(const ChunkData &data, const ChunkCheck &check,
                          MemTag tag) const override;
};

} // namespace cachecraft::ecc

#endif // CACHECRAFT_ECC_SECDED_HPP
