#include "ecc/secded.hpp"

#include <bit>

#include "common/bits.hpp"
#include "telemetry/host_profiler.hpp"

namespace cachecraft::ecc {

namespace {

/**
 * Static code tables: the 64 odd-weight parity-check columns (all 56
 * weight-3 columns plus 8 weight-5 columns), the syndrome reverse map,
 * the transposed row masks (the AND + parity reference form), and the
 * byte-sliced check table the encoder uses.
 *
 * Reverse-map encoding: 0..63 = data bit position, 64..71 = check bit
 * position, 0xFF = not a column (uncorrectable pattern).
 */
struct HsiaoTables
{
    std::array<std::uint8_t, 64> column{};
    std::array<std::uint8_t, 256> reverse{};
    std::array<std::uint64_t, 8> mask{};
    /** slice[b][v]: check byte of a word whose only nonzero byte is
     *  byte b, equal to v (the XOR of the columns of v's set bits). */
    std::array<std::array<std::uint8_t, 256>, 8> slice{};
    bool ok = false;
};

constexpr HsiaoTables
buildHsiaoTables()
{
    HsiaoTables t;
    for (auto &r : t.reverse)
        r = 0xFF;
    unsigned idx = 0;
    // All weight-3 columns first (56 of them), then weight-5 columns
    // until we have 64 data columns total.
    for (int weight : {3, 5}) {
        for (unsigned c = 1; c < 256 && idx < 64; ++c) {
            if (std::popcount(c) == weight) {
                t.column[idx] = static_cast<std::uint8_t>(c);
                t.reverse[c] = static_cast<std::uint8_t>(idx);
                ++idx;
            }
        }
    }
    t.ok = (idx == 64);
    // Weight-1 syndromes point at the check bits themselves.
    for (unsigned j = 0; j < 8; ++j)
        t.reverse[1u << j] = static_cast<std::uint8_t>(64 + j);
    // Transpose: row mask per check bit, for AND + parity encoding.
    for (unsigned i = 0; i < 64; ++i) {
        for (unsigned j = 0; j < 8; ++j) {
            if ((t.column[i] >> j) & 1u)
                t.mask[j] |= std::uint64_t{1} << i;
        }
    }
    // Byte slices: the code is linear, so a word's check byte is the
    // XOR of its eight bytes' slice entries.
    for (unsigned b = 0; b < 8; ++b) {
        for (unsigned v = 0; v < 256; ++v) {
            std::uint8_t check = 0;
            for (unsigned i = 0; i < 8; ++i) {
                if ((v >> i) & 1u)
                    check ^= t.column[b * 8 + i];
            }
            t.slice[b][v] = check;
        }
    }
    return t;
}

inline constexpr HsiaoTables kHsiao = buildHsiaoTables();
static_assert(kHsiao.ok, "Hsiao(72,64) column construction failed");

/**
 * Check byte of the little-endian 64-bit word stored at @p bytes: eight
 * table lookups, one per data byte, indexed by the bytes as stored (no
 * word assembly). Equal to the AND + parity form over columnMask()
 * (kept as the tests' reference), without a software popcount per
 * check bit.
 */
inline std::uint8_t
checkByte(const std::uint8_t *bytes)
{
    std::uint8_t check = 0;
    for (std::size_t b = 0; b < 8; ++b)
        check ^= kHsiao.slice[b][bytes[b]];
    return check;
}

} // namespace

std::uint8_t
Hsiao7264::dataColumn(unsigned i)
{
    return kHsiao.column[i];
}

std::uint64_t
Hsiao7264::columnMask(unsigned j)
{
    return kHsiao.mask[j];
}

std::uint8_t
Hsiao7264::encode(std::uint64_t data)
{
    std::array<std::uint8_t, 8> bytes;
    storeLe64(std::span<std::uint8_t>(bytes), 0, data);
    return checkByte(bytes.data());
}

Hsiao7264::WordResult
Hsiao7264::decode(std::uint64_t data, std::uint8_t check)
{
    WordResult res;
    res.data = data;
    res.check = check;

    const std::uint8_t syndrome = encode(data) ^ check;
    if (syndrome == 0)
        return res;

    const std::uint8_t pos = kHsiao.reverse[syndrome];
    if (pos == 0xFF) {
        // Even-weight or unmatched odd-weight syndrome: >= 2 errors.
        res.status = DecodeStatus::kUncorrectable;
        return res;
    }
    res.status = DecodeStatus::kCorrected;
    res.correctedBits = 1;
    if (pos < 64)
        res.data ^= std::uint64_t{1} << pos;
    else
        res.check ^= static_cast<std::uint8_t>(1u << (pos - 64));
    return res;
}

namespace {

/** Words (= check bytes) per sector. */
constexpr std::size_t kWordsPerSector = kCheckBytesPerSector;

/** OR-fold of a sector's four word syndromes (0 iff sector clean). */
std::uint8_t
sectorSyndromeOr(const std::uint8_t *data, const std::uint8_t *check)
{
    std::uint8_t any = 0;
    for (std::size_t w = 0; w < kWordsPerSector; ++w)
        any |= static_cast<std::uint8_t>(checkByte(data + w * 8) ^ check[w]);
    return any;
}

} // namespace

SectorCheck
SecDedCodec::encode(const SectorData &data, MemTag /* tag */) const
{
    CC_HOST_ZONE("ecc.secded.encode");
    SectorCheck check{};
    for (std::size_t w = 0; w < kWordsPerSector; ++w)
        check[w] = checkByte(data.data() + w * 8);
    return check;
}

void
SecDedCodec::encodeChunk(const ChunkData &data, MemTag /* tag */,
                         ChunkCheck &check) const
{
    // One check byte per 64-bit word: the chunk's 32 words in order
    // are exactly its eight sectors' check fields in order.
    for (std::size_t w = 0; w < check.size(); ++w)
        check[w] = checkByte(data.data() + w * 8);
}

DecodeResult
SecDedCodec::decode(const SectorData &data, const SectorCheck &check,
                    MemTag /* tag */) const
{
    CC_HOST_ZONE("ecc.secded.decode");
    DecodeResult res;
    res.data = data;
    for (std::size_t w = 0; w < kWordsPerSector; ++w) {
        const std::uint64_t word =
            loadLe64(std::span<const std::uint8_t>(data), w * 8);
        const auto wr = Hsiao7264::decode(word, check[w]);
        switch (wr.status) {
          case DecodeStatus::kClean:
            break;
          case DecodeStatus::kCorrected:
            res.correctedUnits += wr.correctedBits;
            if (res.status == DecodeStatus::kClean)
                res.status = DecodeStatus::kCorrected;
            storeLe64(std::span<std::uint8_t>(res.data), w * 8, wr.data);
            break;
          case DecodeStatus::kUncorrectable:
          case DecodeStatus::kTagMismatch:
            res.status = DecodeStatus::kUncorrectable;
            return res;
        }
    }
    return res;
}

ChunkDecodeResult
SecDedCodec::decodeChunk(const ChunkData &data, const ChunkCheck &check,
                         MemTag tag) const
{
    CC_HOST_ZONE("ecc.secded.decode_chunk");
    ChunkDecodeResult res;
    res.data = data;
    // Syndrome-only sweep over all 32 words of the chunk; only sectors
    // with a nonzero word syndrome take the correction path.
    for (std::size_t s = 0; s < kSectorsPerChunk; ++s) {
        if (sectorSyndromeOr(data.data() + s * kSectorBytes,
                             check.data() + s * kCheckBytesPerSector) == 0)
            continue;
        const DecodeResult dr = SecDedCodec::decode(
            chunkSectorData(data, s), chunkSectorCheck(check, s), tag);
        res.status[s] = dr.status;
        res.correctedUnits[s] =
            static_cast<std::uint8_t>(dr.correctedUnits);
        std::copy(dr.data.begin(), dr.data.end(),
                  res.data.begin() + s * kSectorBytes);
    }
    return res;
}

bool
SecDedCodec::verifySectorClean(const SectorData &data,
                               const SectorCheck &check,
                               MemTag /* tag */) const
{
    return sectorSyndromeOr(data.data(), check.data()) == 0;
}

bool
SecDedCodec::verifyChunkClean(const ChunkData &data,
                              const ChunkCheck &check,
                              MemTag /* tag */) const
{
    for (std::size_t s = 0; s < kSectorsPerChunk; ++s) {
        if (sectorSyndromeOr(data.data() + s * kSectorBytes,
                             check.data() + s * kCheckBytesPerSector) != 0)
            return false;
    }
    return true;
}

} // namespace cachecraft::ecc
