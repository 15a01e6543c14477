#include "core/config.hpp"

#include <sstream>

#include "common/log.hpp"
#include "protect/mrc_scheme.hpp"

namespace cachecraft {

SystemConfig::SystemConfig()
{
    sm.l1.sizeBytes = 64 * 1024;
    sm.l1.assoc = 4;
    sm.l1.lineBytes = kLineBytes;
    sm.l1.sectorBytes = kSectorBytes;
    sm.l1MshrEntries = 32;
    sm.l1HitLatency = 20;

    l2.cache.sizeBytes = 512 * 1024; // per slice; 8 slices = 4 MiB
    l2.cache.assoc = 16;
    l2.cache.lineBytes = kLineBytes;
    l2.cache.sectorBytes = kSectorBytes;
    l2.mshrEntries = 64;
    l2.hitLatency = 40;
}

EccLayout
SystemConfig::effectiveLayout() const
{
    switch (scheme) {
      case SchemeKind::kNone:
        return EccLayout::kNone;
      case SchemeKind::kInlineNaive:
      case SchemeKind::kEccCache:
        return EccLayout::kSegregated;
      case SchemeKind::kCacheCraft:
        return coLocatedLayout ? EccLayout::kCoLocated
                               : EccLayout::kSegregated;
    }
    return EccLayout::kNone;
}

void
SystemConfig::validate() const
{
    if (const std::string error = geometryError(); !error.empty())
        fatal(error);
}

std::string
SystemConfig::geometryError() const
{
    if (numSms == 0)
        return "numSms must be positive";
    if (dram.numChannels == 0)
        return "at least one DRAM channel required";
    if (sm.l1.lineBytes != kLineBytes || l2.cache.lineBytes != kLineBytes)
        return "L1/L2 must use the canonical 128 B line";
    if (sm.l1.sectorBytes != kSectorBytes ||
        l2.cache.sectorBytes != kSectorBytes)
        return "L1/L2 must use the canonical 32 B sector";
    if (std::string e = cacheGeometryError(l2.cache); !e.empty())
        return "L2 geometry: " + e;
    if (scheme == SchemeKind::kEccCache || scheme == SchemeKind::kCacheCraft) {
        if (std::string e = cacheGeometryError(mrcParams(mrc)); !e.empty())
            return "MRC geometry: " + e;
    }
    return {};
}

std::string
SystemConfig::summary() const
{
    std::ostringstream os;
    os << toString(scheme);
    if (scheme == SchemeKind::kCacheCraft) {
        os << "[" << (mrc.chunkGranularity ? "R1" : "--") << "+"
           << (mrc.writebackMrc ? "R2" : "--") << "+"
           << (coLocatedLayout ? "R3" : "--") << "]";
    }
    os << "/" << toString(codec);
    return os.str();
}

std::string
SystemConfig::describe() const
{
    std::ostringstream os;
    os << "SMs                  " << numSms << "\n"
       << "L1 per SM            " << sm.l1.sizeBytes / 1024 << " KiB, "
       << sm.l1.assoc << "-way, sectored, write-through\n"
       << "L1 hit latency       " << sm.l1HitLatency << " cycles\n"
       << "L1 MSHRs             " << sm.l1MshrEntries << "\n"
       << "L2 slices            " << dram.numChannels << " (1 per channel)\n"
       << "L2 per slice         " << l2.cache.sizeBytes / 1024 << " KiB, "
       << l2.cache.assoc << "-way, sectored, write-back\n"
       << "L2 hit latency       " << l2.hitLatency << " cycles\n"
       << "L2 MSHRs per slice   " << l2.mshrEntries << "\n"
       << "Crossbar latency     " << xbarLatency << " cycles\n"
       << "DRAM channels        " << dram.numChannels << "\n"
       << "Banks per channel    " << dram.numBanks << "\n"
       << "Row size             " << dram.rowBytes << " B\n"
       << "tRCD/tRP/tCAS/tBURST " << timing.tRcd << "/" << timing.tRp
       << "/" << timing.tCas << "/" << timing.tBurst << " cycles\n"
       << "Protection scheme    " << toString(scheme) << "\n"
       << "ECC codec            " << toString(codec) << "\n"
       << "ECC layout           " << toString(effectiveLayout()) << "\n"
       << "MRC per slice        " << mrc.sizeBytes / 1024 << " KiB, "
       << mrc.assoc << "-way\n"
       << "MRC R1 (chunk gran)  " << (mrc.chunkGranularity ? "on" : "off")
       << "\n"
       << "MRC R2 (write-back)  " << (mrc.writebackMrc ? "on" : "off")
       << "\n";
    return os.str();
}

} // namespace cachecraft
