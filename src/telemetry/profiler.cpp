#include "telemetry/profiler.hpp"

#include <algorithm>
#include <cstdio>

#include "common/json.hpp"
#include "common/log.hpp"

namespace cachecraft::telemetry {

namespace {

/** Occupancy histogram geometry: unit buckets over [0, 64). */
constexpr std::uint64_t kOccBucketWidth = 1;
constexpr std::size_t kOccNumBuckets = 64;

std::string
hexKey(std::uint64_t key)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%llx",
                  static_cast<unsigned long long>(key));
    return buf;
}

} // namespace

Profiler::Profiler(StatRegistry *stats) : stats_(stats)
{
    if (stats_)
        stats_->registerCounter("profile.occ.samples", &samples_);
}

void
Profiler::addGauge(const std::string &name,
                   std::function<std::uint64_t()> fn)
{
    Gauge g;
    g.name = name;
    g.fn = std::move(fn);
    g.hist =
        std::make_unique<HistogramStat>(kOccBucketWidth, kOccNumBuckets);
    if (stats_)
        stats_->registerHistogram(strCat("profile.occ.", name),
                                  g.hist.get());
    gauges_.push_back(std::move(g));
}

void
Profiler::sampleOccupancy()
{
    for (const Gauge &g : gauges_)
        g.hist->sample(g.fn());
    samples_.inc();
}

void
Profiler::recordRowAccess(std::uint64_t row_key)
{
    // Commutative sums into a map read only after the run. rank()
    // sorts, so report output is independent of both arrival order and
    // hash iteration order.
    rowCounts_[row_key]++;
}

void
Profiler::recordSectorAccess(std::uint64_t sector_addr)
{
    sectorCounts_[sector_addr]++;
}

std::vector<HotEntry>
Profiler::rank(const std::unordered_map<std::uint64_t, std::uint64_t> &m)
{
    std::vector<HotEntry> out;
    out.reserve(m.size());
    for (const auto &[key, count] : m)
        out.push_back({key, count});
    std::sort(out.begin(), out.end(),
              [](const HotEntry &a, const HotEntry &b) {
                  if (a.count != b.count)
                      return a.count > b.count;
                  return a.key < b.key;
              });
    if (out.size() > kTopN)
        out.resize(kTopN);
    return out;
}

std::vector<HotEntry>
Profiler::hottestRows() const
{
    return rank(rowCounts_);
}

std::vector<HotEntry>
Profiler::hottestSectors() const
{
    return rank(sectorCounts_);
}

void
Profiler::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.key("occupancy").beginObject();
    w.key("samples").value(samples_.value());
    w.key("gauges").beginObject();
    for (const Gauge &g : gauges_) {
        w.key(g.name).beginObject();
        w.key("mean").value(g.hist->mean());
        w.key("stddev").value(g.hist->stddev());
        w.key("max").value(g.hist->maxValue());
        w.key("p50").value(g.hist->quantile(0.50));
        w.key("p99").value(g.hist->quantile(0.99));
        w.endObject();
    }
    w.endObject();
    w.endObject();
    auto emit_hot = [&w](const std::vector<HotEntry> &entries) {
        w.beginArray();
        for (const HotEntry &e : entries) {
            w.beginObject();
            w.key("key").value(hexKey(e.key));
            w.key("count").value(e.count);
            w.endObject();
        }
        w.endArray();
    };
    w.key("hot_rows");
    emit_hot(hottestRows());
    w.key("hot_sectors");
    emit_hot(hottestSectors());
    w.endObject();
}

} // namespace cachecraft::telemetry
