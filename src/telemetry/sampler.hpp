/**
 * @file
 * Epoch-sampled statistic time series.
 *
 * A StatSampler snapshots every value a StatRegistry can flatten
 * (counters, scalars, and histogram summaries) at epoch boundaries —
 * every N simulated cycles — and records the per-epoch *deltas*.
 * Because deltas telescope, the summed series always reproduces the
 * final cumulative value of each stat, which is the invariant the
 * telemetry tests pin down.
 *
 * GpuSystem::run drives the sampler by executing the event queue in
 * epoch-bounded chunks (EventQueue::runUntil); the sampler itself
 * never schedules events, so the queue still drains naturally at end
 * of run. Epochs in which nothing changed are skipped (their indices
 * are simply absent), keeping the series proportional to activity.
 */

#ifndef CACHECRAFT_TELEMETRY_SAMPLER_HPP
#define CACHECRAFT_TELEMETRY_SAMPLER_HPP

#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "stats/stats.hpp"

namespace cachecraft {
class JsonWriter;
} // namespace cachecraft

namespace cachecraft::telemetry {

/** Periodic stat-delta sampler. See file comment. */
class StatSampler
{
  public:
    /** One recorded epoch: sparse (stat-index, delta) pairs. */
    struct Epoch
    {
        std::uint64_t index = 0; //!< epoch number since cycle 0
        Cycle start = 0;
        Cycle end = 0;
        std::vector<std::pair<std::size_t, double>> deltas;
    };

    /**
     * Snapshot the baseline immediately (stat names are fixed at
     * registration time, so construct after the system is built).
     */
    StatSampler(const StatRegistry *registry, Cycle interval);

    Cycle interval() const { return interval_; }

    /** Close the epoch ending at @p at: record deltas since the last
     *  snapshot (no-op row elided when nothing changed). */
    void closeEpoch(Cycle at);

    const std::vector<std::string> &names() const { return names_; }
    std::size_t
    statCount() const
    {
        return view_.size();
    }
    const std::vector<Epoch> &epochs() const { return epochs_; }

    /** Per-stat sum of all recorded deltas (== final value). */
    std::map<std::string, double> summedDeltas() const;

    /** Long-format CSV: epoch,cycle_start,cycle_end,stat,delta. */
    std::string renderCsv() const;

    /** Append the epoch series as a JSON array value. */
    void writeJson(JsonWriter &w) const;

  private:
    const StatRegistry *registry_;
    /** Typed stat pointers cached at construction: each closeEpoch
     *  reads values directly, with no string-keyed lookups. */
    StatRegistry::FlatView view_;
    Cycle interval_;
    Cycle epochStart_ = 0;
    std::vector<std::string> names_;
    std::vector<double> prev_;
    std::vector<Epoch> epochs_;
};

} // namespace cachecraft::telemetry

#endif // CACHECRAFT_TELEMETRY_SAMPLER_HPP
