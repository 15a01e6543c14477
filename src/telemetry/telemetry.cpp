#include "telemetry/telemetry.hpp"

#include "telemetry/flight_recorder.hpp"
#include "telemetry/host_profiler.hpp"
#include "telemetry/reuse_dist.hpp"

namespace cachecraft::telemetry {

Telemetry::Telemetry(StatRegistry *stats, const TelemetryOptions &options)
    : options_(options)
{
    if (kTraceCompiledIn && options_.profileEnabled)
        profiler_ = std::make_unique<Profiler>(stats);
    if (kTraceCompiledIn && options_.flightRecorderEnabled)
        recorder_ =
            std::make_unique<FlightRecorder>(options_.flightCapacity);
    if (kTraceCompiledIn && options_.reuseProfileEnabled) {
        ReuseOptions ro;
        ro.maxAssoc = options_.reuseMaxAssoc;
        ro.setGroups = options_.reuseSetGroups;
        ro.epochAccesses = options_.reuseEpochAccesses;
        ro.retainStream = options_.reuseRetainStream;
        reuse_ = std::make_unique<ReuseProfiler>(ro);
    }
    if (kTraceCompiledIn && options_.hostProfileEnabled) {
        HostProfiler::retain();
        hostRetained_ = true;
    }
}

Telemetry::~Telemetry()
{
    if (hostRetained_)
        HostProfiler::release();
}

} // namespace cachecraft::telemetry
