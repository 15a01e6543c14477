/**
 * @file
 * Tests for the run-telemetry subsystem: JSON utilities, the hub's
 * gates, the epoch-delta sampler (telescoping invariant), and a full
 * flight-recorded GpuSystem run whose records nest inside each
 * request's window and whose artifacts must be valid JSON.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/cachecraft.hpp"
#include "telemetry/critical_path.hpp"
#include "telemetry/diff.hpp"
#include "telemetry/flight_recorder.hpp"

namespace cachecraft {
namespace {

// --------------------------------------------------------------------
// JSON utilities
// --------------------------------------------------------------------

TEST(Json, EscapePassesPlainTextThrough)
{
    EXPECT_EQ(jsonEscape("hello world"), "hello world");
    EXPECT_EQ(jsonEscape(""), "");
}

TEST(Json, EscapeSpecials)
{
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(jsonEscape(std::string("a\x01z")), "a\\u0001z");
}

TEST(Json, NumberFormats)
{
    EXPECT_EQ(jsonNumber(3.0), "3");
    EXPECT_EQ(jsonNumber(-17.0), "-17");
    EXPECT_EQ(jsonNumber(std::nan("")), "null");
    EXPECT_EQ(jsonNumber(HUGE_VAL), "null");
    // A fractional value keeps its fraction and stays valid JSON.
    const std::string frac = jsonNumber(1.5);
    EXPECT_NE(frac.find('.'), std::string::npos);
    EXPECT_TRUE(jsonValidate(frac));
}

TEST(Json, ValidateAcceptsAndRejects)
{
    EXPECT_TRUE(jsonValidate("{}"));
    EXPECT_TRUE(jsonValidate("[1, 2.5, \"x\", null, true, false]"));
    EXPECT_TRUE(jsonValidate("{\"a\": {\"b\": [{}]}}"));

    std::string err;
    EXPECT_FALSE(jsonValidate("{", &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(jsonValidate("{\"a\": 1,}"));
    EXPECT_FALSE(jsonValidate("[1 2]"));
    EXPECT_FALSE(jsonValidate("\"unterminated"));
    EXPECT_FALSE(jsonValidate("{} trailing"));
}

TEST(Json, WriterEmitsValidNestedDocument)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.key("str").value("needs \"escaping\"\n");
    w.key("int").value(std::uint64_t{42});
    w.key("neg").value(std::int64_t{-7});
    w.key("dbl").value(2.25);
    w.key("flag").value(true);
    w.key("arr").beginArray();
    w.value(1).value(2).beginObject().key("k").value("v").endObject();
    w.endArray();
    w.key("raw").raw("[null]");
    w.endObject();

    std::string err;
    EXPECT_TRUE(jsonValidate(os.str(), &err)) << err << "\n" << os.str();
    EXPECT_NE(os.str().find("\\\"escaping\\\""), std::string::npos);
}

// --------------------------------------------------------------------
// Telemetry hub
// --------------------------------------------------------------------

TEST(Telemetry, ActiveOnlyWithTheRecorder)
{
    telemetry::TelemetryOptions opts;
    opts.profileEnabled = true; // other observers do not need ids
    telemetry::Telemetry off(nullptr, opts);
    EXPECT_FALSE(off.active());

    opts.flightRecorderEnabled = true;
    telemetry::Telemetry on(nullptr, opts);
    EXPECT_EQ(on.active(), telemetry::kTraceCompiledIn);
    const std::uint64_t id = on.newId();
    EXPECT_NE(id, 0u);
    EXPECT_NE(on.newId(), id);
}

// --------------------------------------------------------------------
// Stat sampler
// --------------------------------------------------------------------

TEST(StatSampler, DeltasTelescopeToFinalValues)
{
    StatRegistry reg;
    Counter a, b;
    reg.registerCounter("x.a", &a);
    reg.registerCounter("x.b", &b);

    telemetry::StatSampler sampler(&reg, 100);
    EXPECT_EQ(sampler.interval(), 100u);

    a.inc(5);
    sampler.closeEpoch(100);
    a.inc(2);
    b.inc(7);
    sampler.closeEpoch(200);
    // Nothing changed: epoch 2 is elided entirely.
    sampler.closeEpoch(300);
    b.inc(1);
    sampler.closeEpoch(350); // partial final epoch (end of run)

    const auto &epochs = sampler.epochs();
    ASSERT_EQ(epochs.size(), 3u);
    EXPECT_EQ(epochs[0].index, 0u);
    EXPECT_EQ(epochs[0].start, 0u);
    EXPECT_EQ(epochs[0].end, 100u);
    EXPECT_EQ(epochs[1].index, 1u);
    EXPECT_EQ(epochs[2].index, 3u); // index 2 skipped
    EXPECT_EQ(epochs[2].start, 300u);
    EXPECT_EQ(epochs[2].end, 350u);

    // Sparse rows: epoch 0 saw only x.a change.
    ASSERT_EQ(epochs[0].deltas.size(), 1u);
    EXPECT_DOUBLE_EQ(epochs[0].deltas[0].second, 5.0);
    ASSERT_EQ(epochs[1].deltas.size(), 2u);

    const auto summed = sampler.summedDeltas();
    for (const auto &[name, value] : reg.flatten()) {
        const auto it = summed.find(name);
        const double total = it == summed.end() ? 0.0 : it->second;
        EXPECT_DOUBLE_EQ(total, value) << name;
    }
}

TEST(StatSampler, CsvAndJsonRenderings)
{
    StatRegistry reg;
    Counter c;
    reg.registerCounter("m.hits", &c);
    telemetry::StatSampler sampler(&reg, 50);
    c.inc(3);
    sampler.closeEpoch(50);

    const std::string csv = sampler.renderCsv();
    EXPECT_NE(csv.find("epoch,cycle_start,cycle_end,stat,delta"),
              std::string::npos);
    EXPECT_NE(csv.find("0,0,50,m.hits,3"), std::string::npos);

    std::ostringstream os;
    JsonWriter w(os);
    sampler.writeJson(w);
    std::string err;
    EXPECT_TRUE(jsonValidate(os.str(), &err)) << err;
    EXPECT_NE(os.str().find("m.hits"), std::string::npos);
}

TEST(StatSamplerDeathTest, LateRegistrationPanics)
{
    StatRegistry reg;
    Counter c;
    reg.registerCounter("early", &c);
    telemetry::StatSampler sampler(&reg, 100);
    Counter late;
    reg.registerCounter("late", &late);
    EXPECT_DEATH(sampler.closeEpoch(100), "registered while sampling");
}

// --------------------------------------------------------------------
// Traced end-to-end run
// --------------------------------------------------------------------

SystemConfig
tracedConfig()
{
    SystemConfig cfg;
    cfg.scheme = SchemeKind::kCacheCraft;
    cfg.numSms = 4;
    cfg.dram.numChannels = 4;
    cfg.dram.channelCapacity = 64 * 1024 * 1024;
    cfg.l2.cache.sizeBytes = 64 * 1024;
    cfg.telemetry.flightRecorderEnabled = true;
    cfg.telemetry.flightCapacity = 1u << 20; // big enough: no drops
    cfg.telemetry.sampleInterval = 2000;
    return cfg;
}

WorkloadParams
tinyWorkload()
{
    WorkloadParams p;
    p.footprintBytes = 256 * 1024;
    p.numWarps = 8;
    p.memInstsPerWarp = 8;
    return p;
}

class TracedRun : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!telemetry::kTraceCompiledIn)
            GTEST_SKIP() << "tracing compiled out";
        gpu_ = std::make_unique<GpuSystem>(tracedConfig());
        rs_ = gpu_->run(
            makeWorkload(WorkloadKind::kStreaming, tinyWorkload()));
        if (const auto *fr = gpu_->telemetry().recorder()) {
            records_ = fr->snapshot();
            dropped_ = fr->dropped();
        }
    }

    std::unique_ptr<GpuSystem> gpu_;
    RunStats rs_;
    std::vector<telemetry::FlightRecord> records_;
    std::uint64_t dropped_ = 0;
};

std::size_t
countOccurrences(const std::string &hay, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size()))
        ++n;
    return n;
}

TEST_F(TracedRun, LifecycleRecordsNestInsideRequestWindow)
{
    ASSERT_EQ(dropped_, 0u)
        << "raise flightCapacity: nesting checks need every record";

    // [request_start, complete] window of every completed request id.
    std::map<std::uint64_t, Cycle> starts;
    std::map<std::uint64_t, std::pair<Cycle, Cycle>> window;
    for (const auto &r : records_) {
        const auto kind = static_cast<telemetry::RecordKind>(r.kind);
        if (kind == telemetry::RecordKind::kRequestStart)
            starts[r.id] = r.at;
    }
    for (const auto &r : records_) {
        const auto it = starts.find(r.id);
        if (static_cast<telemetry::RecordKind>(r.kind) ==
                telemetry::RecordKind::kComplete &&
            it != starts.end())
            window[r.id] = {it->second, r.at};
    }
    ASSERT_FALSE(window.empty());

    // Every record sharing a completed id (L1, crossbar, L2, MRC,
    // DRAM, decode) must fall inside that id's window.
    std::size_t nested = 0;
    for (const auto &r : records_) {
        const auto it = window.find(r.id);
        if (it == window.end())
            continue; // warp-instruction or standalone-txn id
        const auto kind = static_cast<telemetry::RecordKind>(r.kind);
        EXPECT_GE(r.at, it->second.first)
            << toString(kind) << " id " << r.id;
        EXPECT_LE(r.at, it->second.second)
            << toString(kind) << " id " << r.id;
        ++nested;
    }
    EXPECT_GT(nested, 2 * window.size());
}

TEST_F(TracedRun, ChromePathExportIsValidAndNested)
{
    const auto bd = telemetry::analyzeCriticalPath(records_, 8);
    ASSERT_FALSE(bd.slowest.empty());

    std::ostringstream os;
    telemetry::writeChromePathJson(os, records_, bd.slowest);
    std::string err;
    const auto doc = jsonParse(os.str(), &err);
    ASSERT_TRUE(doc.has_value()) << err;
    const JsonValue *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);

    // Every span opens ("b") once and closes ("e") once, and each
    // segment span lies inside its request's "request" span.
    std::size_t begins = 0;
    std::size_t ends = 0;
    std::size_t segments = 0;
    std::map<std::string, std::pair<double, double>> request;
    for (const JsonValue &ev : events->asArray()) {
        const std::string &ph = ev.find("ph")->asString();
        begins += ph == "b";
        ends += ph == "e";
        if (ev.find("name")->asString() != "request")
            continue;
        auto &span = request[ev.find("id")->asString()];
        (ph == "b" ? span.first : span.second) =
            ev.find("ts")->asNumber();
    }
    EXPECT_GT(begins, 0u);
    EXPECT_EQ(begins, ends);
    EXPECT_EQ(request.size(), bd.slowest.size());
    for (const JsonValue &ev : events->asArray()) {
        if (ev.find("name")->asString() == "request")
            continue;
        const auto &span = request.at(ev.find("id")->asString());
        const double ts = ev.find("ts")->asNumber();
        EXPECT_GE(ts, span.first) << os.str();
        EXPECT_LE(ts, span.second) << os.str();
        ++segments;
    }
    EXPECT_GT(segments, 0u);
}

TEST_F(TracedRun, SamplerSumsMatchLiveRegistry)
{
    ASSERT_NE(gpu_->sampler(), nullptr);
    EXPECT_FALSE(gpu_->sampler()->epochs().empty());

    const auto summed = gpu_->sampler()->summedDeltas();
    for (const auto &[name, value] : gpu_->statsRegistry().flatten()) {
        const auto it = summed.find(name);
        const double total = it == summed.end() ? 0.0 : it->second;
        EXPECT_NEAR(total, value, 1e-9) << name;
    }
}

TEST_F(TracedRun, RunReportIsValidJson)
{
    telemetry::RunManifest manifest;
    manifest.tool = "cachecraft_tests";
    manifest.workload = "streaming";
    manifest.workloadSeed = tinyWorkload().seed;
    manifest.wallSeconds = 0.25;
    manifest.extra.emplace_back("note", "unit \"test\"");

    std::ostringstream os;
    telemetry::writeRunReport(os, manifest, gpu_->config(), rs_,
                              gpu_->statsRegistry(), gpu_->sampler());
    std::string err;
    ASSERT_TRUE(jsonValidate(os.str(), &err)) << err;
    EXPECT_NE(os.str().find("cachecraft.run_report/1"),
              std::string::npos);
    EXPECT_NE(os.str().find("\"epochs\""), std::string::npos);
    // Cross-artifact versioning: the report must parse and carry this
    // build's schema_version (cachecraft_diff refuses it otherwise),
    // plus the warnings array (empty on this clean run).
    const auto doc = jsonParse(os.str(), &err);
    ASSERT_TRUE(doc.has_value()) << err;
    EXPECT_TRUE(telemetry::checkSchemaVersion(*doc, "report", &err))
        << err;
    const JsonValue *warnings = doc->find("warnings");
    ASSERT_NE(warnings, nullptr);
    EXPECT_TRUE(warnings->asArray().empty());
}

TEST_F(TracedRun, RunReportCarriesProfileSection)
{
    // A run without profiling omits the section entirely...
    std::ostringstream without;
    telemetry::writeRunReport(without, telemetry::RunManifest{},
                              gpu_->config(), rs_, gpu_->statsRegistry(),
                              gpu_->sampler());
    EXPECT_EQ(without.str().find("\"profile\""), std::string::npos);

    // ...while a profiled system feeds it through writeRunReport.
    SystemConfig cfg = tracedConfig();
    cfg.telemetry.flightRecorderEnabled = false;
    cfg.telemetry.profileEnabled = true;
    GpuSystem profiled(cfg);
    const RunStats prs = profiled.run(
        makeWorkload(WorkloadKind::kStreaming, tinyWorkload()));

    std::ostringstream os;
    telemetry::writeRunReport(os, telemetry::RunManifest{},
                              profiled.config(), prs,
                              profiled.statsRegistry(),
                              profiled.sampler(),
                              profiled.telemetry().profiler());
    std::string err;
    ASSERT_TRUE(jsonValidate(os.str(), &err)) << err;
    EXPECT_NE(os.str().find("\"profile\""), std::string::npos);
    EXPECT_NE(os.str().find("\"occupancy\""), std::string::npos);
    EXPECT_NE(os.str().find("\"hot_rows\""), std::string::npos);
    EXPECT_EQ(os.str().find("\"stalls\""), std::string::npos);
}

TEST(RunWarnings, FlightRingOverflowIsReported)
{
    if (!telemetry::kTraceCompiledIn)
        GTEST_SKIP() << "tracing compiled out";

    // A too-small flight ring must overflow, count the drops
    // exactly, and surface a warning that
    // round-trips into the JSON report — alongside the critical-path
    // section the recorder feeds.
    SystemConfig cfg = tracedConfig();
    cfg.telemetry.flightCapacity = 8;
    GpuSystem gpu(cfg);
    const RunStats rs = gpu.run(
        makeWorkload(WorkloadKind::kStreaming, tinyWorkload()));

    const telemetry::FlightRecorder *fr = gpu.telemetry().recorder();
    ASSERT_NE(fr, nullptr);
    EXPECT_EQ(fr->size(), 8u);
    EXPECT_GT(fr->dropped(), 0u);

    ASSERT_FALSE(rs.warnings.empty());
    bool found = false;
    for (const std::string &w : rs.warnings)
        found = found || w.find("flight ring overflowed") !=
                             std::string::npos;
    EXPECT_TRUE(found);

    std::ostringstream os;
    telemetry::writeRunReport(os, telemetry::RunManifest{},
                              gpu.config(), rs, gpu.statsRegistry(),
                              gpu.sampler(), nullptr, fr);
    std::string err;
    const auto doc = jsonParse(os.str(), &err);
    ASSERT_TRUE(doc.has_value()) << err;
    const JsonValue *warnings = doc->find("warnings");
    ASSERT_NE(warnings, nullptr);
    bool inReport = false;
    for (const JsonValue &w : warnings->asArray())
        inReport = inReport ||
                   (w.isString() &&
                    w.asString().find("flight ring overflowed") !=
                        std::string::npos);
    EXPECT_TRUE(inReport);
    const JsonValue *critical = doc->find("critical_path");
    ASSERT_NE(critical, nullptr);
    const JsonValue *dropped = critical->find("flight_dropped");
    ASSERT_NE(dropped, nullptr);
    EXPECT_GT(dropped->asNumber(), 0.0);
}

TEST(FlightRecorderOverhead, RecordingLeavesReportBytesUntouched)
{
    if (!telemetry::kTraceCompiledIn)
        GTEST_SKIP() << "tracing compiled out";

    // The tentpole timing-neutrality contract, strengthened to byte
    // identity: with the recorder running (big enough ring: no
    // overflow warning), every stat, cycle count, and histogram in
    // the report is byte-for-byte what the plain run produces. Only
    // the opt-in "critical_path" section may differ, so both reports
    // here are written without it.
    SystemConfig off = tracedConfig();
    off.telemetry.flightRecorderEnabled = false;
    off.telemetry.sampleInterval = 0;
    SystemConfig on = off;
    on.telemetry.flightRecorderEnabled = true;
    GpuSystem a(on);
    GpuSystem b(off);
    const auto trace =
        makeWorkload(WorkloadKind::kStreaming, tinyWorkload());
    RunStats ra = a.run(trace);
    RunStats rb = b.run(trace);

    ASSERT_NE(a.telemetry().recorder(), nullptr);
    EXPECT_GT(a.telemetry().recorder()->size(), 0u);
    EXPECT_EQ(a.telemetry().recorder()->dropped(), 0u);

    // Host wall-clock throughput is the one intentionally
    // non-deterministic report section; everything simulated must
    // already match (events executed included), so pin only the
    // wall-clock-derived rates before comparing bytes.
    EXPECT_EQ(ra.simThroughput.eventsExecuted,
              rb.simThroughput.eventsExecuted);
    ra.simThroughput = rb.simThroughput = SimThroughput{};

    std::ostringstream osa;
    std::ostringstream osb;
    telemetry::writeRunReport(osa, telemetry::RunManifest{}, a.config(),
                              ra, a.statsRegistry(), a.sampler());
    telemetry::writeRunReport(osb, telemetry::RunManifest{}, b.config(),
                              rb, b.statsRegistry(), b.sampler());
    EXPECT_EQ(osa.str(), osb.str());
}

TEST(FlightRecorderOverhead, RecorderOnDoesNotChangeTiming)
{
    if (!telemetry::kTraceCompiledIn)
        GTEST_SKIP() << "tracing compiled out";

    // Recording is observational: enabling the flight recorder must
    // not move a single simulated cycle or DRAM transaction.
    SystemConfig off = tracedConfig();
    off.telemetry.flightRecorderEnabled = false;
    off.telemetry.sampleInterval = 0;
    SystemConfig on = off;
    on.telemetry.flightRecorderEnabled = true;
    GpuSystem a(off);
    GpuSystem b(on);
    const auto trace =
        makeWorkload(WorkloadKind::kStreaming, tinyWorkload());
    const RunStats ra = a.run(trace);
    const RunStats rb = b.run(trace);
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.dramTotalTxns, rb.dramTotalTxns);
    EXPECT_EQ(ra.instructions, rb.instructions);
}

// --------------------------------------------------------------------
// Result tables as JSON artifacts
// --------------------------------------------------------------------

TEST(ResultTable, RenderJsonRoundTrips)
{
    ResultTable t("Figure 9: headline \"speedup\"");
    t.setHeader({"scheme", "ipc"});
    t.addRow({"none", "1.000"});
    t.addRow({"cachecraft", "0.973"});

    const std::string json = t.renderJson();
    std::string err;
    ASSERT_TRUE(jsonValidate(json, &err)) << err;
    EXPECT_NE(json.find("\\\"speedup\\\""), std::string::npos);
    EXPECT_NE(json.find("cachecraft"), std::string::npos);
    EXPECT_EQ(countOccurrences(json, "0.973"), 1u);
}

} // namespace
} // namespace cachecraft
