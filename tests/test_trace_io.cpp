/**
 * @file
 * Tests for the trace file format: round-trip fidelity for every
 * generated workload, hand-written traces, and parse-error reporting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>

#include "verify/sha256.hpp"
#include "workloads/trace_io.hpp"
#include "workloads/workloads.hpp"

namespace cachecraft {
namespace {

bool
tracesEqual(const KernelTrace &a, const KernelTrace &b)
{
    if (a.name != b.name || a.warps.size() != b.warps.size() ||
        a.regions.size() != b.regions.size())
        return false;
    for (std::size_t r = 0; r < a.regions.size(); ++r) {
        if (a.regions[r].base != b.regions[r].base ||
            a.regions[r].size != b.regions[r].size ||
            a.regions[r].tag != b.regions[r].tag)
            return false;
    }
    for (std::size_t w = 0; w < a.warps.size(); ++w) {
        if (a.warps[w].size() != b.warps[w].size())
            return false;
        for (std::size_t i = 0; i < a.warps[w].size(); ++i) {
            const WarpInst &x = a.warps[w][i];
            const WarpInst &y = b.warps[w][i];
            if (x.isMem != y.isMem || x.isWrite != y.isWrite ||
                x.computeCycles != y.computeCycles ||
                x.tagOverride != y.tagOverride ||
                !std::ranges::equal(x.lanes(), y.lanes()))
                return false;
        }
    }
    return true;
}

class TraceRoundTrip : public ::testing::TestWithParam<WorkloadKind>
{
};

TEST_P(TraceRoundTrip, SaveLoadPreservesEverything)
{
    WorkloadParams params;
    params.footprintBytes = 256 * 1024;
    params.numWarps = 4;
    params.memInstsPerWarp = 8;
    const KernelTrace original = makeWorkload(GetParam(), params);

    std::stringstream buffer;
    saveTrace(original, buffer);
    std::string error;
    const KernelTrace loaded = loadTrace(buffer, &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_TRUE(tracesEqual(original, loaded));
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, TraceRoundTrip, ::testing::ValuesIn(allWorkloads()),
    [](const auto &param_info) {
        return std::string(toString(param_info.param));
    });

/**
 * SHA-256 of each kernel's saved trace at a small size, taken before
 * the lane pool replaced per-instruction lane vectors: the compact
 * representation must not change a single dumped byte.
 */
class TraceDumpBytes : public ::testing::TestWithParam<WorkloadKind>
{
};

TEST_P(TraceDumpBytes, MatchPinnedDigest)
{
    static const std::map<std::string, std::string> kPinned = {
        {"streaming",
         "435372e996d73d8376e0ebc2bf7060118f1b9ea8d50bd0054c3580d5c849b496"},
        {"strided",
         "d669c421557a1ab5ae945e293fb84eca118d02d12899d4b42e2d4540a7b4e0b7"},
        {"stencil2d",
         "f4e7dc62655f504ea01d61db7405de3103db266da6d0099b962fa824972567bb"},
        {"gemm",
         "9c63950ddb7a8d28f0220ec43d29958ad1dde3ead3fa31c8dd0ec030d86a9d00"},
        {"transpose",
         "16fc4b865b746cccb790a10c8c5786cfe9652dd5db4c18c0598a6a4f85a0918f"},
        {"reduction",
         "5b47e4cd8038927e9b5b78ba335d4191047b8020f853927ccb60cd61bf0eac8c"},
        {"histogram",
         "e798e5f2db9e4d978e508eb20af3fca828a849c5c0f121847b40c46a39992226"},
        {"random",
         "d5d5c56ec0f18497117080ab07fbe033b4c691744ef07b35bf28e92bbc1812b6"},
        {"spmv",
         "027d8a44d3c1e1e858a9750138f4172285b11e781d8137f581c0c4c1cc83ce36"},
    };
    WorkloadParams params;
    params.footprintBytes = 256 * 1024;
    params.numWarps = 4;
    params.memInstsPerWarp = 8;
    std::ostringstream out;
    saveTrace(makeWorkload(GetParam(), params), out);
    EXPECT_EQ(verify::sha256Hex(out.str()),
              kPinned.at(toString(GetParam())));
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, TraceDumpBytes, ::testing::ValuesIn(allWorkloads()),
    [](const auto &param_info) {
        return std::string(toString(param_info.param));
    });

TEST(TraceIo, HandWrittenTraceParses)
{
    std::stringstream in(
        "# a comment\n"
        "trace v1\n"
        "name my kernel\n"
        "region 0x0 4096 42\n"
        "warp\n"
        "c 10\n"
        "ld 2 - 0x0 0x20 0x40\n"
        "st 0 17 0x80\n"
        "end\n");
    std::string error;
    const KernelTrace trace = loadTrace(in, &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_EQ(trace.name, "my kernel");
    ASSERT_EQ(trace.regions.size(), 1u);
    EXPECT_EQ(trace.regions[0].tag, 42);
    ASSERT_EQ(trace.warps.size(), 1u);
    ASSERT_EQ(trace.warps[0].size(), 3u);
    EXPECT_FALSE(trace.warps[0][0].isMem);
    EXPECT_EQ(trace.warps[0][0].computeCycles, 10u);
    EXPECT_TRUE(std::ranges::equal(trace.warps[0][1].lanes(),
                                   std::vector<Addr>{0x0, 0x20, 0x40}));
    EXPECT_EQ(trace.warps[0][1].tagOverride, -1);
    EXPECT_TRUE(trace.warps[0][2].isWrite);
    EXPECT_EQ(trace.warps[0][2].tagOverride, 17);
}

TEST(TraceIo, MissingHeaderIsError)
{
    std::stringstream in("name x\nend\n");
    std::string error;
    loadTrace(in, &error);
    EXPECT_NE(error.find("header"), std::string::npos);
}

TEST(TraceIo, MissingEndIsError)
{
    std::stringstream in("trace v1\nname x\n");
    std::string error;
    loadTrace(in, &error);
    EXPECT_NE(error.find("end"), std::string::npos);
}

TEST(TraceIo, InstructionBeforeWarpIsError)
{
    std::stringstream in("trace v1\nld 0 - 0x0\nend\n");
    std::string error;
    loadTrace(in, &error);
    EXPECT_NE(error.find("warp"), std::string::npos);
}

TEST(TraceIo, UnknownDirectiveIsError)
{
    std::stringstream in("trace v1\nbogus 1 2 3\nend\n");
    std::string error;
    loadTrace(in, &error);
    EXPECT_NE(error.find("bogus"), std::string::npos);
}

TEST(TraceIo, MalformedTagIsError)
{
    // Neither a non-number nor an out-of-range tag may escape as an
    // exception.
    for (const char *tag : {"abc", "256", "99999999999", "-3"}) {
        std::stringstream in(std::string("trace v1\nwarp\nld 0 ") + tag +
                             " 0x0\nend\n");
        std::string error;
        loadTrace(in, &error);
        EXPECT_NE(error.find("tag"), std::string::npos) << tag;
    }
}

TEST(TraceIo, TooManyLanesIsError)
{
    std::stringstream in;
    in << "trace v1\nwarp\nld 0 -";
    for (unsigned i = 0; i < kWarpLanes + 1; ++i)
        in << " 0x" << std::hex << i * 32;
    in << "\nend\n";
    std::string error;
    loadTrace(in, &error);
    EXPECT_NE(error.find("lanes"), std::string::npos);
}

TEST(TraceIo, FileRoundTrip)
{
    WorkloadParams params;
    params.footprintBytes = 64 * 1024;
    params.numWarps = 2;
    const KernelTrace original =
        makeWorkload(WorkloadKind::kStreaming, params);
    const std::string path = "/tmp/cachecraft_test_trace.txt";
    ASSERT_TRUE(saveTraceFile(original, path));
    std::string error;
    const KernelTrace loaded = loadTraceFile(path, &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_TRUE(tracesEqual(original, loaded));
}

TEST(TraceIo, MissingFileReportsError)
{
    std::string error;
    loadTraceFile("/nonexistent/path/x.trace", &error);
    EXPECT_FALSE(error.empty());
}

} // namespace
} // namespace cachecraft
