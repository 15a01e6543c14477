#include "workloads/trace_io.hpp"

#include <fstream>
#include <sstream>
#include <vector>

#include "common/log.hpp"
#include "common/parse_number.hpp"

namespace cachecraft {

void
saveTrace(const KernelTrace &trace, std::ostream &out)
{
    out << "trace v1\n";
    out << "name " << trace.name << "\n";
    for (const TaggedRegion &region : trace.regions) {
        out << "region 0x" << std::hex << region.base << std::dec << " "
            << region.size << " " << unsigned(region.tag) << "\n";
    }
    for (const auto &warp : trace.warps) {
        out << "warp\n";
        for (const WarpInst &inst : warp) {
            if (!inst.isMem) {
                out << "c " << inst.computeCycles << "\n";
                continue;
            }
            out << (inst.isWrite ? "st " : "ld ") << inst.computeCycles
                << " ";
            if (inst.tagOverride >= 0)
                out << inst.tagOverride;
            else
                out << "-";
            out << std::hex;
            for (const Addr lane : inst.lanes())
                out << " 0x" << lane;
            out << std::dec << "\n";
        }
    }
    out << "end\n";
}

KernelTrace
loadTrace(std::istream &in, std::string *error)
{
    KernelTrace trace;
    auto fail = [&](const std::string &msg, std::size_t line_no) {
        if (error)
            *error = strCat("trace parse error at line ", line_no, ": ",
                            msg);
        return KernelTrace{};
    };
    if (error)
        error->clear();

    std::string line;
    std::vector<Addr> lanes; // one memory instruction's, reused
    std::size_t line_no = 0;
    bool saw_header = false;
    bool saw_end = false;

    while (std::getline(in, line)) {
        ++line_no;
        // Strip comments and blank lines.
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream ls(line);
        std::string op;
        if (!(ls >> op))
            continue;

        if (!saw_header) {
            std::string version;
            ls >> version;
            if (op != "trace" || version != "v1")
                return fail("expected 'trace v1' header", line_no);
            saw_header = true;
            continue;
        }
        if (op == "name") {
            std::string rest;
            std::getline(ls, rest);
            const auto start = rest.find_first_not_of(' ');
            trace.name =
                start == std::string::npos ? "" : rest.substr(start);
        } else if (op == "region") {
            TaggedRegion region;
            unsigned tag = 0;
            if (!(ls >> std::hex >> region.base >> std::dec >>
                  region.size >> tag))
                return fail("malformed region", line_no);
            region.tag = static_cast<ecc::MemTag>(tag);
            trace.regions.push_back(region);
        } else if (op == "warp") {
            trace.warps.emplace_back();
        } else if (op == "c") {
            if (trace.warps.empty())
                return fail("instruction before any 'warp'", line_no);
            Cycle cycles = 0;
            if (!(ls >> cycles))
                return fail("malformed compute inst", line_no);
            trace.warps.back().push_back(WarpInst::compute(cycles));
        } else if (op == "ld" || op == "st") {
            if (trace.warps.empty())
                return fail("instruction before any 'warp'", line_no);
            Cycle compute = 0;
            std::int16_t tag_override = -1;
            std::string tag_tok;
            if (!(ls >> compute >> tag_tok))
                return fail("malformed memory inst", line_no);
            if (tag_tok != "-") {
                std::string why;
                const auto tag = parseUnsigned(tag_tok, 255, &why);
                if (!tag)
                    return fail("tag " + why, line_no);
                tag_override = static_cast<std::int16_t>(*tag);
            }
            lanes.clear();
            Addr addr = 0;
            while (ls >> std::hex >> addr)
                lanes.push_back(addr);
            if (lanes.empty())
                return fail("memory inst without lanes", line_no);
            if (lanes.size() > kWarpLanes)
                return fail("more lanes than warp width", line_no);
            WarpInst inst = trace.memInst(lanes, op == "st", compute);
            inst.tagOverride = tag_override;
            trace.warps.back().push_back(inst);
        } else if (op == "end") {
            saw_end = true;
            break;
        } else {
            return fail("unknown directive '" + op + "'", line_no);
        }
    }
    if (!saw_header)
        return fail("empty input", line_no);
    if (!saw_end)
        return fail("missing 'end'", line_no);
    return trace;
}

bool
saveTraceFile(const KernelTrace &trace, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    saveTrace(trace, out);
    return static_cast<bool>(out);
}

KernelTrace
loadTraceFile(const std::string &path, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        if (error)
            *error = "cannot open " + path;
        return {};
    }
    return loadTrace(in, error);
}

} // namespace cachecraft
