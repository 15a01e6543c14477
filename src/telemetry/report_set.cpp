#include "telemetry/report_set.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "telemetry/diff.hpp"

namespace fs = std::filesystem;

namespace cachecraft::telemetry {

namespace {

/** @p name ends with @p suffix. */
bool
endsWith(const std::string &name, std::string_view suffix)
{
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

double
numberAt(const JsonValue &obj, std::string_view key)
{
    const JsonValue *v = obj.find(key);
    return (v != nullptr && v->isNumber()) ? v->asNumber() : 0.0;
}

std::string
stringAt(const JsonValue &obj, std::string_view key)
{
    const JsonValue *v = obj.find(key);
    return (v != nullptr && v->isString()) ? v->asString()
                                           : std::string();
}

} // namespace

std::vector<std::string>
listJsonFilesRecursive(const std::string &dir)
{
    std::vector<std::string> names;
    const fs::path root(dir);
    std::error_code ec;
    for (fs::recursive_directory_iterator it(root, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (!it->is_regular_file() || it->path().extension() != ".json")
            continue;
        // generic_string: '/'-separated on every platform, so sorted
        // relative orderings agree between trees and machines.
        names.push_back(
            it->path().lexically_relative(root).generic_string());
    }
    std::sort(names.begin(), names.end());
    return names;
}

ReportSet
loadReportTree(const std::string &dir)
{
    ReportSet set;
    for (const std::string &relative : listJsonFilesRecursive(dir)) {
        const fs::path path = fs::path(dir) / relative;
        std::ifstream in(path);
        if (!in) {
            set.errors.push_back(relative + ": cannot read");
            continue;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        std::string error;
        auto doc = jsonParse(buf.str(), &error);
        if (!doc) {
            set.errors.push_back(relative + ": " + error);
            continue;
        }
        if (!checkSchemaVersion(*doc, relative, &error)) {
            set.errors.push_back(error);
            continue;
        }
        const std::string schema = stringAt(*doc, "schema");
        if (schema == "cachecraft.run_report/1") {
            set.runs.push_back({relative, std::move(*doc)});
        } else if (schema == "cachecraft.campaign_manifest/1") {
            set.campaignManifest = std::move(*doc);
        } else {
            set.others.push_back({relative, std::move(*doc)});
        }
    }
    return set;
}

std::optional<RunSummary>
summarizeRunReport(const JsonValue &doc, const std::string &path,
                   std::string *error)
{
    if (stringAt(doc, "schema") != "cachecraft.run_report/1") {
        if (error)
            *error = path + ": not a cachecraft.run_report/1 document";
        return std::nullopt;
    }
    const JsonValue *config = doc.find("config");
    const JsonValue *results = doc.find("results");
    if (config == nullptr || !config->isObject() || results == nullptr ||
        !results->isObject()) {
        if (error)
            *error = path + ": missing config/results sections";
        return std::nullopt;
    }

    RunSummary s;
    s.path = path;
    s.scheme = stringAt(*config, "scheme");
    s.configSummary = stringAt(*config, "summary");
    if (const JsonValue *manifest = doc.find("manifest"))
        s.workload = stringAt(*manifest, "workload");

    s.cycles = numberAt(*results, "cycles");
    s.ipc = numberAt(*results, "ipc");
    s.dramDataReads = numberAt(*results, "dram_data_reads");
    s.dramDataWrites = numberAt(*results, "dram_data_writes");
    s.dramEccReads = numberAt(*results, "dram_ecc_reads");
    s.dramEccWrites = numberAt(*results, "dram_ecc_writes");
    s.dramTotalTxns = numberAt(*results, "dram_total_txns");
    s.rowHitRate = numberAt(*results, "row_hit_rate");
    s.l2SectorHits = numberAt(*results, "l2_sector_hits");
    s.l2SectorMisses = numberAt(*results, "l2_sector_misses");
    s.mrcHitRate = numberAt(*results, "mrc_hit_rate");
    s.mrcCoverage = numberAt(*results, "mrc_coverage");

    if (const JsonValue *warnings = doc.find("warnings");
        warnings != nullptr && warnings->isArray()) {
        for (const JsonValue &w : warnings->asArray()) {
            if (w.isString())
                s.warnings.push_back(w.asString());
        }
    }

    if (const JsonValue *critical = doc.find("critical_path")) {
        s.metadataFraction = numberAt(*critical, "metadata_fraction");
        if (const JsonValue *segments = critical->find("segments");
            segments != nullptr && segments->isObject()) {
            for (const auto &[segment, cycles] : segments->asObject()) {
                if (cycles.isNumber())
                    s.criticalPathCycles.emplace_back(
                        segment, cycles.asNumber());
            }
        }
    }

    if (const JsonValue *epochs = doc.find("epochs");
        epochs != nullptr && epochs->isArray()) {
        for (const JsonValue &epoch : epochs->asArray()) {
            if (!epoch.isObject())
                continue;
            const JsonValue *deltas = epoch.find("deltas");
            if (deltas == nullptr || !deltas->isObject())
                continue;
            const double cycle_end = numberAt(epoch, "cycle_end");
            double insts = 0.0;
            double dram = 0.0;
            for (const auto &[name, delta] : deltas->asObject()) {
                if (!delta.isNumber())
                    continue;
                if (endsWith(name, ".insts"))
                    insts += delta.asNumber();
                else if (name.compare(0, 5, "dram.") == 0 &&
                         (endsWith(name, ".reads") ||
                          endsWith(name, ".writes")))
                    dram += delta.asNumber();
            }
            s.instructionEpochs.push_back({cycle_end, insts});
            s.dramEpochs.push_back({cycle_end, dram});
        }
    }

    if (const JsonValue *curves = doc.find("curves");
        curves != nullptr && curves->isObject()) {
        if (const JsonValue *kinds = curves->find("kinds");
            kinds != nullptr && kinds->isArray()) {
            for (const JsonValue &kind : kinds->asArray()) {
                if (!kind.isObject())
                    continue;
                KindCurveSummary k;
                k.kind = stringAt(kind, "kind");
                k.caches = numberAt(kind, "caches");
                k.accesses = numberAt(kind, "accesses");
                if (const JsonValue *curve = kind.find("curve");
                    curve != nullptr && curve->isArray()) {
                    for (const JsonValue &p : curve->asArray()) {
                        if (!p.isObject())
                            continue;
                        k.points.push_back(
                            {numberAt(p, "capacity_bytes"),
                             numberAt(p, "miss_ratio")});
                    }
                }
                s.kindCurves.push_back(std::move(k));
            }
        }
        // The heatmap panel shows one representative slice: the first
        // profiled MRC (report order is the deterministic attach
        // order, so every same-config run picks the same slice).
        if (const JsonValue *caches = curves->find("caches");
            caches != nullptr && caches->isArray()) {
            for (const JsonValue &cache : caches->asArray()) {
                if (!cache.isObject() ||
                    stringAt(cache, "kind") != "mrc")
                    continue;
                const JsonValue *heatmap = cache.find("heatmap");
                if (heatmap == nullptr || !heatmap->isObject())
                    continue;
                s.mrcHeatmap.cache = stringAt(cache, "name");
                s.mrcHeatmap.ways = numberAt(cache, "ways");
                s.mrcHeatmap.setsPerGroup =
                    numberAt(*heatmap, "sets_per_group");
                if (const JsonValue *occ = heatmap->find("occupancy");
                    occ != nullptr && occ->isArray()) {
                    for (const JsonValue &col : occ->asArray()) {
                        if (!col.isArray())
                            continue;
                        std::vector<double> column;
                        for (const JsonValue &v : col.asArray())
                            column.push_back(
                                v.isNumber() ? v.asNumber() : 0.0);
                        s.mrcHeatmap.occupancy.push_back(
                            std::move(column));
                    }
                }
                break;
            }
        }
    }
    return s;
}

} // namespace cachecraft::telemetry
