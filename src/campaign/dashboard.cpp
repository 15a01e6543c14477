#include "campaign/dashboard.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

#include "telemetry/diff.hpp"
#include "telemetry/report.hpp"

namespace cachecraft::campaign {

namespace {

using telemetry::LoadedReport;
using telemetry::ReportSet;
using telemetry::RunSummary;

/** Fixed scheme ordering: palette slots are assigned by entity, so a
 *  tree missing a scheme never repaints the survivors. */
constexpr const char *kSchemeOrder[] = {"no-ecc", "inline-naive",
                                        "ecc-cache", "cachecraft"};

constexpr std::size_t kPaletteSlots = 8;

/** Fixed-pattern number formatting so output is byte-stable. */
std::string
fmt(double v, int prec)
{
    if (!std::isfinite(v))
        return "n/a";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", prec, v);
    return buf;
}

/** Integral counts print without a fractional part. */
std::string
fmtCount(double v)
{
    if (!std::isfinite(v))
        return "n/a";
    if (v == std::floor(v) && std::abs(v) < 1e15) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.0f", v);
        return buf;
    }
    return fmt(v, 2);
}

std::string
fmtPct(double rate)
{
    return fmt(rate * 100.0, 1) + "%";
}

/** "reports/p000_gemm_no-ecc.json" -> "p000_gemm_no-ecc". */
std::string
baseName(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    std::string name =
        slash == std::string::npos ? path : path.substr(slash + 1);
    if (name.size() > 5 && name.compare(name.size() - 5, 5, ".json") == 0)
        name.resize(name.size() - 5);
    return name;
}

std::size_t
schemeSlot(const std::string &scheme)
{
    for (std::size_t i = 0; i < std::size(kSchemeOrder); ++i) {
        if (scheme == kSchemeOrder[i])
            return i;
    }
    return std::size(kSchemeOrder); // unknown schemes share a slot
}

/** CSS var name of categorical slot @p i (0-based, folded past 8). */
std::string
slotVar(std::size_t i)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "var(--s%zu)",
                  std::min(i, kPaletteSlots - 1) + 1);
    return buf;
}

double
numberAt(const JsonValue &obj, std::string_view key)
{
    const auto *v = obj.find(key);
    return (v != nullptr && v->isNumber()) ? v->asNumber() : 0.0;
}

std::string
stringAt(const JsonValue &obj, std::string_view key)
{
    const auto *v = obj.find(key);
    return (v != nullptr && v->isString()) ? v->asString()
                                           : std::string();
}

/**
 * Horizontal bar with a 4px-rounded data end and a square baseline
 * end, per the mark spec. Falls back to a plain rect when too short.
 */
std::string
barPath(double x, double y, double w, double h, double r)
{
    char buf[256];
    if (w <= 2 * r) {
        std::snprintf(buf, sizeof buf,
                      "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" "
                      "height=\"%.1f\"",
                      x, y, std::max(w, 0.5), h);
        return buf;
    }
    std::snprintf(buf, sizeof buf,
                  "<path d=\"M%.1f %.1f h%.1f a%.1f %.1f 0 0 1 "
                  "%.1f %.1f v%.1f a%.1f %.1f 0 0 1 -%.1f %.1f "
                  "h-%.1f Z\"",
                  x, y, w - r, r, r, r, r, h - 2 * r, r, r, r, r,
                  w - r);
    return buf;
}

/** One summarized run plus its display label. */
struct Row
{
    RunSummary s;
    std::string label;
};

/** Summarize every run report in sorted-path order. */
std::vector<Row>
collectRows(const ReportSet &set, std::vector<std::string> &errors)
{
    std::vector<Row> rows;
    for (const LoadedReport &run : set.runs) {
        std::string error;
        auto s = telemetry::summarizeRunReport(run.doc, run.path, &error);
        if (!s) {
            errors.push_back(error);
            continue;
        }
        rows.push_back({std::move(*s), baseName(run.path)});
    }
    return rows;
}

/** Sorted unique workload names of @p rows. */
std::vector<std::string>
workloadNames(const std::vector<Row> &rows)
{
    std::vector<std::string> names;
    for (const Row &row : rows)
        names.push_back(row.s.workload);
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
    return names;
}

void
renderLegend(std::ostream &os,
             const std::vector<std::pair<std::string, std::size_t>> &keys)
{
    if (keys.size() < 2)
        return; // a single series needs no legend box
    os << "<div class=\"legend\">";
    for (const auto &[name, slot] : keys) {
        os << "<span class=\"key\"><span class=\"swatch\" style=\""
              "background:"
           << slotVar(slot) << "\"></span>" << htmlEscape(name)
           << "</span>";
    }
    os << "</div>\n";
}

/**
 * Headline chart: per-workload grouped bars of speedup over the same
 * workload's no-ecc run (cycles_no-ecc / cycles_scheme). Workloads
 * without a no-ecc run fall back to normalized raw cycles.
 */
void
renderSpeedupChart(std::ostream &os, const std::vector<Row> &rows)
{
    const std::vector<std::string> workloads = workloadNames(rows);
    if (workloads.empty())
        return;

    struct Bar
    {
        std::string workload;
        std::string scheme;
        double speedup = 0.0;
        double cycles = 0.0;
        bool relative = false; //!< true when normalized to no-ecc
    };
    std::vector<Bar> bars;
    std::vector<std::pair<std::string, std::size_t>> legend;
    for (const std::string &workload : workloads) {
        double base_cycles = 0.0;
        for (const Row &row : rows) {
            if (row.s.workload == workload && row.s.scheme == "no-ecc")
                base_cycles = row.s.cycles;
        }
        for (const char *scheme : kSchemeOrder) {
            for (const Row &row : rows) {
                if (row.s.workload != workload ||
                    row.s.scheme != scheme || row.s.cycles <= 0.0)
                    continue;
                Bar bar;
                bar.workload = workload;
                bar.scheme = scheme;
                bar.cycles = row.s.cycles;
                bar.relative = base_cycles > 0.0;
                bar.speedup = bar.relative
                                  ? base_cycles / row.s.cycles
                                  : row.s.cycles;
                bars.push_back(std::move(bar));
                const std::size_t slot = schemeSlot(scheme);
                if (std::none_of(legend.begin(), legend.end(),
                                 [&](const auto &k) {
                                     return k.second == slot;
                                 }))
                    legend.emplace_back(scheme, slot);
            }
        }
    }
    if (bars.empty())
        return;

    double max_value = 0.0;
    for (const Bar &bar : bars)
        max_value = std::max(max_value, bar.speedup);
    if (max_value <= 0.0)
        max_value = 1.0;

    const double gutter = 150.0;
    const double plot_w = 520.0;
    const double bar_h = 14.0;
    const double bar_gap = 2.0;
    const double group_gap = 14.0;
    const double top = 6.0;

    // Group heights: bars per workload vary when runs are missing.
    std::map<std::string, int> per_group;
    for (const Bar &bar : bars)
        ++per_group[bar.workload];
    double height = top + 4.0;
    for (const std::string &workload : workloads) {
        if (per_group.count(workload))
            height += per_group[workload] * (bar_h + bar_gap) +
                      group_gap;
    }

    os << "<h2>Headline speedup</h2>\n"
       << "<p class=\"sub\">Speedup over the same workload's no-ecc "
          "run (higher is better); workloads without a no-ecc run "
          "show raw cycles.</p>\n";
    renderLegend(os, legend);
    os << "<svg class=\"chart\" viewBox=\"0 0 "
       << fmt(gutter + plot_w + 70.0, 0) << " " << fmt(height, 0)
       << "\" role=\"img\" aria-label=\"Speedup per workload and "
          "scheme\">\n";

    // Gridlines at whole speedup multiples, hairline and recessive.
    // When no no-ecc baseline exists the bars hold raw cycle counts,
    // so stride up to a dozen lines instead of one per multiple.
    const int grid_step = std::max(
        1, static_cast<int>(max_value / 12.0 + 0.5));
    for (int grid = grid_step; grid <= static_cast<int>(max_value);
         grid += grid_step) {
        const double x = gutter + plot_w * grid / max_value;
        os << "<line x1=\"" << fmt(x, 1) << "\" y1=\"" << fmt(top, 1)
           << "\" x2=\"" << fmt(x, 1) << "\" y2=\""
           << fmt(height - 4.0, 1)
           << "\" class=\"grid\"/><text x=\"" << fmt(x, 1)
           << "\" y=\"" << fmt(height - 6.0, 1)
           << "\" class=\"tick\" text-anchor=\"middle\">" << grid
           << "&#215;</text>\n";
    }

    double y = top;
    std::string current_group;
    for (const Bar &bar : bars) {
        if (bar.workload != current_group) {
            if (!current_group.empty())
                y += group_gap;
            current_group = bar.workload;
            os << "<text x=\"" << fmt(gutter - 10.0, 1) << "\" y=\""
               << fmt(y + 11.0, 1)
               << "\" class=\"rowlabel\" text-anchor=\"end\">"
               << htmlEscape(bar.workload) << "</text>\n";
        }
        const double w = plot_w * bar.speedup / max_value;
        os << barPath(gutter, y, w, bar_h, 4.0) << " fill=\""
           << slotVar(schemeSlot(bar.scheme)) << "\"><title>"
           << htmlEscape(bar.workload) << " / "
           << htmlEscape(bar.scheme) << ": "
           << (bar.relative ? fmt(bar.speedup, 3) + "&#215; speedup, "
                            : std::string())
           << fmtCount(bar.cycles) << " cycles</title>"
           << (w <= 2 * 4.0 ? "</rect>" : "</path>") << "\n";
        os << "<text x=\"" << fmt(gutter + w + 6.0, 1) << "\" y=\""
           << fmt(y + bar_h - 3.0, 1) << "\" class=\"value\">"
           << (bar.relative ? fmt(bar.speedup, 2) + "&#215;"
                            : fmtCount(bar.cycles))
           << "</text>\n";
        y += bar_h + bar_gap;
    }
    os << "</svg>\n";
}

/** Fixed critical-path segment ordering (matches the analyzer's
 *  PathSegment priority; metadata segments grouped for the legend). */
constexpr const char *kPathSegmentOrder[] = {
    "data_fetch",  "data_bank_row", "data_queue",
    "meta_fetch",  "meta_bank_row", "meta_queue",
    "mrc_wait",    "mshr_wait",     "l2_service",
    "xbar_backpressure", "xbar_transit", "l1_service", "other"};

/**
 * Stacked critical-path bars, one per run whose flight recorder was
 * on: each segment is the share of end-to-end request latency the
 * critical-path analyzer attributed to that blocking edge. The
 * per-run metadata fraction (meta_* + mrc_wait) is the headline the
 * paper's reconstruction-cost argument rests on.
 */
void
renderCriticalPathChart(std::ostream &os, const std::vector<Row> &rows)
{
    std::vector<const Row *> with_paths;
    for (const Row &row : rows) {
        if (!row.s.criticalPathCycles.empty())
            with_paths.push_back(&row);
    }
    if (with_paths.empty())
        return;

    std::vector<std::string> segments(std::begin(kPathSegmentOrder),
                                      std::end(kPathSegmentOrder));
    std::vector<std::string> extra;
    for (const Row *row : with_paths) {
        for (const auto &[segment, cycles] : row->s.criticalPathCycles) {
            if (std::find(segments.begin(), segments.end(), segment) ==
                    segments.end() &&
                std::find(extra.begin(), extra.end(), segment) ==
                    extra.end())
                extra.push_back(segment);
        }
    }
    std::sort(extra.begin(), extra.end());
    segments.insert(segments.end(), extra.begin(), extra.end());

    auto cyclesFor = [](const Row &row, const std::string &segment) {
        for (const auto &[name, cycles] : row.s.criticalPathCycles) {
            if (name == segment)
                return cycles;
        }
        return 0.0;
    };

    double max_total = 0.0;
    for (const Row *row : with_paths) {
        double total = 0.0;
        for (const auto &[segment, cycles] : row->s.criticalPathCycles)
            total += cycles;
        max_total = std::max(max_total, total);
    }
    if (max_total <= 0.0)
        return;

    std::vector<std::pair<std::string, std::size_t>> legend;
    for (std::size_t i = 0; i < segments.size(); ++i) {
        for (const Row *row : with_paths) {
            if (cyclesFor(*row, segments[i]) > 0.0) {
                legend.emplace_back(segments[i], i);
                break;
            }
        }
    }

    const double gutter = 220.0;
    const double plot_w = 480.0;
    const double bar_h = 16.0;
    const double row_gap = 8.0;
    const double top = 6.0;
    const double height =
        top + with_paths.size() * (bar_h + row_gap) + 4.0;

    os << "<h2>Critical path</h2>\n"
       << "<p class=\"sub\">End-to-end request latency attributed to "
          "one blocking edge per cycle (flight-recorder runs only); "
          "the trailing percentage is the metadata-reconstruction "
          "share.</p>\n";
    renderLegend(os, legend);
    os << "<svg class=\"chart\" viewBox=\"0 0 "
       << fmt(gutter + plot_w + 110.0, 0) << " " << fmt(height, 0)
       << "\" role=\"img\" aria-label=\"Critical-path cycles by "
          "segment\">\n";

    double y = top;
    for (const Row *row : with_paths) {
        os << "<text x=\"" << fmt(gutter - 10.0, 1) << "\" y=\""
           << fmt(y + 12.0, 1)
           << "\" class=\"rowlabel\" text-anchor=\"end\">"
           << htmlEscape(row->label) << "</text>\n";
        double total = 0.0;
        for (const auto &[segment, cycles] : row->s.criticalPathCycles)
            total += cycles;
        std::vector<std::pair<std::size_t, double>> parts;
        for (std::size_t i = 0; i < segments.size(); ++i) {
            const double cycles = cyclesFor(*row, segments[i]);
            if (cycles > 0.0)
                parts.emplace_back(i, cycles);
        }
        double x = gutter;
        for (std::size_t k = 0; k < parts.size(); ++k) {
            const auto &[si, cycles] = parts[k];
            const double w =
                std::max(plot_w * cycles / max_total - 2.0, 1.0);
            const bool last = k + 1 == parts.size();
            std::ostringstream seg;
            if (last) {
                seg << barPath(x, y, w, bar_h, 4.0);
            } else {
                seg << "<rect x=\"" << fmt(x, 1) << "\" y=\""
                    << fmt(y, 1) << "\" width=\"" << fmt(w, 1)
                    << "\" height=\"" << fmt(bar_h, 1) << "\"";
            }
            os << seg.str() << " fill=\"" << slotVar(si) << "\"><title>"
               << htmlEscape(row->label) << " &#183; "
               << htmlEscape(segments[si]) << ": " << fmtCount(cycles)
               << " cycles (" << fmtPct(cycles / total) << ")</title>"
               << (last && w > 8.0 ? "</path>" : "</rect>") << "\n";
            x += w + 2.0;
        }
        os << "<text x=\"" << fmt(x + 4.0, 1) << "\" y=\""
           << fmt(y + bar_h - 3.0, 1) << "\" class=\"value\">"
           << fmtPct(row->s.metadataFraction) << " meta</text>\n";
        y += bar_h + row_gap;
    }
    os << "</svg>\n";
}

/** "16 KiB" / "512 B" style capacity tick labels. */
std::string
fmtCapacity(double bytes)
{
    const auto b = static_cast<std::uint64_t>(std::llround(bytes));
    char buf[32];
    if (b >= 1024 * 1024 && b % (1024 * 1024) == 0)
        std::snprintf(buf, sizeof buf, "%llu MiB",
                      static_cast<unsigned long long>(b >> 20));
    else if (b >= 1024 && b % 1024 == 0)
        std::snprintf(buf, sizeof buf, "%llu KiB",
                      static_cast<unsigned long long>(b >> 10));
    else
        std::snprintf(buf, sizeof buf, "%llu B",
                      static_cast<unsigned long long>(b));
    return buf;
}

/**
 * MRC miss-ratio curves: one polyline per reuse-profiled run, all on
 * one log-capacity plot, so the capacity sensitivity of the metadata
 * cache can be compared across schemes without a sweep. Runs whose
 * reuse profiler was off simply contribute no line.
 */
void
renderCurveChart(std::ostream &os, const std::vector<Row> &rows)
{
    struct Series
    {
        const Row *row;
        const telemetry::KindCurveSummary *curve;
    };
    std::vector<Series> series;
    for (const Row &row : rows) {
        for (const telemetry::KindCurveSummary &k : row.s.kindCurves) {
            if (k.kind == "mrc" && k.points.size() >= 2 &&
                k.accesses > 0.0)
                series.push_back({&row, &k});
        }
    }
    if (series.empty())
        return;

    double min_cap = 0.0;
    double max_cap = 0.0;
    for (const Series &s : series) {
        for (const telemetry::CurveSample &p : s.curve->points) {
            if (p.capacityBytes <= 0.0)
                continue;
            if (min_cap == 0.0 || p.capacityBytes < min_cap)
                min_cap = p.capacityBytes;
            max_cap = std::max(max_cap, p.capacityBytes);
        }
    }
    if (max_cap <= 0.0)
        return;

    const double gutter = 56.0;
    const double plot_w = 520.0;
    const double plot_h = 180.0;
    const double top = 6.0;
    const double height = top + plot_h + 34.0;
    const double lmin = std::log2(min_cap);
    const double lmax = std::log2(std::max(max_cap, min_cap * 2.0));
    auto xOf = [&](double cap) {
        return gutter + plot_w * (std::log2(cap) - lmin) / (lmax - lmin);
    };
    auto yOf = [&](double ratio) { return top + plot_h * (1.0 - ratio); };

    std::vector<std::pair<std::string, std::size_t>> legend;
    for (std::size_t i = 0; i < series.size(); ++i)
        legend.emplace_back(series[i].row->label, i);

    os << "<h2>MRC miss-ratio curves</h2>\n"
       << "<p class=\"sub\">Exact single-pass reuse-distance curves: "
          "the miss ratio the run's MRC access stream would see at "
          "every capacity, from one profiled run "
          "(reuse-profile-enabled runs only).</p>\n";
    renderLegend(os, legend);
    os << "<svg class=\"chart\" viewBox=\"0 0 "
       << fmt(gutter + plot_w + 20.0, 0) << " " << fmt(height, 0)
       << "\" role=\"img\" aria-label=\"MRC miss ratio versus "
          "capacity\">\n";

    for (int pct = 0; pct <= 100; pct += 25) {
        const double y = yOf(pct / 100.0);
        os << "<line x1=\"" << fmt(gutter, 1) << "\" y1=\"" << fmt(y, 1)
           << "\" x2=\"" << fmt(gutter + plot_w, 1) << "\" y2=\""
           << fmt(y, 1) << "\" class=\"grid\"/><text x=\""
           << fmt(gutter - 6.0, 1) << "\" y=\"" << fmt(y + 4.0, 1)
           << "\" class=\"tick\" text-anchor=\"end\">" << pct
           << "%</text>\n";
    }
    for (double lc = std::ceil(lmin); lc <= lmax; lc += 1.0) {
        const double x = gutter + plot_w * (lc - lmin) / (lmax - lmin);
        os << "<line x1=\"" << fmt(x, 1) << "\" y1=\"" << fmt(top, 1)
           << "\" x2=\"" << fmt(x, 1) << "\" y2=\""
           << fmt(top + plot_h, 1) << "\" class=\"grid\"/><text x=\""
           << fmt(x, 1) << "\" y=\"" << fmt(top + plot_h + 14.0, 1)
           << "\" class=\"tick\" text-anchor=\"middle\">"
           << fmtCapacity(std::exp2(lc)) << "</text>\n";
    }

    for (std::size_t i = 0; i < series.size(); ++i) {
        const Series &s = series[i];
        os << "<polyline fill=\"none\" stroke=\"" << slotVar(i)
           << "\" stroke-width=\"2\" stroke-linejoin=\"round\" "
              "points=\"";
        bool first = true;
        for (const telemetry::CurveSample &p : s.curve->points) {
            if (p.capacityBytes <= 0.0)
                continue;
            os << (first ? "" : " ") << fmt(xOf(p.capacityBytes), 1)
               << "," << fmt(yOf(std::clamp(p.missRatio, 0.0, 1.0)), 1);
            first = false;
        }
        os << "\"><title>" << htmlEscape(s.row->label) << ": "
           << fmtCount(s.curve->accesses) << " MRC accesses over "
           << fmtCount(s.curve->caches) << " slices</title>"
           << "</polyline>\n";
    }
    os << "</svg>\n";
}

/**
 * Set-residency heatmaps: occupancy of the first profiled MRC slice
 * over time (columns = access-count epochs, rows = set groups), one
 * small multiple per reuse-profiled run. Hot rows expose set-index
 * skew that the aggregate hit rate hides. Downsampled to at most
 * 32x32 cells so dashboards stay small.
 */
void
renderHeatmapChart(std::ostream &os, const std::vector<Row> &rows)
{
    std::vector<const Row *> with_heatmaps;
    for (const Row &row : rows) {
        if (!row.s.mrcHeatmap.occupancy.empty() &&
            row.s.mrcHeatmap.setsPerGroup > 0.0 &&
            row.s.mrcHeatmap.ways > 0.0)
            with_heatmaps.push_back(&row);
    }
    if (with_heatmaps.empty())
        return;

    constexpr std::size_t kMaxRendered = 6;
    constexpr std::size_t kMaxCells = 32;
    os << "<h2>MRC set residency</h2>\n"
       << "<p class=\"sub\">Occupancy of the first MRC slice over "
          "time: columns are access epochs, rows are set groups, "
          "darker means fuller. Uniform columns mean the metadata "
          "working set spreads across sets; hot rows mean index "
          "skew.</p>\n";

    std::size_t rendered = 0;
    for (const Row *row : with_heatmaps) {
        if (rendered == kMaxRendered) {
            os << "<p class=\"muted\">&#8230; "
               << with_heatmaps.size() - rendered
               << " more reuse-profiled run"
               << (with_heatmaps.size() - rendered == 1 ? "" : "s")
               << " elided.</p>\n";
            break;
        }
        ++rendered;
        const telemetry::HeatmapSummary &hm = row->s.mrcHeatmap;
        const std::size_t epochs = hm.occupancy.size();
        std::size_t groups = 0;
        for (const std::vector<double> &col : hm.occupancy)
            groups = std::max(groups, col.size());
        if (groups == 0)
            continue;
        // Downsample by averaging fill fractions over merged cells.
        const std::size_t ew = (epochs + kMaxCells - 1) / kMaxCells;
        const std::size_t gw = (groups + kMaxCells - 1) / kMaxCells;
        const std::size_t cols = (epochs + ew - 1) / ew;
        const std::size_t cell_rows = (groups + gw - 1) / gw;
        const double full = hm.setsPerGroup * hm.ways;

        const double cell = 10.0;
        const double width = 2.0 + cols * cell;
        const double height = 2.0 + cell_rows * cell;
        os << "<p class=\"sub\">" << htmlEscape(row->label) << " &#183; "
           << htmlEscape(hm.cache) << "</p>\n"
           << "<svg class=\"heatmap\" viewBox=\"0 0 " << fmt(width, 0)
           << " " << fmt(height, 0)
           << "\" role=\"img\" aria-label=\""
           << htmlEscape(row->label)
           << " MRC set occupancy over time\">\n";
        for (std::size_t gc = 0; gc < cell_rows; ++gc) {
            for (std::size_t ec = 0; ec < cols; ++ec) {
                double sum = 0.0;
                std::size_t n = 0;
                for (std::size_t e = ec * ew;
                     e < std::min(epochs, (ec + 1) * ew); ++e) {
                    const std::vector<double> &col = hm.occupancy[e];
                    for (std::size_t g = gc * gw;
                         g < std::min(groups, (gc + 1) * gw); ++g) {
                        sum += g < col.size() ? col[g] : 0.0;
                        ++n;
                    }
                }
                const double frac =
                    n > 0 ? std::clamp(sum / (double(n) * full), 0.0,
                                       1.0)
                          : 0.0;
                os << "<rect x=\"" << fmt(1.0 + ec * cell, 1)
                   << "\" y=\"" << fmt(1.0 + gc * cell, 1)
                   << "\" width=\"" << fmt(cell, 1) << "\" height=\""
                   << fmt(cell, 1)
                   << "\" fill=\"var(--s1)\" fill-opacity=\""
                   << fmt(frac, 2) << "\"/>\n";
            }
        }
        os << "</svg>\n";
    }
}

/** 140x30 sparkline polyline of one epoch series. */
std::string
sparkline(const std::vector<telemetry::EpochSample> &series,
          const std::string &color, const std::string &name)
{
    if (series.size() < 2)
        return "<span class=\"muted\">&#8212;</span>";
    const double w = 140.0;
    const double h = 30.0;
    double max_cycle = 0.0;
    double max_value = 0.0;
    for (const auto &sample : series) {
        max_cycle = std::max(max_cycle, sample.cycleEnd);
        max_value = std::max(max_value, sample.value);
    }
    if (max_cycle <= 0.0)
        return "<span class=\"muted\">&#8212;</span>";
    if (max_value <= 0.0)
        max_value = 1.0;
    std::ostringstream os;
    os << "<svg class=\"spark\" viewBox=\"0 0 " << fmt(w, 0) << " "
       << fmt(h, 0) << "\" role=\"img\" aria-label=\""
       << htmlEscape(name) << "\"><polyline fill=\"none\" stroke=\""
       << color
       << "\" stroke-width=\"2\" stroke-linejoin=\"round\" "
          "stroke-linecap=\"round\" points=\"";
    for (std::size_t i = 0; i < series.size(); ++i) {
        const double x = 2.0 + (w - 4.0) * series[i].cycleEnd /
                                   max_cycle;
        const double y =
            h - 3.0 - (h - 6.0) * series[i].value / max_value;
        os << (i ? " " : "") << fmt(x, 1) << "," << fmt(y, 1);
    }
    os << "\"><title>" << htmlEscape(name) << " peak "
       << fmtCount(max_value) << "/epoch</title></polyline></svg>";
    return os.str();
}

/** Run table: identity, cycles/IPC, and epoch sparklines. */
void
renderRunTable(std::ostream &os, const std::vector<Row> &rows)
{
    if (rows.empty())
        return;
    os << "<h2>Runs</h2>\n<table>\n<thead><tr><th>run</th>"
          "<th>workload</th><th>scheme</th><th class=\"num\">cycles"
          "</th><th class=\"num\">IPC</th><th>insts/epoch</th>"
          "<th>DRAM txns/epoch</th></tr></thead>\n<tbody>\n";
    for (const Row &row : rows) {
        os << "<tr><td>" << htmlEscape(row.label) << "</td><td>"
           << htmlEscape(row.s.workload) << "</td><td>"
           << htmlEscape(row.s.scheme) << "</td><td class=\"num\">"
           << fmtCount(row.s.cycles) << "</td><td class=\"num\">"
           << fmt(row.s.ipc, 3) << "</td><td>"
           << sparkline(row.s.instructionEpochs, "var(--s1)",
                        row.label + " instructions per epoch")
           << "</td><td>"
           << sparkline(row.s.dramEpochs, "var(--s2)",
                        row.label + " DRAM transactions per epoch")
           << "</td></tr>\n";
    }
    os << "</tbody>\n</table>\n";
}

/** MRC hit-rate and DRAM traffic tables. */
void
renderTrafficTables(std::ostream &os, const std::vector<Row> &rows)
{
    if (rows.empty())
        return;
    os << "<h2>MRC &amp; caches</h2>\n<table>\n<thead><tr>"
          "<th>run</th><th class=\"num\">MRC hit rate</th>"
          "<th class=\"num\">MRC coverage</th>"
          "<th class=\"num\">L2 sector hits</th>"
          "<th class=\"num\">L2 sector misses</th>"
          "<th class=\"num\">row hit rate</th></tr></thead>\n<tbody>\n";
    for (const Row &row : rows) {
        os << "<tr><td>" << htmlEscape(row.label)
           << "</td><td class=\"num\">" << fmtPct(row.s.mrcHitRate)
           << "</td><td class=\"num\">" << fmtPct(row.s.mrcCoverage)
           << "</td><td class=\"num\">" << fmtCount(row.s.l2SectorHits)
           << "</td><td class=\"num\">"
           << fmtCount(row.s.l2SectorMisses)
           << "</td><td class=\"num\">" << fmtPct(row.s.rowHitRate)
           << "</td></tr>\n";
    }
    os << "</tbody>\n</table>\n";

    os << "<h2>DRAM traffic</h2>\n<table>\n<thead><tr>"
          "<th>run</th><th class=\"num\">data reads</th>"
          "<th class=\"num\">data writes</th>"
          "<th class=\"num\">ECC reads</th>"
          "<th class=\"num\">ECC writes</th>"
          "<th class=\"num\">total txns</th>"
          "<th class=\"num\">ECC overhead</th></tr></thead>\n<tbody>\n";
    for (const Row &row : rows) {
        const double data =
            row.s.dramDataReads + row.s.dramDataWrites;
        const double ecc = row.s.dramEccReads + row.s.dramEccWrites;
        os << "<tr><td>" << htmlEscape(row.label)
           << "</td><td class=\"num\">" << fmtCount(row.s.dramDataReads)
           << "</td><td class=\"num\">"
           << fmtCount(row.s.dramDataWrites)
           << "</td><td class=\"num\">" << fmtCount(row.s.dramEccReads)
           << "</td><td class=\"num\">" << fmtCount(row.s.dramEccWrites)
           << "</td><td class=\"num\">" << fmtCount(row.s.dramTotalTxns)
           << "</td><td class=\"num\">"
           << (data > 0.0 ? fmtPct(ecc / data) : std::string("n/a"))
           << "</td></tr>\n";
    }
    os << "</tbody>\n</table>\n";
}

/**
 * Host-cost panel: where the *simulator's own* wall clock and memory
 * went, from the campaign manifest's provenance section. Rendered
 * only for campaign trees whose sweep recorded per-point host stats;
 * standalone report sets skip it silently.
 */
void
renderHostCostPanel(std::ostream &os, const ReportSet &set)
{
    if (!set.campaignManifest)
        return;
    const JsonValue *manifest = set.campaignManifest->find("manifest");
    if (manifest == nullptr || !manifest->isObject())
        return;
    const JsonValue *walls = manifest->find("point_wall_seconds");
    if (walls == nullptr || !walls->isObject())
        return;

    struct PointCost
    {
        std::string label;
        double wallSeconds = 0.0;
        double eventsPerSec = 0.0;
        double arenaPeakSlots = 0.0;
    };
    const JsonValue *evs = manifest->find("point_events_per_sec");
    const JsonValue *peaks = manifest->find("point_arena_peak_slots");
    std::vector<PointCost> points;
    double max_wall = 0.0;
    for (const auto &[label, wall] : walls->asObject()) {
        PointCost p;
        p.label = label;
        p.wallSeconds = wall.isNumber() ? wall.asNumber() : 0.0;
        if (evs != nullptr && evs->isObject())
            p.eventsPerSec = numberAt(*evs, label);
        if (peaks != nullptr && peaks->isObject())
            p.arenaPeakSlots = numberAt(*peaks, label);
        max_wall = std::max(max_wall, p.wallSeconds);
        points.push_back(std::move(p));
    }
    if (points.empty() || max_wall <= 0.0)
        return;
    std::sort(points.begin(), points.end(),
              [](const PointCost &a, const PointCost &b) {
                  return a.wallSeconds != b.wallSeconds
                             ? a.wallSeconds > b.wallSeconds
                             : a.label < b.label;
              });

    os << "<h2>Host cost</h2>\n<p class=\"sub\">Simulator wall clock "
          "and memory per campaign point (host-side telemetry from "
          "the sweep, not simulated time). Total wall "
       << fmt(numberAt(*manifest, "wall_seconds"), 2) << "s across "
       << fmtCount(numberAt(*manifest, "jobs")) << " job(s)";
    const double rss = numberAt(*manifest, "rss_kib");
    const double peak_rss = numberAt(*manifest, "peak_rss_kib");
    if (peak_rss > 0.0) {
        os << "; RSS " << fmt(rss / 1024.0, 1) << " MiB, peak "
           << fmt(peak_rss / 1024.0, 1) << " MiB";
    }
    os << ".</p>\n";

    os << "<table>\n<thead><tr><th>point</th>"
          "<th class=\"num\">wall s</th><th>share</th>"
          "<th class=\"num\">host Mev/s</th>"
          "<th class=\"num\">arena peak slots</th></tr></thead>\n"
          "<tbody>\n";
    constexpr double kBarWidth = 220.0;
    for (const PointCost &p : points) {
        const double w = kBarWidth * p.wallSeconds / max_wall;
        os << "<tr><td>" << htmlEscape(p.label)
           << "</td><td class=\"num\">" << fmt(p.wallSeconds, 3)
           << "</td><td><svg width=\"" << fmtCount(kBarWidth)
           << "\" height=\"12\" role=\"img\" aria-label=\""
           << htmlEscape(p.label) << " host wall share\">"
           << barPath(0.0, 1.0, w, 10.0, 4.0) << " fill=\"var(--s6)\">"
           << "<title>" << htmlEscape(p.label) << " "
           << fmt(p.wallSeconds, 3) << "s</title>"
           << (w <= 8.0 ? "</rect>" : "</path>") << "</svg></td>"
           << "<td class=\"num\">"
           << (p.eventsPerSec > 0.0 ? fmt(p.eventsPerSec / 1e6, 2)
                                    : std::string("n/a"))
           << "</td><td class=\"num\">" << fmtCount(p.arenaPeakSlots)
           << "</td></tr>\n";
    }
    os << "</tbody>\n</table>\n";
}

/**
 * Warnings panel: campaign-manifest failures first (critical), then
 * per-run RunStats warnings (warning), then tree load errors
 * (serious). Icon + label always pair with the color.
 */
void
renderWarnings(std::ostream &os, const ReportSet &set,
               const std::vector<Row> &rows,
               const std::vector<std::string> &summarize_errors)
{
    struct Item
    {
        const char *cls;
        const char *icon;
        std::string text;
    };
    std::vector<Item> items;

    if (set.campaignManifest) {
        if (const auto *points = set.campaignManifest->find("points");
            points != nullptr && points->isArray()) {
            for (const auto &point : points->asArray()) {
                if (!point.isObject())
                    continue;
                const std::string status = stringAt(point, "status");
                if (status == "ok" || status.empty())
                    continue;
                items.push_back(
                    {"critical", "&#10007;",
                     stringAt(point, "label") + " [" + status + "] " +
                         stringAt(point, "error")});
            }
        }
    }
    for (const Row &row : rows) {
        for (const std::string &warning : row.s.warnings)
            items.push_back(
                {"warning", "&#9888;", row.label + ": " + warning});
    }
    for (const std::string &error : set.errors)
        items.push_back({"serious", "&#9888;", error});
    for (const std::string &error : summarize_errors)
        items.push_back({"serious", "&#9888;", error});

    os << "<h2>Warnings</h2>\n";
    if (items.empty()) {
        os << "<p class=\"muted\">No warnings: every report loaded "
              "clean and no run raised a model warning.</p>\n";
        return;
    }
    os << "<ul class=\"warnings\">\n";
    for (const Item &item : items) {
        os << "<li><span class=\"badge " << item.cls << "\">"
           << item.icon << "</span> " << htmlEscape(item.text)
           << "</li>\n";
    }
    os << "</ul>\n";
}

/** Baseline comparison via telemetry::diffReports per shared path. */
void
renderBaselineDiff(std::ostream &os, const ReportSet &set,
                   const DashboardOptions &options)
{
    if (options.baseline == nullptr)
        return;
    std::map<std::string, const JsonValue *> base_docs;
    for (const LoadedReport &run : options.baseline->runs)
        base_docs[run.path] = &run.doc;
    for (const LoadedReport &other : options.baseline->others)
        base_docs[other.path] = &other.doc;

    os << "<h2>Delta vs baseline</h2>\n<p class=\"sub\">Baseline: "
       << htmlEscape(options.baselineLabel)
       << ". Metrics under the default ignore prefixes (manifest "
          "provenance) are excluded.</p>\n";

    std::size_t compared = 0;
    std::size_t changed = 0;
    std::size_t structural = 0;
    std::ostringstream body;
    constexpr std::size_t kMaxRows = 200;
    std::size_t emitted = 0;
    std::size_t suppressed = 0;

    auto diffOne = [&](const LoadedReport &current) {
        auto it = base_docs.find(current.path);
        if (it == base_docs.end()) {
            ++structural;
            if (emitted < kMaxRows) {
                body << "<tr><td>" << htmlEscape(current.path)
                     << "</td><td colspan=\"4\">only in this tree"
                        "</td></tr>\n";
                ++emitted;
            } else {
                ++suppressed;
            }
            return;
        }
        ++compared;
        const telemetry::DiffResult result = telemetry::diffReports(
            *it->second, current.doc, telemetry::DiffTolerances{});
        base_docs.erase(it);
        for (const telemetry::DiffEntry &entry : result.entries) {
            if (entry.delta == 0.0)
                continue;
            ++changed;
            if (emitted >= kMaxRows) {
                ++suppressed;
                continue;
            }
            ++emitted;
            body << "<tr><td>" << htmlEscape(current.path) << " : "
                 << htmlEscape(entry.metric)
                 << "</td><td class=\"num\">" << fmtCount(entry.before)
                 << "</td><td class=\"num\">" << fmtCount(entry.after)
                 << "</td><td class=\"num\">" << fmtCount(entry.delta)
                 << "</td><td class=\"num\">"
                 << (std::isfinite(entry.relDelta)
                         ? fmtPct(entry.relDelta)
                         : std::string("new"))
                 << "</td></tr>\n";
        }
        structural += result.onlyBefore.size() + result.onlyAfter.size();
        for (const std::string &name : result.onlyBefore) {
            if (emitted < kMaxRows) {
                body << "<tr><td>" << htmlEscape(current.path) << " : "
                     << htmlEscape(name)
                     << "</td><td colspan=\"4\">only in baseline"
                        "</td></tr>\n";
                ++emitted;
            } else {
                ++suppressed;
            }
        }
        for (const std::string &name : result.onlyAfter) {
            if (emitted < kMaxRows) {
                body << "<tr><td>" << htmlEscape(current.path) << " : "
                     << htmlEscape(name)
                     << "</td><td colspan=\"4\">only in this tree"
                        "</td></tr>\n";
                ++emitted;
            } else {
                ++suppressed;
            }
        }
    };
    for (const LoadedReport &run : set.runs)
        diffOne(run);
    for (const LoadedReport &other : set.others)
        diffOne(other);
    for (const auto &[path, doc] : base_docs) {
        ++structural;
        if (emitted < kMaxRows) {
            body << "<tr><td>" << htmlEscape(path)
                 << "</td><td colspan=\"4\">only in baseline</td>"
                    "</tr>\n";
            ++emitted;
        } else {
            ++suppressed;
        }
    }

    os << "<p>" << compared << " files compared, " << changed
       << " changed metrics, " << structural
       << " structural differences.</p>\n";
    if (emitted == 0) {
        os << "<p class=\"muted\">No metric differs from the "
              "baseline.</p>\n";
        return;
    }
    os << "<table>\n<thead><tr><th>file : metric</th>"
          "<th class=\"num\">baseline</th><th class=\"num\">current"
          "</th><th class=\"num\">delta</th><th class=\"num\">rel"
          "</th></tr></thead>\n<tbody>\n"
       << body.str() << "</tbody>\n</table>\n";
    if (suppressed > 0)
        os << "<p class=\"muted\">&#8230; " << suppressed
           << " more rows elided; use cachecraft_diff for the full "
              "table.</p>\n";
}

/** Palette and layout tokens (see the dataviz reference palette). */
constexpr const char *kStyle = R"css(
:root {
  color-scheme: light;
  --surface: #fcfcfb; --page: #f9f9f7;
  --ink: #0b0b0b; --ink2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --s1: #2a78d6; --s2: #eb6834; --s3: #1baf7a; --s4: #eda100;
  --s5: #e87ba4; --s6: #008300; --s7: #4a3aa7; --s8: #e34948;
  --warning: #fab219; --serious: #ec835a; --critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface: #1a1a19; --page: #0d0d0d;
    --ink: #ffffff; --ink2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --baseline: #383835;
    --border: rgba(255,255,255,0.10);
    --s1: #3987e5; --s2: #d95926; --s3: #199e70; --s4: #c98500;
    --s5: #d55181; --s6: #008300; --s7: #9085e9; --s8: #e66767;
  }
}
body { background: var(--page); color: var(--ink); margin: 0;
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif; }
main { max-width: 880px; margin: 0 auto; padding: 24px 16px 48px;
  background: var(--surface); }
h1 { font-size: 22px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 28px 0 4px; }
.sub, .muted { color: var(--muted); margin: 2px 0 8px; }
.meta { color: var(--ink2); margin: 0 0 12px; }
.tiles { display: flex; gap: 12px; flex-wrap: wrap; margin: 12px 0; }
.tile { border: 1px solid var(--border); border-radius: 6px;
  padding: 8px 14px; min-width: 120px; }
.tile .label { color: var(--ink2); font-size: 12px; }
.tile .big { font-size: 30px; font-weight: 600; }
.legend { display: flex; gap: 14px; flex-wrap: wrap;
  color: var(--ink2); margin: 4px 0 8px; }
.key { display: inline-flex; align-items: center; gap: 5px; }
.swatch { width: 10px; height: 10px; border-radius: 2px;
  display: inline-block; }
svg.chart { width: 100%; height: auto; display: block; }
svg.chart text { font: 11px system-ui, sans-serif; fill: var(--ink2); }
svg.chart .rowlabel { fill: var(--ink); }
svg.chart .value { fill: var(--ink2);
  font-variant-numeric: tabular-nums; }
svg.chart .tick { fill: var(--muted); }
svg.chart .grid { stroke: var(--grid); stroke-width: 1; }
svg.spark { width: 140px; height: 30px; vertical-align: middle; }
svg.heatmap { max-width: 420px; height: auto; display: block;
  background: var(--page); border: 1px solid var(--border);
  border-radius: 4px; }
table { border-collapse: collapse; width: 100%; margin: 8px 0; }
th, td { text-align: left; padding: 4px 10px 4px 0;
  border-bottom: 1px solid var(--grid); }
th { color: var(--ink2); font-weight: 600; }
td.num, th.num { text-align: right;
  font-variant-numeric: tabular-nums; }
ul.warnings { list-style: none; padding: 0; }
ul.warnings li { padding: 3px 0; }
.badge { font-weight: 700; }
.badge.warning { color: var(--warning); }
.badge.serious { color: var(--serious); }
.badge.critical { color: var(--critical); }
footer { color: var(--muted); margin-top: 32px; font-size: 12px; }
)css";

} // namespace

std::string
htmlEscape(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '&':
            out += "&amp;";
            break;
          case '<':
            out += "&lt;";
            break;
          case '>':
            out += "&gt;";
            break;
          case '"':
            out += "&quot;";
            break;
          case '\'':
            out += "&#39;";
            break;
          default:
            out += c;
        }
    }
    return out;
}

std::string
renderDashboard(const ReportSet &reports, const DashboardOptions &options)
{
    std::vector<std::string> summarize_errors;
    const std::vector<Row> rows =
        collectRows(reports, summarize_errors);

    std::ostringstream os;
    os << "<!doctype html>\n<html lang=\"en\">\n<head>\n"
          "<meta charset=\"utf-8\">\n"
          "<meta name=\"viewport\" content=\"width=device-width, "
          "initial-scale=1\">\n<title>"
       << htmlEscape(options.title) << "</title>\n<style>" << kStyle
       << "</style>\n</head>\n<body>\n<main>\n";

    os << "<h1>" << htmlEscape(options.title) << "</h1>\n";
    os << "<p class=\"meta\">";
    if (reports.campaignManifest) {
        os << "Campaign <strong>"
           << htmlEscape(stringAt(*reports.campaignManifest, "name"))
           << "</strong> (spec "
           << htmlEscape(
                  stringAt(*reports.campaignManifest, "spec_hash"))
           << ") &#183; ";
    }
    os << rows.size() << " run report" << (rows.size() == 1 ? "" : "s");
    if (!reports.others.empty())
        os << " &#183; " << reports.others.size()
           << " other artifact"
           << (reports.others.size() == 1 ? "" : "s");
    os << "</p>\n";

    // Stat tiles: run count, failures, geomean cachecraft speedup.
    std::size_t failed_points = 0;
    if (reports.campaignManifest) {
        failed_points += static_cast<std::size_t>(numberAt(
            *reports.campaignManifest, "failed_points"));
        failed_points += static_cast<std::size_t>(numberAt(
            *reports.campaignManifest, "timeout_points"));
    }
    double log_sum = 0.0;
    std::size_t speedups = 0;
    for (const std::string &workload : workloadNames(rows)) {
        double base_cycles = 0.0;
        double cc_cycles = 0.0;
        for (const Row &row : rows) {
            if (row.s.workload != workload)
                continue;
            if (row.s.scheme == "no-ecc")
                base_cycles = row.s.cycles;
            else if (row.s.scheme == "cachecraft")
                cc_cycles = row.s.cycles;
        }
        if (base_cycles > 0.0 && cc_cycles > 0.0) {
            log_sum += std::log(base_cycles / cc_cycles);
            ++speedups;
        }
    }
    os << "<div class=\"tiles\">\n";
    if (speedups > 0) {
        os << "<div class=\"tile\"><div class=\"label\">cachecraft "
              "geomean speedup vs no-ecc</div><div class=\"big\">"
           << fmt(std::exp(log_sum / speedups), 2)
           << "&#215;</div></div>\n";
    }
    os << "<div class=\"tile\"><div class=\"label\">runs</div>"
          "<div class=\"big\">"
       << rows.size() << "</div></div>\n";
    if (reports.campaignManifest) {
        os << "<div class=\"tile\"><div class=\"label\">failed "
              "points</div><div class=\"big\">"
           << failed_points << "</div></div>\n";
    }
    os << "</div>\n";

    renderSpeedupChart(os, rows);
    renderCriticalPathChart(os, rows);
    renderCurveChart(os, rows);
    renderHeatmapChart(os, rows);
    renderRunTable(os, rows);
    renderTrafficTables(os, rows);
    renderHostCostPanel(os, reports);
    renderWarnings(os, reports, rows, summarize_errors);
    renderBaselineDiff(os, reports, options);

    os << "<footer>Generated by cachecraft_dashboard (build "
       << htmlEscape(telemetry::buildVersion())
       << "). Single self-contained file: no scripts, no network "
          "assets.</footer>\n</main>\n</body>\n</html>\n";
    return os.str();
}

} // namespace cachecraft::campaign
