#include "telemetry/diff.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/log.hpp"

namespace cachecraft::telemetry {

double
DiffTolerances::forMetric(const std::string &metric) const
{
    double tol = defaultRel;
    std::size_t best = 0;
    for (const auto &[prefix, t] : perPrefix) {
        if (metric.compare(0, prefix.size(), prefix) == 0 &&
            prefix.size() >= best) {
            best = prefix.size();
            tol = t;
        }
    }
    return tol;
}

bool
DiffResult::regression() const
{
    if (!onlyBefore.empty() || !onlyAfter.empty())
        return true;
    return std::any_of(entries.begin(), entries.end(),
                       [](const DiffEntry &e) { return e.beyondTol; });
}

namespace {

void
flattenInto(const JsonValue &v, const std::string &path,
            std::vector<std::pair<std::string, double>> &out)
{
    switch (v.kind()) {
      case JsonValue::Kind::kNumber:
        out.emplace_back(path, v.asNumber());
        break;
      case JsonValue::Kind::kBool:
        out.emplace_back(path, v.asBool() ? 1.0 : 0.0);
        break;
      case JsonValue::Kind::kObject:
        for (const auto &[key, member] : v.asObject())
            flattenInto(member, path.empty() ? key : path + "." + key,
                        out);
        break;
      case JsonValue::Kind::kArray: {
        const auto &arr = v.asArray();
        for (std::size_t i = 0; i < arr.size(); ++i)
            flattenInto(arr[i], strCat(path, "[", i, "]"), out);
        break;
      }
      case JsonValue::Kind::kNull:
      case JsonValue::Kind::kString:
        break; // non-numeric leaves are not metrics
    }
}

} // namespace

const std::vector<std::string> &
defaultIgnorePrefixes()
{
    static const std::vector<std::string> kPrefixes = {"manifest."};
    return kPrefixes;
}

std::vector<std::pair<std::string, double>>
flattenNumeric(const JsonValue &doc,
               const std::vector<std::string> &ignore_prefixes)
{
    std::vector<std::pair<std::string, double>> flat;
    flattenInto(doc, "", flat);
    if (!ignore_prefixes.empty()) {
        std::erase_if(flat, [&ignore_prefixes](const auto &entry) {
            for (const std::string &prefix : ignore_prefixes) {
                if (entry.first.compare(0, prefix.size(), prefix) == 0)
                    return true;
            }
            return false;
        });
    }
    std::sort(flat.begin(), flat.end());
    return flat;
}

bool
checkSchemaVersion(const JsonValue &doc, const std::string &what,
                   std::string *error)
{
    const JsonValue *version = doc.find("schema_version");
    if (version == nullptr || !version->isNumber()) {
        if (error)
            *error = what + ": missing schema_version field "
                            "(artifact predates the versioned schema; "
                            "regenerate it with this build)";
        return false;
    }
    const auto found = static_cast<std::int64_t>(version->asNumber());
    if (found != kJsonSchemaVersion) {
        if (error)
            *error = strCat(what, ": schema_version ", found,
                            " does not match this build's ",
                            kJsonSchemaVersion,
                            "; regenerate the artifact");
        return false;
    }
    return true;
}

namespace {

/** True if @p doc is a perfbench result or an object of them (see
 *  checkDiffable). */
bool
isBenchResult(const JsonValue &doc)
{
    if (!doc.isObject() || doc.asObject().empty())
        return false;
    const JsonValue *metrics = doc.find("metrics");
    if (metrics == nullptr) {
        return std::all_of(doc.asObject().begin(), doc.asObject().end(),
                           [](const auto &member) {
                               return isBenchResult(member.second);
                           });
    }
    const JsonValue *correct = doc.find("correct");
    if (correct == nullptr || !correct->isBool() || !metrics->isObject())
        return false;
    return std::all_of(metrics->asObject().begin(),
                       metrics->asObject().end(), [](const auto &member) {
                           const JsonValue *value =
                               member.second.find("value");
                           return value != nullptr && value->isNumber();
                       });
}

} // namespace

bool
checkDiffable(const JsonValue &doc, const std::string &what,
              std::string *error)
{
    return isBenchResult(doc) || checkSchemaVersion(doc, what, error);
}

DiffResult
diffReports(const JsonValue &before, const JsonValue &after,
            const DiffTolerances &tol,
            const std::vector<std::string> &ignore_prefixes)
{
    const auto flat_a = flattenNumeric(before, ignore_prefixes);
    const auto flat_b = flattenNumeric(after, ignore_prefixes);

    DiffResult result;
    std::size_t ia = 0;
    std::size_t ib = 0;
    while (ia < flat_a.size() || ib < flat_b.size()) {
        if (ib == flat_b.size() ||
            (ia < flat_a.size() && flat_a[ia].first < flat_b[ib].first)) {
            result.onlyBefore.push_back(flat_a[ia++].first);
            continue;
        }
        if (ia == flat_a.size() || flat_b[ib].first < flat_a[ia].first) {
            result.onlyAfter.push_back(flat_b[ib++].first);
            continue;
        }
        DiffEntry e;
        e.metric = flat_a[ia].first;
        e.before = flat_a[ia].second;
        e.after = flat_b[ib].second;
        e.delta = e.after - e.before;
        if (e.before != 0.0)
            e.relDelta = e.delta / std::abs(e.before);
        else if (e.after != 0.0)
            e.relDelta = std::numeric_limits<double>::infinity();
        e.tol = tol.forMetric(e.metric);
        e.beyondTol = std::abs(e.relDelta) > e.tol;
        result.entries.push_back(std::move(e));
        ++ia;
        ++ib;
    }
    return result;
}

std::string
renderMarkdown(const DiffResult &result, bool changed_only)
{
    std::ostringstream os;
    os << "| metric | before | after | delta | rel | tol | ok |\n";
    os << "|---|---:|---:|---:|---:|---:|:-:|\n";
    std::size_t shown = 0;
    for (const DiffEntry &e : result.entries) {
        if (changed_only && e.delta == 0.0)
            continue;
        ++shown;
        os << "| " << e.metric << " | " << jsonNumber(e.before) << " | "
           << jsonNumber(e.after) << " | " << jsonNumber(e.delta)
           << " | "
           << (std::isfinite(e.relDelta) ? jsonNumber(e.relDelta)
                                         : std::string("inf"))
           << " | " << jsonNumber(e.tol) << " | "
           << (e.beyondTol ? "FAIL" : "ok") << " |\n";
    }
    if (shown == 0)
        os << "| (no changed metrics) | | | | | | |\n";
    for (const std::string &name : result.onlyBefore)
        os << "| " << name << " | (present) | (missing) | | | | FAIL |\n";
    for (const std::string &name : result.onlyAfter)
        os << "| " << name << " | (missing) | (present) | | | | FAIL |\n";
    os << "\n"
       << (result.regression() ? "**REGRESSION**" : "**OK**") << ": "
       << result.entries.size() << " metrics compared, " << shown
       << " changed, "
       << result.onlyBefore.size() + result.onlyAfter.size()
       << " unmatched\n";
    return os.str();
}

std::string
renderDiffJson(const DiffResult &result)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.key("schema").value("cachecraft.diff/1");
    w.key("schema_version").value(kJsonSchemaVersion);
    w.key("regression").value(result.regression());
    w.key("metrics").beginArray();
    for (const DiffEntry &e : result.entries) {
        w.beginObject();
        w.key("metric").value(e.metric);
        w.key("before").value(e.before);
        w.key("after").value(e.after);
        w.key("delta").value(e.delta);
        w.key("rel_delta").value(e.relDelta); // null when infinite
        w.key("tol").value(e.tol);
        w.key("beyond_tol").value(e.beyondTol);
        w.endObject();
    }
    w.endArray();
    w.key("only_before").beginArray();
    for (const std::string &name : result.onlyBefore)
        w.value(name);
    w.endArray();
    w.key("only_after").beginArray();
    for (const std::string &name : result.onlyAfter)
        w.value(name);
    w.endArray();
    w.endObject();
    os << '\n';
    return os.str();
}

} // namespace cachecraft::telemetry
