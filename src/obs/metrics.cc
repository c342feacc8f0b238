#include "obs/metrics.hh"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <ostream>

#include "obs/json.hh"
#include "support/error.hh"

namespace step::obs {

MetricsRegistry::MetricsRegistry(MetricsConfig cfg) : cfg_(cfg) {}

MetricsRegistry::Handle
MetricsRegistry::ensure(std::string_view name, bool is_histogram)
{
    for (size_t i = 0; i < instruments_.size(); ++i) {
        if (instruments_[i].name == name) {
            if (instruments_[i].isHistogram != is_histogram)
                throw step::FatalError(
                    "metrics instrument '" + std::string(name) +
                    "' re-registered with a different kind");
            return i;
        }
    }
    instruments_.emplace_back(std::string(name), is_histogram,
                              cfg_.windowCycles);
    return instruments_.size() - 1;
}

MetricsRegistry::Handle
MetricsRegistry::histogram(std::string_view name)
{
    return ensure(name, /*is_histogram=*/true);
}

MetricsRegistry::Handle
MetricsRegistry::series(std::string_view name)
{
    return ensure(name, /*is_histogram=*/false);
}

void
MetricsRegistry::record(Handle h, dam::Cycle at, uint64_t value)
{
    Instrument& ins = instruments_[h];
    if (ins.isHistogram)
        ins.total.record(value);
    ins.series.record(at, value);
    ins.last = value;
}

const MetricsRegistry::Instrument*
MetricsRegistry::find(std::string_view name) const
{
    for (const Instrument& ins : instruments_)
        if (ins.name == name)
            return &ins;
    return nullptr;
}

void
MetricsRegistry::mergeFrom(const MetricsRegistry& o)
{
    for (size_t i = 0; i < o.instruments_.size(); ++i) {
        const Instrument& src = o.instruments_[i];
        const Handle h = ensure(src.name, src.isHistogram);
        instruments_[h].total.merge(src.total);
        instruments_[h].series.merge(src.series);
        instruments_[h].last = std::max(instruments_[h].last, src.last);
    }
}

int64_t
counterValue(const MetricsRegistry& reg, const CounterView& v)
{
    const MetricsRegistry::Instrument& ins = reg.at(v.instrument);
    switch (v.stat) {
      case CounterStat::Last:
        return static_cast<int64_t>(ins.last);
      case CounterStat::Count:
        return static_cast<int64_t>(ins.series.total().count);
      case CounterStat::Sum:
        return static_cast<int64_t>(ins.series.total().sum);
    }
    return 0;
}

std::vector<CounterSample>
snapshotCounters(const MetricsRegistry& reg,
                 std::span<const CounterView> views)
{
    std::vector<CounterSample> out;
    out.reserve(views.size());
    for (const CounterView& v : views)
        out.push_back({std::string(v.name), counterValue(reg, v),
                       v.monotonic()});
    return out;
}

namespace {

void
appendWindowAgg(std::string& buf, const WindowAgg& agg)
{
    buf += "\"count\":";
    buf += std::to_string(agg.count);
    buf += ",\"sum\":";
    buf += std::to_string(agg.sum);
    buf += ",\"min\":";
    buf += std::to_string(agg.min);
    buf += ",\"max\":";
    buf += std::to_string(agg.max);
}

void
appendPercentiles(std::string& buf, const LogHistogram& h)
{
    buf += ",\"p50\":";
    buf += std::to_string(h.percentile(50.0));
    buf += ",\"p95\":";
    buf += std::to_string(h.percentile(95.0));
    buf += ",\"p99\":";
    buf += std::to_string(h.percentile(99.0));
}

void
appendInstrumentJson(std::string& buf, const MetricsRegistry::Instrument& ins,
                     dam::Cycle window_cycles)
{
    buf += "{\"name\":\"";
    appendJsonEscaped(buf, ins.name);
    buf += "\",\"type\":\"";
    buf += ins.isHistogram ? "histogram" : "series";
    buf += "\",";
    appendWindowAgg(buf, ins.series.total());
    if (ins.isHistogram) {
        appendPercentiles(buf, ins.total);
        buf += ",\"buckets\":[";
        bool first = true;
        const std::vector<uint64_t>& counts = ins.total.buckets();
        for (size_t i = 0; i < counts.size(); ++i) {
            if (counts[i] == 0)
                continue;
            if (!first)
                buf += ',';
            first = false;
            buf += '[';
            buf += std::to_string(LogHistogram::bucketLower(i));
            buf += ',';
            buf += std::to_string(counts[i]);
            buf += ']';
        }
        buf += ']';
    }
    buf += ",\"windows\":[";
    bool first = true;
    ins.series.forEachWindow([&](size_t w, const WindowAgg& agg) {
        if (!first)
            buf += ',';
        first = false;
        buf += "{\"window\":";
        buf += std::to_string(w);
        buf += ",\"start\":";
        buf += std::to_string(uint64_t(w) * window_cycles);
        buf += ',';
        appendWindowAgg(buf, agg);
        if (const LogHistogram* wh = ins.series.windowHistogram(w))
            appendPercentiles(buf, *wh);
        buf += '}';
    });
    buf += "]}";
}

void
appendRegistryJson(std::string& buf, const MetricsRegistry& reg)
{
    buf += "\"instruments\":[";
    for (size_t i = 0; i < reg.size(); ++i) {
        if (i)
            buf += ',';
        appendInstrumentJson(buf, reg.at(i), reg.config().windowCycles);
    }
    buf += ']';
}

/** Fold all replica registries in index order (the deterministic
 *  cluster-merge convention). */
MetricsRegistry
foldReplicas(const std::vector<const MetricsRegistry*>& replicas)
{
    MetricsConfig cfg;
    if (!replicas.empty())
        cfg = replicas.front()->config();
    MetricsRegistry merged(cfg);
    for (const MetricsRegistry* r : replicas)
        merged.mergeFrom(*r);
    return merged;
}

} // namespace

bool
writeMetricsJson(std::ostream& os,
                 const std::vector<const MetricsRegistry*>& replicas,
                 const MetricsRegistry* merged)
{
    MetricsRegistry fold{MetricsConfig{}};
    if (merged == nullptr) {
        fold = foldReplicas(replicas);
        merged = &fold;
    }
    std::string buf;
    buf.reserve(1 << 16);
    buf += "{\n  \"schema_version\": 2,\n  \"kind\": \"step-metrics\",\n";
    buf += "  \"window_cycles\": ";
    buf += std::to_string(merged->config().windowCycles);
    buf += ",\n  \"replicas\": [\n";
    for (size_t r = 0; r < replicas.size(); ++r) {
        buf += "    {\"replica\":";
        buf += std::to_string(r);
        buf += ',';
        appendRegistryJson(buf, *replicas[r]);
        buf += r + 1 < replicas.size() ? "},\n" : "}\n";
    }
    buf += "  ],\n  \"merged\": {";
    appendRegistryJson(buf, *merged);
    buf += "}\n}\n";
    os << buf;
    return os.good();
}

bool
writeMetricsJsonFile(const std::string& path,
                     const std::vector<const MetricsRegistry*>& replicas,
                     const MetricsRegistry* merged)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        return false;
    return writeMetricsJson(os, replicas, merged);
}

namespace {

void
appendWindowJsonl(std::string& buf, int64_t replica,
                  const MetricsRegistry::Instrument& ins,
                  dam::Cycle window_cycles)
{
    ins.series.forEachWindow([&](size_t w, const WindowAgg& agg) {
        buf += "{\"replica\":";
        buf += std::to_string(replica);
        buf += ",\"instrument\":\"";
        appendJsonEscaped(buf, ins.name);
        buf += "\",\"window\":";
        buf += std::to_string(w);
        buf += ",\"start\":";
        buf += std::to_string(uint64_t(w) * window_cycles);
        buf += ',';
        appendWindowAgg(buf, agg);
        if (const LogHistogram* wh = ins.series.windowHistogram(w))
            appendPercentiles(buf, *wh);
        buf += "}\n";
    });
}

} // namespace

bool
writeMetricsWindowsJsonl(std::ostream& os,
                         const std::vector<const MetricsRegistry*>& replicas,
                         const MetricsRegistry* merged)
{
    MetricsRegistry fold{MetricsConfig{}};
    if (merged == nullptr) {
        fold = foldReplicas(replicas);
        merged = &fold;
    }
    std::string buf;
    buf.reserve(1 << 16);
    for (size_t r = 0; r < replicas.size(); ++r)
        for (size_t i = 0; i < replicas[r]->size(); ++i)
            appendWindowJsonl(buf, int64_t(r), replicas[r]->at(i),
                              replicas[r]->config().windowCycles);
    for (size_t i = 0; i < merged->size(); ++i)
        appendWindowJsonl(buf, -1, merged->at(i),
                          merged->config().windowCycles);
    os << buf;
    return os.good();
}

bool
writeMetricsWindowsJsonlFile(
    const std::string& path,
    const std::vector<const MetricsRegistry*>& replicas,
    const MetricsRegistry* merged)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        return false;
    return writeMetricsWindowsJsonl(os, replicas, merged);
}

std::string
metricsJsonlPath(const std::string& metrics_path)
{
    std::string stem = metrics_path;
    const std::string suffix = ".json";
    if (stem.size() > suffix.size() &&
        stem.compare(stem.size() - suffix.size(), suffix.size(), suffix) ==
            0)
        stem.resize(stem.size() - suffix.size());
    return stem + ".windows.jsonl";
}

MetricsCli
parseMetricsCli(int argc, char** argv)
{
    MetricsCli cli;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--metrics") {
            if (i + 1 >= argc) {
                cli.error = true;
                cli.errorMsg = "--metrics requires a path";
                return cli;
            }
            cli.path = argv[++i];
        } else if (a.rfind("--metrics=", 0) == 0) {
            cli.path = a.substr(10);
        } else if (a == "--metrics-window" ||
                   a.rfind("--metrics-window=", 0) == 0) {
            std::string v;
            if (a == "--metrics-window") {
                if (i + 1 >= argc) {
                    cli.error = true;
                    cli.errorMsg = "--metrics-window requires a value";
                    return cli;
                }
                v = argv[++i];
            } else {
                v = a.substr(17);
            }
            const long long parsed = std::atoll(v.c_str());
            if (parsed <= 0) {
                cli.error = true;
                cli.errorMsg = "--metrics-window must be a positive "
                               "cycle count, got '" +
                               v + "'";
                return cli;
            }
            cli.windowCycles = dam::Cycle(parsed);
        }
    }
    if (cli.path.empty() && cli.windowCycles > 0) {
        cli.error = true;
        cli.errorMsg = "--metrics-window given without --metrics <path>";
    }
    return cli;
}

} // namespace step::obs
