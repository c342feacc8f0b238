/**
 * @file
 * Per-replica metrics registry: named instruments backed by the
 * deterministic LogHistogram + fixed-window TimeSeries core, sampled
 * by ServingEngine at iteration boundaries and request lifecycle
 * events, merged across replicas in replica-index order (bit-identical
 * across worker-thread counts, like TraceSink), and exported as a
 * schema-v2 JSON artifact behind `--metrics <path>` plus a per-window
 * JSONL stream (`out.json` -> `out.windows.jsonl`).
 *
 * Two instrument kinds:
 *  - histogram: run-level LogHistogram plus per-window histogram
 *    deltas (windowed percentiles — the SLO monitor's and the
 *    telemetry health monitor's signal) plus window aggregates;
 *  - series: window aggregates only (count/sum/min/max per window),
 *    for per-iteration gauges and lifecycle event counts.
 *
 * Registration order is the export order; every replica registers the
 * same instruments in the same order, so the merge is a positionless
 * name-keyed fold that still produces byte-stable output.
 *
 * Counters are views, not a second store: a CounterView names one
 * statistic (last sample, sample count or sample sum) of one
 * instrument. The trace's counter track and ServingSummary::counters
 * both read the registry through such views.
 */
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram.hh"
#include "obs/timeseries.hh"

namespace step::obs {

struct MetricsConfig
{
    bool enabled = false;
    /// Fixed aggregation window width in cycles.
    dam::Cycle windowCycles = 4'000'000;
};

class MetricsRegistry
{
  public:
    using Handle = size_t;

    explicit MetricsRegistry(MetricsConfig cfg = {});

    /** Register (or look up) a histogram instrument. Idempotent by
     *  name; the kind must match the original registration. */
    Handle histogram(std::string_view name);

    /** Register (or look up) a window-aggregate-only instrument. */
    Handle series(std::string_view name);

    /** Record one sample at cycle @p at. */
    void record(Handle h, dam::Cycle at, uint64_t value);

    struct Instrument
    {
        std::string name;
        bool isHistogram = false;
        LogHistogram total; ///< run-level buckets (histogram kind only)
        TimeSeries series;
        uint64_t last = 0; ///< most recent sample (0 before any)

        Instrument(std::string n, bool hist, dam::Cycle window)
            : name(std::move(n)), isHistogram(hist),
              series(window, /*with_histograms=*/hist)
        {
        }
    };

    const MetricsConfig& config() const { return cfg_; }
    size_t size() const { return instruments_.size(); }
    const Instrument& at(size_t i) const { return instruments_[i]; }

    /** Lookup by name; nullptr when absent. */
    const Instrument* find(std::string_view name) const;

    /**
     * Fold @p o into this registry: instruments match by name (new
     * names append in @p o's registration order), histograms and
     * window series merge elementwise, and the last sample takes the
     * max (the gauge merge of ServingSummary::counters). Window widths
     * must match.
     */
    void mergeFrom(const MetricsRegistry& o);

  private:
    Handle ensure(std::string_view name, bool is_histogram);

    MetricsConfig cfg_;
    std::vector<Instrument> instruments_;
};

/** Final value of one counter, as snapshotted into ServingSummary. */
struct CounterSample
{
    std::string name;
    int64_t value = 0;
    bool monotonic = false;
};

/** The statistic a counter reads off its instrument. */
enum class CounterStat : uint8_t
{
    Last,  ///< gauge: the most recent sample
    Count, ///< monotonic: the number of samples
    Sum,   ///< monotonic: the sum of the samples
};

/** A named counter: one statistic of one registry instrument. */
struct CounterView
{
    std::string_view name;
    MetricsRegistry::Handle instrument = 0;
    CounterStat stat = CounterStat::Last;

    bool monotonic() const { return stat != CounterStat::Last; }
};

/** Current value of @p v over @p reg. */
int64_t counterValue(const MetricsRegistry& reg, const CounterView& v);

/** Current value of every view, in view order. */
std::vector<CounterSample> snapshotCounters(const MetricsRegistry& reg,
                                            std::span<const CounterView> views);

/**
 * Write the schema-v2 metrics artifact: one "replicas" entry per
 * registry in index order, plus a "merged" section folded in the same
 * order (computed here when @p merged is null). All values are
 * integers (cycles, counts); percentiles are bucket representatives.
 */
bool writeMetricsJson(std::ostream& os,
                      const std::vector<const MetricsRegistry*>& replicas,
                      const MetricsRegistry* merged = nullptr);

bool writeMetricsJsonFile(const std::string& path,
                          const std::vector<const MetricsRegistry*>& replicas,
                          const MetricsRegistry* merged = nullptr);

/**
 * Write one JSON object per non-empty (replica, instrument, window)
 * in (replica, instrument, window) order; merged rows use replica -1.
 */
bool
writeMetricsWindowsJsonl(std::ostream& os,
                         const std::vector<const MetricsRegistry*>& replicas,
                         const MetricsRegistry* merged = nullptr);

bool writeMetricsWindowsJsonlFile(
    const std::string& path,
    const std::vector<const MetricsRegistry*>& replicas,
    const MetricsRegistry* merged = nullptr);

/** Derive the window JSONL path from the artifact path:
 *  "out.json" -> "out.windows.jsonl". */
std::string metricsJsonlPath(const std::string& metrics_path);

/** Parsed `--metrics` / `--metrics-window` flags. */
struct MetricsCli
{
    std::string path; ///< empty = metrics not requested
    dam::Cycle windowCycles = 0; ///< 0 = keep the MetricsConfig default
    bool error = false;
    std::string errorMsg;

    bool enabled() const { return !path.empty() && !error; }

    MetricsConfig
    config() const
    {
        MetricsConfig c;
        c.enabled = enabled();
        if (windowCycles > 0)
            c.windowCycles = windowCycles;
        return c;
    }
};

/**
 * Scan argv for `--metrics <path>` (or `--metrics=<path>`) and
 * `--metrics-window <cycles>`. Unrelated flags are ignored — the sims
 * parse their own. A window without a path is an error, as is a
 * non-positive window.
 */
MetricsCli parseMetricsCli(int argc, char** argv);

} // namespace step::obs
