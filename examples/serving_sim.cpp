/**
 * @file
 * Serving-runtime demo: a Poisson workload with bursty on/off
 * modulation served by the continuous-batching engine, once under
 * a static prefill/decode bandwidth split and once under queue-depth-
 * driven reallocation. Prints TTFT/TPOT p50/p99, throughput, SLO
 * goodput, compute utilization, and a bucketed utilization timeline.
 *
 *   ./serving_sim [--seed N] [--requests N] [--verify]
 *                 [--trace out.json] [--trace-level off|request|op|full]
 *                 [--metrics out.json] [--metrics-window N]
 *
 * --metrics exports the dynamic-policy run's streaming-metrics
 * artifact (windowed TTFT/TPOT histograms, per-iteration gauges,
 * lifecycle counts — see obs/metrics.hh) plus a per-window JSONL, and
 * the summary gains a windowed SLO-attainment line. Sampling never
 * changes engine behavior: every other output byte matches a
 * metrics-less run.
 *
 * --verify statically checks every freshly built iteration graph
 * (structure, shape/dtype flow, deadlock-freedom — see src/verify)
 * before running it. Verification is read-only: output
 * bytes are identical with and without the flag.
 *
 * Tracing covers the queue-depth-policy run (the interesting one):
 * request lifecycle instants and counters at level `request`, plus
 * per-op spans and the context-switch attribution table at `op`, plus
 * per-resume scheduler spans at `full`. The trace is Perfetto-loadable
 * Chrome JSON; a per-request JSONL lands next to it.
 */
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "obs/export.hh"
#include "obs/metrics.hh"
#include "runtime/engine.hh"
#include "support/rng.hh"

using namespace step;
using namespace step::runtime;

int
main(int argc, char** argv)
{
    uint64_t seed = seedFromArgsOrEnv(argc, argv);
    obs::TraceCli trace_cli = obs::parseTraceCli(argc, argv);
    if (trace_cli.error) {
        std::cerr << "serving_sim: " << trace_cli.errorMsg << "\n";
        return 2;
    }
    obs::MetricsCli metrics_cli = obs::parseMetricsCli(argc, argv);
    if (metrics_cli.error) {
        std::cerr << "serving_sim: " << metrics_cli.errorMsg << "\n";
        return 2;
    }
    int64_t num_requests = 240;
    bool verify_graphs = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--verify")
            verify_graphs = true;
        else if (std::string(argv[i]) == "--requests" && i + 1 < argc)
            num_requests = std::atoll(argv[i + 1]);
    }
    if (num_requests < 1) {
        std::cerr << "serving_sim: --requests must be positive\n";
        return 2;
    }

    TraceConfig tc;
    tc.numRequests = num_requests;
    tc.arrivalsPerKcycle = 0.0012;
    tc.burstPeriod = 16'000'000;
    tc.burstDuty = 0.3;
    tc.burstFactor = 4.0;

    EngineConfig ec;
    ec.seed = deriveSeed(1);
    if (verify_graphs)
        ec.verifyGraphs = true;

    std::cout << "serving " << tc.numRequests
              << " requests (Poisson with on/off bursts, seed " << seed
              << ") on " << ec.model.name << ", bw pool "
              << ec.totalComputeBw << " FLOPs/cycle, KV budget "
              << ec.batcher.kvBudgetBytes / (1 << 20) << " MiB\n";

    for (bool dynamic : {false, true}) {
        StaticSplitPolicy static_policy(0.3);
        QueueDepthPolicy dynamic_policy;
        const Policy& policy =
            dynamic ? static_cast<const Policy&>(dynamic_policy)
                    : static_cast<const Policy&>(static_policy);

        auto reqs = generateTrace(tc, deriveSeed(2));
        ServingEngine engine(ec, policy);
        // Trace the dynamic-policy run: it is the configuration the
        // other tooling (cluster, prefix cache) builds on.
        std::unique_ptr<obs::TraceSink> sink;
        if (dynamic && trace_cli.enabled()) {
            sink = std::make_unique<obs::TraceSink>(trace_cli.options());
            engine.attachTrace(sink.get());
        }
        // Meter the dynamic-policy run for the same reason.
        std::unique_ptr<obs::MetricsRegistry> registry;
        if (dynamic && metrics_cli.enabled()) {
            registry = std::make_unique<obs::MetricsRegistry>(
                metrics_cli.config());
            engine.attachMetrics(registry.get());
        }
        EngineResult r = engine.run(reqs);

        std::cout << "\n--- policy: " << policy.name() << " ("
                  << r.iterations << " iterations) ---\n";
        printSummary(r.summary, std::cout);
        std::cout << "\nutilization timeline:\n";
        r.timeline.bucketReport(ec.totalComputeBw).print();

        if (sink) {
            const std::vector<const obs::TraceSink*> views{sink.get()};
            if (sink->level() >= obs::TraceLevel::Op) {
                std::cout << "\n";
                obs::printSwitchAttribution(std::cout, views);
            }
            if (!obs::writeChromeTraceFile(trace_cli.path, views,
                                           "engine")) {
                std::cerr << "serving_sim: cannot write trace to "
                          << trace_cli.path << "\n";
                return 1;
            }
            const std::string jsonl =
                obs::requestJsonlPath(trace_cli.path);
            if (!obs::writeRequestJsonlFile(jsonl, views)) {
                std::cerr << "serving_sim: cannot write " << jsonl
                          << "\n";
                return 1;
            }
            std::cout << "\ntrace (" << obs::traceLevelName(sink->level())
                      << ", " << sink->eventCount() << " events, "
                      << sink->droppedEvents() << " dropped) -> "
                      << trace_cli.path << "\nrequest lifecycle -> "
                      << jsonl << "\n";
        }

        if (registry) {
            const std::vector<const obs::MetricsRegistry*> views{
                registry.get()};
            if (!obs::writeMetricsJsonFile(metrics_cli.path, views)) {
                std::cerr << "serving_sim: cannot write metrics to "
                          << metrics_cli.path << "\n";
                return 1;
            }
            const std::string mw =
                obs::metricsJsonlPath(metrics_cli.path);
            if (!obs::writeMetricsWindowsJsonlFile(mw, views)) {
                std::cerr << "serving_sim: cannot write " << mw << "\n";
                return 1;
            }
            std::cout << "\nmetrics ("
                      << registry->config().windowCycles / 1000
                      << " kcycle windows) -> " << metrics_cli.path
                      << "\nper-window series -> " << mw << "\n";
        }
    }
    return 0;
}
