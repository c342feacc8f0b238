/**
 * @file
 * Trace exporters: Chrome trace-event JSON (loadable in Perfetto or
 * chrome://tracing) and a per-request lifecycle JSONL, both produced
 * from one or more TraceSinks — one sink per replica, exported in
 * replica-index order, so output bytes are bit-identical for a seeded
 * run regardless of worker-thread count. All values are integers
 * (simulated cycles, token counts), so no float-formatting ambiguity
 * can creep into the byte stream.
 *
 * Also provides the `--trace <path> --trace-level {off,request,op,full}`
 * CLI convention shared by the example sims, and the switch-attribution
 * table printer (the fusion-planning histogram).
 */
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/sink.hh"

namespace step::obs {

/**
 * Write a Chrome trace-event JSON document. Sink i becomes pid i
 * (Perfetto renders it as one process track group) labeled
 * "<processLabel> i"; sub-tracks follow the kTid* layout. Returns
 * false on stream failure.
 */
bool writeChromeTrace(std::ostream& os,
                      const std::vector<const TraceSink*>& sinks,
                      const std::string& process_label = "replica");

bool writeChromeTraceFile(const std::string& path,
                          const std::vector<const TraceSink*>& sinks,
                          const std::string& process_label = "replica");

/**
 * Write one JSON object per request per line: identity, lengths,
 * cache-hit annotation, and the lifecycle stamps (arrival / admitted /
 * first token / finished, -1 when the phase was never reached). The
 * "replica" field is the owning sink's index.
 */
bool writeRequestJsonl(std::ostream& os,
                       const std::vector<const TraceSink*>& sinks);

bool writeRequestJsonlFile(const std::string& path,
                           const std::vector<const TraceSink*>& sinks);

/**
 * Merge the sinks' switch-attribution histograms by op name and print
 * the top @p top_n rows (resumes, share, cumulative share), then the
 * same table grouped by op kind (the last dotted component of the name,
 * e.g. "flat" for "qkv.flat" and "moe.e3.flat"). This is the work-list
 * for trivial-op fusion: the per-name table is flat, while the by-kind
 * table shows which operator kinds to fold first.
 */
void printSwitchAttribution(std::ostream& os,
                            const std::vector<const TraceSink*>& sinks,
                            size_t top_n = 16);

/** Derive the lifecycle JSONL path from a trace path:
 *  "out.json" -> "out.requests.jsonl". */
std::string requestJsonlPath(const std::string& trace_path);

/** Parsed `--trace` / `--trace-level` flags. */
struct TraceCli
{
    std::string path;  ///< empty = tracing not requested
    TraceLevel level = TraceLevel::Request;
    bool error = false;
    std::string errorMsg;

    /** Tracing requested: a path was given, the level is not `off`,
     *  and parsing succeeded. */
    bool
    enabled() const
    {
        return !path.empty() && level != TraceLevel::Off && !error;
    }

    TraceOptions
    options() const
    {
        TraceOptions o;
        o.level = level;
        return o;
    }
};

/**
 * Scan argv for `--trace <path>` (or `--trace=<path>`) and
 * `--trace-level <off|request|op|full>`. Unrelated flags are ignored —
 * the sims parse their own. A level without a path is an error (there
 * would be nowhere to write), as is an unknown level.
 */
TraceCli parseTraceCli(int argc, char** argv);

} // namespace step::obs
