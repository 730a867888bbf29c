/**
 * @file
 * Serving workload (cluster_failover).
 *
 * Each pass is one full experiment through the public serving entry
 * points: parse the scenario, buildScenarioWorkload, scenarioCellConfig
 * plus the ServingSystem constructor, warmCache (set-up), then
 * ServingSystem::run (the timed phase). The traced run alternates
 * untraced passes, which give the per-call host-time split, with
 * passes that record the in-memory event log (TraceConfig::events),
 * which gives the per-layer work counts and the tracing overhead.
 */

#include <cstdio>
#include <string>
#include <unordered_map>

#include "perfbench.hh"
#include "src/obs/trace.hh"
#include "src/serving/scenario_exec.hh"
#include "src/serving/system.hh"

namespace perfbench {

namespace {

using modm::obs::EventKind;
using modm::serving::ServingResult;

/**
 * One serving experiment: CPU seconds per public call (see Stopwatch),
 * and its result.
 */
struct ServingPass
{
    double buildS = 0.0;
    double constructS = 0.0;
    double warmS = 0.0;
    double runS = 0.0;
    double setupWallS = 0.0;
    double runWallS = 0.0;
    std::size_t requests = 0;
    ServingResult result;

    double setupS() const { return buildS + constructS + warmS; }
};

ServingPass
servePass(const Workload &workload, bool traced, Report &report)
{
    nextCpu();
    ServingPass pass;
    const Stopwatch setup;
    const Stopwatch build;
    const auto scenario = workload.parse();
    const auto built = modm::workload::buildScenarioWorkload(scenario);
    pass.buildS = build.cpuS();

    const Stopwatch construct;
    auto config =
        modm::serving::scenarioCellConfig(scenario, scenario.cell(0));
    config.trace.events = traced;
    modm::serving::ServingSystem system(std::move(config));
    pass.constructS = construct.cpuS();

    const Stopwatch warm;
    if (!built.warm.empty())
        system.warmCache(built.warm);
    pass.warmS = warm.cpuS();
    pass.setupWallS = setup.wallS();

    const Stopwatch run;
    pass.result = system.run(built.trace);
    pass.runS = run.cpuS();
    pass.runWallS = run.wallS();

    pass.requests = built.trace.size();
    report.attempt(pass.requests);

    // Every arrival completes exactly once, never before it arrived.
    const auto &records = pass.result.metrics.records();
    report.check(records.size() == built.trace.size(),
                 "completed requests equal the trace length");
    std::unordered_map<std::uint64_t, int> served;
    served.reserve(built.trace.size());
    for (const auto &request : built.trace)
        served.emplace(request.prompt.id, 0);
    bool ordered = true;
    bool once = true;
    for (const auto &record : records) {
        ordered = ordered && record.finish >= record.arrival;
        const auto it = served.find(record.promptId);
        once = once && it != served.end() && ++it->second == 1;
    }
    report.check(ordered, "finish >= arrival on every record");
    report.check(once, "every trace request is served exactly once");
    return pass;
}

/** Per-kind record counts of one event log. */
std::unordered_map<std::uint16_t, std::uint64_t>
countKinds(const modm::obs::TraceLog &log)
{
    std::unordered_map<std::uint16_t, std::uint64_t> counts;
    for (const auto &record : log.records())
        ++counts[record.kind];
    return counts;
}

/**
 * Request conservation from the event counts of a traced pass. A kill
 * surrenders the node's backlog, and each surrendered request is
 * routed again: it may be classified and dispatched twice, but it
 * arrives once and is served once.
 */
void
checkConservation(const ServingPass &pass, Report &report)
{
    const auto &result = pass.result;
    report.check(result.traceLog != nullptr &&
                     result.trace.events == result.traceLog->size(),
                 "traced run kept its event log");
    if (result.traceLog == nullptr)
        return;
    auto counts = countKinds(*result.traceLog);
    const auto n = static_cast<std::uint64_t>(pass.requests);
    const auto at = [&counts](EventKind kind) {
        return counts[static_cast<std::uint16_t>(kind)];
    };
    const std::uint64_t reroutes = at(EventKind::Reroute);
    const std::uint64_t classified =
        at(EventKind::CacheHit) + at(EventKind::CacheMiss);
    const std::uint64_t served =
        at(EventKind::Serve) + at(EventKind::DirectReturn);
    report.check(at(EventKind::Arrival) == n,
                 "one arrival event per trace request");
    report.check(served == n, "one serve event per trace request");
    report.check(reroutes == result.failover.rerouted,
                 "reroute events match the failover ledger");
    report.check(at(EventKind::Route) == n + reroutes,
                 "routes equal arrivals plus reroutes");
    report.check(classified >= n && classified <= n + reroutes,
                 "classifications lie in [arrivals, arrivals + reroutes]");
    report.check(at(EventKind::Dispatch) >= at(EventKind::Serve) &&
                     at(EventKind::Dispatch) - at(EventKind::Serve) <=
                         reroutes,
                 "aborted dispatches are covered by reroutes");
    std::uint64_t assigned = 0;
    std::uint64_t completed = 0;
    for (const auto &node : result.nodes) {
        assigned += node.assigned;
        completed += node.completed;
    }
    report.check(assigned == n + reroutes && completed == n,
                 "node ledgers: assigned = completed + rerouted");
}

void
reportLayers(const std::vector<ServingPass> &untraced,
             const std::vector<ServingPass> &traced, Report &report)
{
    std::vector<double> build, construct, warm, run, overhead;
    for (std::size_t i = 0; i < untraced.size(); ++i) {
        build.push_back(untraced[i].buildS);
        construct.push_back(untraced[i].constructS);
        warm.push_back(untraced[i].warmS);
        run.push_back(untraced[i].runS);
        overhead.push_back(traced[i].runS - untraced[i].runS);
    }
    const ServingResult &result = traced.front().result;
    if (result.traceLog == nullptr)
        return; // checkConservation already failed the run
    auto counts = countKinds(*result.traceLog);
    const auto at = [&counts](EventKind kind) {
        return static_cast<double>(
            counts[static_cast<std::uint16_t>(kind)]);
    };
    // Queue dispatches: every record kind the EventQueue tap writes.
    const double events = at(EventKind::Generic) + at(EventKind::Arrival) +
                          at(EventKind::Completion) +
                          at(EventKind::MonitorTick) + at(EventKind::Fault) +
                          at(EventKind::Knob);
    const double runS = median(run);
    report.set("workload.build_s", median(build));
    report.set("serving.construct_s", median(construct));
    report.set("serving.warm_s", median(warm));
    report.set("serving.run_s", runS);
    report.set("sim.events", events);
    report.set("serving.host_us_per_event", runS * 1e6 / events);
    report.set("serving.routes", at(EventKind::Route));
    report.set("serving.reroutes", at(EventKind::Reroute));
    report.set("serving.dispatches", at(EventKind::Dispatch));
    report.set("serving.cache_hits", at(EventKind::CacheHit));
    report.set("serving.cache_misses", at(EventKind::CacheMiss));
    report.set("serving.direct_returns", at(EventKind::DirectReturn));
    report.set("serving.monitor_ticks", at(EventKind::MonitorTick));
    report.set("cache.hit_ratio",
               at(EventKind::CacheHit) /
                   (at(EventKind::CacheHit) + at(EventKind::CacheMiss)));
    report.set("serving.model_switches",
               static_cast<double>(result.modelSwitches));
    report.set("serving.load_imbalance", result.loadImbalance);

    std::vector<double> waits;
    waits.reserve(result.metrics.count());
    for (const auto &record : result.metrics.records())
        waits.push_back(record.queueDelay());
    report.set("serving.sim_queue_wait_p99_s", percentile(waits, 99.0));
    report.set("serving.sim_mean_latency_s", result.metrics.meanLatency());
    report.set("serving.sim_p99_latency_s",
               result.metrics.latencyPercentile(99.0));
    report.set("cache.retrieval_bytes",
               static_cast<double>(result.retrievalMemoryBytes));
    report.set("obs.trace_records",
               static_cast<double>(result.traceLog->size()));
    report.set("obs.overhead_s", median(overhead));
}

} // namespace

void
runCluster(const Workload &workload, Report &report)
{
    const RunOptions &options = workload.options;
    std::vector<ServingPass> untraced;
    std::vector<ServingPass> traced;
    std::string reference;
    double peakRss = 0.0;
    double runTotal = 0.0;
    ClockProbe probe;
    while (untraced.size() < kMinPasses || runTotal < options.seconds) {
        untraced.push_back(servePass(workload, false, report));
        ServingPass &pass = untraced.back();
        runTotal += pass.runS;
        std::fprintf(stderr,
                     "pass %zu: setup %.6f s, run %.6f s (wall %.6f, %.6f)\n",
                     untraced.size(), pass.setupS(), pass.runS,
                     pass.setupWallS, pass.runWallS);
        const std::string digest = modm::serving::resultDigest(pass.result);
        if (reference.empty()) {
            reference = digest;
            // Later passes reuse the freed heap, so their peak depends
            // on allocator history rather than on the program.
            peakRss = peakRssMb();
        }
        report.check(digest == reference,
                     "every pass reproduces the first pass's result digest");
        if (options.trace) {
            traced.push_back(servePass(workload, true, report));
            runTotal += traced.back().runS;
            report.check(modm::serving::resultDigest(traced.back().result) ==
                             reference,
                         "traced result digest equals the untraced one");
            checkConservation(traced.back(), report);
            // Keep one traced result; later ones only fed the checks.
            if (traced.size() > 1)
                traced.back().result = {};
        } else {
            probe.sample();
        }
        // Per-request records are only needed from the first pass.
        if (untraced.size() > 1)
            pass.result = {};
    }
    report.digest(workload.name, modm::workload::fnv1a64(reference));

    if (options.trace) {
        reportLayers(untraced, traced, report);
        return;
    }
    std::vector<double> setup, run, setupWall, runWall;
    for (const auto &pass : untraced) {
        setup.push_back(pass.setupS());
        run.push_back(pass.runS);
        setupWall.push_back(pass.setupWallS);
        runWall.push_back(pass.runWallS);
    }
    reportHostTimes(probe,
                    {median(setup), mean(run), median(setupWall),
                     mean(runWall)},
                    untraced.front().requests, report);
    report.set("peak_rss_mb", peakRss);
    report.set("sim_hit_rate", untraced.front().result.hitRate);
}

} // namespace perfbench
