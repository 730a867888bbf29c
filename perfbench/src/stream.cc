/**
 * @file
 * Cache-stream workloads (stream_scan, stream_churn).
 *
 * The end-to-end run times serving::runScenarioCacheStream, the
 * program's own entry point. The traced run replays the same stream
 * through a loop that mirrors runScenarioCacheStream call for call and
 * times each public call into a layer: the prompt generator
 * (workload), the text tower (embedding), ImageCache retrieve / hit
 * bookkeeping / insert (cache), and the sampler (diffusion). The
 * replay must reproduce the program's hit curve bit for bit, or its
 * per-layer numbers describe some other computation and the run fails.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <type_traits>

#include "perfbench.hh"
#include "src/cache/image_cache.hh"
#include "src/diffusion/sampler.hh"
#include "src/embedding/encoder.hh"
#include "src/serving/k_decision.hh"
#include "src/serving/scenario_exec.hh"
#include "src/workload/generator.hh"

namespace perfbench {

namespace {

using modm::workload::Scenario;
using modm::workload::ScenarioCell;

/** Set-up repetitions per pass: parsing is microseconds, so take many. */
constexpr std::size_t kSetupReps = 101;

/**
 * The replay's layer spans must cover at least this share of its
 * loop; the rest is k-decision arithmetic, loop bookkeeping and the
 * clock reads themselves.
 */
constexpr double kMinCoverage = 0.9;

/** Host time and work counts of one replay pass, per layer. */
struct ReplayPass
{
    double loopS = 0.0;
    double nextS = 0.0;
    double encodeS = 0.0;
    double retrieveS = 0.0;
    double recordHitS = 0.0;
    double insertS = 0.0;
    double generateS = 0.0;
    double refineS = 0.0;
    std::uint64_t generateCalls = 0;
    std::uint64_t refineCalls = 0;
    std::uint64_t rowsScanned = 0;
    std::uint64_t hits = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
    std::uint64_t retrieveCalls = 0;
    /** Median and p99 host microseconds of one retrieve call. */
    double retrieveUsP50 = 0.0;
    double retrieveUsP99 = 0.0;
    /** Hit rate per complete window, as runScenarioCacheStream reports. */
    std::vector<double> curve;

    /** Summed span time of every layer call. */
    double spanS() const
    {
        return nextS + encodeS + retrieveS + recordHitS + insertS +
               generateS + refineS;
    }
};

/** Run `call`, adding its host time to `acc`; returns its result. */
template <typename F>
decltype(auto)
timed(double &acc, F &&call)
{
    const auto start = Clock::now();
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
        call();
        acc += secondsSince(start);
    } else {
        auto result = call();
        acc += secondsSince(start);
        return result;
    }
}

/** Bitwise equality, so -0.0 / NaN differences are not hidden. */
bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) ==
                0);
}

std::uint64_t
curveHash(const std::vector<double> &curve)
{
    return modm::workload::fnv1a64(std::string_view(
        reinterpret_cast<const char *>(curve.data()),
        curve.size() * sizeof(double)));
}

/** The traced replay of runScenarioCacheStream (see the file comment). */
ReplayPass
replay(const Scenario &scenario, const ScenarioCell &cell)
{
    // The cell's models, cache capacity and eviction policy, resolved
    // through the same presets the program uses.
    const auto config = modm::serving::scenarioCellConfig(scenario, cell);
    auto gen = scenario.dataset == modm::workload::ScenarioDataset::MJHQ
                   ? modm::workload::makeMJHQ(scenario.seed)
                   : modm::workload::makeDiffusionDB(scenario.seed);
    modm::diffusion::Sampler sampler(scenario.samplerSeed);
    modm::cache::ImageCache cache(config.cacheCapacity, config.cachePolicy);
    modm::embedding::TextEncoder text;
    modm::serving::KDecision kd;
    const auto &large = config.largeModel;
    const auto &refine = config.smallModels.front();

    ReplayPass pass;
    std::vector<double> retrieveUs;
    retrieveUs.reserve(scenario.requests);
    std::uint64_t windowHits = 0;
    const auto loopStart = Clock::now();
    for (std::size_t i = 0; i < scenario.requests; ++i) {
        const double now = static_cast<double>(i);
        const auto p = timed(pass.nextS, [&] { return gen->next(); });
        const auto te = timed(pass.encodeS, [&] {
            return text.encode(p.visualConcept, p.lexicalStyle, p.text);
        });
        pass.rowsScanned += cache.size();
        const auto retrieveStart = Clock::now();
        const auto r = cache.retrieve(te);
        const double retrieveS = secondsSince(retrieveStart);
        pass.retrieveS += retrieveS;
        retrieveUs.push_back(retrieveS * 1e6);

        modm::diffusion::Image img;
        if (r.found && kd.isHit(r.similarity)) {
            ++pass.hits;
            ++windowHits;
            const auto *base = timed(pass.recordHitS, [&] {
                cache.recordHit(r.entryId, now);
                return &cache.entry(r.entryId).image;
            });
            const int k = kd.decide(r.similarity);
            img = timed(pass.refineS, [&] {
                return sampler.refine(refine, p, *base, k, now);
            });
            ++pass.refineCalls;
        } else {
            img = timed(pass.generateS,
                        [&] { return sampler.generate(large, p, now); });
            ++pass.generateCalls;
        }
        timed(pass.insertS, [&] { cache.insert(img, now); });

        if ((i + 1) % scenario.window == 0) {
            pass.curve.push_back(static_cast<double>(windowHits) /
                                 static_cast<double>(scenario.window));
            windowHits = 0;
        }
    }
    pass.loopS = secondsSince(loopStart);
    pass.inserts = cache.stats().insertions;
    pass.evictions = cache.stats().evictions;
    pass.retrieveCalls = retrieveUs.size();
    pass.retrieveUsP50 = percentile(retrieveUs, 50.0);
    pass.retrieveUsP99 = percentile(retrieveUs, 99.0);
    return pass;
}

void
reportReplay(const ReplayPass &pass, Report &report)
{
    const double lookups = static_cast<double>(pass.retrieveCalls);
    report.set("replay.loop_s", pass.loopS);
    report.set("replay.coverage", pass.spanS() / pass.loopS);
    report.set("workload.next_s", pass.nextS);
    report.set("embedding.encode_s", pass.encodeS);
    report.set("cache.retrieve_s", pass.retrieveS);
    report.set("cache.retrieve_share", pass.retrieveS / pass.loopS);
    report.set("cache.retrieve_calls", lookups);
    report.set("cache.retrieve_us_p50", pass.retrieveUsP50);
    report.set("cache.retrieve_us_p99", pass.retrieveUsP99);
    report.set("cache.rows_scanned", static_cast<double>(pass.rowsScanned));
    report.set("cache.retrieve_ns_per_row",
               pass.rowsScanned == 0
                   ? 0.0
                   : pass.retrieveS * 1e9 /
                         static_cast<double>(pass.rowsScanned));
    report.set("cache.record_hit_s", pass.recordHitS);
    report.set("cache.insert_s", pass.insertS);
    report.set("cache.inserts", static_cast<double>(pass.inserts));
    report.set("cache.evictions", static_cast<double>(pass.evictions));
    report.set("cache.hit_ratio",
               static_cast<double>(pass.hits) / lookups);
    report.set("diffusion.generate_s", pass.generateS);
    report.set("diffusion.generate_calls",
               static_cast<double>(pass.generateCalls));
    report.set("diffusion.refine_s", pass.refineS);
    report.set("diffusion.refine_calls",
               static_cast<double>(pass.refineCalls));
}

} // namespace

void
runStream(const Workload &workload, Report &report)
{
    // Set-up is only the scenario parse: runScenarioCacheStream builds
    // its generator, cache and sampler inside the timed call.
    std::vector<double> setup, setupWall;
    Scenario scenario;
    const auto setUp = [&] {
        for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
            const Stopwatch watch;
            scenario = workload.parse();
            setup.push_back(watch.cpuS());
            setupWall.push_back(watch.wallS());
        }
    };
    nextCpu();
    setUp();
    const ScenarioCell cell = scenario.cell(0);
    if (!report.check(scenario.window > 0 &&
                          scenario.requests % scenario.window == 0,
                      "requests are a whole number of hit-rate windows"))
        return;

    const RunOptions &options = workload.options;
    std::vector<double> runs, runsWall;
    double runTotal = 0.0;
    std::vector<double> reference;
    double peakRss = 0.0;
    ClockProbe probe;
    const std::size_t passes = options.trace ? 1 : kMinPasses;
    while (runs.size() < passes || (!options.trace && runTotal < options.seconds)) {
        // Every pass after the first moves to the next CPU and parses
        // again there, so set-up is sampled like the passes.
        if (!runs.empty()) {
            nextCpu();
            setUp();
        }
        const Stopwatch watch;
        auto curve = modm::serving::runScenarioCacheStream(scenario, cell);
        runs.push_back(watch.cpuS());
        runsWall.push_back(watch.wallS());
        runTotal += runs.back();
        std::fprintf(stderr, "pass %zu: run %.6f s (wall %.6f)\n",
                     runs.size(), runs.back(), runsWall.back());
        report.attempt(scenario.requests);
        if (reference.empty()) {
            reference = std::move(curve);
            // Later passes reuse the freed heap, so their peak depends
            // on allocator history rather than on the program.
            peakRss = peakRssMb();
        } else {
            report.check(sameBits(curve, reference),
                         "every pass reproduces the first pass's hit curve");
        }
        if (!options.trace)
            probe.sample();
    }

    bool inRange = true;
    double hitSum = 0.0;
    for (const double rate : reference) {
        inRange = inRange && rate >= 0.0 && rate <= 1.0;
        hitSum += rate;
    }
    report.check(reference.size() == scenario.requests / scenario.window,
                 "hit curve has one value per complete window");
    report.check(inRange, "hit rates lie in [0, 1]");
    report.digest(cell.label, curveHash(reference));

    if (!options.trace) {
        reportHostTimes(probe,
                        {median(setup), mean(runs), median(setupWall),
                         mean(runsWall)},
                        scenario.requests, report);
        report.set("peak_rss_mb", peakRss);
        report.set("sim_hit_rate",
                   hitSum / static_cast<double>(reference.size()));
        return;
    }

    // Traced run: replay passes until the time budget is spent, report
    // the pass with the median loop time.
    std::vector<ReplayPass> replays;
    double replayTotal = 0.0;
    while (replays.size() < kMinPasses || replayTotal < options.seconds) {
        nextCpu();
        replays.push_back(replay(scenario, cell));
        const ReplayPass &pass = replays.back();
        replayTotal += pass.loopS;
        report.attempt(scenario.requests);
        report.check(sameBits(pass.curve, reference),
                     "replay loop reproduces runScenarioCacheStream's hit "
                     "curve bit for bit");
        const double coverage = pass.spanS() / pass.loopS;
        report.check(coverage >= kMinCoverage && coverage <= 1.0,
                     "layer spans account for the replay loop's host time");
    }
    std::vector<double> loops;
    for (const auto &pass : replays)
        loops.push_back(pass.loopS);
    const double mid = median(loops);
    const ReplayPass *chosen = &replays.front();
    for (const auto &pass : replays) {
        if (std::abs(pass.loopS - mid) < std::abs(chosen->loopS - mid))
            chosen = &pass;
    }
    reportReplay(*chosen, report);
}

} // namespace perfbench
