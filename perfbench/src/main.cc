/**
 * @file
 * modm_perfbench: host-time benchmark of the MoDM serving stack.
 *
 *   modm_perfbench --workload <name> --seed <n> --seconds <s>
 *                  --trace <0|1> [--size full|tiny]
 *                  [--workloads-dir <dir>] [--describe]
 *
 * Runs one workload (a scenario file in the workloads directory)
 * serially in this thread, prints its provenance, per-cell result
 * digests, self-check failures and every metric by name and unit, and
 * ends with one JSON line {"correct", "attempted", "failed",
 * "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
 * per-layer ones. --describe prints the seeded inputs' digests instead
 * of running. Exit status: 0 after a run (correct or not), 1 on bad
 * input, 2 when the build or environment would skew the measurement.
 */

#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>

#include "perfbench.hh"
#include "src/common/kernels.hh"
#include "src/common/stats.hh"

extern char **environ;

namespace perfbench {

namespace {

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** Reported with --trace 0 (tracing off). */
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"run_s", "s"},
    {"req_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
    {"sim_hit_rate", "ratio"},
};

/**
 * Reported with --trace 1. A metric of a layer the workload does not
 * exercise reads 0 (the cluster counts on the cache-stream workloads,
 * the replay spans on the serving workload).
 */
constexpr MetricSpec kPerLayer[] = {
    {"replay.loop_s", "s"},
    {"replay.coverage", "ratio"},
    {"workload.next_s", "s"},
    {"embedding.encode_s", "s"},
    {"cache.retrieve_s", "s"},
    {"cache.retrieve_share", "ratio"},
    {"cache.retrieve_calls", "count"},
    {"cache.retrieve_us_p50", "us"},
    {"cache.retrieve_us_p99", "us"},
    {"cache.rows_scanned", "count"},
    {"cache.retrieve_ns_per_row", "ns"},
    {"cache.record_hit_s", "s"},
    {"cache.insert_s", "s"},
    {"cache.inserts", "count"},
    {"cache.evictions", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.retrieval_bytes", "bytes"},
    {"diffusion.generate_s", "s"},
    {"diffusion.generate_calls", "count"},
    {"diffusion.refine_s", "s"},
    {"diffusion.refine_calls", "count"},
    {"workload.build_s", "s"},
    {"serving.construct_s", "s"},
    {"serving.warm_s", "s"},
    {"serving.run_s", "s"},
    {"sim.events", "count"},
    {"serving.host_us_per_event", "us"},
    {"serving.routes", "count"},
    {"serving.reroutes", "count"},
    {"serving.dispatches", "count"},
    {"serving.cache_hits", "count"},
    {"serving.cache_misses", "count"},
    {"serving.direct_returns", "count"},
    {"serving.monitor_ticks", "count"},
    {"serving.model_switches", "count"},
    {"serving.load_imbalance", "ratio"},
    {"serving.sim_queue_wait_p99_s", "sim_s"},
    {"serving.sim_mean_latency_s", "sim_s"},
    {"serving.sim_p99_latency_s", "sim_s"},
    {"obs.trace_records", "count"},
    {"obs.overhead_s", "s"},
};

/** --size tiny divides the request count, window and warm-up by this. */
constexpr std::size_t kTinyDivisor = 10;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

[[noreturn]] void
die(int code, const std::string &message)
{
    std::fprintf(stderr, "modm_perfbench: %s\n", message.c_str());
    std::exit(code);
}

/** Knobs that change what the program computes or how fast. */
bool
skewingKnob(std::string_view name)
{
    return name == "MODM_KERNEL" || name == "MODM_TRACE" ||
           name == "MODM_LOG" || name.rfind("MODM_SWEEP_", 0) == 0;
}

void
refuseSkewedRun()
{
    for (char **env = environ; *env != nullptr; ++env) {
        const std::string_view entry(*env);
        const std::string_view name = entry.substr(0, entry.find('='));
        if (skewingKnob(name))
            die(2, "refusing to run with " + std::string(name) +
                       " set: it changes what is measured");
    }
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0)
        die(2, std::string("refusing to run a ") + PERFBENCH_BUILD_TYPE +
                   " build: configure with -DCMAKE_BUILD_TYPE=Release");
#ifndef NDEBUG
    die(2, "refusing to run with assertions enabled (NDEBUG unset)");
#endif
}

struct Args
{
    std::string workload;
    std::string workloadsDir = "perfbench/workloads";
    RunOptions options;
    bool seedSet = false;
    bool describe = false;
};

double
parseNumber(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || !std::isfinite(value) || value < 0)
        die(1, flag + " expects a non-negative number, got '" + text + "'");
    return value;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--describe") {
            args.describe = true;
            continue;
        }
        if (i + 1 >= argc)
            die(1, flag + " expects a value");
        const std::string value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            const double seed = parseNumber(flag, value);
            if (seed != std::floor(seed) || seed > 9007199254740992.0)
                die(1, "--seed expects a whole number, got '" + value + "'");
            args.options.seed = static_cast<std::uint64_t>(seed);
            args.seedSet = true;
        } else if (flag == "--seconds") {
            args.options.seconds = parseNumber(flag, value);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                die(1, "--trace expects 0 or 1, got '" + value + "'");
            args.options.trace = value == "1";
        } else if (flag == "--size") {
            if (value != "full" && value != "tiny")
                die(1, "--size expects full or tiny, got '" + value + "'");
            args.options.tiny = value == "tiny";
        } else if (flag == "--workloads-dir") {
            args.workloadsDir = value;
        } else {
            die(1, "unknown flag " + flag);
        }
    }
    if (args.workload.empty() || !args.seedSet)
        die(1, "usage: modm_perfbench --workload <name> --seed <n> "
               "[--seconds <s>] [--trace 0|1] [--size full|tiny] "
               "[--workloads-dir <dir>] [--describe]");
    return args;
}

Workload
loadWorkload(const Args &args)
{
    for (const char c : args.workload) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_')
            die(1, "bad workload name '" + args.workload + "'");
    }
    Workload workload;
    workload.name = args.workload;
    workload.path = args.workloadsDir + "/" + args.workload + ".scn";
    workload.options = args.options;
    std::ifstream in(workload.path);
    if (!in)
        die(1, "no workload " + workload.path);
    std::ostringstream text;
    text << in.rdbuf();
    workload.text = text.str();
    const auto scenario = workload.parse();
    if (scenario.name != workload.name)
        die(1, workload.path + ": scenario name must be " + workload.name);
    if (scenario.cellCount() != 1)
        die(1, workload.path + ": a workload runs exactly one cell");
    return workload;
}

std::string
hex(std::uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

/** Number with every digit (round-trips), as JSON. */
std::string
number(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

/** FNV-1a over the seeded inputs: every warm and trace prompt. */
std::uint64_t
inputDigest(const modm::workload::ScenarioWorkload &inputs)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    const auto fold = [&hash](const modm::workload::Prompt &prompt,
                              double arrival) {
        std::ostringstream line;
        line << prompt.id << ' ' << prompt.topicId << ' ' << prompt.userId
             << ' ' << prompt.sessionId << ' ' << number(arrival) << ' '
             << prompt.text << '\n';
        hash = modm::workload::fnv1a64(line.str(), hash);
    };
    for (const auto &prompt : inputs.warm)
        fold(prompt, 0.0);
    for (const auto &request : inputs.trace)
        fold(request.prompt, request.arrival);
    return hash;
}

int
describe(const Workload &workload)
{
    const auto scenario = workload.parse();
    const auto inputs = modm::workload::buildScenarioWorkload(scenario);
    std::printf("{\"workload\": \"%s\", \"seed\": %llu, "
                "\"scenario_digest\": \"%s\", \"input_digest\": \"%s\", "
                "\"warm\": %zu, \"requests\": %zu}\n",
                workload.name.c_str(),
                static_cast<unsigned long long>(scenario.seed),
                hex(modm::workload::scenarioDigest(scenario)).c_str(),
                hex(inputDigest(inputs)).c_str(), inputs.warm.size(),
                inputs.trace.size());
    return 0;
}

void
printProvenance(const Workload &workload)
{
    const auto kernel = modm::kernels::active();
    std::printf("provenance {\"workload\": \"%s\", \"seed\": %llu, "
                "\"size\": \"%s\", \"trace\": %d, "
                "\"scenario_digest\": \"%s\", \"build_type\": \"%s\", "
                "\"kernel\": \"%s\", \"kernel_forced\": %s, "
                "\"nproc\": %ld, \"compiler\": \"%s\"}\n",
                workload.name.c_str(),
                static_cast<unsigned long long>(workload.options.seed),
                workload.options.tiny ? "tiny" : "full",
                workload.options.trace ? 1 : 0,
                hex(modm::workload::scenarioDigest(workload.parse())).c_str(),
                PERFBENCH_BUILD_TYPE, kernel.name,
                kernel.fromEnv ? "true" : "false",
                sysconf(_SC_NPROCESSORS_ONLN), __VERSION__);
}

/** Print every metric of the run's table and the closing JSON line. */
void
printResult(const Report &report, bool trace)
{
    std::string metrics;
    const auto emit = [&](const MetricSpec &spec, double value) {
        std::printf("metric %-30s %s %s\n", spec.name, number(value).c_str(),
                    spec.unit);
        if (!metrics.empty())
            metrics += ", ";
        metrics += std::string("\"") + spec.name + "\": {\"value\": " +
                   number(value) + ", \"unit\": \"" + spec.unit + "\"}";
    };
    const auto &values = report.values();
    if (trace) {
        for (const auto &spec : kPerLayer) {
            const auto it = values.find(spec.name);
            emit(spec, it == values.end() ? 0.0 : it->second);
        }
    } else {
        for (const auto &spec : kEndToEnd) {
            const auto it = values.find(spec.name);
            if (it == values.end())
                die(1, std::string("internal: metric ") + spec.name +
                           " was not measured");
            emit(spec, it->second);
        }
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                report.correct() ? "true" : "false",
                static_cast<unsigned long long>(report.attempted()),
                static_cast<unsigned long long>(report.failed()),
                metrics.c_str());
}

} // namespace

modm::workload::Scenario
Workload::parse() const
{
    std::istringstream in(text);
    modm::workload::Scenario scenario;
    const std::string error =
        modm::workload::parseScenario(in, path, scenario);
    if (!error.empty())
        die(1, error);
    scenario.seed = options.seed;
    if (options.tiny) {
        scenario.requests /= kTinyDivisor;
        scenario.window /= kTinyDivisor;
        scenario.warm /= kTinyDivisor;
    }
    return scenario;
}

bool
Report::check(bool ok, const std::string &what)
{
    if (!ok) {
        ++failedChecks_;
        std::printf("check FAILED: %s\n", what.c_str());
    }
    return ok;
}

void
Report::digest(const std::string &cell, std::uint64_t hash)
{
    std::printf("digest \"%s\" %s\n", cell.c_str(), hex(hash).c_str());
}

double
mean(const std::vector<double> &values)
{
    double sum = 0.0;
    for (const double v : values)
        sum += v;
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double
median(const std::vector<double> &values)
{
    return percentile(values, 50.0);
}

double
percentile(const std::vector<double> &values, double p)
{
    modm::PercentileTracker tracker;
    for (const double v : values)
        tracker.add(v);
    return tracker.percentile(p);
}

void
nextCpu()
{
    static const std::vector<int> cpus = [] {
        std::vector<int> allowed;
        cpu_set_t mask;
        CPU_ZERO(&mask);
        if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
            for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
                if (CPU_ISSET(cpu, &mask))
                    allowed.push_back(cpu);
            }
        }
        return allowed;
    }();
    static std::size_t next = 0;
    if (cpus.empty())
        return;
    cpu_set_t mask;
    CPU_ZERO(&mask);
    CPU_SET(cpus[next++ % cpus.size()], &mask);
    // Best effort: where affinity cannot be set the pass runs anyway.
    sched_setaffinity(0, sizeof(mask), &mask);
}

double
threadCpuSeconds()
{
    timespec now{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
    return static_cast<double>(now.tv_sec) +
           static_cast<double>(now.tv_nsec) * 1e-9;
}

void
ClockProbe::sample()
{
    // Seeded from a volatile so the chain cannot be folded at compile
    // time; each step's multiply-add waits for the previous one.
    static volatile std::uint64_t seed = 1;
    constexpr std::uint64_t kSteps = 50'000'000;
    const Stopwatch watch;
    std::uint64_t x = seed;
    for (std::uint64_t step = 0; step < kSteps; ++step)
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    samples_.push_back(watch.cpuS());
    seed = x;
}

void
reportHostTimes(const ClockProbe &probe, const PhaseTimes &times,
                std::size_t requests, Report &report)
{
    const double factor = probe.factor();
    std::printf("host {\"probe_median_s\": %s, \"probe_samples\": %zu, "
                "\"reference_s\": %s, \"factor\": %s, "
                "\"cpu_setup_s\": %s, \"cpu_run_s\": %s, "
                "\"wall_setup_s\": %s, \"wall_run_s\": %s}\n",
                number(probe.medianS()).c_str(), probe.samples(),
                number(ClockProbe::kReferenceS).c_str(),
                number(factor).c_str(), number(times.setupCpuS).c_str(),
                number(times.runCpuS).c_str(),
                number(times.setupWallS).c_str(),
                number(times.runWallS).c_str());
    const double runS = times.runCpuS * factor;
    report.set("setup_s", times.setupCpuS * factor);
    report.set("run_s", runS);
    report.set("req_per_s", static_cast<double>(requests) / runS);
}

double
peakRssMb()
{
    // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water
    // mark of the process image before exec, so under a launcher with a
    // larger footprint (run.py's Python) it reports the launcher's.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // KiB
    }
    return 0.0;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Args args = parseArgs(argc, argv);
    refuseSkewedRun();
    const Workload workload = loadWorkload(args);
    if (args.describe)
        return describe(workload);

    printProvenance(workload);
    Report report;
    if (workload.parse().mode == modm::workload::ScenarioMode::CacheStream)
        runStream(workload, report);
    else
        runCluster(workload, report);
    printResult(report, args.options.trace);
    return 0;
}
