/**
 * @file
 * Host-time benchmark of the MoDM serving-stack reproduction: shared
 * types of the workload runners (stream.cc, cluster.cc) and the driver
 * (main.cc).
 *
 * The benchmark drives the library only through its public entry
 * points and times those calls from here; nothing inside src/ is
 * instrumented. Every metric it can print is declared once, in the
 * tables of main.cc, which the benchmark's tests cross-check against
 * BENCHMARK.json.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/workload/scenario.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Host seconds elapsed since `start`. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Mean of a sample (0 when empty). */
double mean(const std::vector<double> &values);

/** Median of a sample (0 when empty). */
double median(const std::vector<double> &values);

/** Percentile, p in [0, 100], interpolated between closest ranks. */
double percentile(const std::vector<double> &values, double p);

/** CPU seconds this thread has used so far. */
double threadCpuSeconds();

/**
 * Times one call on two clocks. The end-to-end host times use the
 * thread's CPU time: the benchmark runs in one thread, and on a shared
 * VM the wall clock also counts the time the host hands this vCPU to
 * other guests (steal), which comes and goes with their load and is no
 * part of the program's cost. Page faults and other kernel work done
 * for the thread stay in. The wall time is printed alongside.
 */
class Stopwatch
{
  public:
    double cpuS() const { return threadCpuSeconds() - cpu_; }
    double wallS() const { return secondsSince(wall_); }

  private:
    Clock::time_point wall_ = Clock::now();
    double cpu_ = threadCpuSeconds();
};

/** How one benchmark run is configured (the command-line flags). */
struct RunOptions
{
    /** Feeds the scenario seed: the same seed gives the same inputs. */
    std::uint64_t seed = 1;
    /** CPU seconds the timed phase should fill (at least kMinPasses). */
    double seconds = 10.0;
    /** Per-layer (traced) run instead of the end-to-end run. */
    bool trace = false;
    /** One tenth of the stated size (the benchmark's own tests). */
    bool tiny = false;
};

/** Timed passes per run, whatever --seconds says, so medians exist. */
inline constexpr std::size_t kMinPasses = 3;

/** One workload: its scenario file's text, parsed once per pass. */
struct Workload
{
    std::string name;
    /** Path of the .scn file (diagnostics name it). */
    std::string path;
    /** Source text, read once so parse timings exclude file I/O. */
    std::string text;
    RunOptions options;

    /**
     * Parse the scenario and apply the run's seed and size. This is
     * the "scenario parse" part of set-up; exits on a parse error.
     */
    modm::workload::Scenario parse() const;
};

/** What a workload run measured and checked. */
class Report
{
  public:
    /** Record a metric value by name (the unit comes from the tables). */
    void set(const std::string &name, double value) { values_[name] = value; }

    /** Recorded metrics. */
    const std::map<std::string, double> &values() const { return values_; }

    /**
     * Record one self-check and return `ok`. A failed check prints why
     * and marks the run incorrect: every request it attempted counts
     * as failed.
     */
    bool check(bool ok, const std::string &what);

    /** Count requests issued to the program. */
    void attempt(std::uint64_t requests) { attempted_ += requests; }

    /** Print a per-cell result digest, so two commits can be compared. */
    void digest(const std::string &cell, std::uint64_t hash);

    bool correct() const { return failedChecks_ == 0; }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return correct() ? 0 : attempted_; }

  private:
    std::map<std::string, double> values_;
    std::uint64_t attempted_ = 0;
    std::size_t failedChecks_ = 0;
};

/**
 * Move this thread to the next CPU of the affinity mask it started
 * with, round robin. Called before every pass: on a shared host the
 * CPUs run at different speeds from minute to minute, so a run that
 * stays wherever the scheduler put it measures that CPU's neighbours;
 * rotating spreads every run's passes evenly over the machine.
 */
void nextCpu();

/**
 * Clock probe. The shared host's core clock moves with its neighbours'
 * load (turbo headroom), by up to a quarter over minutes, and every
 * workload slows or speeds up with it; measured seconds carry that
 * drift, cycles do not. Without performance counters the benchmark
 * estimates the clock with a chain of dependent multiply-adds, whose
 * cycles per step the core fixes: it times the chain after every timed
 * pass, and the end-to-end host times are scaled by kReferenceS over
 * the chain's median time in the run. That is the timed phase's cycle
 * count expressed in seconds at the reference clock.
 */
class ClockProbe
{
  public:
    /**
     * The chain's time at the reference clock: about its median on a
     * 2.1 GHz Xeon VM (turbo near 2.6 GHz), so scaled seconds read
     * close to raw ones there.
     */
    static constexpr double kReferenceS = 0.08;

    /** Time the chain once on this thread's CPU clock. */
    void sample();

    /** Median chain time in this run. */
    double medianS() const { return median(samples_); }

    /** Converts CPU seconds of this run to seconds at the reference clock. */
    double factor() const { return kReferenceS / medianS(); }

    std::size_t samples() const { return samples_.size(); }

  private:
    std::vector<double> samples_;
};

/**
 * A run's host times on both clocks: the median set-up, and the mean
 * timed phase. Over a run's 8-20 passes the mean spreads less from run
 * to run than the median, and it makes req_per_s the rate over the
 * whole run.
 */
struct PhaseTimes
{
    double setupCpuS = 0.0;
    double runCpuS = 0.0;
    double setupWallS = 0.0;
    double runWallS = 0.0;
};

/**
 * Set setup_s, run_s and req_per_s from a run's CPU times at the
 * reference clock, and print the raw figures they come from.
 */
void reportHostTimes(const ClockProbe &probe, const PhaseTimes &times,
                     std::size_t requests, Report &report);

/** Peak resident memory of this process so far, in MiB. */
double peakRssMb();

/** Run a cache-stream workload (stream_scan, stream_churn). */
void runStream(const Workload &workload, Report &report);

/** Run a serving workload (cluster_failover). */
void runCluster(const Workload &workload, Report &report);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
