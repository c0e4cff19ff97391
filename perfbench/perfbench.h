/**
 * @file
 * The campaign-job benchmark: shared types of the workload runners.
 *
 * The unit of work is one job: one litmus test at a stated N, run to
 * its outcome counts on the simulator backend. Each workload times its
 * jobs untraced for the end-to-end metrics; with --trace 1 it runs the
 * same job sequence a second time through the layers' public entry
 * points, wrapped in spans, and derives the per-layer metrics from
 * those spans. See README.md beside this file for the workloads and
 * the layer-to-metric table.
 */

#ifndef PERPLE_PERFBENCH_H
#define PERPLE_PERFBENCH_H

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/strings.h"
#include "common/timing.h"
#include "litmus/registry.h"
#include "litmus/test.h"
#include "litmus/outcome.h"
#include "perple/converter.h"
#include "perple/harness.h"
#include "serve/json.h"

namespace perple::perfbench
{

/** The parsed command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;

    /** Measured time of one run (split between the two phases of a
     *  traced run). */
    double seconds = 10;

    /** Report per-layer metrics from a traced second phase. */
    bool trace = false;

    /** Self-test sizes: every N shrinks so a run takes a moment. */
    bool tiny = false;

    /** Corrupt one verified count, to prove the checks fire. */
    bool injectMismatch = false;

    /** Parent of this process's working directory. */
    std::string workDir;

    /** Chrome trace-event file for the spans of a traced run. */
    std::string spansOut;
};

/** True once SIGINT or SIGTERM arrived; every loop stops early. */
bool stopRequested();

/** Values of one measured quantity. */
class Samples
{
  public:
    void
    add(double value)
    {
        values_.push_back(value);
    }

    void
    add(const Samples &other)
    {
        values_.insert(values_.end(), other.values_.begin(),
                       other.values_.end());
    }

    std::size_t
    size() const
    {
        return values_.size();
    }

    double sum() const;
    double median() const;

    /** The highest percentile with at least ten samples beyond it. */
    struct Tail
    {
        double value = 0;
        double percentile = 0;
        std::size_t samples = 0;
    };

    /**
     * The 11th-largest value, i.e. percentile 100·(1 − 10/n); with
     * fewer than 11 samples, the maximum.
     */
    Tail tail() const;

  private:
    std::vector<double> values_;
};

/**
 * In-memory span recorder of a traced run. Spans of one job share its
 * job index; a span's parent is the span that caused it (-1 = root).
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        std::int64_t job = 0;
        int parent = -1;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
    };

    int begin(const std::string &name, std::int64_t job, int parent);
    void end(int id);

    /** Durations (ns) of every span called @p name. */
    Samples durations(const std::string &name) const;

    /** Summed duration (ns) of every span called @p name. */
    double totalNs(const std::string &name) const;

    /** Write all spans as Chrome trace-event JSON. */
    void writeChromeTrace(const std::string &path) const;

  private:
    WallTimer clock_;
    std::vector<Span> spans_;
};

/** A span around one scope; a no-op when the tracer is null. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const std::string &name, std::int64_t job,
               int parent = -1)
        : tracer_(tracer),
          id_(tracer != nullptr ? tracer->begin(name, job, parent) : -1)
    {}

    ~ScopedSpan()
    {
        if (tracer_ != nullptr)
            tracer_->end(id_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int
    id() const
    {
        return id_;
    }

  private:
    Tracer *tracer_;
    int id_;
};

/** {"value": @p value, "unit": @p unit}: every reported figure. */
serve::Json measured(const std::string &name, double value,
                     const std::string &unit);

/** What one workload run reports: job accounting, checks, metrics. */
class Report
{
  public:
    void
    attempt(std::uint64_t jobs = 1)
    {
        attempted_ += jobs;
    }

    /** Count one failed job and say why on stderr. */
    void fail(const std::string &why);

    /** A metric of the result line (end-to-end or per-layer). */
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** A per-layer figure outside the result line: the detail line's
     *  "layers" object. */
    void layer(const std::string &name, double value,
               const std::string &unit);

    /** Anything else worth recording: the detail line. */
    void detail(const std::string &key, serve::Json value);

    bool
    correct() const
    {
        return failed_ == 0;
    }

    /** The result line: correct, attempted, failed, metrics. */
    serve::Json resultJson() const;

    /** The detail line's object, "layers" included. */
    serve::Json details() const;

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    serve::Json metrics_ = serve::Json::object();
    serve::Json layers_ = serve::Json::object();
    serve::Json details_ = serve::Json::object();
};

/** One test of the test set after set-up. */
struct SetUpTest
{
    litmus::Test test;
    core::PerpetualTest perpetual;

    /** The target's x86-TSO verdict from the model checker. */
    litmus::TsoVerdict verdict = litmus::TsoVerdict::Forbidden;
};

/**
 * The benchmark's inputs: write each test's litmus source under
 * @p dir and return the file paths, in order.
 */
std::vector<std::string>
writeTestSources(const std::vector<const litmus::SuiteEntry *> &entries,
                 const std::string &dir);

/**
 * Load and validate (litmus), convert (perple) and classify (model)
 * every source file: the set-up each workload times as setup_s.
 * Records litmus.load, perple.convert and model.classify spans when
 * @p tracer is non-null.
 */
std::vector<SetUpTest>
setUpTestSet(const std::vector<std::string> &paths, Tracer *tracer);

/** Check every verdict against the registry; failures into @p report,
 *  and name the forbidden targets mustNotObserveTarget exempts. */
void checkVerdicts(const std::vector<SetUpTest> &tests, Report &report);

/**
 * True when any occurrence of @p t's target refutes the TSO machine:
 * the target is TSO-forbidden and its perpetual form is exact. The
 * form over-approximates when a target register reads constant v of a
 * location that v's storing thread overwrites later in its iteration
 * (safe022, "mp with overwritten payload"): the perpetual atom accepts
 * v "at or after" iteration n, which a TSO-allowed read of v from a
 * later iteration also satisfies. The simulator produces that
 * interleaving for safe022 on about 2 % of seeds at N = 180k, a limit
 * of the conversion rather than a machine bug.
 */
bool mustNotObserveTarget(const SetUpTest &t);

/**
 * setup_s is the median over set-ups spread across the run: this many
 * before the first job, and kSetUpRepeatsBetween after each pass (or,
 * in serve-mixed, after the client phase), so that it samples the host
 * over the same span as the job metrics rather than at one moment.
 */
constexpr int kSetUpRepeats = 15;
constexpr int kSetUpRepeatsBetween = 3;

/** Append the wall seconds of @p repeat calls of @p set_up. */
template <typename SetUp>
void
timeSetUps(Samples &seconds, int repeat, SetUp &&set_up)
{
    for (int r = 0; r < repeat; ++r) {
        WallTimer timer;
        set_up();
        seconds.add(timer.elapsedSeconds());
    }
}

/** Per-layer set-up metrics (litmus, convert, model) from spans. */
void reportSetUpLayers(const Tracer &tracer, Report &report);

/**
 * One job through the layers' public entry points, each call in its
 * own span under a "job" span: sim::Machine::runFree, then
 * core::analyzeRun with the exhaustive counter alone (when
 * @p config.runExhaustive) and with the heuristic alone. The counts
 * equal core::runPerpetual's for the same arguments.
 */
core::HarnessResult
runTracedJob(const core::PerpetualTest &perpetual, std::int64_t iterations,
             const std::vector<litmus::Outcome> &outcomes,
             const core::HarnessConfig &config, Tracer &tracer,
             std::int64_t job);

/**
 * The sim and COUNTH metrics every traced run reports: execution and
 * heuristic-count time per iteration, execution's share of job time,
 * and COUNTH target matches per pivot (one pivot per iteration).
 */
void reportExecAndCountLayers(Report &report, double exec_ns,
                              double job_ns, double heuristic_ns,
                              double iterations, double matches);

/** Deterministic per-job seed from the workload seed. */
std::uint64_t jobSeed(std::uint64_t seed, std::uint64_t pass,
                      std::uint64_t index);

/** Peak RSS in MiB of this process, or of it and its reaped
 *  children, whichever is larger. */
double peakRssMb(bool with_children);

/**
 * Throughput of a workload that runs whole passes: the median over
 * passes of each pass's rate, so that host noise during one pass does
 * not move the run's figure.
 */
class PassRates
{
  public:
    void add(double jobs, double targets, double seconds);

    double
    jobsPerSecond() const
    {
        return jobs_.median();
    }

    double
    targetsPerSecond() const
    {
        return targets_.median();
    }

  private:
    Samples jobs_;
    Samples targets_;
};

/**
 * The end-to-end job metrics every workload reports: jobs_per_s,
 * targets_per_s, job_p50_ms and job_tail_ms (with its percentile
 * and sample count in the detail line).
 */
void reportJobMetrics(Report &report, const Samples &job_seconds,
                      double jobs_per_s, double targets_per_s);

/** Fail every job of the common prefix whose traced counts differ from
 *  the untraced run's (same jobs in the same order). */
template <typename JobCounts>
void
checkTracedCounts(const std::vector<JobCounts> &untraced,
                  const std::vector<JobCounts> &traced, Report &report)
{
    const std::size_t common = std::min(untraced.size(), traced.size());
    for (std::size_t i = 0; i < common; ++i)
        if (untraced[i] != traced[i])
            report.fail(format("job %zu: traced counts differ from the "
                               "untraced run",
                               i));
}

/** tracing.overhead_pct over the common prefix of two job-latency
 *  sequences (untraced vs traced, same jobs in the same order). */
void reportTracingOverhead(Report &report,
                           const std::vector<double> &untraced,
                           const std::vector<double> &traced);

void runSuiteHeuristic(const Options &options, Report &report);
void runExactCount(const Options &options, Report &report);
void runStreamReanalyze(const Options &options, Report &report);
void runServeMixed(const Options &options, Report &report);

} // namespace perple::perfbench

#endif // PERPLE_PERFBENCH_H
