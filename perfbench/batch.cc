/**
 * @file
 * The two in-process batch workloads over the 34-test perpetual suite:
 *
 *   suite-heuristic  target outcome, COUNTH only, N = 180k: the
 *                    conformance campaign of Section VII. Execution
 *                    dominates, so a simulator change shows here.
 *   exact-count      every register outcome (target first), brute-force
 *                    COUNT beside COUNTH under FirstMatch, N = 1050
 *                    (T_L = 3: 150): the Fig. 13 shape. Counting
 *                    dominates, so a counter change shows here.
 *
 * A run times whole passes over the suite, in a seed-shuffled order
 * with seed-derived simulator seeds, until the measured time is spent;
 * whole passes keep the job mix the same from run to run, and the
 * rates are medians over passes.
 */

#include <cmath>
#include <cstdio>
#include <functional>
#include <numeric>

#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "litmus/outcome.h"
#include "perfbench.h"
#include "perple/counters.h"
#include "perple/fast_counter.h"
#include "perple/harness.h"
#include "perple/perpetual_outcome.h"

namespace perple::perfbench
{

namespace
{

/** What distinguishes the two batch workloads. */
struct BatchWorkload
{
    /** All register outcomes and the brute-force COUNT as well. */
    bool exact = false;

    /** N for tests with at most two load threads, and with three. */
    std::int64_t iterations = 0;
    std::int64_t iterationsT3 = 0;
};

/** A set-up test with its job shape. */
struct BatchTest
{
    const SetUpTest *entry = nullptr;

    /** Outcomes of interest; the target is always index 0. */
    std::vector<litmus::Outcome> outcomes;

    std::int64_t iterations = 0;

    /** The target can be cross-checked by FastExhaustiveCounter. */
    bool fastApplicable = false;
};

/** One job of a pass. */
struct Job
{
    std::size_t test = 0;
    std::uint64_t seed = 0;
};

/** Counts of one job, compared across phases and checks. */
struct JobCounts
{
    core::Counts heuristic;
    core::Counts exhaustive;

    bool operator==(const JobCounts &) const = default;
};

/** Counters of the traced phase (bases of the per-layer ratios). */
struct TracedTotals
{
    double iterations = 0;
    double matches = 0;
    double frames = 0;
    double exhaustiveMatches = 0;
    double fastIterations = 0;
    double kernelOutcomes = 0;
    double specialized = 0;
};

/** Per-job latencies and counts of one phase, in job order. */
struct Phase
{
    std::vector<double> seconds;
    std::vector<JobCounts> counts;
    double timed = 0;
    PassRates rates;
};

bool
sameOutcome(const litmus::Outcome &a, const litmus::Outcome &b)
{
    if (a.conditions.size() != b.conditions.size())
        return false;
    for (const litmus::Condition &condition : a.conditions)
        if (std::find(b.conditions.begin(), b.conditions.end(),
                      condition) == b.conditions.end())
            return false;
    return true;
}

/**
 * Target first, then every other register outcome: under FirstMatch
 * the first outcome's count is its count alone, which is what the
 * fast exact counter computes.
 */
std::vector<litmus::Outcome>
targetFirstOutcomes(const litmus::Test &test)
{
    std::vector<litmus::Outcome> outcomes{test.target};
    for (litmus::Outcome &outcome : litmus::enumerateRegisterOutcomes(test))
        if (!sameOutcome(outcome, test.target))
            outcomes.push_back(std::move(outcome));
    return outcomes;
}

std::vector<BatchTest>
batchTests(const std::vector<SetUpTest> &tests, const BatchWorkload &w)
{
    std::vector<BatchTest> batch;
    for (const SetUpTest &entry : tests) {
        BatchTest t;
        t.entry = &entry;
        t.iterations = entry.test.numLoadThreads() >= 3 ? w.iterationsT3
                                                        : w.iterations;
        if (w.exact) {
            t.outcomes = targetFirstOutcomes(entry.test);
            t.fastApplicable = core::FastExhaustiveCounter::isApplicable(
                entry.test,
                core::buildPerpetualOutcome(entry.test, entry.test.target));
        } else {
            t.outcomes = {entry.test.target};
        }
        batch.push_back(std::move(t));
    }
    return batch;
}

/** Pass @p pass: every test once, in a seed-shuffled order. */
std::vector<Job>
passJobs(std::size_t tests, std::uint64_t seed, std::uint64_t pass)
{
    std::vector<std::size_t> order(tests);
    std::iota(order.begin(), order.end(), std::size_t{0});
    Rng rng(jobSeed(seed, pass, ~std::uint64_t{0}));
    rng.shuffle(order);
    std::vector<Job> jobs;
    for (const std::size_t test : order)
        jobs.push_back({test, jobSeed(seed, pass, test)});
    return jobs;
}

core::HarnessConfig
jobConfig(const BatchWorkload &w, std::uint64_t seed)
{
    core::HarnessConfig config;
    config.seed = seed;
    config.runExhaustive = w.exact;
    config.runHeuristic = true;
    return config;
}

/**
 * The answer checks that need only the counts. COUNTH ≤ COUNT is a
 * theorem for an outcome counted alone; under FirstMatch that is the
 * first outcome of the list, the target. Later outcomes are only
 * bounded when the outcomes are pairwise disjoint, which is unproven.
 */
void
checkCounts(const BatchTest &t, const JobCounts &counts, Report &report)
{
    const std::string &name = t.entry->test.name;
    const std::uint64_t heuristic = counts.heuristic.at(0);
    if (mustNotObserveTarget(*t.entry) &&
        (heuristic != 0 ||
         (!counts.exhaustive.empty() && counts.exhaustive[0] != 0)))
        report.fail(format("%s: forbidden target observed on the TSO "
                           "simulator",
                           name.c_str()));
    if (!counts.exhaustive.empty() && heuristic > counts.exhaustive[0])
        report.fail(format("%s: heuristic target count %llu exceeds the "
                           "exhaustive count %llu",
                           name.c_str(),
                           static_cast<unsigned long long>(heuristic),
                           static_cast<unsigned long long>(
                               counts.exhaustive[0])));
}

std::uint64_t
fastTargetCount(const BatchTest &t, const core::RawBufs &bufs)
{
    const core::FastExhaustiveCounter fast(
        t.entry->test,
        core::buildPerpetualOutcome(t.entry->test, t.entry->test.target));
    return fast.count(t.iterations, bufs);
}

/** One job through the one-shot harness entry point. */
JobCounts
runUntraced(const BatchTest &t, const BatchWorkload &w, const Job &job,
            double &seconds, Report &report)
{
    const core::HarnessConfig config = jobConfig(w, job.seed);
    WallTimer timer;
    const core::HarnessResult result = core::runPerpetual(
        t.entry->perpetual, t.iterations, t.outcomes, config);
    seconds = timer.elapsedSeconds();
    JobCounts counts{result.heuristic.value_or(core::Counts{}),
                     result.exhaustive.value_or(core::Counts{})};
    if (t.fastApplicable) {
        const std::uint64_t fast =
            fastTargetCount(t, core::RawBufs(result.run.bufs));
        if (fast != counts.exhaustive.at(0))
            report.fail(format("%s: exhaustive target count %llu != "
                               "FastExhaustiveCounter %llu",
                               t.entry->test.name.c_str(),
                               static_cast<unsigned long long>(
                                   counts.exhaustive.at(0)),
                               static_cast<unsigned long long>(fast)));
    }
    return counts;
}

/**
 * The same job through the layers' entry points (runTracedJob). The
 * fast counter's span sits outside the job span, as its untraced twin
 * sits outside the job's timer.
 */
JobCounts
runTraced(const BatchTest &t, const BatchWorkload &w, const Job &job,
          std::int64_t id, Tracer &tracer, TracedTotals &totals,
          double &seconds)
{
    const core::PerpetualTest &perpetual = t.entry->perpetual;
    WallTimer timer;
    const core::HarnessResult result =
        runTracedJob(perpetual, t.iterations, t.outcomes,
                     jobConfig(w, job.seed), tracer, id);
    seconds = timer.elapsedSeconds();
    if (t.fastApplicable) {
        ScopedSpan span(&tracer, "count.fast", id);
        (void)fastTargetCount(t, core::RawBufs(result.run.bufs));
        totals.fastIterations += static_cast<double>(t.iterations);
    }

    JobCounts counts{result.heuristic.value_or(core::Counts{}),
                     result.exhaustive.value_or(core::Counts{})};
    // Hit ratios count the target (index 0) only: with every register
    // outcome of interest, every frame matches some outcome.
    const auto n = static_cast<double>(t.iterations);
    totals.iterations += n;
    totals.matches += static_cast<double>(counts.heuristic.at(0));
    if (w.exact) {
        totals.frames +=
            std::pow(n, perpetual.original.numLoadThreads());
        totals.exhaustiveMatches +=
            static_cast<double>(counts.exhaustive.at(0));
    }
    if (result.kernelReport) {
        totals.kernelOutcomes +=
            static_cast<double>(result.kernelReport->outcomes.size());
        totals.specialized +=
            static_cast<double>(result.kernelReport->specializedCount());
    }
    return counts;
}

/**
 * Whole passes until @p seconds of job time are spent (at least one),
 * calling @p after_pass after each. @p run_job(job, id, seconds)
 * returns the job's counts.
 */
template <typename RunJob>
Phase
runPhase(const std::vector<BatchTest> &tests, const Options &options,
         double seconds, Report &report,
         const std::function<void()> &after_pass, RunJob &&run_job)
{
    Phase phase;
    bool injected = !options.injectMismatch;
    for (std::uint64_t pass = 0;
         pass == 0 || (phase.timed < seconds && !stopRequested());
         ++pass) {
        double pass_jobs = 0;
        double pass_targets = 0;
        double pass_seconds = 0;
        for (const Job &job : passJobs(tests.size(), options.seed, pass)) {
            if (stopRequested())
                break;
            const BatchTest &t = tests[job.test];
            report.attempt();
            double job_seconds = 0;
            JobCounts counts;
            try {
                counts = run_job(
                    t, job, static_cast<std::int64_t>(phase.seconds.size()),
                    job_seconds);
                if (!injected && mustNotObserveTarget(*t.entry)) {
                    ++counts.heuristic.at(0);
                    injected = true;
                }
                checkCounts(t, counts, report);
                pass_targets += static_cast<double>(
                    counts.exhaustive.empty() ? counts.heuristic.at(0)
                                              : counts.exhaustive.at(0));
            } catch (const std::exception &error) {
                report.fail(format("%s: %s", t.entry->test.name.c_str(),
                                   error.what()));
            }
            phase.seconds.push_back(job_seconds);
            phase.counts.push_back(std::move(counts));
            phase.timed += job_seconds;
            pass_seconds += job_seconds;
            ++pass_jobs;
        }
        phase.rates.add(pass_jobs, pass_targets, pass_seconds);
        after_pass();
    }
    return phase;
}

void
runBatch(const Options &options, const BatchWorkload &w, Report &report)
{
    std::vector<const litmus::SuiteEntry *> entries;
    for (const litmus::SuiteEntry &entry : litmus::perpetualSuite())
        entries.push_back(&entry);
    const std::vector<std::string> paths =
        writeTestSources(entries, options.workDir + "/tests");

    Tracer setup_tracer;
    Tracer *setup_spans = options.trace ? &setup_tracer : nullptr;
    std::vector<SetUpTest> tests;
    Samples setup_seconds;
    timeSetUps(setup_seconds, kSetUpRepeats,
               [&] { tests = setUpTestSet(paths, setup_spans); });
    checkVerdicts(tests, report);
    const std::vector<BatchTest> batch = batchTests(tests, w);

    const double untraced_seconds =
        options.trace ? options.seconds / 2 : options.seconds;
    const Phase untraced = runPhase(
        batch, options, untraced_seconds, report,
        [&] {
            if (!options.trace)
                timeSetUps(setup_seconds, kSetUpRepeatsBetween,
                           [&] { (void)setUpTestSet(paths, nullptr); });
        },
        [&](const BatchTest &t, const Job &job, std::int64_t,
            double &seconds) {
            return runUntraced(t, w, job, seconds, report);
        });

    if (!options.trace) {
        report.metric("setup_s", setup_seconds.median(), "s");
        Samples seconds;
        for (const double s : untraced.seconds)
            seconds.add(s);
        reportJobMetrics(report, seconds, untraced.rates.jobsPerSecond(),
                         untraced.rates.targetsPerSecond());
        report.metric("peak_rss_mb", peakRssMb(false), "MiB");
        return;
    }

    Tracer tracer;
    TracedTotals totals;
    const Phase traced = runPhase(
        batch, options, options.seconds / 2, report, [] {},
        [&](const BatchTest &t, const Job &job, std::int64_t id,
            double &seconds) {
            return runTraced(t, w, job, id, tracer, totals, seconds);
        });
    checkTracedCounts(untraced.counts, traced.counts, report);

    reportSetUpLayers(setup_tracer, report);
    const double job_ns = tracer.totalNs("job");
    reportExecAndCountLayers(report, tracer.totalNs("sim.exec"), job_ns,
                             tracer.totalNs("count.heuristic"),
                             totals.iterations, totals.matches);
    reportTracingOverhead(report, untraced.seconds, traced.seconds);

    report.layer("count.heuristic_pivots", totals.iterations, "count");
    if (w.exact) {
        const double exhaustive_ns = tracer.totalNs("count.exhaustive");
        report.layer("count.exhaustive_ns_per_frame",
                     exhaustive_ns / totals.frames, "ns");
        report.layer("count.exhaustive_frames", totals.frames, "count");
        report.layer("count.exhaustive_hit_ratio",
                     totals.exhaustiveMatches / totals.frames, "fraction");
        report.layer("count.exhaustive_share", exhaustive_ns / job_ns,
                     "fraction");
        report.layer("count.fast_ns_per_iter",
                     tracer.totalNs("count.fast") / totals.fastIterations,
                     "ns");
        report.layer("count.fast_iterations", totals.fastIterations,
                     "count");
    }
    report.layer("count.specialized_frac",
                 totals.specialized / totals.kernelOutcomes, "fraction");
    if (!options.spansOut.empty())
        tracer.writeChromeTrace(options.spansOut);
}

} // namespace

void
runSuiteHeuristic(const Options &options, Report &report)
{
    BatchWorkload w;
    w.exact = false;
    w.iterations = w.iterationsT3 = options.tiny ? 2000 : 180000;
    runBatch(options, w, report);
}

void
runExactCount(const Options &options, Report &report)
{
    BatchWorkload w;
    w.exact = true;
    w.iterations = options.tiny ? 60 : 1050;
    w.iterationsT3 = options.tiny ? 20 : 150;
    runBatch(options, w, report);
}

} // namespace perple::perfbench
