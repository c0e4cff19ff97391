/**
 * @file
 * stream-reanalyze: six tests with T_L ∈ {1, 2, 3} at N = 500k through
 * the streaming pipeline (epochs of 65536 iterations, COUNTH overlapped
 * with execution) with a `.plt` capture each. A job ends when its
 * capture has been re-counted from disk (TraceReader + COUNTH, the
 * `perple_trace analyze` path); after each pass the pass's captures
 * are scanned as a corpus and its manifest written. Only this workload
 * exercises epoch-bounded evaluation with seam deferral, capture
 * writing and pure decode-and-count.
 */

#include <filesystem>
#include <functional>
#include <optional>

#include "common/error.h"
#include "common/strings.h"
#include "perfbench.h"
#include "perple/counters.h"
#include "perple/harness.h"
#include "perple/perpetual_outcome.h"
#include "perple/stream.h"
#include "trace/corpus.h"
#include "trace/reader.h"

namespace perple::perfbench
{

namespace
{

const char *const kTests[] = {"mp",       "sb",     "rfi015",
                              "podwr001", "iriw",   "safe007"};

/** Per-phase totals of the traced run (bases of the ratios). */
struct StreamTotals
{
    double iterations = 0;
    double matches = 0;
    double execNs = 0;
    double captureNs = 0;
    double captureBytes = 0;
    double epochs = 0;
    double deferred = 0;
    double files = 0;
    Samples storeBytes;
};

struct Phase
{
    std::vector<double> seconds;
    std::vector<core::Counts> counts;
    double timed = 0;
    PassRates rates;
};

core::Counts
recount(const trace::TraceReader &reader, std::int64_t iterations)
{
    const litmus::Test test = reader.test();
    const core::HeuristicCounter counter(
        test, core::buildPerpetualOutcomes(test, {test.target}));
    return counter.count(iterations, reader.rawBufs(0));
}

/**
 * Whole passes until @p seconds of job and corpus-scan time are
 * spent, calling @p after_pass after each. @p tracer, when set, times
 * the traced job shape.
 */
Phase
runPhase(const std::vector<SetUpTest> &tests, const Options &options,
         double seconds, Tracer *tracer, StreamTotals &totals,
         Report &report, const std::function<void()> &after_pass)
{
    const std::int64_t iterations = options.tiny ? 20000 : 500000;
    const std::int64_t epoch = options.tiny ? 4096 : 65536;
    Phase phase;
    bool injected = !options.injectMismatch;
    for (std::uint64_t pass = 0;
         pass == 0 || (phase.timed < seconds && !stopRequested());
         ++pass) {
        const std::string dir =
            options.workDir + format("/pass-%llu",
                                     static_cast<unsigned long long>(pass));
        std::filesystem::create_directories(dir);
        std::size_t captured = 0;
        double pass_targets = 0;
        double pass_seconds = 0;
        for (std::size_t i = 0; i < tests.size() && !stopRequested(); ++i) {
            const SetUpTest &t = tests[i];
            const auto id = static_cast<std::int64_t>(phase.seconds.size());
            core::HarnessConfig config;
            config.seed = jobSeed(options.seed, pass, i);
            config.runExhaustive = false;
            config.streamEpochIters = epoch;
            config.capturePath = dir + "/" + t.test.name + ".plt";
            report.attempt();
            double job_seconds = 0;
            core::Counts streamed;
            core::Counts recounted;
            try {
                WallTimer timer;
                core::HarnessResult result;
                if (tracer == nullptr) {
                    result = core::runPerpetual(t.perpetual, iterations,
                                                {t.test.target}, config);
                    recounted = recount(trace::TraceReader(config.capturePath),
                                        iterations);
                } else {
                    const ScopedSpan root(tracer, "job", id);
                    {
                        ScopedSpan span(tracer, "stream.run", id, root.id());
                        result.iterations = iterations;
                        stream::runPerpetualStreaming(
                            t.perpetual, iterations, {t.test.target},
                            config, result);
                    }
                    ScopedSpan span(tracer, "trace.reanalyze", id, root.id());
                    std::optional<trace::TraceReader> reader;
                    {
                        ScopedSpan open(tracer, "trace.open", id, span.id());
                        reader.emplace(config.capturePath);
                    }
                    ScopedSpan count(tracer, "count.heuristic", id,
                                     span.id());
                    recounted = recount(*reader, iterations);
                }
                job_seconds = timer.elapsedSeconds();
                if (tracer != nullptr) {
                    const auto &stats = *result.streamStats;
                    totals.execNs += static_cast<double>(
                        result.timing.phaseSeconds("exec") * 1e9);
                    totals.captureNs += static_cast<double>(
                        result.timing.phaseSeconds("capture") * 1e9);
                    totals.captureBytes +=
                        static_cast<double>(result.captureBytes);
                    totals.epochs += static_cast<double>(stats.epochs);
                    totals.deferred +=
                        static_cast<double>(stats.deferredSeamPivots);
                    totals.storeBytes.add(
                        static_cast<double>(stats.storeBytes));
                    totals.iterations += static_cast<double>(iterations);
                    totals.matches +=
                        static_cast<double>(recounted.at(0));
                }
                ++captured;
                streamed = result.heuristic.value_or(core::Counts{});
                if (!injected && mustNotObserveTarget(t)) {
                    ++recounted.at(0);
                    injected = true;
                }
                if (recounted != streamed)
                    report.fail(format("%s: re-counted capture differs "
                                       "from the streamed counts",
                                       t.test.name.c_str()));
                if (mustNotObserveTarget(t) && streamed.at(0) != 0)
                    report.fail(format("%s: forbidden target observed "
                                       "on the TSO simulator",
                                       t.test.name.c_str()));
                pass_targets += static_cast<double>(streamed.at(0));
            } catch (const std::exception &error) {
                report.fail(format("%s: %s", t.test.name.c_str(),
                                   error.what()));
            }
            phase.seconds.push_back(job_seconds);
            phase.counts.push_back(std::move(streamed));
            pass_seconds += job_seconds;
        }

        try {
            WallTimer timer;
            std::size_t ok_files = 0;
            {
                ScopedSpan span(tracer, "trace.corpus_scan",
                                static_cast<std::int64_t>(pass));
                const trace::CorpusReport corpus =
                    trace::scanCorpus(trace::discoverCorpus(dir));
                trace::writeCorpusManifest(dir + "/corpus.json", corpus);
                ok_files = corpus.okFiles;
            }
            pass_seconds += timer.elapsedSeconds();
            totals.files += static_cast<double>(captured);
            if (ok_files != captured)
                report.fail(format("pass %llu: corpus scan found %zu "
                                   "sound captures of %zu",
                                   static_cast<unsigned long long>(pass),
                                   ok_files, captured));
        } catch (const std::exception &error) {
            report.fail(format("corpus scan: %s", error.what()));
        }
        std::filesystem::remove_all(dir);
        phase.timed += pass_seconds;
        phase.rates.add(static_cast<double>(captured), pass_targets,
                        pass_seconds);
        after_pass();
    }
    return phase;
}

} // namespace

void
runStreamReanalyze(const Options &options, Report &report)
{
    std::vector<const litmus::SuiteEntry *> entries;
    for (const char *name : kTests)
        entries.push_back(&litmus::findTest(name));
    const std::vector<std::string> paths =
        writeTestSources(entries, options.workDir + "/tests");

    Tracer setup_tracer;
    std::vector<SetUpTest> tests;
    Samples setup_seconds;
    timeSetUps(setup_seconds, kSetUpRepeats, [&] {
        tests = setUpTestSet(paths, options.trace ? &setup_tracer : nullptr);
    });
    checkVerdicts(tests, report);

    StreamTotals untraced_totals;
    const Phase untraced = runPhase(
        tests, options, options.trace ? options.seconds / 2 : options.seconds,
        nullptr, untraced_totals, report, [&] {
            if (!options.trace)
                timeSetUps(setup_seconds, kSetUpRepeatsBetween,
                           [&] { (void)setUpTestSet(paths, nullptr); });
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
    StreamTotals totals;
    const Phase traced = runPhase(tests, options, options.seconds / 2,
                                  &tracer, totals, report, [] {});
    checkTracedCounts(untraced.counts, traced.counts, report);

    reportSetUpLayers(setup_tracer, report);
    reportExecAndCountLayers(report, totals.execNs, tracer.totalNs("job"),
                             tracer.totalNs("count.heuristic"),
                             totals.iterations, totals.matches);
    reportTracingOverhead(report, untraced.seconds, traced.seconds);

    const double jobs = static_cast<double>(traced.seconds.size());
    constexpr double kMiB = 1024.0 * 1024.0;
    report.layer("stream.ns_per_iter",
                 tracer.totalNs("stream.run") / totals.iterations, "ns");
    report.layer("stream.epochs", totals.epochs / jobs, "count");
    report.layer("stream.deferred_pivots", totals.deferred / jobs, "count");
    report.layer("stream.store_mb", totals.storeBytes.median() / kMiB,
                 "MiB");
    report.layer("trace.capture_bytes_per_iter",
                 totals.captureBytes / totals.iterations, "B");
    report.layer("trace.write_mb_per_s",
                 totals.captureBytes / kMiB / (totals.captureNs / 1e9),
                 "MiB/s");
    report.layer("trace.reanalyze_ns_per_iter",
                 tracer.totalNs("trace.reanalyze") / totals.iterations, "ns");
    report.layer("trace.open_ns_per_iter",
                 tracer.totalNs("trace.open") / totals.iterations, "ns");
    report.layer("trace.corpus_scan_ms_per_file",
                 tracer.totalNs("trace.corpus_scan") / 1e6 / totals.files,
                 "ms");
    if (!options.spansOut.empty())
        tracer.writeChromeTrace(options.spansOut);
}

} // namespace perple::perfbench
