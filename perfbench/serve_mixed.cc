/**
 * @file
 * serve-mixed: an in-process serve::Daemon (2 workers, journal on,
 * corpus capture on) under two closed-loop clients on their own
 * connections. Each client rotates through the suite at N = 2000
 * (T_L = 3 tests carry an exhaustiveCap, since uncapped ones take
 * seconds); every other submission repeats that client's previous
 * completed job, so exactly half the submissions are cache hits and
 * nothing coalesces. The load exercises admission, journal fsync,
 * queueing, fork/supervise, capture, the corpus manifest refresh and
 * the cache.
 *
 * The daemon rescans its whole corpus after every executed job, so
 * the per-job cost grows with the number of jobs a run executes; runs
 * of equal length execute about equally many jobs.
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sys/wait.h>
#include <thread>

#include "common/error.h"
#include "common/strings.h"
#include "litmus/writer.h"
#include "perfbench.h"
#include "perple/harness.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "supervise/run.h"
#include "trace/corpus.h"

namespace perple::perfbench
{

namespace
{

constexpr int kClients = 2;

/** What the protocol showed of one submission (seconds since send). */
struct Timeline
{
    double accepted = -1;
    double started = -1;
    double done = -1;
};

/** Everything one client saw; merged into the Report after joining. */
struct ClientLog
{
    std::vector<double> coldSeconds;
    std::vector<double> hitSeconds;
    std::vector<std::string> coldResults;
    Samples admit;
    Samples queueWait;
    Samples exec;
    double targets = 0;
    std::uint64_t attempted = 0;
    std::vector<std::string> failures;
};

/** The set-up test set with its job shapes. */
struct ServeTests
{
    std::vector<SetUpTest> tests;
    std::vector<std::string> sources;
    std::int64_t iterations = 0;
    std::int64_t capT3 = 0;
};

serve::DaemonConfig
daemonConfig(const std::string &root)
{
    serve::DaemonConfig config;
    config.socketPath = root + "/d.sock";
    config.stateDir = root + "/state";
    config.corpusDir = root + "/corpus";
    config.workers = 2;
    config.journal = true;
    config.jobTimeoutSeconds = 120;
    return config;
}

/** Client @p client's @p k-th distinct job. */
std::size_t
jobTest(const ServeTests &set, int client, std::size_t k)
{
    const std::size_t stride = set.tests.size() / kClients;
    return (static_cast<std::size_t>(client) * stride + k) %
           set.tests.size();
}

core::HarnessConfig
jobConfig(const ServeTests &set, const Options &options, int client,
          std::size_t k)
{
    core::HarnessConfig config;
    config.seed = jobSeed(options.seed, static_cast<std::uint64_t>(client),
                          k);
    if (set.tests[jobTest(set, client, k)].test.numLoadThreads() >= 3)
        config.exhaustiveCap = set.capT3;
    return config;
}

serve::SubmitRequest
jobRequest(const ServeTests &set, const Options &options, int client,
           std::size_t k)
{
    serve::SubmitRequest request;
    request.test = set.sources[jobTest(set, client, k)];
    request.iterations = set.iterations;
    request.config = jobConfig(set, options, client, k);
    return request;
}

/**
 * submitAndWait, but reading the event stream itself so that every
 * protocol event of the job is timestamped as it arrives.
 */
serve::SubmitOutcome
timedSubmit(serve::Client &client, const serve::SubmitRequest &request,
            Timeline &timeline)
{
    WallTimer timer;
    client.sendLine(serve::submitRequestToJson(request).dump());
    serve::SubmitOutcome outcome;
    bool have_job = false;
    while (true) {
        const auto line = client.readLine();
        if (!line.has_value())
            throw serve::ConnectError("daemon closed the connection "
                                      "mid-submit");
        const double now = timer.elapsedSeconds();
        const serve::Json event = serve::Json::parse(*line);
        const std::string kind = event.stringOr("event", "");
        const std::uint64_t job = event.uintOr("job", 0);
        if (!have_job && job != 0 &&
            (kind == "accepted" || kind == "rejected" || kind == "error")) {
            outcome.jobId = job;
            have_job = true;
        }
        if (have_job && job != outcome.jobId)
            continue;
        if (kind == "accepted") {
            timeline.accepted = now;
        } else if (kind == "started") {
            timeline.started = now;
        } else if (kind == "result" || kind == "rejected" ||
                   kind == "error") {
            timeline.done = now;
            outcome.terminal = kind;
            outcome.event = event;
            if (kind == "result") {
                outcome.cached = event.boolOr("cached", false);
                outcome.coalesced = event.boolOr("coalesced", false);
                const serve::Json *result = event.find("result");
                checkUser(result != nullptr,
                          "malformed result event from daemon");
                outcome.resultText = result->dump();
            }
            return outcome;
        }
    }
}

/** Check one cold result; returns its target count. */
double
checkCold(const SetUpTest &t, const serve::SubmitOutcome &outcome,
          bool inject, std::vector<std::string> &failures)
{
    const std::string &name = t.test.name;
    if (!outcome.ok() || outcome.cached) {
        failures.push_back(format("%s: cold submission answered %s%s",
                                  name.c_str(), outcome.terminal.c_str(),
                                  outcome.cached ? " from the cache" : ""));
        return 0;
    }
    const serve::Json result = serve::Json::parse(outcome.resultText);
    if (result.stringOr("status", "") != "ok") {
        failures.push_back(format("%s: job status %s", name.c_str(),
                                  result.stringOr("status", "").c_str()));
        return 0;
    }
    const serve::Json *heuristic = result.find("heuristic");
    const serve::Json *exhaustive = result.find("exhaustive");
    checkUser(heuristic != nullptr && exhaustive != nullptr,
              format("%s: result without counts", name.c_str()));
    std::uint64_t target = heuristic->items().at(0).asUint64();
    const std::uint64_t exact = exhaustive->items().at(0).asUint64();
    if (inject)
        ++target;
    if (mustNotObserveTarget(t) && (target != 0 || exact != 0))
        failures.push_back(format("%s: forbidden target observed on the "
                                  "TSO simulator",
                                  name.c_str()));
    if (result.intOr("exhaustive_iterations", 0) ==
            result.intOr("iterations", -1) &&
        target > exact)
        failures.push_back(format("%s: heuristic target count exceeds "
                                  "the exhaustive count",
                                  name.c_str()));
    return static_cast<double>(target);
}

/** One closed-loop client: cold job, then its repeat, until time. */
void
clientLoop(serve::Client &client, const ServeTests &set,
           const Options &options, int id, const WallTimer &clock,
           double seconds, bool traced, ClientLog &log)
{
    bool inject = options.injectMismatch && id == 0;
    try {
        for (std::size_t k = 0;
             clock.elapsedSeconds() < seconds && !stopRequested(); ++k) {
            const SetUpTest &t = set.tests[jobTest(set, id, k)];
            const serve::SubmitRequest request =
                jobRequest(set, options, id, k);

            log.attempted += 2;
            Timeline timeline;
            WallTimer timer;
            const serve::SubmitOutcome cold =
                traced ? timedSubmit(client, request, timeline)
                       : client.submitAndWait(request);
            log.coldSeconds.push_back(timer.elapsedSeconds());
            const bool inject_here =
                inject && mustNotObserveTarget(t);
            inject = inject && !inject_here;
            log.targets += checkCold(t, cold, inject_here, log.failures);
            log.coldResults.push_back(cold.resultText);
            if (traced && timeline.started >= 0) {
                log.admit.add(timeline.accepted);
                log.queueWait.add(timeline.started - timeline.accepted);
                log.exec.add(timeline.done - timeline.started);
            }

            timer.restart();
            const serve::SubmitOutcome hit =
                traced ? timedSubmit(client, request, timeline)
                       : client.submitAndWait(request);
            log.hitSeconds.push_back(timer.elapsedSeconds());
            if (!hit.ok() || !hit.cached)
                log.failures.push_back(format("%s: repeat submission was "
                                              "not a cache hit",
                                              t.test.name.c_str()));
            else if (hit.resultText != cold.resultText)
                log.failures.push_back(format("%s: cache-hit bytes differ "
                                              "from the cold result",
                                              t.test.name.c_str()));
        }
    } catch (const std::exception &error) {
        log.failures.push_back(format("client %d: %s", id, error.what()));
    }
}

/** A daemon phase's merged client logs and wall time. */
struct DaemonPhase
{
    ClientLog clients[kClients];
    double wall = 0;
    serve::Json status;
};

DaemonPhase
runDaemonPhase(std::vector<std::unique_ptr<serve::Client>> &clients,
               const ServeTests &set, const Options &options,
               double seconds, bool traced, Report &report)
{
    DaemonPhase phase;
    WallTimer clock;
    {
        // jthreads join on every exit path, exceptions included.
        std::vector<std::jthread> threads;
        for (int c = 0; c < kClients; ++c) {
            serve::Client &client = *clients[static_cast<std::size_t>(c)];
            threads.emplace_back(clientLoop, std::ref(client),
                                 std::cref(set), std::cref(options), c,
                                 std::cref(clock), seconds, traced,
                                 std::ref(phase.clients[c]));
        }
    }
    phase.wall = clock.elapsedSeconds();
    for (const ClientLog &log : phase.clients) {
        report.attempt(log.attempted);
        for (const std::string &failure : log.failures)
            report.fail(failure);
    }
    phase.status = clients[0]->status();
    return phase;
}

/**
 * Every forked worker child must have been reaped by whoever forked
 * it. Any child of this process still present (running or a zombie)
 * is an orphan: count it as a failure, kill it and reap it, so the
 * run never leaves a process behind.
 */
void
checkNoChildren(Report &report)
{
    int leftover = 0;
    std::error_code ec;
    for (const auto &task :
         std::filesystem::directory_iterator("/proc/self/task", ec)) {
        std::ifstream children(task.path() / "children");
        pid_t pid = 0;
        while (children >> pid) {
            ::kill(pid, SIGKILL);
            ++leftover;
        }
    }
    int reaped = 0;
    while (true) {
        int status = 0;
        const pid_t pid = ::waitpid(-1, &status, 0);
        if (pid > 0)
            ++reaped;
        else if (errno != EINTR)
            break; // ECHILD: no children at all.
    }
    leftover = std::max(leftover, reaped);
    if (leftover > 0)
        report.fail(format("%d orphaned worker child(ren) left behind",
                           leftover));
}

/** Stop and drain the daemon, then check for orphaned children. */
void
stopDaemon(std::unique_ptr<serve::Daemon> &daemon, Report &report)
{
    if (daemon == nullptr)
        return;
    daemon->requestStop();
    daemon->wait();
    daemon.reset();
    checkNoChildren(report);
}

/** Daemon, clients and directory of one daemon phase. */
struct ServeStack
{
    std::string root;
    std::unique_ptr<serve::Daemon> daemon;
    std::vector<std::unique_ptr<serve::Client>> clients;

    void
    start()
    {
        std::filesystem::create_directories(root);
        daemon = std::make_unique<serve::Daemon>(daemonConfig(root));
        daemon->start();
        for (int c = 0; c < kClients; ++c)
            clients.push_back(std::make_unique<serve::Client>(
                daemon->config().socketPath));
    }

    void
    stop(Report &report)
    {
        clients.clear();
        stopDaemon(daemon, report);
        std::filesystem::remove_all(root);
    }

    ~ServeStack()
    {
        clients.clear();
        daemon.reset(); // The destructor drains a running daemon.
        std::error_code ignored;
        std::filesystem::remove_all(root, ignored);
    }
};

/** Cold latencies of both clients over their common job prefix. */
void
commonColdPrefix(const DaemonPhase &a, const DaemonPhase &b,
                 std::vector<double> &a_seconds,
                 std::vector<double> &b_seconds, Report &report)
{
    for (int c = 0; c < kClients; ++c) {
        const ClientLog &x = a.clients[c];
        const ClientLog &y = b.clients[c];
        const std::size_t common =
            std::min(x.coldSeconds.size(), y.coldSeconds.size());
        for (std::size_t k = 0; k < common; ++k) {
            a_seconds.push_back(x.coldSeconds[k]);
            b_seconds.push_back(y.coldSeconds[k]);
            if (x.coldResults[k] != y.coldResults[k])
                report.fail(format("client %d job %zu: traced result "
                                   "differs from the untraced run",
                                   c, k));
        }
    }
}

serve::Json
countsJson(const std::vector<std::uint64_t> &counts)
{
    serve::Json array = serve::Json::array();
    for (const std::uint64_t count : counts)
        array.push(serve::Json::numberUnsigned(count));
    return array;
}

serve::Json
countsOf(const std::string &result_text, const char *counter)
{
    const serve::Json result = serve::Json::parse(result_text);
    const serve::Json *counts = result.find(counter);
    return counts != nullptr ? *counts : serve::Json::array();
}

/**
 * The reference half of the traced run: client 0's jobs again in
 * process, through Machine::runFree and analyzeRun with each counter
 * alone (sim and count spans), through runPerpetual and through
 * runPerpetualSupervised (the supervise layer's cost on the same
 * job). Every count must equal the daemon's.
 */
void
runReferenceJobs(const ServeTests &set, const Options &options,
                 const ClientLog &daemon_log, double seconds,
                 Tracer &tracer, Report &report)
{
    Samples supervise_overhead;
    double iterations = 0;
    double matches = 0;
    double frames = 0;
    double exhaustive_matches = 0;
    WallTimer clock;
    for (std::size_t k = 0;
         k < daemon_log.coldResults.size() &&
         (k < 2 || clock.elapsedSeconds() < seconds) && !stopRequested();
         ++k) {
        const SetUpTest &t = set.tests[jobTest(set, 0, k)];
        const core::HarnessConfig config = jobConfig(set, options, 0, k);
        const std::vector<litmus::Outcome> outcomes{t.test.target};
        const auto id = static_cast<std::int64_t>(k);
        const std::int64_t n = set.iterations;
        report.attempt();

        const core::HarnessResult result =
            runTracedJob(t.perpetual, n, outcomes, config, tracer, id);

        WallTimer plain_timer;
        const core::HarnessResult plain =
            core::runPerpetual(t.perpetual, n, outcomes, config);
        const double plain_seconds = plain_timer.elapsedSeconds();
        supervise::SupervisorConfig supervisor;
        supervisor.timeoutSeconds = 120;
        WallTimer supervised_timer;
        const supervise::SupervisedHarnessResult supervised =
            supervise::runPerpetualSupervised(t.perpetual, n, outcomes,
                                              config, supervisor);
        supervise_overhead.add(
            (supervised_timer.elapsedSeconds() - plain_seconds) * 1e3);

        checkInternal(plain.heuristic && plain.exhaustive,
                      "runPerpetual ran without both counters");
        const std::string &daemon_result = daemon_log.coldResults[k];
        const bool same =
            supervised.ok() && supervised.analysis &&
            supervised.analysis->heuristic == plain.heuristic &&
            supervised.analysis->exhaustive == plain.exhaustive &&
            result.heuristic == plain.heuristic &&
            result.exhaustive == plain.exhaustive &&
            countsJson(*plain.heuristic).dump() ==
                countsOf(daemon_result, "heuristic").dump() &&
            countsJson(*plain.exhaustive).dump() ==
                countsOf(daemon_result, "exhaustive").dump();
        if (!same)
            report.fail(format("%s: in-process counts differ from the "
                               "daemon's",
                               t.test.name.c_str()));

        iterations += static_cast<double>(n);
        matches += static_cast<double>(plain.heuristic->at(0));
        frames += std::pow(static_cast<double>(plain.exhaustiveIterations),
                           t.test.numLoadThreads());
        exhaustive_matches += static_cast<double>(plain.exhaustive->at(0));
    }

    const double job_ns = tracer.totalNs("job");
    reportExecAndCountLayers(report, tracer.totalNs("sim.exec"), job_ns,
                             tracer.totalNs("count.heuristic"), iterations,
                             matches);
    const double exhaustive_ns = tracer.totalNs("count.exhaustive");
    report.layer("count.exhaustive_ns_per_frame", exhaustive_ns / frames,
                 "ns");
    report.layer("count.exhaustive_frames", frames, "count");
    report.layer("count.exhaustive_hit_ratio", exhaustive_matches / frames,
                 "fraction");
    report.layer("count.exhaustive_share", exhaustive_ns / job_ns,
                 "fraction");
    report.layer("supervise.overhead_ms", supervise_overhead.median(), "ms");
    report.layer("supervise.jobs",
                 static_cast<double>(supervise_overhead.size()), "count");
}

} // namespace

void
runServeMixed(const Options &options, Report &report)
{
    std::vector<const litmus::SuiteEntry *> entries;
    for (const litmus::SuiteEntry &entry : litmus::perpetualSuite())
        entries.push_back(&entry);
    const std::vector<std::string> paths =
        writeTestSources(entries, options.workDir + "/tests");

    ServeTests set;
    set.iterations = options.tiny ? 200 : 2000;
    set.capT3 = options.tiny ? 50 : 200;

    // Set-up: the test set, daemon start and both client connects,
    // each repetition on a fresh state directory.
    Tracer setup_tracer;
    ServeStack stack;
    stack.root = options.workDir + "/serve";
    Samples setup_seconds;
    const auto set_up = [&](int repeat) {
        for (int r = 0; r < repeat; ++r) {
            stack.stop(report);
            timeSetUps(setup_seconds, 1, [&] {
                set.tests = setUpTestSet(
                    paths, options.trace ? &setup_tracer : nullptr);
                stack.start();
            });
        }
    };
    set_up(kSetUpRepeats);
    checkVerdicts(set.tests, report);
    for (const SetUpTest &t : set.tests)
        set.sources.push_back(litmus::writeTest(t.test));

    const double daemon_seconds =
        options.trace ? options.seconds * 0.35 : options.seconds;
    const DaemonPhase untraced = runDaemonPhase(
        stack.clients, set, options, daemon_seconds, false, report);
    if (!options.trace)
        set_up(kSetUpRepeats);
    stack.stop(report);

    double targets = 0;
    Samples cold;
    Samples hits;
    for (const ClientLog &log : untraced.clients) {
        targets += log.targets;
        for (const double s : log.coldSeconds)
            cold.add(s);
        for (const double s : log.hitSeconds)
            hits.add(s);
    }
    report.detail("hit_p50_ms",
                  measured("hit_p50_ms", hits.median() * 1e3, "ms"));
    report.detail("cold_jobs", serve::Json::numberUnsigned(cold.size()));
    report.detail("hits", serve::Json::numberUnsigned(hits.size()));
    if (!options.trace) {
        report.metric("setup_s", setup_seconds.median(), "s");
        reportJobMetrics(
            report, cold,
            static_cast<double>(cold.size() + hits.size()) / untraced.wall,
            targets / untraced.wall);
        report.metric("peak_rss_mb", peakRssMb(true), "MiB");
        return;
    }

    // Traced daemon phase: a fresh daemon, the same job sequence, each
    // protocol event timestamped as the client reads it.
    stack.start();
    const DaemonPhase traced = runDaemonPhase(stack.clients, set, options,
                                              daemon_seconds, true, report);
    Samples ping_us;
    for (int i = 0; i < 100; ++i) {
        WallTimer timer;
        if (!stack.clients[0]->ping())
            report.fail("ping got no pong");
        ping_us.add(timer.elapsedSeconds() * 1e6);
    }
    double corpus_scan_ms = 0;
    std::size_t corpus_files = 0;
    {
        WallTimer timer;
        const std::string corpus = stack.daemon->config().corpusDir;
        const trace::CorpusReport scan =
            trace::scanCorpus(trace::discoverCorpus(corpus), {.jobs = 1});
        trace::writeCorpusManifest(corpus + "/corpus.json", scan);
        corpus_scan_ms = timer.elapsedSeconds() * 1e3;
        corpus_files = scan.files.size();
    }
    stack.stop(report);

    std::vector<double> untraced_seconds;
    std::vector<double> traced_seconds;
    commonColdPrefix(untraced, traced, untraced_seconds, traced_seconds,
                     report);

    Samples admit;
    Samples queue_wait;
    Samples exec;
    double submissions = 0;
    double traced_hits = 0;
    for (const ClientLog &log : traced.clients) {
        admit.add(log.admit);
        queue_wait.add(log.queueWait);
        exec.add(log.exec);
        submissions += static_cast<double>(log.coldSeconds.size() +
                                           log.hitSeconds.size());
        traced_hits += static_cast<double>(log.hitSeconds.size());
    }

    const serve::Json *stats = traced.status.find("stats");
    checkUser(stats != nullptr, "status event without stats");
    const double executed =
        static_cast<double>(stats->uintOr("executed", 0));
    report.layer("serve.admit_ms", admit.median() * 1e3, "ms");
    report.layer("serve.queue_wait_ms", queue_wait.median() * 1e3, "ms");
    report.layer("serve.exec_ms", exec.median() * 1e3, "ms");
    report.layer("serve.ping_us", ping_us.median(), "us");
    report.layer("serve.hit_ratio", traced_hits / submissions, "fraction");
    report.layer(
        "serve.journal_writes_per_job",
        static_cast<double>(stats->uintOr("journal_writes", 0)) / executed,
        "count");
    report.layer("serve.captures",
                 static_cast<double>(stats->uintOr("captures", 0)), "count");
    report.layer("trace.corpus_scan_ms_per_file",
                 corpus_scan_ms / static_cast<double>(corpus_files), "ms");

    Tracer tracer;
    runReferenceJobs(set, options, untraced.clients[0],
                     options.seconds * 0.15, tracer, report);
    checkNoChildren(report);
    reportSetUpLayers(setup_tracer, report);
    reportTracingOverhead(report, untraced_seconds, traced_seconds);
    if (!options.spansOut.empty())
        tracer.writeChromeTrace(options.spansOut);
}

} // namespace perple::perfbench
