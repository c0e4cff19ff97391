/**
 * @file
 * perfbench: the campaign-job benchmark program.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --work-dir DIR [--spans-out FILE] [--tiny]
 *             [--inject-mismatch]
 *
 * Prints a detail line (everything measured and the host, as JSON) and,
 * last, the result line {"correct", "attempted", "failed", "metrics"}:
 * the end-to-end metrics with --trace 0, the per-layer metrics of a
 * traced second phase with --trace 1. Exits 1 when any answer check
 * failed. Working files live in DIR/run-<pid>, removed on every exit
 * path; run.py beside this file builds and runs it.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>

#include "common/cli.h"
#include "common/error.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "perfbench.h"

namespace perple::perfbench
{

namespace
{

std::atomic<bool> g_stop{false};

extern "C" void
onStopSignal(int)
{
    g_stop.store(true, std::memory_order_relaxed);
}

/** This process's working directory, removed when the run ends. */
class RunDir
{
  public:
    explicit RunDir(const std::string &parent)
        : path_(parent + format("/run-%d", static_cast<int>(getpid())))
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }

    ~RunDir()
    {
        std::error_code ignored;
        std::filesystem::remove_all(path_, ignored);
    }

    RunDir(const RunDir &) = delete;
    RunDir &operator=(const RunDir &) = delete;

    const std::string &
    path() const
    {
        return path_;
    }

  private:
    std::string path_;
};

std::string
cpuModel()
{
    std::ifstream info("/proc/cpuinfo");
    std::string line;
    while (std::getline(info, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const auto colon = line.find(':');
        const auto begin = line.find_first_not_of(" \t", colon + 1);
        if (colon != std::string::npos && begin != std::string::npos)
            return line.substr(begin);
    }
    return "unknown";
}

serve::Json
hostJson()
{
    serve::Json host = serve::Json::object();
    host.set("nproc", serve::Json::numberUnsigned(
                          common::ThreadPool::hardwareThreads()));
    host.set("cpu_model", serve::Json::string(cpuModel()));
    host.set("build_type", serve::Json::string(PERFBENCH_BUILD_TYPE));
    host.set("compiler", serve::Json::string(PERFBENCH_COMPILER));
    host.set("perple_native",
             serve::Json::boolean(PERFBENCH_PERPLE_NATIVE != 0));
    return host;
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "suite-heuristic|exact-count|serve-mixed|"
                 "stream-reanalyze\n"
                 "                 --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR\n"
                 "                 [--spans-out FILE] [--tiny] "
                 "[--inject-mismatch]\n");
}

Options
parseOptions(int argc, char **argv)
{
    Options options;
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--tiny") {
            options.tiny = true;
            continue;
        }
        if (flag == "--inject-mismatch") {
            options.injectMismatch = true;
            continue;
        }
        checkUser(i + 1 < argc, format("%s needs a value", flag.c_str()));
        const std::string value = argv[++i];
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            options.seed = common::parseSeedArg("--seed", value);
            have_seed = true;
        } else if (flag == "--seconds") {
            options.seconds =
                common::parseSecondsArg("--seconds", value, 0.001);
            have_seconds = true;
        } else if (flag == "--trace") {
            options.trace = common::parseIntArg("--trace", value, 0, 1) == 1;
            have_trace = true;
        } else if (flag == "--work-dir") {
            common::ensureWritableDir("--work-dir", value);
            options.workDir = value;
        } else if (flag == "--spans-out") {
            common::ensureWritableParent("--spans-out", value);
            options.spansOut = value;
        } else {
            fatal(format("unknown flag %s", flag.c_str()));
        }
    }
    checkUser(have_seed && have_seconds && have_trace &&
                  !options.workDir.empty(),
              "--seed, --seconds, --trace and --work-dir are required");
    return options;
}

} // namespace

bool
stopRequested()
{
    return g_stop.load(std::memory_order_relaxed);
}

} // namespace perple::perfbench

int
main(int argc, char **argv)
{
    using namespace perple;
    using namespace perple::perfbench;

    Options options;
    try {
        options = parseOptions(argc, argv);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "perfbench: %s\n", error.what());
        usage();
        return 2;
    }
    void (*run)(const Options &, Report &) = nullptr;
    if (options.workload == "suite-heuristic")
        run = runSuiteHeuristic;
    else if (options.workload == "exact-count")
        run = runExactCount;
    else if (options.workload == "serve-mixed")
        run = runServeMixed;
    else if (options.workload == "stream-reanalyze")
        run = runStreamReanalyze;
    if (run == nullptr) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     options.workload.c_str());
        usage();
        return 2;
    }

    std::signal(SIGINT, onStopSignal);
    std::signal(SIGTERM, onStopSignal);

    Report report;
    try {
        const RunDir run_dir(options.workDir);
        options.workDir = run_dir.path();
        run(options, report);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "perfbench: %s: %s\n",
                     options.workload.c_str(), error.what());
        return 2;
    }
    if (stopRequested()) {
        std::fprintf(stderr, "perfbench: interrupted\n");
        return 2;
    }

    serve::Json detail = report.details();
    detail.set("workload", serve::Json::string(options.workload));
    detail.set("seed", serve::Json::numberUnsigned(options.seed));
    detail.set("trace", serve::Json::boolean(options.trace));
    detail.set("host", hostJson());
    std::printf("detail: %s\n", detail.dump().c_str());
    std::printf("%s\n", report.resultJson().dump().c_str());
    std::fflush(stdout);
    return report.correct() ? 0 : 1;
}
