#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sys/resource.h>

#include "common/error.h"
#include "common/strings.h"
#include "litmus/registry.h"
#include "litmus/validator.h"
#include "litmus/writer.h"
#include "model/classify.h"
#include "perfbench.h"
#include "sim/machine.h"

namespace perple::perfbench
{

double
Samples::sum() const
{
    double total = 0;
    for (const double value : values_)
        total += value;
    return total;
}

double
Samples::median() const
{
    if (values_.empty())
        return 0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t mid = sorted.size() / 2;
    return sorted.size() % 2 == 1 ? sorted[mid]
                                  : (sorted[mid - 1] + sorted[mid]) / 2;
}

Samples::Tail
Samples::tail() const
{
    Tail tail;
    tail.samples = values_.size();
    if (values_.empty())
        return tail;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    constexpr std::size_t kBeyond = 10;
    const std::size_t n = sorted.size();
    if (n <= kBeyond) {
        tail.value = sorted.back();
        tail.percentile = 100;
        return tail;
    }
    tail.value = sorted[n - kBeyond - 1];
    tail.percentile = 100.0 * (1.0 - static_cast<double>(kBeyond) /
                                         static_cast<double>(n));
    return tail;
}

int
Tracer::begin(const std::string &name, std::int64_t job, int parent)
{
    spans_.push_back({name, job, parent, clock_.elapsedNs(), 0});
    return static_cast<int>(spans_.size() - 1);
}

void
Tracer::end(int id)
{
    spans_[static_cast<std::size_t>(id)].endNs = clock_.elapsedNs();
}

Samples
Tracer::durations(const std::string &name) const
{
    Samples samples;
    for (const Span &span : spans_)
        if (span.name == name)
            samples.add(static_cast<double>(span.endNs - span.startNs));
    return samples;
}

double
Tracer::totalNs(const std::string &name) const
{
    return durations(name).sum();
}

void
Tracer::writeChromeTrace(const std::string &path) const
{
    serve::Json events = serve::Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        serve::Json event = serve::Json::object();
        event.set("name", serve::Json::string(span.name));
        event.set("ph", serve::Json::string("X"));
        event.set("ts", serve::Json::numberDouble(
                            static_cast<double>(span.startNs) / 1e3));
        event.set("dur",
                  serve::Json::numberDouble(
                      static_cast<double>(span.endNs - span.startNs) /
                      1e3));
        event.set("pid", serve::Json::number(1));
        event.set("tid", serve::Json::number(1));
        serve::Json args = serve::Json::object();
        args.set("span", serve::Json::numberUnsigned(i));
        args.set("job", serve::Json::number(span.job));
        args.set("parent", serve::Json::number(span.parent));
        event.set("args", std::move(args));
        events.push(std::move(event));
    }
    serve::Json root = serve::Json::object();
    root.set("traceEvents", std::move(events));
    std::ofstream out(path);
    out << root.dump() << '\n';
    checkUser(out.good(), format("cannot write %s", path.c_str()));
}

void
Report::fail(const std::string &why)
{
    ++failed_;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

serve::Json
measured(const std::string &name, double value, const std::string &unit)
{
    // A non-finite value would print as invalid JSON; it can only come
    // from a phase that measured nothing, which is a benchmark bug.
    checkInternal(std::isfinite(value),
                  format("%s is not finite", name.c_str()));
    serve::Json entry = serve::Json::object();
    entry.set("value", serve::Json::numberDouble(value));
    entry.set("unit", serve::Json::string(unit));
    return entry;
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_.set(name, measured(name, value, unit));
}

void
Report::layer(const std::string &name, double value,
              const std::string &unit)
{
    layers_.set(name, measured(name, value, unit));
}

void
Report::detail(const std::string &key, serve::Json value)
{
    details_.set(key, std::move(value));
}

serve::Json
Report::details() const
{
    serve::Json details = details_;
    if (!layers_.members().empty())
        details.set("layers", layers_);
    return details;
}

serve::Json
Report::resultJson() const
{
    serve::Json result = serve::Json::object();
    result.set("correct", serve::Json::boolean(correct()));
    result.set("attempted", serve::Json::numberUnsigned(attempted_));
    result.set("failed", serve::Json::numberUnsigned(failed_));
    result.set("metrics", metrics_);
    return result;
}

std::vector<std::string>
writeTestSources(const std::vector<const litmus::SuiteEntry *> &entries,
                 const std::string &dir)
{
    std::filesystem::create_directories(dir);
    std::vector<std::string> paths;
    for (const litmus::SuiteEntry *entry : entries) {
        const std::string path = dir + "/" + entry->test.name + ".litmus";
        std::ofstream out(path);
        out << litmus::writeTest(entry->test);
        checkUser(out.good(), format("cannot write %s", path.c_str()));
        paths.push_back(path);
    }
    return paths;
}

std::vector<SetUpTest>
setUpTestSet(const std::vector<std::string> &paths, Tracer *tracer)
{
    std::vector<SetUpTest> tests;
    tests.reserve(paths.size());
    for (std::size_t i = 0; i < paths.size(); ++i) {
        const auto job = static_cast<std::int64_t>(i);
        SetUpTest entry;
        {
            ScopedSpan span(tracer, "litmus.load", job);
            entry.test = litmus::loadTestSpec(paths[i]);
            litmus::validateOrThrow(entry.test);
        }
        {
            ScopedSpan span(tracer, "perple.convert", job);
            entry.perpetual = core::convert(entry.test);
        }
        {
            ScopedSpan span(tracer, "model.classify", job);
            entry.verdict = model::classifyTarget(entry.test,
                                                  model::MemoryModel::TSO);
        }
        tests.push_back(std::move(entry));
    }
    return tests;
}

void
checkVerdicts(const std::vector<SetUpTest> &tests, Report &report)
{
    serve::Json unchecked = serve::Json::array();
    for (const SetUpTest &entry : tests) {
        if (entry.verdict != litmus::findTest(entry.test.name).expected)
            report.fail(format("%s: the TSO model classifies the target "
                               "differently from the registry",
                               entry.test.name.c_str()));
        if (entry.verdict == litmus::TsoVerdict::Forbidden &&
            !mustNotObserveTarget(entry))
            unchecked.push(serve::Json::string(entry.test.name));
    }
    if (!unchecked.items().empty())
        report.detail("forbidden_target_unchecked", std::move(unchecked));
}

bool
mustNotObserveTarget(const SetUpTest &t)
{
    if (t.verdict != litmus::TsoVerdict::Forbidden)
        return false;
    const litmus::Test &test = t.test;
    for (const litmus::Condition &c : test.target.conditions) {
        if (c.kind != litmus::Condition::Kind::Register || c.value == 0)
            continue;
        litmus::LocationId loc = -1;
        for (const litmus::Instruction &i :
             test.threads[static_cast<std::size_t>(c.thread)].instructions)
            if (i.kind == litmus::OpKind::Load && i.reg == c.reg)
                loc = i.loc;
        for (const litmus::Thread &thread : test.threads) {
            bool stored_v = false;
            for (const litmus::Instruction &i : thread.instructions) {
                if (i.kind != litmus::OpKind::Store || i.loc != loc)
                    continue;
                if (stored_v)
                    return false;
                stored_v = i.value == c.value;
            }
        }
    }
    return true;
}

void
reportSetUpLayers(const Tracer &tracer, Report &report)
{
    report.metric("litmus.load_us",
                  tracer.durations("litmus.load").median() / 1e3, "us");
    report.metric("convert.us",
                  tracer.durations("perple.convert").median() / 1e3,
                  "us");
    report.metric("model.classify_us",
                  tracer.durations("model.classify").median() / 1e3,
                  "us");
}

core::HarnessResult
runTracedJob(const core::PerpetualTest &perpetual, std::int64_t iterations,
             const std::vector<litmus::Outcome> &outcomes,
             const core::HarnessConfig &config, Tracer &tracer,
             std::int64_t job)
{
    core::HarnessResult result;
    result.iterations = iterations;
    const ScopedSpan root(&tracer, "job", job);
    {
        // runPerpetual's simulator set-up: the job seed, shared
        // addressing.
        ScopedSpan span(&tracer, "sim.exec", job, root.id());
        sim::MachineConfig machine_config = config.machine;
        machine_config.seed = config.seed;
        machine_config.addressMode = sim::AddressMode::Shared;
        sim::Machine machine(perpetual.programs,
                             perpetual.original.numLocations(),
                             machine_config);
        machine.runFree(iterations, 0, result.run);
    }
    if (config.runExhaustive) {
        core::HarnessConfig alone = config;
        alone.runHeuristic = false;
        ScopedSpan span(&tracer, "count.exhaustive", job, root.id());
        core::analyzeRun(perpetual, iterations, outcomes, alone, result);
    }
    {
        core::HarnessConfig alone = config;
        alone.runExhaustive = false;
        ScopedSpan span(&tracer, "count.heuristic", job, root.id());
        core::analyzeRun(perpetual, iterations, outcomes, alone, result);
    }
    return result;
}

void
reportExecAndCountLayers(Report &report, double exec_ns, double job_ns,
                         double heuristic_ns, double iterations,
                         double matches)
{
    report.metric("sim.exec_ns_per_iter", exec_ns / iterations, "ns");
    report.metric("sim.exec_share", exec_ns / job_ns, "fraction");
    report.metric("count.heuristic_ns_per_iter", heuristic_ns / iterations,
                  "ns");
    report.metric("count.heuristic_hit_ratio", matches / iterations,
                  "fraction");
}

std::uint64_t
jobSeed(std::uint64_t seed, std::uint64_t pass, std::uint64_t index)
{
    // splitmix64 over the three coordinates: nearby jobs get unrelated
    // simulator seeds, and the same (seed, pass, index) always the same.
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + pass;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull + index;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
peakRssMb(bool with_children)
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    long kib = usage.ru_maxrss;
    if (with_children) {
        rusage children{};
        getrusage(RUSAGE_CHILDREN, &children);
        kib = std::max(kib, children.ru_maxrss);
    }
    return static_cast<double>(kib) / 1024.0;
}

void
PassRates::add(double jobs, double targets, double seconds)
{
    if (jobs == 0 || seconds <= 0)
        return;
    jobs_.add(jobs / seconds);
    targets_.add(targets / seconds);
}

void
reportJobMetrics(Report &report, const Samples &job_seconds,
                 double jobs_per_s, double targets_per_s)
{
    checkInternal(job_seconds.size() > 0,
                  "no job completed in the measured phase");
    report.metric("jobs_per_s", jobs_per_s, "1/s");
    report.metric("targets_per_s", targets_per_s, "1/s");
    report.metric("job_p50_ms", job_seconds.median() * 1e3, "ms");
    const Samples::Tail tail = job_seconds.tail();
    report.metric("job_tail_ms", tail.value * 1e3, "ms");
    serve::Json detail = serve::Json::object();
    detail.set("percentile", serve::Json::numberDouble(tail.percentile));
    detail.set("samples", serve::Json::numberUnsigned(tail.samples));
    report.detail("job_tail", std::move(detail));
}

void
reportTracingOverhead(Report &report, const std::vector<double> &untraced,
                      const std::vector<double> &traced)
{
    const std::size_t common = std::min(untraced.size(), traced.size());
    checkInternal(common > 0, "no job ran in both phases");
    double plain = 0;
    double instrumented = 0;
    for (std::size_t i = 0; i < common; ++i) {
        plain += untraced[i];
        instrumented += traced[i];
    }
    report.metric("tracing.overhead_pct",
                  100.0 * (instrumented / plain - 1.0), "%");
    report.detail("tracing_overhead_jobs",
                  serve::Json::numberUnsigned(common));
}

} // namespace perple::perfbench
