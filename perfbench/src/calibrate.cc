/**
 * @file
 * The calibrate workload: identify and calibrate the five apps at
 * sweep size, on training and on production inputs, up to each Pareto
 * frontier — the offline cost behind the paper's Figures 5 and 6.
 */
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "apps/bodytrack/bodytrack_app.h"
#include "apps/searchx/searchx_app.h"
#include "apps/spmv/spmv_app.h"
#include "apps/swaptions/swaptions_app.h"
#include "apps/videnc/videnc_app.h"
#include "common.h"
#include "core/calibration.h"
#include "core/identify.h"
#include "seams.h"
#include "sim/machine.h"

namespace perfbench {

namespace {

using namespace powerdial;

using AppList = std::vector<std::unique_ptr<core::App>>;

/** The five apps at the calibration benches' sweep sizes. */
AppList
makeApps(std::uint64_t seed)
{
    AppList apps;
    {
        apps::swaptions::SwaptionsConfig config;
        config.inputs = 8;
        config.swaptions_per_input = 24;
        config.seed = deriveSeed(seed, 11);
        apps.push_back(std::make_unique<apps::swaptions::SwaptionsApp>(config));
    }
    {
        apps::videnc::VidencConfig config;
        config.inputs = 8;
        config.video.width = 64;
        config.video.height = 48;
        config.video.frames = 10;
        config.seed = deriveSeed(seed, 12);
        apps.push_back(std::make_unique<apps::videnc::VidencApp>(config));
    }
    {
        apps::bodytrack::BodytrackConfig config;
        config.inputs = 6;
        config.frames = 40;
        config.seed = deriveSeed(seed, 13);
        apps.push_back(std::make_unique<apps::bodytrack::BodytrackApp>(config));
    }
    {
        apps::searchx::SearchxConfig config;
        config.inputs = 8;
        config.queries_per_input = 50;
        config.seed = deriveSeed(seed, 14);
        apps.push_back(std::make_unique<apps::searchx::SearchxApp>(config));
    }
    {
        apps::spmv::SpmvConfig config;
        config.seed = deriveSeed(seed, 15);
        apps.push_back(std::make_unique<apps::spmv::SpmvApp>(config));
    }
    return apps;
}

/** One identify-and-calibrate pass over every app. */
struct Pass
{
    double wall_s = 0.0;
    std::vector<double> app_s;  //!< Per app, identify to last frontier.
    double identify_s = 0.0;
    double calibrate_s = 0.0;   //!< Inside core::calibrate only.
    std::size_t runs = 0;
    std::size_t frontiers = 0;
    bool accepted = true;
    Digest digest;
    std::vector<double> frontier_seconds; //!< Virtual s per frontier run.
    std::vector<double> frontier_qos;
};

void
recordFrontier(Pass &pass, const core::ResponseModel &model)
{
    pass.digest.add("baseline_s", model.baselineSeconds()).line();
    for (const auto &point : model.pareto()) {
        pass.digest.add("combination", point.combination)
            .add("speedup", point.speedup)
            .add("qos", point.qos_loss)
            .line();
        pass.frontier_seconds.push_back(model.baselineSeconds() / point.speedup);
        pass.frontier_qos.push_back(point.qos_loss);
    }
    if (!model.pareto().empty())
        ++pass.frontiers;
}

/** Run the pass on @p apps, or on TimedApp wrappers when @p clocks. */
Pass
runPass(const AppList &apps, SeamClocks *clocks)
{
    Pass pass;
    core::CalibrationOptions options;
    options.threads = workerThreads();
    const Stopwatch total;
    for (const auto &original : apps) {
        std::unique_ptr<core::App> timed;
        if (clocks != nullptr)
            timed = std::make_unique<TimedApp>(original->clone(), *clocks);
        core::App &app = clocks != nullptr ? *timed : *original;

        const Stopwatch per_app;
        const Stopwatch identify;
        const auto ident = core::identifyKnobs(app);
        pass.identify_s += identify.seconds();
        pass.accepted = pass.accepted && ident.analysis.accepted;
        pass.digest.add(app.name().c_str(), app.knobSpace().combinations())
            .line();
        for (const auto &inputs :
             {app.trainingInputs(), app.productionInputs()}) {
            const Stopwatch watch;
            const auto result = core::calibrate(app, inputs, options);
            pass.calibrate_s += watch.seconds();
            pass.runs += app.knobSpace().combinations() * inputs.size();
            recordFrontier(pass, result.model);
        }
        pass.app_s.push_back(per_app.seconds());
    }
    pass.wall_s = total.seconds();
    return pass;
}

} // namespace

Result
runCalibrate(const Options &options)
{
    Result result;

    // One set-up before the first pass and one after every pass, so
    // the median spans the run rather than one moment of it.
    std::vector<double> setups;
    AppList apps;
    const auto setUp = [&]() {
        const Stopwatch watch;
        AppList fresh = makeApps(options.seed);
        setups.push_back(watch.seconds());
        return fresh;
    };
    apps = setUp();
    const double requested = 2.0 * static_cast<double>(apps.size());

    std::string reference;
    const auto checkPass = [&](const Pass &pass, const char *what) {
        if (reference.empty()) {
            reference = pass.digest.text();
            result.digest = pass.digest.fingerprint();
        }
        result.check(pass.accepted &&
                         static_cast<double>(pass.frontiers) == requested &&
                         pass.digest.text() == reference,
                     what);
    };

    SeamClocks clocks;
    std::vector<double> walls, traced_walls;
    std::vector<std::vector<double>> app_s(apps.size());
    Pass first;
    double identify_s = 0.0, sweep_s = 0.0;
    const Stopwatch budget;
    do {
        Pass pass = runPass(apps, nullptr);
        checkPass(pass, "pass accepts all knobs, reaches every frontier, matches the first pass");
        walls.push_back(pass.wall_s);
        for (std::size_t a = 0; a < apps.size(); ++a)
            app_s[a].push_back(pass.app_s[a]);
        if (walls.size() == 1)
            first = std::move(pass);
        if (options.trace) {
            const Pass traced = runPass(apps, &clocks);
            checkPass(traced, "traced pass accepts all knobs, reaches every frontier, matches untraced");
            traced_walls.push_back(traced.wall_s);
            identify_s += traced.identify_s;
            sweep_s += traced.calibrate_s;
        }
        setUp();
    } while (budget.seconds() < options.seconds);

    std::fprintf(stderr, "[perfbench] pass walls (s):");
    for (const double wall : walls)
        std::fprintf(stderr, " %.3f", wall);
    std::fprintf(stderr, "\n");

    // Time to every frontier: per app, the median over the passes.
    double calibrate_s = 0.0;
    for (const auto &samples : app_s)
        calibrate_s += median(samples);
    const double setup_s = median(setups);

    if (!options.trace) {
        const double p99 = percentile(first.frontier_seconds, 0.99);
        const sim::Machine machine{sim::Machine::Config{}};
        result.add("jobs_per_s", requested / calibrate_s, "1/s");
        result.add("calibrate_s", calibrate_s, "s");
        result.add("setup_s", setup_s, "s");
        result.add("peak_rss_mb", peakRssMb(), "MiB");
        result.add("served_pct",
                   100.0 * static_cast<double>(first.frontiers) / requested,
                   "%");
        result.add("sim_p99_latency_s", p99, "vs");
        result.add("sim_qos_loss_pct",
                   100.0 *
                       std::accumulate(first.frontier_qos.begin(),
                                       first.frontier_qos.end(), 0.0) /
                       static_cast<double>(first.frontier_qos.size()),
                   "%");
        result.add("sim_mean_watts",
                   machine.powerModel().watts(machine.frequencyHz(), 1.0), "W");
        result.add("sim_c0_p99_latency_s", p99, "vs");
        return result;
    }

    const double n = static_cast<double>(traced_walls.size());
    const WorkerClock::Totals kernel = clocks.kernel.merge();
    const auto perCall = [](const LayerClock &clock) {
        const auto calls = clock.calls.load();
        return calls == 0 ? 0.0
                          : static_cast<double>(clock.ns.load()) /
                static_cast<double>(calls);
    };
    result.add("core.identify_s", identify_s / n, "s");
    result.add("core.calibrate.runs", static_cast<double>(first.runs), "count");
    result.add("core.calibrate.ns_per_run",
               1e9 * sweep_s / (n * static_cast<double>(first.runs)), "ns");
    result.add("apps.kernel.beats", static_cast<double>(kernel.calls) / n,
               "count");
    result.add("apps.kernel.ns_per_beat",
               static_cast<double>(kernel.ns) /
                   static_cast<double>(kernel.calls),
               "ns");
    // Share of the workers' time inside core::calibrate.
    result.add("apps.kernel.share",
               static_cast<double>(kernel.ns) /
                   (1e9 * sweep_s * static_cast<double>(workerThreads())),
               "share");
    for (std::size_t a = 0; a < apps.size(); ++a)
        result.add("apps." + apps[a]->name() + ".calibrate_s",
                   median(app_s[a]), "s");
    result.add("core.tenant.clone_ns", perCall(clocks.clone), "ns");
    result.add("core.tenant.bind_ns", perCall(clocks.bind), "ns");
    result.add("workload.gen_s", setup_s, "s");
    result.add("trace.overhead_pct",
               100.0 * (median(traced_walls) / median(walls) - 1.0), "%");
    return result;
}

} // namespace perfbench
