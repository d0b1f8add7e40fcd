/**
 * @file
 * The two fleet workloads: fleet_scale (1000 homogeneous machines,
 * least-loaded placement, blind admission) and fleet_slo (a big.LITTLE
 * fleet with affinity-aware placement, predictive admission and a
 * three-class traffic mix with a flash crowd). Both serve microsim
 * tenants on the discrete-event engine under a cluster power cap.
 */
#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "core/calibration.h"
#include "core/fanout.h"
#include "core/identify.h"
#include "core/session.h"
#include "fleet/server.h"
#include "heartbeats/heartbeat.h"
#include "microsim.h"
#include "seams.h"
#include "sim/cluster.h"
#include "sim/machine_catalog.h"
#include "workload/arrivals.h"
#include "workload/load_trace.h"
#include "workload/traffic_mix.h"

namespace perfbench {

namespace {

using namespace powerdial;

using Offers = std::vector<std::vector<workload::OfferedJob>>;

bool selfTest();

/** Sizes of one fleet workload; the self-test shrinks them. */
struct FleetShape
{
    bool slo = false;
    std::size_t machines = 1000; //!< fleet_scale: homogeneous count.
    std::size_t big = 250;       //!< fleet_slo: big.LITTLE mix.
    std::size_t little = 750;
    std::size_t steps = 100;
    double peak_rate = 4000.0;
};

FleetShape
scaleShape()
{
    return {};
}

FleetShape
sloShape()
{
    FleetShape shape;
    shape.slo = true;
    shape.peak_rate = 2000.0;
    return shape;
}

/** Everything before the timed section, plus how long its parts took. */
struct FleetSetup
{
    MicrosimApp app;
    core::IdentificationResult ident;
    core::CalibrationResult cal;
    fleet::ServerOptions options;
    std::vector<std::size_t> arrivals; //!< fleet_scale schedule.
    Offers offers;                     //!< fleet_slo schedule.
    std::size_t offered = 0;
    std::unique_ptr<fleet::Server> server;

    double gen_s = 0.0;
    double total_s = 0.0;
};

/** The three-class population of fleet_slo, deadlines off baseline. */
std::vector<workload::TenantProfile>
sloProfiles(double baseline_s)
{
    return {
        {2, 0, baseline_s * 4.0}, // Premium, the most popular.
        {3, 1, baseline_s * 3.0}, // Standard.
        {2, 2, baseline_s * 2.0}, // Best-effort...
        {3, 2, baseline_s * 2.0}, // ...two tenants of it.
    };
}

/**
 * fleet_scale's offered load: a jittered 25% base with full-load spikes
 * of kSpikeLength epochs, one at a seeded offset inside each window of
 * kSpikeWindow epochs and at least kSpikeGap base epochs apart. Every
 * seed offers the same spikes, so seeds vary the inputs, not the size
 * or shape of the workload.
 */
std::vector<double>
spikyTrace(const FleetShape &shape, std::uint64_t seed)
{
    constexpr std::size_t kSpikeWindow = 16;
    constexpr std::size_t kSpikeLength = 6;
    constexpr std::size_t kSpikeGap = 4;
    workload::LoadTraceParams params;
    params.steps = shape.steps;
    params.base_utilization = 0.25;
    params.spike_probability = 0.0;
    params.seed = deriveSeed(seed, 1);
    std::vector<double> trace = workload::makeLoadTrace(params);
    for (std::size_t w = 0; w + kSpikeWindow <= trace.size();
         w += kSpikeWindow) {
        const std::size_t start = w +
            deriveSeed(seed, 100 + w) %
                (kSpikeWindow - kSpikeLength - kSpikeGap + 1);
        std::fill_n(trace.begin() + static_cast<std::ptrdiff_t>(start),
                    kSpikeLength, 1.0);
    }
    return trace;
}

double
peakWattsOf(const sim::Machine::Config &config)
{
    return sim::Machine(config).powerModel().peakWatts();
}

std::unique_ptr<FleetSetup>
setUp(const FleetShape &shape, std::uint64_t seed)
{
    const Stopwatch total;
    auto setup = std::make_unique<FleetSetup>();
    const std::size_t threads = workerThreads();

    setup->ident = core::identifyKnobs(setup->app);
    // Six tiny runs: serial, a worker pool would only add thread start-up.
    setup->cal = core::calibrate(setup->app, setup->app.trainingInputs());
    const double baseline_s = static_cast<double>(MicrosimApp::kUnits) /
        setup->cal.model.baselineRate();

    fleet::ServerOptions &options = setup->options;
    options.threads = threads;
    options.engine = fleet::EngineMode::Event;
    options.arbiter.policy = fleet::ArbiterPolicy::QosFeedback;

    const Stopwatch gen;
    if (!shape.slo) {
        options.machines = shape.machines;
        options.epoch_seconds = baseline_s;
        options.placement = fleet::makeLeastLoadedPlacement();
        options.admission = fleet::makeQueueDepthAdmission();
        options.arbiter.cluster_cap_watts = 0.6 *
            static_cast<double>(shape.machines) * peakWattsOf(options.machine);

        workload::PoissonArrivalParams poisson;
        poisson.peak_rate = shape.peak_rate;
        poisson.seed = deriveSeed(seed, 2);
        setup->arrivals =
            workload::makePoissonArrivals(spikyTrace(shape, seed), poisson);
        setup->offered = std::accumulate(setup->arrivals.begin(),
                                         setup->arrivals.end(),
                                         std::size_t{0});
    } else {
        options.catalog = sim::MachineCatalog::bigLittle();
        options.class_mix = {shape.big, shape.little};
        options.epoch_seconds = baseline_s * 0.5;
        options.queue_depth = 12;
        options.placement = fleet::makeAffinityAwarePlacement();
        options.admission = fleet::makePredictiveAdmission();
        // 80% of peak sits just below this fleet's uncapped draw, so the
        // heterogeneous budget split binds through the flash crowd.
        options.arbiter.cluster_cap_watts = 0.8 *
            (static_cast<double>(shape.big) *
                 peakWattsOf(options.catalog.at(0).config) +
             static_cast<double>(shape.little) *
                 peakWattsOf(options.catalog.at(1).config));

        workload::TrafficMixParams mix;
        mix.steps = shape.steps;
        mix.trace.base_utilization = 0.5;
        mix.trace.jitter = 0.03;
        mix.trace.spike_probability = 0.0;
        mix.trace.seed = deriveSeed(seed, 3);
        mix.flash_crowds = {{shape.steps / 3, shape.steps / 6 + 1, 0.9}};
        mix.peak_rate = shape.peak_rate;
        mix.seed = deriveSeed(seed, 4);
        auto traffic = workload::makeTrafficMix(mix, sloProfiles(baseline_s));
        setup->offers = std::move(traffic.offers);
        setup->offered = traffic.total_offered;
    }
    setup->gen_s = gen.seconds();

    setup->server = std::make_unique<fleet::Server>(
        setup->app, setup->ident.table, setup->cal.model, options);
    setup->total_s = total.seconds();
    return setup;
}

fleet::FleetReport
serveOn(fleet::Server &server, const FleetSetup &setup)
{
    return setup.offers.empty() ? server.serve(setup.arrivals)
                                : server.serve(setup.offers);
}

/**
 * A server over the same fleet whose seams are all decorated: placement,
 * admission and tenant app timed into @p clocks, arbitration rounds
 * counted by the probe into @p rounds.
 */
struct TracedServer
{
    TracedServer(const FleetSetup &setup, SeamClocks &clocks,
                 std::size_t &rounds)
        : app(setup.app.clone(), clocks)
    {
        fleet::ServerOptions options = setup.options;
        options.placement = timedPlacement(options.placement, clocks);
        options.admission = timedAdmission(options.admission, clocks);
        options.arbitration_probe =
            [&rounds](const fleet::ArbitrationSample &) { ++rounds; };
        server = std::make_unique<fleet::Server>(app, setup.ident.table,
                                                 setup.cal.model, options);
    }

    TimedApp app;
    std::unique_ptr<fleet::Server> server;
};

/** Mean JobRecord latency breakdown. */
struct Breakdown
{
    double service_s = 0.0;
    double queue_share_s = 0.0;
    double class_deficit_s = 0.0;
    double pause_s = 0.0;
};

Breakdown
breakdownOf(const fleet::FleetReport &report)
{
    Breakdown b;
    for (const auto &job : report.jobs) {
        b.service_s += job.service_s;
        b.queue_share_s += job.queue_share_s;
        b.class_deficit_s += job.class_deficit_s;
        b.pause_s += job.pause_s;
    }
    const double n = report.jobs.empty()
        ? 1.0
        : static_cast<double>(report.jobs.size());
    b.service_s /= n;
    b.queue_share_s /= n;
    b.class_deficit_s /= n;
    b.pause_s /= n;
    return b;
}

double
classP99(const fleet::FleetReport &report, std::size_t job_class)
{
    for (const auto &row : report.classes)
        if (row.job_class == job_class)
            return row.p99_latency_s;
    return 0.0;
}

/** The deterministic summary a pure perf change must not move. */
Digest
summarize(const fleet::FleetReport &report)
{
    Digest d;
    d.add("jobs", report.total_jobs)
        .add("shed", report.total_shed)
        .add("drained", report.drained_jobs)
        .add("p50", report.p50_latency_s)
        .add("p95", report.p95_latency_s)
        .add("p99", report.p99_latency_s)
        .add("qos", report.mean_qos_loss)
        .add("watts", report.mean_watts)
        .line();
    for (const auto &row : report.classes)
        d.add("class", row.job_class)
            .add("jobs", row.jobs)
            .add("shed", row.shed)
            .add("p99", row.p99_latency_s)
            .line();
    const Breakdown b = breakdownOf(report);
    d.add("service", b.service_s)
        .add("queue_share", b.queue_share_s)
        .add("class_deficit", b.class_deficit_s)
        .add("pause", b.pause_s)
        .line();
    return d;
}

/** Conservation: every offered job was either served or shed. */
bool
conserves(const fleet::FleetReport &report, std::size_t offered)
{
    return report.total_jobs + report.total_shed == offered &&
        report.jobs.size() == report.total_jobs;
}

/**
 * Median per-item nanoseconds of @p batch (which performs @p items
 * operations), batched until @p budget_s of host time is spent.
 */
template <typename Fn>
double
medianNsPerItem(double budget_s, double items, Fn &&batch)
{
    std::vector<double> samples;
    const Stopwatch watch;
    do {
        const std::uint64_t start = nowNs();
        const double excluded_ns = batch();
        samples.push_back((static_cast<double>(nowNs() - start) - excluded_ns) /
                          items);
    } while (watch.seconds() < budget_s || samples.size() < 5);
    return median(samples);
}

/** Standalone PowerArbiter::arbitrate on the workload's cluster. */
double
arbitrationNsPerRound(const FleetSetup &setup)
{
    const auto &options = setup.options;
    sim::Cluster cluster = options.catalog.empty()
        ? sim::Cluster(options.machines, options.machine)
        : sim::Cluster(options.catalog, options.class_mix);
    // Half-loaded machines and a varied QoS signal, so every branch of
    // the budget split has work to do.
    std::vector<double> qos(cluster.size());
    for (std::size_t i = 0; i < cluster.size(); ++i) {
        for (std::size_t j = 0; j < (cluster.coresOf(i) + 1) / 2; ++j)
            cluster.place(i);
        qos[i] = 0.002 * static_cast<double>(i % 7);
    }
    fleet::PowerArbiter arbiter(options.arbiter);
    constexpr int kRounds = 16;
    return medianNsPerItem(0.2, kRounds, [&]() {
        for (int r = 0; r < kRounds; ++r)
            arbiter.arbitrate(cluster, qos);
        return 0.0;
    });
}

/**
 * Standalone core::Session::run of one tenant job: host nanoseconds
 * per beat outside the app's processUnit (the control loop, heartbeat
 * and actuation the session wraps around the kernel).
 */
double
sessionControlNsPerBeat(const FleetSetup &setup)
{
    SeamClocks clocks;
    const TimedApp app(setup.app.clone(), clocks);
    auto bound = core::FanoutEngine::cloneBound(app, setup.ident.table, 1);
    core::Session session(*bound.apps[0], bound.tables[0], setup.cal.model,
                          setup.options.session);
    sim::Machine machine(setup.options.catalog.empty()
                             ? setup.options.machine
                             : setup.options.catalog.at(0).config);
    constexpr int kRuns = 200;
    return medianNsPerItem(
        0.3, static_cast<double>(kRuns * MicrosimApp::kUnits), [&]() {
            const std::uint64_t kernel_before = clocks.kernel.merge().ns;
            for (int r = 0; r < kRuns; ++r)
                session.run(2, machine);
            return static_cast<double>(clocks.kernel.merge().ns -
                                       kernel_before);
        });
}

/** Standalone hb::Monitor::beat over job-length beat sequences. */
double
heartbeatNsPerBeat(const FleetSetup &setup)
{
    const double rate = setup.cal.model.baselineRate();
    constexpr int kMonitors = 1000;
    return medianNsPerItem(
        0.2, static_cast<double>(kMonitors * MicrosimApp::kUnits), [&]() {
            for (int m = 0; m < kMonitors; ++m) {
                hb::Monitor monitor(20, hb::HeartRateTarget{rate, rate});
                double t = 0.0;
                for (std::size_t b = 0; b < MicrosimApp::kUnits; ++b) {
                    t += 1.0 / rate;
                    monitor.beat(t);
                }
            }
            return 0.0;
        });
}

/** A served report with its host wall seconds. */
struct Serve
{
    fleet::FleetReport report;
    double wall_s = 0.0;
};

Serve
serveTimed(fleet::Server &server, const FleetSetup &setup)
{
    Serve out;
    const Stopwatch watch;
    out.report = serveOn(server, setup);
    out.wall_s = watch.seconds();
    return out;
}

/**
 * Set-up durations. One set-up takes microseconds (fleet_scale) to
 * milliseconds (fleet_slo), and at that scale this host's speed flips
 * between a fast and a slow mode several times a second. So the run
 * sets up in bursts, one before its first serve and one after every
 * serve, and keeps every sample for percentiles. A burst stops after
 * kBurstSeconds or kBurstSetups, whichever comes first, so the samples
 * stay small beside the serve's own memory and peak RSS stays steady.
 *
 * The tenant's identify and calibrate steps are timed in a burst of
 * their own, back to back: inside a fleet_slo set-up they run right
 * after the traffic generation has flushed the caches, which would make
 * the same microsecond-scale work read several times slower there.
 */
struct SetupTimes
{
    std::vector<double> total, calibrate, identify, calibrate_only, gen;

    void
    sample(const FleetShape &shape, std::uint64_t seed)
    {
        constexpr double kBurstSeconds = 0.2;
        constexpr int kBurstSetups = 200;
        const Stopwatch burst;
        for (int i = 0; i < kBurstSetups && burst.seconds() < kBurstSeconds;
             ++i) {
            const auto setup = setUp(shape, seed);
            total.push_back(setup->total_s);
            gen.push_back(setup->gen_s);
        }
        for (int i = 0; i < kBurstSetups; ++i) {
            MicrosimApp app;
            const Stopwatch tenant;
            const auto ident = core::identifyKnobs(app);
            identify.push_back(tenant.seconds());
            const Stopwatch sweep;
            const auto cal = core::calibrate(app, app.trainingInputs());
            calibrate_only.push_back(sweep.seconds());
            calibrate.push_back(tenant.seconds());
        }
    }
};

Result
runFleet(const FleetShape &shape, const Options &options)
{
    Result result;
    result.check(selfTest(), "traced == untraced on the small fleets");

    SetupTimes setups;
    setups.sample(shape, options.seed);
    const auto setup = setUp(shape, options.seed);
    const std::size_t runs = setup->cal.model.allPoints().size() *
        setup->app.trainingInputs().size();

    SeamClocks clocks;
    std::size_t rounds = 0;
    TracedServer traced(*setup, clocks, rounds);

    std::string reference;
    const auto checkServe = [&](const fleet::FleetReport &report,
                                const char *what) {
        const std::string text = summarize(report).text();
        if (reference.empty()) {
            reference = text;
            result.digest = summarize(report).fingerprint();
            std::fprintf(stderr, "[perfbench] summary:\n%s", text.c_str());
        }
        result.check(conserves(report, setup->offered) && text == reference,
                     what);
    };

    std::vector<double> plain_walls, traced_walls;
    fleet::FleetReport first;
    const Stopwatch budget;
    if (!options.trace) {
        do {
            Serve serve = serveTimed(*setup->server, *setup);
            checkServe(serve.report, "serve conserves jobs, matches the first serve");
            plain_walls.push_back(serve.wall_s);
            if (plain_walls.size() == 1)
                first = std::move(serve.report);
            setups.sample(shape, options.seed);
        } while (budget.seconds() < options.seconds);
        checkServe(serveOn(*traced.server, *setup),
                   "traced serve conserves jobs, matches untraced");
    } else {
        do {
            Serve plain = serveTimed(*setup->server, *setup);
            checkServe(plain.report, "serve conserves jobs, matches the first serve");
            plain_walls.push_back(plain.wall_s);
            if (plain_walls.size() == 1)
                first = std::move(plain.report);
            Serve serve = serveTimed(*traced.server, *setup);
            checkServe(serve.report, "traced serve conserves jobs, matches untraced");
            traced_walls.push_back(serve.wall_s);
            setups.sample(shape, options.seed);
        } while (budget.seconds() < options.seconds);
    }

    std::fprintf(stderr, "[perfbench] serve walls (s):");
    for (const double wall : plain_walls)
        std::fprintf(stderr, " %.3f", wall);
    std::fprintf(stderr, "\n");

    const Breakdown b = breakdownOf(first);
    const double offered = static_cast<double>(setup->offered);
    if (!options.trace) {
        const double served_pct = 100.0 *
            static_cast<double>(first.total_jobs) / offered;
        const double c0_p99 = classP99(first, 0);
        result.add("jobs_per_s", offered / median(plain_walls), "1/s");
        // Set-ups last micro- to milliseconds: the median of their
        // samples jumps between the host's two speed modes, while the
        // 10th percentile of the hundreds to thousands of samples stays
        // in the fast one.
        result.add("calibrate_s", percentile(setups.calibrate, 0.1), "s");
        result.add("setup_s", percentile(setups.total, 0.1), "s");
        result.add("peak_rss_mb", peakRssMb(), "MiB");
        result.add("served_pct", served_pct, "%");
        result.add("sim_p99_latency_s", first.p99_latency_s, "vs");
        result.add("sim_qos_loss_pct", 100.0 * first.mean_qos_loss, "%");
        result.add("sim_mean_watts", first.mean_watts, "W");
        result.add("sim_c0_p99_latency_s", c0_p99, "vs");
        return result;
    }

    // Per-layer attribution over every traced serve of the run.
    const double n = static_cast<double>(traced_walls.size());
    const double wall_ns =
        1e9 * std::accumulate(traced_walls.begin(), traced_walls.end(), 0.0);
    const auto perCall = [](const LayerClock &clock) {
        const auto calls = clock.calls.load();
        return calls == 0 ? 0.0
                          : static_cast<double>(clock.ns.load()) /
                static_cast<double>(calls);
    };
    const auto share = [wall_ns](double ns) { return ns / wall_ns; };
    const WorkerClock::Totals kernel = clocks.kernel.merge();
    const double arbitration_ns = arbitrationNsPerRound(*setup);
    const double placement_share =
        share(static_cast<double>(clocks.placement.ns.load()));
    const double admission_share =
        share(static_cast<double>(clocks.admission.ns.load()));
    const double arbitration_share =
        share(static_cast<double>(rounds) * arbitration_ns);
    const double tenant_share = share(static_cast<double>(
        clocks.clone.ns.load() + clocks.bind.ns.load()));
    const double kernel_share = share(static_cast<double>(kernel.ns)) /
        static_cast<double>(setup->options.threads);
    const double decided = static_cast<double>(clocks.admission.calls.load());

    result.add("fleet.placement.calls",
               static_cast<double>(clocks.placement.calls.load()) / n, "count");
    result.add("fleet.placement.ns_per_call", perCall(clocks.placement), "ns");
    result.add("fleet.placement.share", placement_share, "share");
    result.add("fleet.placement.overflow_calls",
               static_cast<double>(clocks.overflow.calls.load()) / n, "count");
    result.add("fleet.admission.calls", decided / n, "count");
    result.add("fleet.admission.self_ns_per_call",
               perCall(clocks.admission_self), "ns");
    result.add("fleet.admission.share", admission_share, "share");
    result.add("fleet.admission.admit_ratio",
               decided == 0.0 ? 0.0
                              : static_cast<double>(clocks.admitted.load()) /
                       decided,
               "ratio");
    result.add("fleet.arbitration.rounds", static_cast<double>(rounds) / n,
               "count");
    result.add("fleet.arbitration.ns_per_round", arbitration_ns, "ns");
    result.add("core.tenant.clone_ns", perCall(clocks.clone), "ns");
    result.add("core.tenant.bind_ns", perCall(clocks.bind), "ns");
    result.add("core.session.control_ns_per_beat",
               sessionControlNsPerBeat(*setup), "ns");
    result.add("heartbeats.ns_per_beat", heartbeatNsPerBeat(*setup), "ns");
    result.add("fleet.unattributed_share",
               1.0 - admission_share - arbitration_share - tenant_share -
                   kernel_share,
               "share");
    result.add("apps.kernel.beats", static_cast<double>(kernel.calls) / n,
               "count");
    result.add("apps.kernel.ns_per_beat",
               kernel.calls == 0 ? 0.0
                                 : static_cast<double>(kernel.ns) /
                       static_cast<double>(kernel.calls),
               "ns");
    result.add("apps.kernel.share", kernel_share, "share");
    result.add("core.identify_s", median(setups.identify), "s");
    result.add("core.calibrate.runs", static_cast<double>(runs), "count");
    result.add("core.calibrate.ns_per_run",
               1e9 * median(setups.calibrate_only) / static_cast<double>(runs),
               "ns");
    result.add("sim.job.service_s", b.service_s, "vs");
    result.add("sim.job.queue_share_s", b.queue_share_s, "vs");
    result.add("sim.job.class_deficit_s", b.class_deficit_s, "vs");
    result.add("sim.job.pause_s", b.pause_s, "vs");
    result.add("workload.gen_s", median(setups.gen), "s");
    result.add("trace.overhead_pct",
               100.0 * (median(traced_walls) / median(plain_walls) - 1.0), "%");
    return result;
}

/** One small fleet served plain and decorated; summaries must match. */
bool
selfTestOne(FleetShape shape)
{
    auto setup = setUp(shape, 1);
    SeamClocks clocks;
    std::size_t rounds = 0;
    TracedServer traced(*setup, clocks, rounds);
    const std::string plain = summarize(serveOn(*setup->server, *setup)).text();
    const std::string decorated =
        summarize(serveOn(*traced.server, *setup)).text();
    const bool ok = plain == decorated && clocks.placement.calls.load() > 0 &&
        clocks.kernel.merge().calls > 0 && rounds > 0;
    if (!ok)
        std::fprintf(stderr, "[perfbench] self-test mismatch:\n%s--- vs ---\n%s",
                     plain.c_str(), decorated.c_str());
    return ok;
}

/**
 * Small configs of both fleet workloads, served plain and decorated;
 * true when every decorated summary is byte-identical to the plain one.
 */
bool
selfTest()
{
    FleetShape scale = scaleShape();
    scale.machines = 20;
    scale.steps = 20;
    scale.peak_rate = 80.0;
    FleetShape slo = sloShape();
    slo.big = 5;
    slo.little = 15;
    slo.steps = 24;
    slo.peak_rate = 40.0;
    return selfTestOne(scale) && selfTestOne(slo);
}

} // namespace

Result
runFleetScale(const Options &options)
{
    return runFleet(scaleShape(), options);
}

Result
runFleetSlo(const Options &options)
{
    return runFleet(sloShape(), options);
}

} // namespace perfbench
