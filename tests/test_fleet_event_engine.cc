/**
 * @file
 * Differential harness for the discrete-event fleet engine.
 *
 * The engine's correctness story has two legs, both pinned here:
 *
 *   1. *Differential*: the epoch schedule (EngineMode::Epoch) must
 *      reproduce the retired synchronous round loop's FleetReport bit
 *      for bit — every epoch row, every job record, every aggregate —
 *      across a randomized sweep of seeded scenarios (machines, tenant
 *      mixes, Poisson rates, queue depths, epoch fractions, all three
 *      arbiter policies). The loop's reports are frozen as digests in
 *      epoch_loop_digests.h. Failures print the reproducing seed.
 *
 *   2. *Invariants*: in full event mode (where reports legitimately
 *      differ from the epoch schedule) every serve must still conserve
 *      jobs (admitted = completed + drained), keep per-machine power
 *      budgets summing to the cluster cap after every arbitration
 *      event, fire arbitrations at monotone non-decreasing times with
 *      strictly increasing lease generations, and stay bit-identical
 *      across thread counts.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "epoch_loop_digests.h"
#include "fleet/server.h"
#include "fleet_scenarios.h"

namespace powerdial::fleet {
namespace {

using tests::FleetScenario;
using tests::expectReportsIdentical;
using tests::makeFleetScenario;
using tests::makePipeline;
using tests::reportDigest;

/** Serve one scenario under the given engine mode. */
FleetReport
serveScenario(const tests::Pipeline &p, const FleetScenario &scenario,
              EngineMode engine, std::size_t threads = 1)
{
    ServerOptions options = scenario.options;
    options.engine = engine;
    options.threads = threads;
    Server server(p.app, p.table, p.model, options);
    return server.serve(scenario.arrivals);
}

std::size_t
completedAcrossEpochs(const FleetReport &report)
{
    std::size_t completed = 0;
    for (const EpochStats &row : report.epochs)
        completed += row.completed;
    return completed;
}

// ---------------------------------------------------------------------
// Differential: the epoch schedule (once the event engine's "compat"
// mode, hence the test names) vs the retired round loop's frozen
// reports.
// ---------------------------------------------------------------------

TEST(EventEngineDifferential, CompatMatchesEpochOnSpikeScenario)
{
    auto p = makePipeline();
    const FleetScenario scenario = makeFleetScenario(
        42, p.model.baselineSeconds(), p.app.productionInputs());
    EXPECT_EQ(reportDigest(serveScenario(p, scenario, EngineMode::Epoch)),
              tests::kSpikeDigest);
}

TEST(EventEngineDifferential, RandomizedSweepFiftySeeds)
{
    auto p = makePipeline();
    const double baseline_s = p.model.baselineSeconds();
    const auto inputs = p.app.productionInputs();
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        SCOPED_TRACE(::testing::Message()
                     << "reproduce with makeFleetScenario(seed="
                     << seed << ")");
        const FleetScenario scenario =
            makeFleetScenario(seed, baseline_s, inputs);
        EXPECT_EQ(
            reportDigest(serveScenario(p, scenario, EngineMode::Epoch)),
            tests::kSweepDigests[seed - 1]);
    }
}

TEST(EventEngineDifferential, CompatShedAccountingMatchesEpochEngine)
{
    // Shed accounting under pressure. A 1-machine fleet with a tight
    // queue bound and a hot trace must shed, and the sheds must agree
    // with the round loop's in total, per machine, per epoch row, and
    // in lease-generation context (the digest covers every field).
    auto p = makePipeline();
    FleetScenario scenario = makeFleetScenario(
        7, p.model.baselineSeconds(), p.app.productionInputs());
    scenario.options.machines = 1;
    scenario.options.queue_depth = 3;
    scenario.options.epoch_seconds = p.model.baselineSeconds() * 0.5;
    scenario.arrivals = {6, 6, 0, 6, 1, 0, 0};

    const FleetReport epoch =
        serveScenario(p, scenario, EngineMode::Epoch);
    ASSERT_GT(epoch.total_shed, 0u);
    EXPECT_EQ(reportDigest(epoch), tests::kShedDigest);

    // Attribution is complete: per-machine sheds sum to the total.
    const std::size_t attributed =
        std::accumulate(epoch.shed_by_machine.begin(),
                        epoch.shed_by_machine.end(), std::size_t{0});
    EXPECT_EQ(attributed, epoch.total_shed);
}

TEST(EventEngineDifferential, CompatIsBitIdenticalAcrossThreadCounts)
{
    auto p = makePipeline();
    const FleetScenario scenario = makeFleetScenario(
        11, p.model.baselineSeconds(), p.app.productionInputs());
    expectReportsIdentical(serveScenario(p, scenario, EngineMode::Epoch, 1),
                           serveScenario(p, scenario, EngineMode::Epoch, 4));
}

// ---------------------------------------------------------------------
// Event-mode invariants (reports may differ from epoch mode, but
// these properties must hold on every serve).
// ---------------------------------------------------------------------

TEST(EventEngineInvariants, ConservesJobsAcrossSeeds)
{
    auto p = makePipeline();
    const double baseline_s = p.model.baselineSeconds();
    const auto inputs = p.app.productionInputs();
    for (std::uint64_t seed = 100; seed < 120; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed=" << seed);
        const FleetScenario scenario =
            makeFleetScenario(seed, baseline_s, inputs);
        const FleetReport report =
            serveScenario(p, scenario, EngineMode::Event);

        // Admitted = completed inside the horizon + in flight at the
        // horizon; every admitted job has exactly one record; offered
        // = admitted + shed.
        EXPECT_EQ(report.total_jobs,
                  completedAcrossEpochs(report) + report.drained_jobs);
        EXPECT_EQ(report.jobs.size(), report.total_jobs);
        std::size_t offered = 0;
        for (const std::size_t n : scenario.arrivals)
            offered += n;
        EXPECT_EQ(offered, report.total_jobs + report.total_shed);
        const std::size_t attributed = std::accumulate(
            report.shed_by_machine.begin(),
            report.shed_by_machine.end(), std::size_t{0});
        EXPECT_EQ(attributed, report.total_shed);
    }
}

TEST(EventEngineInvariants, BudgetsSumToCapAfterEveryArbitration)
{
    auto p = makePipeline();
    const double baseline_s = p.model.baselineSeconds();
    const auto inputs = p.app.productionInputs();
    std::size_t capped_scenarios = 0;
    for (std::uint64_t seed = 200; seed < 215; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed=" << seed);
        FleetScenario scenario =
            makeFleetScenario(seed, baseline_s, inputs);
        const double cap = scenario.options.arbiter.cluster_cap_watts;
        if (cap <= 0.0)
            continue;
        ++capped_scenarios;
        std::size_t rounds = 0;
        scenario.options.arbitration_probe =
            [&](const ArbitrationSample &sample) {
                ++rounds;
                double total = 0.0;
                for (const double watts :
                     sample.decision.budget_watts)
                    total += watts;
                EXPECT_NEAR(total, cap, 1e-9)
                    << "arbitration at t=" << sample.time_s
                    << " generation " << sample.generation;
            };
        ServerOptions options = scenario.options;
        options.engine = EngineMode::Event;
        Server server(p.app, p.table, p.model, options);
        const FleetReport report = server.serve(scenario.arrivals);
        if (report.total_jobs > 0) {
            EXPECT_GT(rounds, 0u);
        }
    }
    // The sweep range must actually exercise capped arbitration.
    EXPECT_GT(capped_scenarios, 3u);
}

TEST(EventEngineInvariants, ArbitrationEventsAreMonotone)
{
    // Event timestamps never run backwards and every arbitration
    // installs a fresh, strictly increasing lease generation — in
    // both engine modes.
    auto p = makePipeline();
    const auto inputs = p.app.productionInputs();
    for (const EngineMode engine : {EngineMode::Event, EngineMode::Epoch}) {
        SCOPED_TRACE(::testing::Message()
                     << "epoch=" << (engine == EngineMode::Epoch));
        FleetScenario scenario = makeFleetScenario(
            21, p.model.baselineSeconds(), inputs);
        double last_time = -1.0;
        std::size_t last_generation = 0;
        std::size_t rounds = 0;
        scenario.options.arbitration_probe =
            [&](const ArbitrationSample &sample) {
                ++rounds;
                EXPECT_GE(sample.time_s, last_time);
                EXPECT_GT(sample.generation, last_generation);
                last_time = sample.time_s;
                last_generation = sample.generation;
            };
        ServerOptions options = scenario.options;
        options.engine = engine;
        Server server(p.app, p.table, p.model, options);
        server.serve(scenario.arrivals);
        EXPECT_GT(rounds, 0u);
    }
}

TEST(EventEngineInvariants, EventModeIsBitIdenticalAcrossThreadCounts)
{
    auto p = makePipeline();
    const auto inputs = p.app.productionInputs();
    for (const std::uint64_t seed : {5ULL, 23ULL, 31ULL}) {
        SCOPED_TRACE(::testing::Message() << "seed=" << seed);
        const FleetScenario scenario = makeFleetScenario(
            seed, p.model.baselineSeconds(), inputs);
        expectReportsIdentical(
            serveScenario(p, scenario, EngineMode::Event, 1),
            serveScenario(p, scenario, EngineMode::Event, 4));
    }
}

// ---------------------------------------------------------------------
// Event-mode behaviour: sampling, quanta, validation.
// ---------------------------------------------------------------------

TEST(EventEngine, SampleStrideCoarsensTheReport)
{
    auto p = makePipeline();
    FleetScenario scenario = makeFleetScenario(
        3, p.model.baselineSeconds(), p.app.productionInputs());
    ServerOptions options = scenario.options;
    options.engine = EngineMode::Event;
    options.event.sample_stride = 4;
    Server server(p.app, p.table, p.model, options);
    const FleetReport report = server.serve(scenario.arrivals);

    const std::size_t n = scenario.arrivals.size();
    EXPECT_EQ(report.epochs.size(), (n + 3) / 4);
    for (std::size_t w = 0; w < report.epochs.size(); ++w)
        EXPECT_EQ(report.epochs[w].epoch, w * 4);
    // Coarser rows lose no jobs.
    EXPECT_EQ(report.total_jobs,
              completedAcrossEpochs(report) + report.drained_jobs);
    EXPECT_EQ(report.jobs.size(), report.total_jobs);
}

TEST(EventEngine, SubEpochQuantumStillConservesJobs)
{
    auto p = makePipeline();
    const FleetScenario scenario = makeFleetScenario(
        13, p.model.baselineSeconds(), p.app.productionInputs());
    ServerOptions options = scenario.options;
    options.engine = EngineMode::Event;
    options.event.quantum_seconds = options.epoch_seconds / 3.0;
    Server server(p.app, p.table, p.model, options);
    const FleetReport report = server.serve(scenario.arrivals);
    EXPECT_EQ(report.total_jobs,
              completedAcrossEpochs(report) + report.drained_jobs);
    EXPECT_EQ(report.jobs.size(), report.total_jobs);
}

TEST(EventEngine, QuantumBoundsCompletionDiscoveryLatency)
{
    // One machine, one job, epochs twice the job duration: the job
    // finishes mid-epoch. Its completion-triggered arbitration fires
    // at the first quantum tick past the finish — so a finer quantum
    // must discover it strictly earlier than the default one-epoch
    // quantum, which cannot notice it before the epoch ends.
    auto p = makePipeline();
    const double epoch_s = p.model.baselineSeconds() * 2.0;
    const auto discoveryTime = [&](double quantum) {
        ServerOptions options;
        options.machines = 1;
        options.epoch_seconds = epoch_s;
        options.engine = EngineMode::Event;
        options.event.quantum_seconds = quantum;
        std::vector<double> times;
        options.arbitration_probe =
            [&times](const ArbitrationSample &sample) {
                times.push_back(sample.time_s);
            };
        Server server(p.app, p.table, p.model, options);
        const FleetReport report = server.serve(std::vector<std::size_t>{1, 0, 0});
        EXPECT_EQ(report.total_jobs, 1u);
        EXPECT_EQ(report.drained_jobs, 0u);
        // Admission round + completion round, nothing else: quantum
        // ticks without a completion re-price nothing, and the chain
        // stops once the fleet idles.
        EXPECT_EQ(times.size(), 2u);
        return times.back();
    };
    const double coarse = discoveryTime(0.0); // Default: one epoch.
    const double fine = discoveryTime(epoch_s / 8.0);
    EXPECT_DOUBLE_EQ(coarse, epoch_s);
    EXPECT_LT(fine, coarse);
    EXPECT_GT(fine, 0.0);
}

TEST(EventEngine, ValidatesEngineOptions)
{
    auto p = makePipeline();
    ServerOptions options;
    options.event.sample_stride = 0;
    EXPECT_THROW(Server(p.app, p.table, p.model, options),
                 std::invalid_argument);

    options = ServerOptions{};
    options.event.quantum_seconds = -1.0;
    EXPECT_THROW(Server(p.app, p.table, p.model, options),
                 std::invalid_argument);
}

TEST(EventEngine, IdleEpochsScheduleNoArbitration)
{
    // The scale win in one assertion: a trace that goes quiet stops
    // producing arbitration rounds once the last tenant drains, while
    // epoch mode re-prices every epoch regardless.
    auto p = makePipeline();
    ServerOptions options;
    options.machines = 2;
    options.epoch_seconds = p.model.baselineSeconds() * 2.0;
    options.arbiter.cluster_cap_watts = 400.0;
    std::vector<std::size_t> arrivals(40, 0);
    arrivals[0] = 3; // One early burst, then silence.

    std::size_t event_rounds = 0;
    options.arbitration_probe = [&](const ArbitrationSample &) {
        ++event_rounds;
    };
    options.engine = EngineMode::Event;
    Server event_server(p.app, p.table, p.model, options);
    const FleetReport report = event_server.serve(arrivals);
    EXPECT_EQ(report.total_jobs, 3u);

    std::size_t epoch_rounds = 0;
    options.arbitration_probe = [&](const ArbitrationSample &) {
        ++epoch_rounds;
    };
    options.engine = EngineMode::Epoch;
    Server epoch_server(p.app, p.table, p.model, options);
    epoch_server.serve(arrivals);

    EXPECT_EQ(epoch_rounds, arrivals.size());
    EXPECT_LT(event_rounds, epoch_rounds / 2);
    EXPECT_GT(event_rounds, 0u);
}

} // namespace
} // namespace powerdial::fleet
