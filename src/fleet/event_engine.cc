/**
 * @file
 * The discrete-event fleet engine behind Server::serve.
 *
 * One engine serves both EngineModes on a deterministic discrete-event
 * core:
 *
 *   - a priority queue of typed events — job arrivals, beat-quantum
 *     expiries, job completions, lease rewrites (arbitration), trace
 *     samples — ordered by (virtual time, stable sequence id), so
 *     execution order is total and independent of thread count;
 *   - tenant advancement *between* events through core::FanoutEngine's
 *     fixed-order merge (the only parallel section);
 *   - a mode-specific schedule. EngineMode::Epoch pushes only
 *     epoch-cadence events: every epoch releases finished tenants,
 *     admits, arbitrates, and advances every tenant one slice, whether
 *     or not anything changed. EngineMode::Event fires arbitration on
 *     state changes (admissions, completions); the epoch cadence
 *     survives only as a periodic event source (trace samples, the
 *     default quantum).
 *
 * The epoch schedule reproduces the retired synchronous round loop's
 * FleetReport bit for bit; tests/epoch_loop_digests.h holds that
 * loop's frozen report and trace digests, which the differential tests
 * check the schedule against.
 */
#include "fleet/server.h"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/fanout.h"
#include "fleet/event_queue.h"
#include "fleet/observability.h"
#include "sim/virtual_clock.h"

namespace powerdial::fleet {

namespace {

/**
 * One admitted job, persistent across epochs: its session, private
 * clone, simulated machine, and metrics probe live as long as the job
 * is in flight, and its lease is rewritten by the arbiter at every
 * arbitration round. Tenants are heap-allocated and never move, so the
 * session's pointers into the clone and table (and the gate's pointer
 * back into the tenant) stay valid for the whole run.
 */
struct Tenant
{
    std::size_t job = 0;
    std::size_t input = 0;
    std::size_t machine_index = 0;
    std::size_t arrival_epoch = 0;
    double arrival_time_s = 0.0; //!< Fleet virtual time at admission
                                 //!< (event mode; epoch mode derives
                                 //!< slice ends from arrival_epoch).

    std::unique_ptr<core::App> app;
    core::KnobTable table;
    sim::Machine machine;
    ArbitrationLease lease;
    std::size_t applied_generation = 0; //!< Gate-side: last applied.
    double slice_deadline_s = 0.0;      //!< Tenant-local slice end.
    std::size_t beats_reported = 0;     //!< Beats already attributed
                                        //!< to earlier epochs' rates.

    explicit Tenant(const sim::Machine::Config &config)
        : machine(config)
    {
    }

    std::optional<MetricsHub::Probe> probe;
    /** Structured trace stream of this job (present when the serve
     *  has a TraceSink attached). */
    std::optional<obs::TraceProbe> trace;
    std::optional<core::Session> session;
    bool started = false;
    bool done = false;
};

/**
 * Fold the drained job records and accumulated epoch rows into the
 * report's aggregates: epoch means, overall QoS mean, latency
 * percentiles, and the per-tenant / per-class / per-machine tables
 * (sorted by id; machine rows cover the whole cluster). All four
 * percentile paths go through the one latencyPercentiles helper.
 * Called with report.epochs / total counters already set.
 */
void
finalizeReport(FleetReport &report, std::vector<JobRecord> jobs,
               const sim::Cluster &cluster)
{
    report.jobs = std::move(jobs);

    double watts_sum = 0.0, rate_sum = 0.0;
    for (const EpochStats &stats : report.epochs) {
        watts_sum += stats.watts;
        rate_sum += stats.fleet_rate;
    }
    if (!report.epochs.empty()) {
        const double n = static_cast<double>(report.epochs.size());
        report.mean_watts = watts_sum / n;
        report.mean_fleet_rate = rate_sum / n;
    }

    std::vector<double> latencies;
    latencies.reserve(report.jobs.size());
    double qos_sum = 0.0;
    std::map<std::size_t, TenantStats> tenants;
    std::map<std::size_t, std::vector<double>> tenant_latencies;
    std::vector<std::vector<double>> machine_latencies(cluster.size());
    for (const JobRecord &job : report.jobs) {
        latencies.push_back(job.latency_s);
        qos_sum += job.qos_loss;
        TenantStats &tenant = tenants[job.tenant];
        tenant.tenant = job.tenant;
        ++tenant.jobs;
        tenant.mean_qos_loss += job.qos_loss;
        tenant.mean_latency_s += job.latency_s;
        tenant_latencies[job.tenant].push_back(job.latency_s);
        if (job.machine < machine_latencies.size())
            machine_latencies[job.machine].push_back(job.latency_s);
    }
    if (!report.jobs.empty())
        report.mean_qos_loss =
            qos_sum / static_cast<double>(report.jobs.size());
    const LatencyPercentiles overall = latencyPercentiles(latencies);
    report.p50_latency_s = overall.p50;
    report.p95_latency_s = overall.p95;
    report.p99_latency_s = overall.p99;
    for (auto &[id, tenant] : tenants) {
        const double job_count = static_cast<double>(tenant.jobs);
        tenant.mean_qos_loss /= job_count;
        tenant.mean_latency_s /= job_count;
        const LatencyPercentiles tail =
            latencyPercentiles(tenant_latencies[id]);
        tenant.p50_latency_s = tail.p50;
        tenant.p95_latency_s = tail.p95;
        tenant.p99_latency_s = tail.p99;
        report.tenants.push_back(tenant);
    }

    // Per-priority-class scoreboard: latency percentiles over the
    // served jobs of each class, plus that class's shed count — every
    // class seen in either gets a row, so a class that was shed into
    // oblivion still shows up (jobs 0, shed > 0).
    std::map<std::size_t, std::vector<double>> class_latencies;
    for (const JobRecord &job : report.jobs)
        class_latencies[job.job_class].push_back(job.latency_s);
    for (std::size_t c = 0; c < report.shed_by_class.size(); ++c)
        if (report.shed_by_class[c] > 0)
            class_latencies.try_emplace(c);
    for (auto &[c, values] : class_latencies) {
        ClassStats row;
        row.job_class = c;
        row.jobs = values.size();
        row.shed = c < report.shed_by_class.size()
            ? report.shed_by_class[c]
            : 0;
        const LatencyPercentiles tail = latencyPercentiles(values);
        row.p50_latency_s = tail.p50;
        row.p95_latency_s = tail.p95;
        row.p99_latency_s = tail.p99;
        report.classes.push_back(row);
    }

    // Per-machine scoreboard: one row per cluster machine (idle
    // machines included, with zero counts), tagged with the catalog
    // class heterogeneous-fleet reports group by.
    for (std::size_t i = 0; i < cluster.size(); ++i) {
        MachineStats row;
        row.machine = i;
        row.machine_class = cluster.classOf(i);
        row.jobs = machine_latencies[i].size();
        row.shed = i < report.shed_by_machine.size()
            ? report.shed_by_machine[i]
            : 0;
        const LatencyPercentiles tail =
            latencyPercentiles(machine_latencies[i]);
        row.p50_latency_s = tail.p50;
        row.p95_latency_s = tail.p95;
        row.p99_latency_s = tail.p99;
        report.machines.push_back(row);
    }
}

/**
 * The typed events the engine schedules. Job completions are a hybrid:
 * their *time* cannot be known in advance (only advancing a session
 * discovers it finished), so completions are detected right after each
 * tenant advancement and a Completion event at the current time is the
 * trigger that processes them — unless an earlier same-time handler
 * (an arrival, a sample) already swept them, because releases must
 * settle before admissions and accounting at the same timestamp.
 */
struct Event
{
    enum class Kind {
        EpochTop,   //!< Epoch mode: release + admit + arbitrate, epoch e.
        Sample,     //!< Stats-row close (epoch e / window index).
        Arrivals,   //!< Event mode: the trace offers jobs at epoch e.
        Quantum,    //!< Event mode: beat-quantum expiry.
        Completion, //!< Event mode: completions discovered at now.
        Arbitrate,  //!< Event mode: coalesced lease rewrite at now.
    };
    Kind kind = Kind::Quantum;
    std::size_t index = 0;
};

/**
 * One serve() worth of discrete-event state. The two modes share the
 * cluster, scheduler, arbiter, fan-out engine, metrics hub, admission,
 * and tenant construction; they differ only in which events they
 * schedule and how tenant slice deadlines are set.
 */
class EventServe
{
  public:
    EventServe(const core::App &app, const core::KnobTable &table,
               const core::ResponseModel &model,
               const ServerOptions &options,
               const std::vector<std::vector<workload::OfferedJob>>
                   &offers)
        : app_(app), table_(table), model_(model), options_(options),
          offers_(offers),
          cluster_(options.catalog.empty()
                       ? sim::Cluster(options.machines, options.machine)
                       : sim::Cluster(options.catalog,
                                      options.class_mix)),
          scheduler_(cluster_,
                     SchedulerOptions{options.placement,
                                      options.queue_depth,
                                      options.admission, &model}),
          arbiter_(options.arbiter), engine_(options.threads),
          hub_(engine_.workers()), tracer_(options.trace),
          qos_feedback_(cluster_.size(), 0.0)
    {
        epoch_s_ = options_.epoch_seconds > 0.0
            ? options_.epoch_seconds
            : model_.baselineSeconds();
        if (epoch_s_ <= 0.0)
            throw std::invalid_argument(
                "Server: epoch duration must be > 0");
    }

    FleetReport
    run()
    {
        if (options_.trace != nullptr)
            options_.trace->beginServe(engine_.workers());
        if (options_.engine == EngineMode::Epoch)
            runEpochs();
        else
            runEvent();

        // Past the horizon: in-flight tenants run to completion under
        // their final lease terms. Everything still held here was
        // never released inside the horizon, so
        //   total_jobs == sum(completed) + drained_jobs.
        report_.drained_jobs = active_.size();
        for (auto &tenant : active_)
            tenant->slice_deadline_s =
                std::numeric_limits<double>::infinity();
        runSlices();
        active_.clear();

        report_.total_jobs = next_job_;
        report_.shed_by_machine = scheduler_.shedByMachine();
        report_.shed_by_class = scheduler_.shedByClass();
        finalizeReport(report_, hub_.drain(), cluster_);
        return std::move(report_);
    }

  private:
    // ------------------------------------------------------------------
    // Epoch mode: the synchronous round schedule. Per epoch e the setup
    // pushes EpochTop(e) at t(e) and Sample(e) at t(e+1); push order
    // makes Sample(e) dispatch before EpochTop(e+1) at their shared
    // timestamp, so accounting for epoch e lands before epoch e+1
    // releases finished tenants. The clock move from t(e) to t(e+1)
    // runs the epoch's tenant slices in between.
    // ------------------------------------------------------------------
    void
    runEpochs()
    {
        report_.epochs.reserve(offers_.size());
        for (std::size_t e = 0; e < offers_.size(); ++e) {
            queue_.push(static_cast<double>(e) * epoch_s_,
                        Event{Event::Kind::EpochTop, e});
            queue_.push(static_cast<double>(e + 1) * epoch_s_,
                        Event{Event::Kind::Sample, e});
        }
        while (!queue_.empty()) {
            const auto entry = queue_.pop();
            if (clock_.advanceTo(entry.time_s))
                runSlices(); // To the deadlines EpochTop installed.
            switch (entry.payload.kind) {
            case Event::Kind::EpochTop:
                epochTop(entry.payload.index);
                break;
            case Event::Kind::Sample:
                sampleEpoch();
                break;
            default:
                throw std::logic_error(
                    "event engine: unexpected event in epoch mode");
            }
        }
    }

    /** Top of epoch: release, admit, arbitrate, write leases. */
    void
    epochTop(std::size_t e)
    {
        pending_ = EpochStats{};
        pending_.epoch = e;

        // Tenants that completed during the previous epoch's slice
        // release their machine slot now, feeding their observed-vs-
        // predicted latency to the admission policy.
        std::size_t kept = 0;
        for (auto &tenant : active_) {
            if (tenant->done) {
                const JobRecord &record = tenant->probe->record();
                scheduler_.noteCompletion(record.latency_s,
                                          record.predicted_s);
                scheduler_.release(tenant->machine_index);
                ++pending_.completed;
            } else {
                active_[kept++] = std::move(tenant);
            }
        }
        active_.resize(kept);

        admit(offers_[e], e, pending_);

        last_decision_ = arbiter_.arbitrate(cluster_, qos_feedback_);
        scheduler_.noteArbitration(last_decision_);
        const std::size_t generation = e + 1;
        pending_.lease_generation = generation;
        if (options_.arbitration_probe)
            options_.arbitration_probe(ArbitrationSample{
                static_cast<double>(e) * epoch_s_, generation,
                last_decision_});
        tracer_.arbitration(generation, last_decision_);
        for (auto &tenant : active_) {
            writeLease(*tenant, generation, e);
            // Tenant-local, in whole epochs: NOT t(e+1) -
            // arrival_time, which rounds differently.
            tenant->slice_deadline_s =
                static_cast<double>(e - tenant->arrival_epoch + 1) *
                epoch_s_;
        }
    }

    /** End-of-epoch accounting over the still-held tenants. */
    void
    sampleEpoch()
    {
        std::vector<double> machine_qos(cluster_.size(), 0.0);
        std::vector<std::size_t> machine_jobs(cluster_.size(), 0);
        double qos_sum = 0.0;
        std::size_t finished = 0;
        for (const auto &tenant : active_) {
            const std::size_t beats = tenant->probe->record().beats;
            pending_.fleet_rate +=
                static_cast<double>(beats - tenant->beats_reported) /
                epoch_s_;
            tenant->beats_reported = beats;
            if (tenant->done) {
                const JobRecord &record = tenant->probe->record();
                machine_qos[tenant->machine_index] += record.qos_loss;
                ++machine_jobs[tenant->machine_index];
                qos_sum += record.qos_loss;
                ++finished;
            }
        }
        for (std::size_t m = 0; m < cluster_.size(); ++m)
            if (machine_jobs[m] > 0)
                qos_feedback_[m] = machine_qos[m] /
                    static_cast<double>(machine_jobs[m]);

        pending_.active = cluster_.totalActive();
        pending_.watts = cluster_.dynamicWatts();
        pending_.mean_qos_loss = finished == 0
            ? 0.0
            : qos_sum / static_cast<double>(finished);
        pending_.max_pause_ratio = *std::max_element(
            last_decision_.pause_ratio.begin(),
            last_decision_.pause_ratio.end());
        report_.epochs.push_back(pending_);
    }

    // ------------------------------------------------------------------
    // Event mode: arbitration fires on admissions and completions (one
    // coalesced Arbitrate event per timestamp), a Quantum chain bounds
    // how long a completion can go undiscovered while anything is
    // active, and Sample events close one EpochStats row per
    // sample_stride epochs. Epochs with no offered jobs schedule
    // nothing — an idle fleet costs no events at all.
    // ------------------------------------------------------------------
    void
    runEvent()
    {
        const std::size_t n = offers_.size();
        horizon_s_ = static_cast<double>(n) * epoch_s_;
        quantum_s_ = options_.event.quantum_seconds > 0.0
            ? options_.event.quantum_seconds
            : epoch_s_;
        const std::size_t stride = options_.event.sample_stride;

        for (std::size_t e = 0; e < n; ++e)
            if (!offers_[e].empty())
                queue_.push(static_cast<double>(e) * epoch_s_,
                            Event{Event::Kind::Arrivals, e});
        for (std::size_t w = 0; w * stride < n; ++w) {
            const std::size_t end = std::min((w + 1) * stride, n);
            queue_.push(static_cast<double>(end) * epoch_s_,
                        Event{Event::Kind::Sample, w});
        }
        report_.epochs.reserve((n + stride - 1) / stride);
        window_ = EpochStats{};

        while (!queue_.empty()) {
            const auto entry = queue_.pop();
            if (clock_.advanceTo(entry.time_s)) {
                advanceTenantsTo(clock_.now());
                noteCompletions();
            }
            switch (entry.payload.kind) {
            case Event::Kind::Arrivals:
                // Releases settle before admissions at equal times,
                // like the epoch-mode top of epoch.
                processCompletions();
                arrivalsAt(entry.payload.index);
                break;
            case Event::Kind::Quantum:
                quantum_pending_ = false;
                processCompletions();
                if (!active_.empty())
                    scheduleQuantum();
                break;
            case Event::Kind::Completion:
                completion_pending_ = false;
                processCompletions();
                break;
            case Event::Kind::Arbitrate:
                arbitrate_pending_ = false;
                processCompletions();
                arbitrateNow();
                break;
            case Event::Kind::Sample:
                processCompletions();
                sampleWindow(entry.payload.index);
                break;
            default:
                throw std::logic_error(
                    "event engine: unexpected event in event mode");
            }
        }
    }

    /** The trace offers offers_[e] at t(e). */
    void
    arrivalsAt(std::size_t e)
    {
        // makeTenant stamps arrival_time_s = t(e), which is bitwise
        // clock_.now() here (advanceTo installs the event time
        // exactly).
        const std::size_t admitted = admit(offers_[e], e, window_);
        if (admitted == 0)
            return;
        requestArbitration();
        scheduleQuantum();
    }

    /**
     * Sweep tenants that finished during the latest advancement:
     * count them into the open stats window, feed their QoS loss back
     * to the arbiter, release their machine slots, and destroy them
     * (their records are already committed in the hub) — then ask for
     * a re-price, since occupancy changed. Idempotent; any same-time
     * handler may call it before the Completion event pops.
     */
    void
    processCompletions()
    {
        std::vector<double> machine_qos(cluster_.size(), 0.0);
        std::vector<std::size_t> machine_jobs(cluster_.size(), 0);
        std::size_t kept = 0;
        for (auto &tenant : active_) {
            if (tenant->done) {
                const JobRecord &record = tenant->probe->record();
                ++window_.completed;
                window_beats_ += record.beats - tenant->beats_reported;
                machine_qos[tenant->machine_index] += record.qos_loss;
                ++machine_jobs[tenant->machine_index];
                window_qos_sum_ += record.qos_loss;
                ++window_finished_;
                scheduler_.noteCompletion(record.latency_s,
                                          record.predicted_s);
                scheduler_.release(tenant->machine_index);
                tenant.reset();
            } else {
                active_[kept++] = std::move(tenant);
            }
        }
        if (kept == active_.size())
            return;
        active_.resize(kept);
        for (std::size_t m = 0; m < cluster_.size(); ++m)
            if (machine_jobs[m] > 0)
                qos_feedback_[m] = machine_qos[m] /
                    static_cast<double>(machine_jobs[m]);
        requestArbitration();
    }

    /** One coalesced lease rewrite at the current virtual time. */
    void
    arbitrateNow()
    {
        last_decision_ = arbiter_.arbitrate(cluster_, qos_feedback_);
        scheduler_.noteArbitration(last_decision_);
        ++generation_;
        if (options_.arbitration_probe)
            options_.arbitration_probe(ArbitrationSample{
                clock_.now(), generation_, last_decision_});
        tracer_.at(clock_.now());
        tracer_.arbitration(generation_, last_decision_);
        const std::size_t epoch = epochOf(clock_.now());
        for (auto &tenant : active_)
            writeLease(*tenant, generation_, epoch);
    }

    /** Close stats window @p w covering [w*stride, w*stride+stride). */
    void
    sampleWindow(std::size_t w)
    {
        const std::size_t stride = options_.event.sample_stride;
        const std::size_t start = w * stride;
        const std::size_t end =
            std::min(start + stride, offers_.size());

        for (const auto &tenant : active_) {
            const std::size_t beats = tenant->probe->record().beats;
            window_beats_ += beats - tenant->beats_reported;
            tenant->beats_reported = beats;
        }

        EpochStats row = window_;
        row.epoch = start;
        row.lease_generation = generation_;
        row.fleet_rate = static_cast<double>(window_beats_) /
            (static_cast<double>(end - start) * epoch_s_);
        row.active = cluster_.totalActive();
        row.watts = cluster_.dynamicWatts();
        row.mean_qos_loss = window_finished_ == 0
            ? 0.0
            : window_qos_sum_ /
                static_cast<double>(window_finished_);
        row.max_pause_ratio = last_decision_.pause_ratio.empty()
            ? 0.0
            : *std::max_element(last_decision_.pause_ratio.begin(),
                                last_decision_.pause_ratio.end());
        report_.epochs.push_back(row);

        window_ = EpochStats{};
        window_beats_ = 0;
        window_qos_sum_ = 0.0;
        window_finished_ = 0;
    }

    void
    requestArbitration()
    {
        if (arbitrate_pending_)
            return;
        queue_.push(clock_.now(), Event{Event::Kind::Arbitrate, 0});
        arbitrate_pending_ = true;
    }

    void
    scheduleQuantum()
    {
        if (quantum_pending_)
            return;
        const double next = clock_.now() + quantum_s_;
        if (next > horizon_s_)
            return; // The final Sample already lands at the horizon.
        queue_.push(next, Event{Event::Kind::Quantum, 0});
        quantum_pending_ = true;
    }

    /** Flag newly-discovered completions with a same-time trigger. */
    void
    noteCompletions()
    {
        if (completion_pending_)
            return;
        for (const auto &tenant : active_) {
            if (tenant->done) {
                queue_.push(clock_.now(),
                            Event{Event::Kind::Completion, 0});
                completion_pending_ = true;
                return;
            }
        }
    }

    /** Set every tenant's slice deadline to global time @p t. */
    void
    advanceTenantsTo(double t)
    {
        for (auto &tenant : active_)
            tenant->slice_deadline_s = t - tenant->arrival_time_s;
        runSlices();
    }

    std::size_t
    epochOf(double t) const
    {
        const auto e = static_cast<std::size_t>(t / epoch_s_);
        return offers_.empty()
            ? e
            : std::min(e, offers_.size() - 1);
    }

    // ------------------------------------------------------------------
    // Shared by both modes.
    // ------------------------------------------------------------------

    /**
     * Serial admission of @p offered jobs arriving at epoch @p e, with
     * shed accounting into @p stats, then tenant construction. Every
     * offer goes through Scheduler::tryAdmit in arrival order, and
     * each decision is attributed through the tracer: per-candidate
     * placement costs (against the pre-placement occupancy the policy
     * actually ranked), then the admit (with the prospective fleet job
     * id) or shed record. Offers the composer never numbered get a
     * serial id from next_offer_, which advances once per offer either
     * way.
     * @return Jobs actually admitted (appended to active_, in order).
     */
    std::size_t
    admit(const std::vector<workload::OfferedJob> &offered,
          std::size_t e, EpochStats &stats)
    {
        tracer_.at(static_cast<double>(e) * epoch_s_);
        const std::size_t shed_before = scheduler_.shedCount();
        std::vector<std::pair<Admission, const workload::OfferedJob *>>
            placements;
        placements.reserve(offered.size());
        for (const workload::OfferedJob &job : offered) {
            const std::size_t offer =
                job.offer != workload::kUnnumberedOffer ? job.offer
                                                        : next_offer_;
            ++next_offer_;
            if (tracer_.wantsPlacement())
                tracer_.placement(offer,
                                  scheduler_.policy().candidateCosts(
                                      scheduler_.cluster()));
            const auto admission = scheduler_.tryAdmit(job);
            if (admission.has_value()) {
                placements.emplace_back(*admission, &job);
                tracer_.admit(offer, job, scheduler_.lastVerdict(),
                              next_job_ + placements.size() - 1);
            } else {
                tracer_.shed(offer, job, scheduler_.lastVerdict());
            }
        }
        stats.arrivals += placements.size();
        const std::size_t shed = scheduler_.shedCount() - shed_before;
        stats.shed += shed;
        report_.total_shed += shed;

        auto bound = core::FanoutEngine::cloneBound(
            app_, table_, placements.size());
        for (std::size_t i = 0; i < placements.size(); ++i) {
            active_.push_back(makeTenant(
                placements[i].first, *placements[i].second, e,
                std::move(bound.apps[i]), std::move(bound.tables[i])));
            ++next_job_;
        }
        return placements.size();
    }

    /**
     * Build job next_job_ from its admission and offer: probe seeded
     * from the job's identity and offered metadata, session gated by
     * one lease gate. An offer with the kRoundRobinTenant sentinel
     * resolves its input by the round-robin-on-job-id rule. The
     * tenant's private machine is built from the *class* configuration
     * of the machine the job was placed on, so a job landing on a
     * little node simulates little-node frequency, power, and speed
     * tables, not the fleet default's.
     */
    std::unique_ptr<Tenant>
    makeTenant(const Admission &admission,
               const workload::OfferedJob &offer, std::size_t e,
               std::unique_ptr<core::App> app, core::KnobTable table)
    {
        auto tenant = std::make_unique<Tenant>(
            cluster_.configOf(admission.machine));
        Tenant *t = tenant.get();
        t->job = next_job_;
        t->input = offer.tenant == kRoundRobinTenant
            ? options_.tenants[t->job % options_.tenants.size()]
            : offer.tenant;
        t->machine_index = admission.machine;
        t->arrival_epoch = e;
        t->arrival_time_s = static_cast<double>(e) * epoch_s_;
        t->app = std::move(app);
        t->table = std::move(table);

        JobRecord seed;
        seed.job = t->job;
        seed.tenant = t->input;
        seed.epoch = e;
        seed.machine = t->machine_index;
        seed.job_class = offer.job_class;
        seed.deadline_s = offer.deadline_s;
        seed.predicted_s = admission.predicted_s;
        t->probe.emplace(hub_.probe(0, seed));

        if (options_.trace != nullptr)
            t->trace.emplace(*options_.trace,
                             obs::TraceProbe::Identity{
                                 t->job, t->input, t->machine_index,
                                 offer.job_class, t->arrival_time_s});

        // The lease gate: the caller's gate first, then the lease
        // re-read (changed terms applied within one beat of the
        // rewrite, the applied generation reported to the probe),
        // then the lease-driven duty-cycle pause.
        core::SessionOptions session_options = options_.session;
        core::BeatGate caller = std::move(session_options.gate);
        session_options.withGate(
            [t, caller = std::move(caller)](core::BeatGateContext &ctx) {
                if (caller)
                    caller(ctx);
                const ArbitrationLease &lease = t->lease;
                if (t->applied_generation != lease.generation) {
                    ctx.machine.setPStateCap(lease.pstate_cap);
                    ctx.machine.setShare(lease.share);
                    ctx.machine.setUtilization(lease.utilization);
                    t->applied_generation = lease.generation;
                    t->probe->noteLease(lease.generation);
                }
                if (lease.pause_ratio > 0.0)
                    ctx.pause_per_busy += lease.pause_ratio;
            });
        t->session.emplace(*t->app, t->table, model_,
                           std::move(session_options));
        return tenant;
    }

    /**
     * Install the last arbitration round's terms in @p tenant's lease
     * and attribute the rewrite through the tracer.
     */
    void
    writeLease(Tenant &tenant, std::size_t generation, std::size_t epoch)
    {
        const auto load = cluster_.loadOf(
            tenant.machine_index, cluster_.activeOn(tenant.machine_index));
        tenant.lease.generation = generation;
        tenant.lease.epoch = epoch;
        tenant.lease.share = load.per_instance_share;
        tenant.lease.utilization = load.utilization;
        tenant.lease.pstate_cap =
            last_decision_.pstate_cap[tenant.machine_index];
        tenant.lease.pause_ratio =
            last_decision_.pause_ratio[tenant.machine_index];
        tracer_.lease(tenant.job, tenant.input, tenant.machine_index,
                      tenant.lease);
    }

    /**
     * Advance every held tenant to its slice deadline through the
     * fan-out engine's fixed-order merge — the only parallel section;
     * the slice that completes a run commits its record on the worker
     * actually running it.
     */
    void
    runSlices()
    {
        engine_.run(active_.size(),
                    [&](std::size_t i, std::size_t worker) {
                        Tenant &t = *active_[i];
                        if (t.done)
                            return; // Awaiting release.
                        if (t.trace)
                            t.trace->beginSlice(worker);
                        if (!t.started) {
                            t.session->observe(*t.probe);
                            if (t.trace)
                                t.session->observe(*t.trace);
                            t.session->start(t.input, t.machine);
                            t.started = true;
                        }
                        const auto result =
                            t.session->advanceUntil(t.slice_deadline_s);
                        if (result.has_value()) {
                            t.done = true;
                            t.probe->finishOn(worker, t.machine);
                        }
                    });
    }

    const core::App &app_;
    const core::KnobTable &table_;
    const core::ResponseModel &model_;
    const ServerOptions &options_;
    const std::vector<std::vector<workload::OfferedJob>> &offers_;

    sim::Cluster cluster_;
    Scheduler scheduler_;
    PowerArbiter arbiter_;
    core::FanoutEngine engine_;
    MetricsHub hub_;
    FleetTracer tracer_;

    sim::VirtualClock clock_;
    EventQueue<Event> queue_;

    std::vector<double> qos_feedback_;
    std::vector<std::unique_ptr<Tenant>> active_; // In job order.
    FleetReport report_;
    std::size_t next_job_ = 0;
    std::size_t next_offer_ = 0;
    double epoch_s_ = 0.0;
    ArbitrationDecision last_decision_{};

    // Epoch-mode state.
    EpochStats pending_{};

    // Event-mode state.
    double horizon_s_ = 0.0;
    double quantum_s_ = 0.0;
    std::size_t generation_ = 0;
    bool quantum_pending_ = false;
    bool arbitrate_pending_ = false;
    bool completion_pending_ = false;
    EpochStats window_{};
    std::size_t window_beats_ = 0;
    double window_qos_sum_ = 0.0;
    std::size_t window_finished_ = 0;
};

} // namespace

FleetReport
Server::serve(const std::vector<std::vector<workload::OfferedJob>> &offers)
{
    return EventServe(*app_, *table_, *model_, options_, offers).run();
}

} // namespace powerdial::fleet
