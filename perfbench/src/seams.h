/**
 * @file
 * Timing decorators for the library's public seams.
 *
 * The benchmark attributes serve() and calibration time to layers
 * without touching the library: it wraps the objects the library
 * already accepts from callers —
 *
 *   - TimedPlacement  around a fleet::PlacementPolicy
 *                     (ServerOptions::placement);
 *   - TimedAdmission  around a fleet::AdmissionPolicy
 *                     (ServerOptions::admission);
 *   - TimedApp        around the tenant core::App (its clone,
 *                     bindControlVariables and processUnit calls).
 *
 * Every decorator forwards every virtual function unchanged, so a
 * decorated serve produces the same FleetReport as an undecorated one
 * (the self-test checks this byte for byte). Counters are safe under
 * the fan-out engine's worker threads: serial-section layers use
 * relaxed atomics, and processUnit time lands in per-worker slots that
 * are merged only after serve() or calibrate() has returned.
 */
#ifndef PERFBENCH_SEAMS_H
#define PERFBENCH_SEAMS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/app.h"
#include "fleet/admission.h"
#include "fleet/scheduler.h"

namespace perfbench {

inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Calls and nanoseconds of one layer, shared across threads. */
struct LayerClock
{
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> ns{0};

    void
    add(std::uint64_t elapsed_ns)
    {
        calls.fetch_add(1, std::memory_order_relaxed);
        ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
    }
};

/**
 * Per-worker call/time accumulators for the parallel section: each
 * thread writes only its own slot, so the hot path takes no lock and
 * shares no cache line. merge() must run while no worker is inside a
 * timed call (after serve()/calibrate() returned).
 */
class WorkerClock
{
  public:
    struct Totals
    {
        std::uint64_t calls = 0;
        std::uint64_t ns = 0;
    };

    WorkerClock() : id_(nextId()) {}
    WorkerClock(const WorkerClock &) = delete;
    WorkerClock &operator=(const WorkerClock &) = delete;

    void
    add(std::uint64_t elapsed_ns)
    {
        Slot &slot = local();
        ++slot.calls;
        slot.ns += elapsed_ns;
    }

    Totals
    merge() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Totals totals;
        for (const Slot &slot : slots_) {
            totals.calls += slot.calls;
            totals.ns += slot.ns;
        }
        return totals;
    }

  private:
    struct alignas(64) Slot
    {
        std::uint64_t calls = 0;
        std::uint64_t ns = 0;
    };

    static std::uint64_t
    nextId()
    {
        static std::atomic<std::uint64_t> next{1};
        return next.fetch_add(1);
    }

    Slot &
    local()
    {
        // Keyed by clock id, not address, so a clock constructed where
        // a destroyed one lived never inherits its slots.
        thread_local std::uint64_t owner = 0;
        thread_local Slot *slot = nullptr;
        if (owner != id_) {
            std::lock_guard<std::mutex> lock(mutex_);
            slots_.emplace_back();
            slot = &slots_.back();
            owner = id_;
        }
        return *slot;
    }

    std::uint64_t id_;
    mutable std::mutex mutex_;
    std::deque<Slot> slots_; // Stable addresses across emplace_back.
};

/** Everything the decorators measure during one timed section. */
struct SeamClocks
{
    LayerClock placement;       //!< pick + pickAmong.
    LayerClock overflow;        //!< pickAmong alone.
    LayerClock admission;       //!< decide, nested placement included.
    LayerClock admission_self;  //!< decide minus nested placement.
    std::atomic<std::uint64_t> admitted{0};
    LayerClock clone;           //!< App::clone of tenant apps.
    LayerClock bind;            //!< App::bindControlVariables.
    WorkerClock kernel;         //!< App::processUnit, per worker.
};

namespace detail {
/** Placement nanoseconds spent on this thread, for nesting deltas. */
inline std::uint64_t &
threadPlacementNs()
{
    thread_local std::uint64_t ns = 0;
    return ns;
}
} // namespace detail

class TimedPlacement final : public powerdial::fleet::PlacementPolicy
{
  public:
    TimedPlacement(std::unique_ptr<PlacementPolicy> inner,
                   SeamClocks &clocks)
        : inner_(std::move(inner)), clocks_(&clocks)
    {
    }

    std::string name() const override { return inner_->name(); }

    std::size_t
    pick(const powerdial::sim::Cluster &cluster) const override
    {
        const std::uint64_t start = nowNs();
        const std::size_t machine = inner_->pick(cluster);
        charge(nowNs() - start);
        return machine;
    }

    std::size_t
    pickAmong(const powerdial::sim::Cluster &cluster,
              const std::vector<std::size_t> &candidates) const override
    {
        const std::uint64_t start = nowNs();
        const std::size_t machine = inner_->pickAmong(cluster, candidates);
        const std::uint64_t elapsed = nowNs() - start;
        charge(elapsed);
        clocks_->overflow.add(elapsed);
        return machine;
    }

    void
    bindModel(const powerdial::core::ResponseModel *model) override
    {
        inner_->bindModel(model);
    }

    std::vector<double>
    candidateCosts(const powerdial::sim::Cluster &cluster) const override
    {
        return inner_->candidateCosts(cluster);
    }

  private:
    void
    charge(std::uint64_t elapsed) const
    {
        clocks_->placement.add(elapsed);
        detail::threadPlacementNs() += elapsed;
    }

    std::unique_ptr<PlacementPolicy> inner_;
    SeamClocks *clocks_;
};

class TimedAdmission final : public powerdial::fleet::AdmissionPolicy
{
  public:
    TimedAdmission(std::unique_ptr<AdmissionPolicy> inner,
                   SeamClocks &clocks)
        : inner_(std::move(inner)), clocks_(&clocks)
    {
    }

    std::string name() const override { return inner_->name(); }

    powerdial::fleet::AdmissionVerdict
    decide(const powerdial::fleet::OfferedJob &job,
           const powerdial::fleet::AdmissionContext &context) override
    {
        const std::uint64_t nested_before = detail::threadPlacementNs();
        const std::uint64_t start = nowNs();
        auto verdict = inner_->decide(job, context);
        const std::uint64_t elapsed = nowNs() - start;
        const std::uint64_t nested =
            detail::threadPlacementNs() - nested_before;
        clocks_->admission.add(elapsed);
        clocks_->admission_self.add(elapsed > nested ? elapsed - nested
                                                     : 0);
        if (verdict.machine.has_value())
            clocks_->admitted.fetch_add(1, std::memory_order_relaxed);
        return verdict;
    }

    void
    noteArbitration(
        const powerdial::fleet::ArbitrationDecision &decision) override
    {
        inner_->noteArbitration(decision);
    }

    void
    noteCompletion(double observed_s, double predicted_s) override
    {
        inner_->noteCompletion(observed_s, predicted_s);
    }

  private:
    std::unique_ptr<AdmissionPolicy> inner_;
    SeamClocks *clocks_;
};

inline powerdial::fleet::PlacementFactory
timedPlacement(powerdial::fleet::PlacementFactory inner, SeamClocks &clocks)
{
    return [inner = std::move(inner), &clocks]() {
        return std::unique_ptr<powerdial::fleet::PlacementPolicy>(
            std::make_unique<TimedPlacement>(inner(), clocks));
    };
}

inline powerdial::fleet::AdmissionFactory
timedAdmission(powerdial::fleet::AdmissionFactory inner, SeamClocks &clocks)
{
    return [inner = std::move(inner), &clocks]() {
        return std::unique_ptr<powerdial::fleet::AdmissionPolicy>(
            std::make_unique<TimedAdmission>(inner(), clocks));
    };
}

/**
 * A core::App that forwards every call to an inner app, timing clone,
 * bindControlVariables and processUnit. clone() returns a TimedApp
 * around the inner app's clone, so the tenants the server mints (and
 * the calibration workers' private copies) stay decorated.
 */
class TimedApp final : public powerdial::core::App
{
  public:
    TimedApp(std::unique_ptr<powerdial::core::App> inner,
             SeamClocks &clocks)
        : inner_(std::move(inner)), clocks_(&clocks)
    {
    }

    std::string name() const override { return inner_->name(); }

    std::unique_ptr<powerdial::core::App>
    clone() const override
    {
        const std::uint64_t start = nowNs();
        auto copy = inner_->clone();
        clocks_->clone.add(nowNs() - start);
        return std::make_unique<TimedApp>(std::move(copy), *clocks_);
    }

    const powerdial::core::KnobSpace &
    knobSpace() const override
    {
        return inner_->knobSpace();
    }

    std::size_t
    defaultCombination() const override
    {
        return inner_->defaultCombination();
    }

    void
    configure(const std::vector<double> &params) override
    {
        inner_->configure(params);
    }

    void
    traceRun(powerdial::influence::TraceRun &trace,
             const std::vector<double> &params) override
    {
        inner_->traceRun(trace, params);
    }

    void
    bindControlVariables(powerdial::core::KnobTable &table) override
    {
        const std::uint64_t start = nowNs();
        inner_->bindControlVariables(table);
        clocks_->bind.add(nowNs() - start);
    }

    std::size_t inputCount() const override { return inner_->inputCount(); }

    std::vector<std::size_t>
    trainingInputs() const override
    {
        return inner_->trainingInputs();
    }

    std::vector<std::size_t>
    productionInputs() const override
    {
        return inner_->productionInputs();
    }

    void loadInput(std::size_t index) override { inner_->loadInput(index); }

    std::size_t unitCount() const override { return inner_->unitCount(); }

    void
    processUnit(std::size_t unit, powerdial::sim::Machine &machine) override
    {
        const std::uint64_t start = nowNs();
        inner_->processUnit(unit, machine);
        clocks_->kernel.add(nowNs() - start);
    }

    powerdial::qos::OutputAbstraction
    output() const override
    {
        return inner_->output();
    }

  private:
    std::unique_ptr<powerdial::core::App> inner_;
    SeamClocks *clocks_;
};

} // namespace perfbench

#endif // PERFBENCH_SEAMS_H
