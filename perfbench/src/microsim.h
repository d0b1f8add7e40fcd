/**
 * @file
 * The fleet workloads' tenant: a synthetic app with an exactly known
 * response (one knob k in {1, 2, 4}; speedup exactly k, QoS loss
 * exactly 1% per unit of k - 1) and 40-beat jobs, so the fleet
 * workloads measure the serving plane rather than an app kernel.
 *
 * The same tenant as the repo's scale benches, kept here so the
 * benchmark's recorded digests depend only on the library.
 */
#ifndef PERFBENCH_MICROSIM_H
#define PERFBENCH_MICROSIM_H

#include <memory>
#include <string>
#include <vector>

#include "core/app.h"
#include "sim/machine.h"

namespace perfbench {

class MicrosimApp final : public powerdial::core::App
{
  public:
    MicrosimApp() : space_({{"k", {1.0, 2.0, 4.0}}}) {}

    std::string name() const override { return "microsim"; }

    std::unique_ptr<powerdial::core::App>
    clone() const override
    {
        return std::make_unique<MicrosimApp>(*this);
    }

    const powerdial::core::KnobSpace &
    knobSpace() const override
    {
        return space_;
    }

    std::size_t defaultCombination() const override { return 0; }

    void configure(const std::vector<double> &params) override
    {
        k_ = params.at(0);
    }

    void
    traceRun(powerdial::influence::TraceRun &trace,
             const std::vector<double> &params) override
    {
        using powerdial::influence::Value;
        Value<double> k(params.at(0), powerdial::influence::paramBit(0));
        trace.store("k", k * Value<double>(1.0), "microsim:init");
        trace.firstHeartbeat();
        trace.read("k", "microsim:loop");
    }

    void
    bindControlVariables(powerdial::core::KnobTable &table) override
    {
        table.bind({"k", [this](const std::vector<double> &v) {
                        k_ = v.at(0);
                    }});
    }

    std::size_t inputCount() const override { return 4; }
    std::vector<std::size_t> trainingInputs() const override
    {
        return {0, 1};
    }
    std::vector<std::size_t> productionInputs() const override
    {
        return {2, 3};
    }

    void
    loadInput(std::size_t) override
    {
        produced_ = 0.0;
        units_done_ = 0;
    }

    std::size_t unitCount() const override { return kUnits; }

    void
    processUnit(std::size_t, powerdial::sim::Machine &machine) override
    {
        machine.execute(kBaseCycles / k_);
        produced_ += 100.0 * (1.0 - 0.01 * (k_ - 1.0));
        ++units_done_;
    }

    powerdial::qos::OutputAbstraction
    output() const override
    {
        const double mean = units_done_ > 0
            ? produced_ / static_cast<double>(units_done_)
            : 0.0;
        return {{mean}, {}};
    }

    static constexpr std::size_t kUnits = 40;
    static constexpr double kBaseCycles = 6.0e5;

  private:
    powerdial::core::KnobSpace space_;
    double k_ = 1.0;
    double produced_ = 0.0;
    std::size_t units_done_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_MICROSIM_H
