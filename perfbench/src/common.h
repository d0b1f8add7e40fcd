/**
 * @file
 * Shared plumbing for the benchmark workloads: run options, seed
 * derivation, the result record printed as JSON, and small
 * measurement helpers (medians, wall and CPU clocks, peak RSS,
 * summary digests).
 */
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

/** Command-line options of one benchmark process. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0; //!< Timed-section budget per run.
    bool trace = false;    //!< Per-layer (traced) run.
};

/** Worker threads for serving and calibration: min(4, host cores). */
inline std::size_t
workerThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

/** SplitMix64: one independent 64-bit stream seed per (seed, lane). */
inline std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t lane)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + lane * 0xbf58476d1ce4e5b9ULL +
        0x94d049bb133111ebULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** One benchmark run's outcome, printed as a single JSON line. */
struct Result
{
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };

    bool correct = true;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<Metric> metrics;
    std::string digest; //!< Deterministic-output fingerprint.

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    /** Count one checked operation; a failed check fails the run. */
    void
    check(bool ok, const char *what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            correct = false;
            std::fprintf(stderr, "[perfbench] check failed: %s\n", what);
        }
    }

    void
    print() const
    {
        std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                    "\"digest\": \"%s\", \"metrics\": {",
                    correct ? "true" : "false", attempted, failed,
                    digest.c_str());
        for (std::size_t i = 0; i < metrics.size(); ++i)
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i == 0 ? "" : ", ", metrics[i].name.c_str(),
                        metrics[i].value, metrics[i].unit.c_str());
        std::printf("}}\n");
        std::fflush(stdout);
    }
};

inline double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Nearest-rank percentile of @p values, p in (0, 1]. */
inline double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    auto rank = static_cast<std::size_t>(p * static_cast<double>(values.size()));
    if (static_cast<double>(rank) < p * static_cast<double>(values.size()))
        ++rank;
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

/** Host wall-clock stopwatch. */
class Stopwatch
{
  public:
    Stopwatch() : start_(std::chrono::steady_clock::now()) {}

    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/** Peak resident set size of this process, MiB. */
double peakRssMb();

/**
 * Accumulates a canonical text rendering of deterministic outputs;
 * doubles print with all 17 significant digits so any bit change in a
 * result changes the text (and its FNV-1a fingerprint).
 */
class Digest
{
  public:
    Digest &
    add(const char *label, double value)
    {
        char buffer[64];
        std::snprintf(buffer, sizeof buffer, "%s=%.17g ", label, value);
        text_ += buffer;
        return *this;
    }

    Digest &
    add(const char *label, std::size_t value)
    {
        char buffer[64];
        std::snprintf(buffer, sizeof buffer, "%s=%zu ", label, value);
        text_ += buffer;
        return *this;
    }

    Digest &
    line()
    {
        text_ += '\n';
        return *this;
    }

    const std::string &text() const { return text_; }

    /** 64-bit FNV-1a of the text, as 16 hex digits. */
    std::string
    fingerprint() const
    {
        std::uint64_t hash = 0xcbf29ce484222325ULL;
        for (const unsigned char c : text_) {
            hash ^= c;
            hash *= 0x100000001b3ULL;
        }
        char buffer[17];
        std::snprintf(buffer, sizeof buffer, "%016llx",
                      static_cast<unsigned long long>(hash));
        return buffer;
    }

  private:
    std::string text_;
};

/** Workload entry points (one per process). */
Result runFleetScale(const Options &options);
Result runFleetSlo(const Options &options);
Result runCalibrate(const Options &options);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
