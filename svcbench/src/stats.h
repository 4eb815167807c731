/**
 * @file
 * Order statistics over raw samples, and the benchmark's metric record.
 *
 * Percentiles are nearest-rank: the reported value is always one of the
 * samples, so it can never exceed the largest one (the fixed-bucket
 * histograms in src/telemetry interpolate and can). A percentile above
 * the median is reported only when at least kMinBeyond samples lie
 * beyond it; the median is always reported, with its sample count.
 */
#ifndef SVCBENCH_STATS_H
#define SVCBENCH_STATS_H

#include <cstddef>
#include <string>
#include <vector>

namespace svcbench {

/** Samples that must lie beyond a reported tail percentile. */
inline constexpr size_t kMinBeyond = 10;

/** One nearest-rank percentile of a sample set. */
struct Percentile {
    double value = 0.0;
    /** 1-based rank of `value` in ascending order. */
    size_t rank = 0;
    size_t count = 0;
    /** Samples ranked after `value`. */
    size_t beyond = 0;
    /** False for a tail percentile with fewer than kMinBeyond beyond. */
    bool reportable = false;
};

/** Nearest-rank percentile @p p in (0, 100] of non-empty @p samples. */
Percentile NearestRank(std::vector<double> samples, double p);

/** Median (nearest rank) of non-empty @p values. */
double Median(std::vector<double> values);

/** Geometric mean of positive @p values. */
double GeoMean(const std::vector<double>& values);

/** One named measurement, printed as `name = value unit (n=count)`. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    /** Samples behind the value (1 for a single measurement). */
    size_t count = 1;
};

/** Checks of the statistics above; returns the number of failures. */
int StatsSelfTest();

}  // namespace svcbench

#endif  // SVCBENCH_STATS_H
