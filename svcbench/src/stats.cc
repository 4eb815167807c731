#include "stats.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <stdexcept>

namespace svcbench {

Percentile
NearestRank(std::vector<double> samples, double p)
{
    if (samples.empty() || !(p > 0.0) || p > 100.0) {
        throw std::invalid_argument("NearestRank: empty samples or bad p");
    }
    std::sort(samples.begin(), samples.end());
    Percentile out;
    out.count = samples.size();
    // Smallest rank r with r / n >= p / 100, computed in integers so
    // that e.g. p90 of 100 samples is rank 90, not 91 after rounding.
    const auto scaled = static_cast<size_t>(std::llround(p * 1000.0));
    out.rank = std::max<size_t>(1, (scaled * out.count + 99999) / 100000);
    out.value = samples[out.rank - 1];
    out.beyond = out.count - out.rank;
    out.reportable = p <= 50.0 || out.beyond >= kMinBeyond;
    return out;
}

double
Median(std::vector<double> values)
{
    return NearestRank(std::move(values), 50.0).value;
}

double
GeoMean(const std::vector<double>& values)
{
    if (values.empty()) {
        throw std::invalid_argument("GeoMean: no values");
    }
    double log_sum = 0.0;
    for (double v : values) {
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

int
StatsSelfTest()
{
    int failures = 0;
    auto expect = [&](bool ok, const std::string& what) {
        if (!ok) {
            std::cerr << "stats self-test FAILED: " << what << "\n";
            ++failures;
        }
    };

    std::vector<double> hundred;
    for (int i = 100; i >= 1; --i) {
        hundred.push_back(i);  // descending: order must not matter
    }
    const Percentile p90 = NearestRank(hundred, 90.0);
    expect(p90.value == 90.0 && p90.rank == 90 && p90.beyond == 10 &&
               p90.reportable,
           "p90 of 1..100 is 90 with 10 beyond");
    const Percentile p99 = NearestRank(hundred, 99.0);
    expect(p99.value == 99.0 && !p99.reportable,
           "p99 of 100 samples has 1 beyond and is not reported");
    expect(NearestRank(hundred, 100.0).value == 100.0,
           "p100 is the maximum");
    expect(Median(hundred) == 50.0, "median of 1..100 is 50");
    expect(Median({7.0}) == 7.0, "median of one sample is the sample");
    expect(Median({3.0, 1.0}) == 1.0, "median of two is the lower one");
    expect(Median({2.0, 9.0, 4.0}) == 4.0, "median of three");
    expect(NearestRank({5.0}, 50.0).reportable,
           "a median is reported at any count");

    // The defect this code exists to avoid: 22 heavy-tailed latencies
    // whose p99 must never exceed the slowest request.
    std::vector<double> heavy{12, 13, 14, 15, 15, 16, 17, 18, 19, 20, 21,
                              22, 25, 30, 41, 60, 95, 180, 420, 1100, 2900,
                              4798};
    for (double p : {50.0, 90.0, 95.0, 99.0, 100.0}) {
        const Percentile q = NearestRank(heavy, p);
        expect(q.value <= 4798.0, "percentile never exceeds the maximum");
        expect(std::find(heavy.begin(), heavy.end(), q.value) != heavy.end(),
               "a nearest-rank percentile is one of the samples");
    }
    expect(!NearestRank(heavy, 99.0).reportable &&
               NearestRank(heavy, 50.0).reportable,
           "22 samples report the median but not p99");

    std::vector<double> ramp;
    for (int i = 1; i <= 250; ++i) {
        ramp.push_back(i * 0.5);
    }
    double last = 0.0;
    for (double p = 1.0; p <= 100.0; p += 1.0) {
        const double v = NearestRank(ramp, p).value;
        expect(v >= last, "percentiles are monotone in p");
        last = v;
    }
    expect(std::abs(GeoMean({1.0, 4.0, 16.0}) - 4.0) < 1e-12,
           "geomean of 1, 4, 16 is 4");
    return failures;
}

}  // namespace svcbench
