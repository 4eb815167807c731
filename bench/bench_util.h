/**
 * @file
 * Shared helpers for the experiment harness binaries: aligned table
 * printing and environment-variable budget scaling.
 *
 * Every fig*_ binary regenerates one of the paper's tables/figures as
 * text. Default budgets keep the whole harness in the minutes range;
 * set XTALK_BENCH_SCALE=<n> to multiply sequence/shot budgets toward
 * paper scale.
 *
 * Machine-readable output: set XTALK_BENCH_JSON=<dir> and every table
 * a binary prints is also captured and dumped to <dir>/<binary>.json
 * at exit (schema xtalk.bench.v1, see docs/OBSERVABILITY.md). This is
 * what feeds the BENCH_*.json performance trajectory.
 *
 * Canonical xtalk.bench.v1 table contract (relied on by
 * tools/bench_diff.py and the committed bench/BENCH_baseline.json):
 *
 *  - {"schema":"xtalk.bench.v1","binary":...,"scale":N,"tables":[...]}
 *  - every table carries "section" (the enclosing Banner() title,
 *    suffixed " #k" by the dumper when one section prints several
 *    tables, so (binary, section) is a unique table key),
 *  - "headers"[0] names the row-key column; rows are keyed by their
 *    first cell (suffixed " #k" on repeats),
 *  - numeric-looking cells are compared as floats by bench_diff;
 *    everything else is compared as opaque strings.
 */
#ifndef XTALK_BENCH_BENCH_UTIL_H
#define XTALK_BENCH_BENCH_UTIL_H

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "characterization/rb.h"
#include "experiments/experiments.h"
#include "telemetry/json.h"

namespace xtalk::bench {

/** Schema tag of the per-binary JSON table dumps. */
inline constexpr const char* kBenchJsonSchema = "xtalk.bench.v1";

/** Directory for JSON table dumps (XTALK_BENCH_JSON), or null. */
inline const char*
JsonOutputDir()
{
    const char* dir = std::getenv("XTALK_BENCH_JSON");
    return (dir && *dir) ? dir : nullptr;
}

namespace internal {

struct RecordedTable {
    std::string section;
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
};

/** Per-process capture of every printed banner/table. */
struct JsonCapture {
    std::string current_section;
    std::vector<RecordedTable> tables;
    bool dump_registered = false;

    static JsonCapture&
    Get()
    {
        static JsonCapture instance;
        return instance;
    }
};

inline std::string
ProgramName()
{
#ifdef __GLIBC__
    if (program_invocation_short_name && *program_invocation_short_name) {
        return program_invocation_short_name;
    }
#endif
    return "bench";
}

inline void
DumpJsonCapture()
{
    const char* dir = JsonOutputDir();
    if (!dir) {
        return;
    }
    const JsonCapture& capture = JsonCapture::Get();
    telemetry::JsonWriter w;
    w.BeginObject();
    w.Key("schema").String(kBenchJsonSchema);
    w.Key("binary").String(ProgramName());
    w.Key("scale").Number(static_cast<int64_t>([] {
        const char* env = std::getenv("XTALK_BENCH_SCALE");
        const int scale = env ? std::atoi(env) : 1;
        return scale >= 1 ? scale : 1;
    }()));
    w.Key("tables").BeginArray();
    // (binary, section) must key a table uniquely for bench_diff /
    // BENCH_baseline.json; disambiguate repeats with a " #k" suffix.
    std::map<std::string, int> section_uses;
    for (const RecordedTable& table : capture.tables) {
        const int use = ++section_uses[table.section];
        w.BeginObject();
        w.Key("section").String(
            use == 1 ? table.section
                     : table.section + " #" + std::to_string(use));
        w.Key("headers").BeginArray();
        for (const std::string& h : table.headers) {
            w.String(h);
        }
        w.EndArray();
        w.Key("rows").BeginArray();
        for (const auto& row : table.rows) {
            w.BeginArray();
            for (const std::string& cell : row) {
                w.String(cell);
            }
            w.EndArray();
        }
        w.EndArray();
        w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    const std::string path =
        std::string(dir) + "/" + ProgramName() + ".json";
    std::ofstream out(path);
    if (out.good()) {
        out << w.str() << "\n";
    } else {
        std::cerr << "warn: cannot write bench JSON to " << path << "\n";
    }
}

inline void
RecordTable(const std::vector<std::string>& headers,
            const std::vector<std::vector<std::string>>& rows)
{
    if (!JsonOutputDir()) {
        return;
    }
    JsonCapture& capture = JsonCapture::Get();
    if (!capture.dump_registered) {
        capture.dump_registered = true;
        std::atexit(DumpJsonCapture);
    }
    capture.tables.push_back({capture.current_section, headers, rows});
}

}  // namespace internal

/** Multiplier applied to shot/sequence budgets (XTALK_BENCH_SCALE). */
inline int
BudgetScale()
{
    if (const char* env = std::getenv("XTALK_BENCH_SCALE")) {
        const int scale = std::atoi(env);
        if (scale >= 1) {
            return scale;
        }
    }
    return 1;
}

/**
 * The harness RB budget, scaled. Benches run RB on the stabilizer (CHP)
 * backend — statistically equivalent to the state vector (tested) and
 * about 1.35x faster on a two-coupler SRB schedule (docs/TUTORIAL.md
 * §3) — with twice the sequence count of the interactive default.
 */
inline RbConfig
ScaledRbConfig(uint64_t seed)
{
    RbConfig config = BenchRbConfig(seed);
    config.sequences_per_length *= 2 * BudgetScale();
    config.use_stabilizer_backend = true;
    return config;
}

/** Simple fixed-width table writer. */
class Table {
  public:
    explicit Table(std::vector<std::string> headers, int width = 18)
        : headers_(std::move(headers)), width_(width)
    {
    }

    template <typename... Args>
    void
    Row(Args&&... args)
    {
        std::vector<std::string> cells;
        (cells.push_back(Cell(std::forward<Args>(args))), ...);
        rows_.push_back(std::move(cells));
    }

    void
    Print(std::ostream& os = std::cout) const
    {
        auto write_row = [&](const std::vector<std::string>& cells) {
            for (const auto& cell : cells) {
                os << std::left << std::setw(width_) << cell;
            }
            os << "\n";
        };
        write_row(headers_);
        os << std::string(width_ * headers_.size(), '-') << "\n";
        for (const auto& row : rows_) {
            write_row(row);
        }
        internal::RecordTable(headers_, rows_);
    }

  private:
    template <typename T>
    static std::string
    Cell(const T& value)
    {
        if constexpr (std::is_floating_point_v<T>) {
            std::ostringstream oss;
            oss << std::fixed << std::setprecision(4) << value;
            return oss.str();
        } else {
            std::ostringstream oss;
            oss << value;
            return oss.str();
        }
    }

    std::vector<std::string> headers_;
    int width_;
    std::vector<std::vector<std::string>> rows_;
};

/** Section banner. Also names the section for captured JSON tables. */
inline void
Banner(const std::string& title)
{
    std::cout << "\n=== " << title << " ===\n\n";
    internal::JsonCapture::Get().current_section = title;
}

}  // namespace xtalk::bench

#endif  // XTALK_BENCH_BENCH_UTIL_H
