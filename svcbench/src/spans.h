/**
 * @file
 * In-memory spans recorded by the benchmark around its calls into each
 * layer (none are recorded inside the library). Each span keeps its
 * name, start, end, parent span and the request it belongs to; the log
 * is written out once, when the run ends.
 */
#ifndef SVCBENCH_SPANS_H
#define SVCBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace svcbench {

struct SpanRecord {
    std::string name;
    std::string request;
    /** Nanoseconds since the log was created. */
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    /** Index of the enclosing span on the same thread, -1 for a root. */
    int parent = -1;
};

class SpanLog {
  public:
    SpanLog();

    /** Spans opened while disabled are not recorded (and cost one
     *  branch), which is how the tracing overhead is measured. */
    void set_enabled(bool enabled) { enabled_ = enabled; }

    /** Records one span for the lifetime of the object. */
    class Scope {
      public:
        Scope(SpanLog& log, std::string name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        SpanLog* log_;
        int index_ = -1;
    };

    /** Tag the calling thread's spans with @p request until changed. */
    static void SetRequest(const std::string& request);

    std::vector<SpanRecord> records() const;

    /** Per span name: total duration minus the part its children
     *  cover, in milliseconds. */
    std::map<std::string, double> SelfMs() const;

    /** Write every span as one JSON document; false on I/O failure. */
    bool WriteJson(const std::string& path) const;

  private:
    int64_t Now() const;

    bool enabled_ = true;
    std::chrono::steady_clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
};

}  // namespace svcbench

#endif  // SVCBENCH_SPANS_H
