#include "spans.h"

#include <fstream>

#include "telemetry/json.h"

namespace svcbench {

namespace {

thread_local std::vector<int> t_open;
thread_local std::string t_request;

}  // namespace

SpanLog::SpanLog() : origin_(std::chrono::steady_clock::now()) {}

int64_t
SpanLog::Now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

void
SpanLog::SetRequest(const std::string& request)
{
    t_request = request;
}

SpanLog::Scope::Scope(SpanLog& log, std::string name) : log_(&log)
{
    if (!log.enabled_) {
        return;
    }
    SpanRecord record;
    record.name = std::move(name);
    record.request = t_request;
    record.parent = t_open.empty() ? -1 : t_open.back();
    std::lock_guard<std::mutex> lock(log.mutex_);
    record.start_ns = log.Now();
    index_ = static_cast<int>(log.spans_.size());
    log.spans_.push_back(std::move(record));
    t_open.push_back(index_);
}

SpanLog::Scope::~Scope()
{
    if (index_ < 0) {
        return;
    }
    t_open.pop_back();
    std::lock_guard<std::mutex> lock(log_->mutex_);
    log_->spans_[index_].end_ns = log_->Now();
}

std::vector<SpanRecord>
SpanLog::records() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::map<std::string, double>
SpanLog::SelfMs() const
{
    const std::vector<SpanRecord> spans = records();
    std::vector<int64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        self[i] += spans[i].end_ns - spans[i].start_ns;
        if (spans[i].parent >= 0) {
            self[spans[i].parent] -= spans[i].end_ns - spans[i].start_ns;
        }
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans.size(); ++i) {
        out[spans[i].name] += static_cast<double>(self[i]) / 1e6;
    }
    return out;
}

bool
SpanLog::WriteJson(const std::string& path) const
{
    std::ofstream out(path);
    out << "{\"spans\":[";
    bool first = true;
    for (const SpanRecord& span : records()) {
        out << (first ? "\n" : ",\n") << "{\"name\":\""
            << xtalk::telemetry::JsonEscape(span.name) << "\",\"request\":\""
            << xtalk::telemetry::JsonEscape(span.request)
            << "\",\"start_ns\":" << span.start_ns
            << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
            << "}";
        first = false;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

}  // namespace svcbench
