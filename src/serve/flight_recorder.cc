#include "serve/flight_recorder.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/logging.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace rumba::serve {

uint64_t
DigestInputs(const double* data, size_t count)
{
    // FNV-1a 64-bit over the raw 64-bit words: cheap (one multiply
    // per double, not per byte), stable across runs, and
    // collision-resistant enough to answer "was this the same batch?"
    uint64_t hash = 14695981039346656037ull;
    for (size_t i = 0; i < count; ++i) {
        uint64_t word;
        std::memcpy(&word, data + i, sizeof(word));
        hash ^= word;
        hash *= 1099511628211ull;
    }
    return hash;
}

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity)
{
    ring_.reserve(capacity_);
}

void
FlightRecorder::Append(const FlightRecord& record)
{
    std::lock_guard<std::mutex> lock(mu_);
    ++appended_;
    if (ring_.size() < capacity_) {
        ring_.push_back(record);
        return;
    }
    ring_[head_] = record;
    head_ = (head_ + 1) % capacity_;
}

std::vector<FlightRecord>
FlightRecorder::Snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<FlightRecord> out;
    out.reserve(ring_.size());
    for (size_t i = 0; i < ring_.size(); ++i)
        out.push_back(ring_[(head_ + i) % ring_.size()]);
    return out;
}

uint64_t
FlightRecorder::TotalAppended() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return appended_;
}

void
FlightRecorder::Clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    ring_.clear();
    head_ = 0;
}

std::string
FlightRecordJson(const FlightRecord& r)
{
    std::string out = "{\"type\":\"flight\",\"trace_id\":" +
                      std::to_string(r.trace_id) +
                      ",\"shard\":" + std::to_string(r.shard) +
                      ",\"enqueue_ns\":" + std::to_string(r.enqueue_ns) +
                      ",\"complete_ns\":" +
                      std::to_string(r.complete_ns) +
                      ",\"queue_wait_ns\":" +
                      std::to_string(r.queue_wait_ns) +
                      ",\"device_ns\":" + std::to_string(r.device_ns) +
                      ",\"elements\":" + std::to_string(r.elements) +
                      ",\"inputs_digest\":" +
                      std::to_string(r.inputs_digest) +
                      ",\"threshold\":" + obs::JsonNum(r.threshold) +
                      ",\"predicted_error_pct\":" +
                      obs::JsonNum(r.predicted_error_pct) +
                      ",\"actual_error_pct\":" +
                      obs::JsonNum(r.actual_error_pct) +
                      ",\"fixes\":" + std::to_string(r.fixes) +
                      ",\"breaker_state\":" +
                      std::to_string(r.breaker_state) +
                      ",\"status_code\":" +
                      std::to_string(r.status_code) +
                      ",\"audited\":" + (r.audited ? "true" : "false") +
                      "}";
    return out;
}

std::string
FlightRecorder::Dump(const std::string& dir, uint32_t shard,
                     const std::string& reason)
{
    std::vector<FlightRecord> records;
    uint32_t seq;
    {
        std::lock_guard<std::mutex> lock(mu_);
        records.reserve(ring_.size());
        for (size_t i = 0; i < ring_.size(); ++i)
            records.push_back(ring_[(head_ + i) % ring_.size()]);
        seq = dump_seq_++;
    }
    std::string path = dir.empty() ? "." : dir;
    if (!path.empty() && path.back() != '/')
        path += '/';
    path += "flight-shard" + std::to_string(shard) + "-" +
            std::to_string(seq) + ".jsonl";

    std::string body = obs::MetadataJsonLine() + "\n";
    body += "{\"type\":\"flight_dump\",\"reason\":" +
            obs::JsonQuote(reason) +
            ",\"shard\":" + std::to_string(shard) +
            ",\"records\":" + std::to_string(records.size()) + "}\n";
    for (const FlightRecord& r : records)
        body += FlightRecordJson(r) + "\n";

    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        Warn("flight recorder: cannot open %s: %s", path.c_str(),
             std::strerror(errno));
        return "";
    }
    const size_t written = std::fwrite(body.data(), 1, body.size(), f);
    const bool ok = std::fclose(f) == 0 && written == body.size();
    if (!ok) {
        Warn("flight recorder: short write to %s", path.c_str());
        return "";
    }
    obs::Registry::Default()
        .GetCounter("serve.flight_dumps")
        ->Increment();
    Inform("flight recorder: shard %u dumped %zu records to %s (%s)",
           static_cast<unsigned>(shard), records.size(), path.c_str(),
           reason.c_str());
    return path;
}

}  // namespace rumba::serve
