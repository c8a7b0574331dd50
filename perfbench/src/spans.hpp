#pragma once

// In-memory span log of the benchmark's own calls into each layer's public
// functions.  Nothing inside src/ is instrumented: a span brackets one call
// the benchmark makes (TuningService::begin, FleetClient::recommend, ...),
// so per-layer numbers are what a caller of that layer sees.
//
// Spans land in per-thread buffers (no sharing on the hot path), are kept
// until the process ends, and are written out once as a Chrome trace-event
// file.  Spans of one tuning iteration share an op id.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One public entry point the benchmark times, named "<layer>.<call>".
enum class Call : std::uint8_t {
    RuntimeBegin,
    RuntimeReport,
    RuntimeFlush,
    RuntimeSnapshot,
    RuntimeRestore,
    CoreIteration,
    SimEvaluate,
    NetRecommend,
    NetReportAsync,
    NetFlush,
    FleetRoute,
    FleetReplicate,
    FleetPull,
    ObsScrape,
    kCount,
};

[[nodiscard]] const char* call_name(Call call);

/// Which part of a run produced a span: the workload itself, or the
/// fixed-size probe a traced run uses for layers its workload never calls.
enum class Stage : std::uint8_t { Workload, Probe };

struct SpanRecord {
    std::uint64_t op = 0;        ///< shared by every span of one iteration
    std::uint64_t start_ns = 0;  ///< steady_clock, relative to process start
    std::uint32_t dur_ns = 0;
    Call call = Call::kCount;
    Stage stage = Stage::Workload;
    std::uint32_t thread = 0;
};

/// Stage stamped on spans recorded from now on (process-wide).
void set_stage(Stage stage);

[[nodiscard]] std::uint64_t now_ns();

/// Appends one span to the calling thread's buffer (dropped, and counted,
/// once the process holds its cap of spans).
void record(Call call, std::uint64_t op, std::uint64_t start_ns, std::uint64_t end_ns);

/// Times one call when `on`; a no-op otherwise.
class ScopedSpan {
public:
    ScopedSpan(Call call, std::uint64_t op, bool on)
        : call_(call), op_(op), start_(on ? now_ns() : 0) {}
    ~ScopedSpan() {
        if (start_ != 0) record(call_, op_, start_, now_ns());
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    Call call_;
    std::uint64_t op_;
    std::uint64_t start_;
};

/// Every span recorded so far, all threads.  Call once the workers joined.
[[nodiscard]] std::vector<SpanRecord> collect_spans();
[[nodiscard]] std::uint64_t spans_dropped();

/// Chrome trace-event JSON (Perfetto / chrome://tracing).  False on I/O error.
bool write_chrome_trace(const std::string& path, const std::vector<SpanRecord>& spans);

} // namespace perfbench
