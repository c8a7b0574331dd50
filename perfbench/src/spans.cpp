#include "spans.hpp"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {

namespace {

/// Ceiling on spans kept across all threads (~32 MiB of records); ops are
/// already sampled by the workloads, so this only guards pathological runs.
constexpr std::uint64_t kMaxSpans = 1u << 20;

struct Buffer {
    std::uint32_t thread = 0;
    std::vector<SpanRecord> spans;
};

std::mutex g_registry_mutex;
std::vector<std::unique_ptr<Buffer>> g_buffers;  // guarded by g_registry_mutex
std::atomic<Stage> g_stage{Stage::Workload};
std::atomic<std::uint64_t> g_recorded{0};
std::atomic<std::uint64_t> g_dropped{0};
const auto g_epoch = std::chrono::steady_clock::now();

Buffer& thread_buffer() {
    thread_local Buffer* buffer = nullptr;
    if (buffer == nullptr) {
        std::lock_guard lock(g_registry_mutex);
        g_buffers.push_back(std::make_unique<Buffer>());
        buffer = g_buffers.back().get();
        buffer->thread = static_cast<std::uint32_t>(g_buffers.size());
    }
    return *buffer;
}

} // namespace

const char* call_name(Call call) {
    switch (call) {
    case Call::RuntimeBegin: return "runtime.begin";
    case Call::RuntimeReport: return "runtime.report";
    case Call::RuntimeFlush: return "runtime.flush";
    case Call::RuntimeSnapshot: return "runtime.session_snapshot";
    case Call::RuntimeRestore: return "runtime.restore_payload";
    case Call::CoreIteration: return "core.next_report";
    case Call::SimEvaluate: return "sim.evaluate";
    case Call::NetRecommend: return "net.recommend";
    case Call::NetReportAsync: return "net.report_async";
    case Call::NetFlush: return "net.flush";
    case Call::FleetRoute: return "fleet.route";
    case Call::FleetReplicate: return "fleet.replicate_now";
    case Call::FleetPull: return "fleet.pull_now";
    case Call::ObsScrape: return "obs.to_prometheus";
    case Call::kCount: break;
    }
    return "unknown";
}

void set_stage(Stage stage) { g_stage.store(stage); }

std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - g_epoch)
                   .count()) +
           1;  // never 0: ScopedSpan uses 0 for "off"
}

void record(Call call, std::uint64_t op, std::uint64_t start_ns, std::uint64_t end_ns) {
    if (g_recorded.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans) {
        g_dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    Buffer& buffer = thread_buffer();
    buffer.spans.push_back(SpanRecord{op, start_ns,
                                      static_cast<std::uint32_t>(end_ns - start_ns),
                                      call, g_stage.load(std::memory_order_relaxed),
                                      buffer.thread});
}

std::vector<SpanRecord> collect_spans() {
    std::lock_guard lock(g_registry_mutex);
    std::vector<SpanRecord> all;
    for (const auto& buffer : g_buffers)
        all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    return all;
}

std::uint64_t spans_dropped() { return g_dropped.load(); }

bool write_chrome_trace(const std::string& path, const std::vector<SpanRecord>& spans) {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", out);
    bool first = true;
    for (const SpanRecord& span : spans) {
        std::fprintf(out,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%u,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu}}",
                     first ? "" : ",", call_name(span.call),
                     span.stage == Stage::Workload ? 1 : 2, span.thread,
                     static_cast<double>(span.start_ns) / 1000.0,
                     static_cast<double>(span.dur_ns) / 1000.0,
                     static_cast<unsigned long long>(span.op));
        first = false;
    }
    std::fputs("\n]}\n", out);
    return std::fclose(out) == 0;
}

} // namespace perfbench
