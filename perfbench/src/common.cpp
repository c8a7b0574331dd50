#include <algorithm>
#include <cstdio>
#include <exception>
#include <sys/resource.h>
#include <unistd.h>

#include "bench.hpp"
#include "core/autotune.hpp"
#include "support/statistics.hpp"

namespace perfbench {

runtime::TunerFactory make_factory(const sim::ScenarioSpec& spec) {
    return [spec](const std::string& session) {
        return std::make_unique<TwoPhaseTuner>(std::make_unique<EpsilonGreedy>(0.10),
                                               spec.make_algorithms(),
                                               std::hash<std::string>{}(session));
    };
}

std::vector<Cursor> make_cursors(std::uint64_t seed,
                                 const std::vector<std::size_t>& start) {
    std::vector<Cursor> cursors(start.size());
    for (std::size_t i = 0; i < start.size(); ++i) {
        cursors[i].iteration = start[i];
        cursors[i].rng = Rng(seed * 0x9E3779B97F4A7C15ULL + i + 1);
    }
    return cursors;
}

double cost_ratio(const std::vector<Cursor>& cursors) {
    double realized = 0.0;
    double ideal = 0.0;
    for (const Cursor& cursor : cursors) {
        realized += cursor.realized;
        ideal += cursor.ideal;
    }
    return ideal > 0.0 ? realized / ideal : 0.0;
}

std::string generate_snapshot(const sim::ScenarioSpec& spec,
                              const std::vector<std::string>& names,
                              const std::vector<std::size_t>& iterations,
                              std::uint64_t seed) {
    runtime::ServiceOptions options;
    options.queue_capacity = 1u << 16;
    options.block_when_full = true;
    runtime::TuningService service(make_factory(spec), options);
    Rng rng(seed ^ 0x736e617073686f74ULL);  // "snapshot"
    const std::size_t rounds = *std::max_element(iterations.begin(), iterations.end());
    for (std::size_t round = 0; round < rounds; ++round) {
        for (std::size_t i = 0; i < names.size(); ++i) {
            if (iterations[i] <= round) continue;
            const runtime::Ticket ticket = service.begin(names[i]);
            (void)service.report(names[i], ticket, spec.evaluate(ticket.trial, round, rng));
        }
        service.flush();
    }
    return service.snapshot_payload();
}

double process_cpu_s() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double resident_mb() {
    std::FILE* statm = std::fopen("/proc/self/statm", "r");
    if (statm == nullptr) return 0.0;
    unsigned long long size = 0;
    unsigned long long resident = 0;
    const int read = std::fscanf(statm, "%llu %llu", &size, &resident);
    std::fclose(statm);
    if (read != 2) return 0.0;
    return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
           (1024.0 * 1024.0);
}

void summarize_ops(const std::vector<std::vector<std::uint32_t>>& op_ns, RepResult& result) {
    std::vector<double> all;
    for (const auto& samples : op_ns) all.insert(all.end(), samples.begin(), samples.end());
    result.op_samples = all.size();
    if (all.empty()) return;
    result.op_p50_ns = quantile(all, 0.50);
    result.op_p99_ns = quantile(all, 0.99);
}

RoundPool::RoundPool(std::vector<std::function<void(std::size_t)>> workers)
    : workers_(std::move(workers)),
      sync_(static_cast<std::ptrdiff_t>(workers_.size() + 1)),
      failures_(workers_.size()) {
    for (std::size_t w = 0; w < workers_.size(); ++w) {
        threads_.emplace_back([this, w] {
            for (;;) {
                sync_.arrive_and_wait();  // round start (or stop)
                if (stop_) return;
                try {
                    workers_[w](round_);
                } catch (const std::exception& error) {
                    if (failures_[w].empty()) failures_[w] = error.what();
                }
                sync_.arrive_and_wait();  // round end
            }
        });
    }
}

RoundPool::~RoundPool() {
    stop_ = true;
    sync_.arrive_and_wait();
    for (std::thread& thread : threads_) thread.join();
}

void RoundPool::run_round(std::size_t round) {
    round_ = round;
    sync_.arrive_and_wait();
    sync_.arrive_and_wait();
}

std::vector<std::string> RoundPool::failures() const {
    std::vector<std::string> out;
    for (const std::string& failure : failures_)
        if (!failure.empty()) out.push_back(failure);
    return out;
}

} // namespace perfbench
