// perfbench — the repo benchmark binary.  One run drives one workload for a
// given number of seconds as a sequence of warm-restart repetitions and
// prints, as its last line, one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) alternate untraced and traced repetitions and report the
// per-layer metrics computed from the spans (see spans.hpp).  Usage:
//
//   perfbench --workload ingest|churn|fleet --seed N --seconds S --trace 0|1
//             [--smoke] [--out DIR]
//
// Exit status: 0 when every correctness check passed, 1 when one failed,
// 2 on bad arguments, 3 on a build that must not be timed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "spans.hpp"
#include "support/statistics.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#ifndef PERFBENCH_SANITIZED
#define PERFBENCH_SANITIZED 0
#endif

namespace perfbench {
std::unique_ptr<Workload> make_inproc_workload(const std::string& name, std::uint64_t seed,
                                               Scale scale);
std::unique_ptr<Workload> make_fleet_workload(std::uint64_t seed, Scale scale);

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        Scale scale) {
    if (name == "fleet") return make_fleet_workload(seed, scale);
    if (auto workload = make_inproc_workload(name, seed, scale)) return workload;
    throw std::invalid_argument("unknown workload '" + name +
                                "' (have: ingest, churn, fleet)");
}
} // namespace perfbench

using namespace perfbench;

namespace {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    std::string out = ".bench_build/perfbench/out";
};

bool parse_args(int argc, char** argv, Args& args) {
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const bool has_value = i + 1 < argc;
        if (flag == "--smoke") {
            args.smoke = true;
        } else if (flag == "--workload" && has_value) {
            args.workload = argv[++i];
        } else if (flag == "--seed" && has_value) {
            args.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (flag == "--seconds" && has_value) {
            args.seconds = std::strtod(argv[++i], nullptr);
        } else if (flag == "--trace" && has_value) {
            args.trace = std::strcmp(argv[++i], "0") != 0;
        } else if (flag == "--out" && has_value) {
            args.out = argv[++i];
        } else {
            std::fprintf(stderr, "perfbench: bad argument '%s'\n", flag.c_str());
            return false;
        }
    }
    return !args.workload.empty() && args.seconds > 0.0;
}

double median_of(std::vector<double> values) {
    return values.empty() ? 0.0 : median(values);
}

double quantile_us(const std::vector<double>& ns, double q) {
    return ns.empty() ? 0.0 : quantile(ns, q) / 1000.0;
}

double mean_of(const std::vector<double>& values) {
    if (values.empty()) return 0.0;
    double sum = 0.0;
    for (const double v : values) sum += v;
    return sum / static_cast<double>(values.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Span durations (ns) per call; a call the workload never made falls back
/// to the probe's spans of it.
class SpanTable {
public:
    explicit SpanTable(const std::vector<SpanRecord>& spans) {
        for (const SpanRecord& span : spans)
            by_stage_[static_cast<std::size_t>(span.stage)][static_cast<std::size_t>(span.call)]
                .push_back(static_cast<double>(span.dur_ns));
    }
    [[nodiscard]] const std::vector<double>& durations(Call call) const {
        const auto c = static_cast<std::size_t>(call);
        const auto& workload = by_stage_[static_cast<std::size_t>(Stage::Workload)][c];
        return workload.empty() ? by_stage_[static_cast<std::size_t>(Stage::Probe)][c]
                                : workload;
    }
    [[nodiscard]] bool from_workload(Call call) const {
        return !by_stage_[static_cast<std::size_t>(Stage::Workload)]
                         [static_cast<std::size_t>(call)]
                             .empty();
    }
    [[nodiscard]] double sum(Call call) const {
        double total = 0.0;
        for (const double d : durations(call)) total += d;
        return total;
    }

private:
    std::vector<double> by_stage_[2][static_cast<std::size_t>(Call::kCount)];
};

double ops_per_s(const RepResult& r) { return ratio(static_cast<double>(r.served), r.measured_s); }

/// Iterations per second of a typical round: served ops per round over the
/// median round wall time, pooled over `reps`.  A round's time is set by
/// the program; the median keeps a preempted round (shared host) out.
double round_ops_per_s(const std::vector<const RepResult*>& reps) {
    std::vector<double> round_s;
    double served = 0.0;
    for (const RepResult* r : reps) {
        for (const std::uint64_t ns : r->round_ns) round_s.push_back(static_cast<double>(ns) * 1e-9);
        served += static_cast<double>(r->served);
    }
    if (round_s.empty()) return 0.0;
    return ratio(served / static_cast<double>(round_s.size()), median(round_s));
}

std::vector<Metric> end_to_end(const std::vector<RepResult>& reps) {
    std::vector<const RepResult*> all;
    std::vector<double> setup;
    std::vector<double> p50;
    std::vector<double> cpu;
    std::vector<double> cost;
    double attempted = 0.0;
    double served = 0.0;
    std::size_t samples = 0;
    for (const RepResult& r : reps) {
        all.push_back(&r);
        setup.push_back(r.setup_s);
        p50.push_back(r.op_p50_ns / 1000.0);
        cpu.push_back(ratio(r.cpu_s * 1e6, static_cast<double>(r.served)));
        cost.push_back(r.cost_ratio);
        attempted += static_cast<double>(r.attempted);
        served += static_cast<double>(r.served);
        samples += r.op_samples;
    }
    std::printf("perfbench: op_p50_us is the median of %zu repetition medians over %zu "
                "samples\n",
                reps.size(), samples);
    return {
        {"setup_s", median_of(setup), "s"},
        {"ops_per_s", round_ops_per_s(all), "1/s"},
        {"op_p50_us", median_of(p50), "us"},
        {"cpu_us_per_op", median_of(cpu), "us"},
        {"cost_ratio", median_of(cost), "ratio"},
        {"served_ratio", ratio(served, attempted), "ratio"},
        // The first repetition's resident set: later ones inherit the
        // allocator state of every repetition before them.
        {"rss_mb", reps.front().rss_mb, "MiB"},
    };
}

std::vector<Metric> per_layer(const std::vector<RepResult>& reps, const RepResult& probe,
                              const SpanTable& spans, std::size_t core_iterations,
                              bool fleet_workload) {
    LayerCounters sum;
    double attempted = 0.0;
    double traced_attempted = 0.0;
    std::uint64_t restored = 0;
    std::vector<const RepResult*> traced_reps;
    std::vector<const RepResult*> plain_reps;
    for (const RepResult& r : reps) {
        const LayerCounters& c = r.counters;
        sum.evictions += c.evictions;
        sum.rehydrations += c.rehydrations;
        sum.fresh += c.fresh;
        sum.stale += c.stale;
        sum.dropped += c.dropped;
        sum.net_errors += c.net_errors;
        sum.failovers += c.failovers;
        sum.pushes += c.pushes;
        sum.push_bytes += c.push_bytes;
        sum.prom_lines = std::max(sum.prom_lines, c.prom_lines);
        attempted += static_cast<double>(r.attempted);
        if (r.traced) {
            traced_attempted += static_cast<double>(r.attempted);
            restored += c.restored_sessions;
            traced_reps.push_back(&r);
        } else {
            plain_reps.push_back(&r);
        }
    }
    // Wire and fleet counters of in-process workloads come from the probe.
    const LayerCounters& wire = fleet_workload ? sum : probe.counters;
    const auto us_mean = [&](Call call) { return mean_of(spans.durations(call)) / 1000.0; };
    const auto p = [&](Call call, double q) { return quantile_us(spans.durations(call), q); };
    const double flush_ops = spans.from_workload(Call::RuntimeFlush)
                                 ? traced_attempted
                                 : static_cast<double>(probe.attempted);
    const double restore_sessions = spans.from_workload(Call::RuntimeRestore)
                                        ? static_cast<double>(restored)
                                        : static_cast<double>(probe.counters.restored_sessions);
    return {
        {"runtime.report_us.p50", p(Call::RuntimeReport, 0.50), "us"},
        {"runtime.report_us.p99", p(Call::RuntimeReport, 0.99), "us"},
        {"runtime.begin_us.p50", p(Call::RuntimeBegin, 0.50), "us"},
        {"runtime.begin_us.p99", p(Call::RuntimeBegin, 0.99), "us"},
        {"runtime.flush_wait_us_per_op", ratio(spans.sum(Call::RuntimeFlush) / 1000.0, flush_ops),
         "us"},
        {"runtime.evictions_per_op", ratio(static_cast<double>(sum.evictions), attempted),
         "count/op"},
        {"runtime.rehydrations_per_op", ratio(static_cast<double>(sum.rehydrations), attempted),
         "count/op"},
        {"runtime.restore_us_per_session",
         ratio(spans.sum(Call::RuntimeRestore) / 1000.0, restore_sessions), "us"},
        {"runtime.snapshot_us_per_session", us_mean(Call::RuntimeSnapshot), "us"},
        {"runtime.stale_ratio",
         ratio(static_cast<double>(sum.stale), static_cast<double>(sum.fresh + sum.stale)),
         "ratio"},
        {"runtime.dropped", static_cast<double>(sum.dropped), "count"},
        {"core.iteration_us",
         ratio(spans.sum(Call::CoreIteration) / 1000.0, static_cast<double>(core_iterations)),
         "us"},
        {"net.recommend_us.p50", p(Call::NetRecommend, 0.50), "us"},
        {"net.recommend_us.p99", p(Call::NetRecommend, 0.99), "us"},
        {"net.report_flush_us", us_mean(Call::NetFlush), "us"},
        {"net.errors", static_cast<double>(wire.net_errors), "count"},
        {"fleet.route_ns", mean_of(spans.durations(Call::FleetRoute)), "ns"},
        {"fleet.failovers", static_cast<double>(wire.failovers), "count"},
        {"fleet.replicate_ms", us_mean(Call::FleetReplicate) / 1000.0, "ms"},
        {"fleet.push_bytes",
         ratio(static_cast<double>(wire.push_bytes), static_cast<double>(wire.pushes)), "B"},
        {"fleet.pull_ms", us_mean(Call::FleetPull) / 1000.0, "ms"},
        {"obs.prom_lines", static_cast<double>(sum.prom_lines), "count"},
        {"obs.scrape_ms", us_mean(Call::ObsScrape) / 1000.0, "ms"},
        {"obs.trace_overhead", ratio(round_ops_per_s(traced_reps), round_ops_per_s(plain_reps)), "ratio"},
        {"sim.evaluate_us", us_mean(Call::SimEvaluate), "us"},
    };
}

/// Times a direct TwoPhaseTuner next → report replay of the workload's
/// scenario: the core layer's share of an iteration without the runtime.
void replay_core(const sim::ScenarioSpec& spec, std::uint64_t seed, std::size_t iterations) {
    auto tuner = make_factory(spec)("core/replay");
    Rng rng(seed);
    constexpr std::uint64_t kReplayRep = 0xFFFE;
    for (std::size_t i = 0; i < iterations; ++i) {
        const std::uint64_t op = op_id(kReplayRep, i >> 16, i & 0xFFFF);
        Trial trial;
        {
            ScopedSpan span(Call::CoreIteration, op, true);
            trial = tuner->next();
        }
        const Cost cost = spec.evaluate(trial, i, rng);
        ScopedSpan span(Call::CoreIteration, op, true);
        tuner->report(trial, cost);
    }
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                    metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace

int main(int argc, char** argv) {
    Args args;
    if (!parse_args(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload ingest|churn|fleet --seed N --seconds S "
                     "--trace 0|1 [--smoke] [--out DIR]\n");
        return 2;
    }
    std::printf("perfbench: fingerprint {\"build_type\": \"%s\", \"sanitized\": %s, "
                "\"hardware_threads\": %u}\n",
                PERFBENCH_BUILD_TYPE, PERFBENCH_SANITIZED ? "true" : "false",
                std::thread::hardware_concurrency());
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0 || PERFBENCH_SANITIZED) {
        std::fprintf(stderr, "perfbench: refusing to time a %s%s build; build Release\n",
                     PERFBENCH_BUILD_TYPE, PERFBENCH_SANITIZED ? " sanitizer" : "");
        return 3;
    }

    const Scale scale = args.smoke ? Scale::Smoke : Scale::Full;
    std::unique_ptr<Workload> workload;
    try {
        workload = make_workload(args.workload, args.seed, scale);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench: %s\n", error.what());
        return 2;
    }

    // Repetitions until the time is spent; a traced run alternates untraced
    // (even) and traced (odd) repetitions so it can report its own overhead.
    const std::size_t min_reps = args.trace ? 2 : 1;
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(args.seconds * 1e9);
    std::vector<RepResult> reps;
    bool correct = true;
    for (std::uint64_t rep = 0; reps.size() < min_reps || now_ns() < deadline; ++rep) {
        const bool traced = args.trace && rep % 2 == 1;
        reps.push_back(workload->run_rep(rep, traced));
        const RepResult& r = reps.back();
        std::vector<double> round_ms;
        for (const std::uint64_t ns : r.round_ns) round_ms.push_back(static_cast<double>(ns) * 1e-6);
        std::printf("perfbench: rep %llu%s setup %.4f s, %llu ops in %.3f s (%.0f ops/s, "
                    "median round %.0f ops/s; round ms p10 %.2f p50 %.2f p90 %.2f), "
                    "cpu %.3f us/op, op p50 %.3f us p99 %.3f us, rss %.1f MiB, "
                    "cost_ratio %.17g\n",
                    static_cast<unsigned long long>(rep), traced ? " (traced)" : "",
                    r.setup_s, static_cast<unsigned long long>(r.served), r.measured_s,
                    ops_per_s(r), round_ops_per_s({&r}), quantile(round_ms, 0.1),
                    quantile(round_ms, 0.5), quantile(round_ms, 0.9),
                    ratio(r.cpu_s * 1e6, static_cast<double>(r.served)), r.op_p50_ns / 1000.0,
                    r.op_p99_ns / 1000.0, r.rss_mb, r.cost_ratio);
        for (const std::string& failure : r.failures) {
            std::printf("perfbench: CHECK FAILED: %s\n", failure.c_str());
            correct = false;
        }
        if (!std::isfinite(r.cost_ratio) || r.cost_ratio < 1.0) {
            std::printf("perfbench: CHECK FAILED: cost_ratio %.17g is not finite and >= 1\n",
                        r.cost_ratio);
            correct = false;
        }
        if (workload->deterministic() && r.cost_ratio != reps.front().cost_ratio) {
            std::printf("perfbench: CHECK FAILED: cost_ratio %.17g differs from rep 0's "
                        "%.17g under the same seed\n",
                        r.cost_ratio, reps.front().cost_ratio);
            correct = false;
        }
    }

    std::uint64_t attempted = 0;
    std::uint64_t served = 0;
    for (const RepResult& r : reps) {
        attempted += r.attempted;
        served += r.served;
    }

    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics = end_to_end(reps);
    } else {
        // Layers the workload never calls are timed by a small probe: the
        // fleet workload for in-process ones, the ingest workload for fleet.
        const bool fleet_workload = args.workload == "fleet";
        auto probe = make_workload(fleet_workload ? "ingest" : "fleet", args.seed, Scale::Probe);
        set_stage(Stage::Probe);
        const RepResult probe_result = probe->run_rep(0xFFFD, true);
        set_stage(Stage::Workload);
        const std::size_t core_iterations = args.smoke ? 2000 : 20000;
        replay_core(workload->scenario(), args.seed, core_iterations);
        for (const std::string& failure : probe_result.failures) {
            std::printf("perfbench: CHECK FAILED (probe): %s\n", failure.c_str());
            correct = false;
        }
        const std::vector<SpanRecord> spans = collect_spans();
        std::printf("perfbench: %zu spans recorded, %llu dropped\n", spans.size(),
                    static_cast<unsigned long long>(spans_dropped()));
        const std::string trace_path = args.out + "/trace-" + args.workload + ".json";
        if (!write_chrome_trace(trace_path, spans))
            std::printf("perfbench: could not write %s\n", trace_path.c_str());
        else
            std::printf("perfbench: spans written to %s\n", trace_path.c_str());
        metrics = per_layer(reps, probe_result, SpanTable(spans), core_iterations, fleet_workload);
    }
    print_result(correct, attempted, attempted - served, metrics);
    return correct ? 0 : 1;
}
