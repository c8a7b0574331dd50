#pragma once

// Shared pieces of the benchmark's three closed-loop workloads.  Each
// workload is a sequence of repetitions; one repetition is a warm restart
// (the timed set-up), untimed warm-up rounds, then a fixed number of
// measured rounds.  A round is closed-loop and flush-paced: every driven
// session does one tuning iteration, then the round ends once every report
// of it has been processed.

#include <barrier>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/tuner.hpp"
#include "runtime/service.hpp"
#include "sim/scenario.hpp"
#include "support/rng.hpp"

namespace perfbench {

using namespace atk;

/// Full: the measured workload.  Smoke: the same code at a size that runs
/// in seconds.  Probe: the small fixed-size run a traced run uses to time
/// layers its own workload never calls.
enum class Scale { Full, Smoke, Probe };

/// Counters read from the layers' own stats (deltas over measured rounds).
struct LayerCounters {
    std::uint64_t evictions = 0;
    std::uint64_t rehydrations = 0;
    std::uint64_t fresh = 0;
    std::uint64_t stale = 0;
    std::uint64_t dropped = 0;
    std::uint64_t net_errors = 0;
    std::uint64_t failovers = 0;
    std::uint64_t pushes = 0;
    std::uint64_t push_bytes = 0;
    std::uint64_t restored_sessions = 0;  ///< by this repetition's set-up
    std::uint64_t prom_lines = 0;         ///< lines of the last scrape
};

struct RepResult {
    bool traced = false;
    double setup_s = 0.0;
    double measured_s = 0.0;  ///< wall time of the measured rounds
    std::vector<std::uint64_t> round_ns;  ///< wall time of each measured round
    double cpu_s = 0.0;       ///< process user+sys over the measured rounds
    std::uint64_t attempted = 0;
    std::uint64_t served = 0;
    double cost_ratio = 0.0;
    /// Time in the tuner per iteration: sample count, median and p99.
    std::size_t op_samples = 0;
    double op_p50_ns = 0.0;
    double op_p99_ns = 0.0;
    double rss_mb = 0.0;  ///< resident set at the end of the measured rounds
    LayerCounters counters;
    std::vector<std::string> failures;  ///< correctness-check violations
};

class Workload {
public:
    virtual ~Workload() = default;
    /// One warm restart + measured rounds.  `traced` records spans.
    virtual RepResult run_rep(std::uint64_t rep, bool traced) = 0;
    /// Scenario the driven sessions are tuned on.
    [[nodiscard]] virtual const sim::ScenarioSpec& scenario() const = 0;
    /// True when every repetition must reproduce the same cost_ratio bit
    /// for bit (no eviction or network reordering in the loop).
    [[nodiscard]] virtual bool deterministic() const = 0;
};

/// Throws std::invalid_argument for an unknown workload name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed, Scale scale);

// ---- helpers shared by the workloads ----

/// atk_serve's default tuner (ε-Greedy, 10 % exploration) over the
/// scenario's algorithms, seeded per session name.
[[nodiscard]] runtime::TunerFactory make_factory(const sim::ScenarioSpec& spec);

/// Per-session load state: the scenario iteration the session is at,
/// its measurement-noise stream, and the cost sums behind cost_ratio.
struct Cursor {
    std::size_t iteration = 0;
    Rng rng;
    double realized = 0.0;
    double ideal = 0.0;
};

/// Fresh cursors for one repetition: session i starts at `start[i]` with a
/// noise stream derived from (seed, i).
[[nodiscard]] std::vector<Cursor> make_cursors(std::uint64_t seed,
                                               const std::vector<std::size_t>& start);

/// Σ realized ÷ Σ ideal, summed in session order so the value does not
/// depend on thread interleaving.
[[nodiscard]] double cost_ratio(const std::vector<Cursor>& cursors);

/// Runs `iterations[i]` begin → evaluate → report cycles of session i
/// through a plain service (flush-paced, single thread) and returns the
/// service snapshot: the warm-start state a repetition restores.
[[nodiscard]] std::string generate_snapshot(const sim::ScenarioSpec& spec,
                                            const std::vector<std::string>& names,
                                            const std::vector<std::size_t>& iterations,
                                            std::uint64_t seed);

/// Process CPU time (user + sys, all threads) in seconds.
[[nodiscard]] double process_cpu_s();

/// Current resident set size of the process in MiB.
[[nodiscard]] double resident_mb();

/// Fills the op_* fields of `result` from per-thread latency samples.
void summarize_ops(const std::vector<std::vector<std::uint32_t>>& op_ns, RepResult& result);

/// Span op id: repetition, round and slot packed so every iteration of a
/// run is unique; slot 0xFFFF marks the round's own calls (flush, scrape).
[[nodiscard]] inline std::uint64_t op_id(std::uint64_t rep, std::uint64_t round,
                                         std::uint64_t slot) {
    return (rep << 48) | ((round & 0xFFFFFFFFu) << 16) | (slot & 0xFFFFu);
}
inline constexpr std::uint64_t kRoundSlot = 0xFFFF;

/// Worker threads that run one function each per round, in lock step with
/// the caller: run_round() returns once every worker finished the round.
/// An exception in a worker is recorded (failures()) and the round goes on.
class RoundPool {
public:
    explicit RoundPool(std::vector<std::function<void(std::size_t round)>> workers);
    ~RoundPool();
    RoundPool(const RoundPool&) = delete;
    RoundPool& operator=(const RoundPool&) = delete;

    void run_round(std::size_t round);
    [[nodiscard]] std::vector<std::string> failures() const;

private:
    std::vector<std::function<void(std::size_t)>> workers_;
    std::barrier<> sync_;
    std::size_t round_ = 0;
    bool stop_ = false;
    std::vector<std::string> failures_;  ///< one slot per worker
    std::vector<std::thread> threads_;
};

} // namespace perfbench
