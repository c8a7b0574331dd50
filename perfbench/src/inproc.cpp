// The in-process workloads: producers call TuningService directly.
//
//   ingest  2 producers drive 512 hot sessions (disjoint halves) of a
//           16 384-session warm start on the `drift` scenario; the queue /
//           aggregator hand-off, the session map and core strategy work
//           carry the load.
//   churn   the same load loop, one producer, with a 512-session live cap:
//           16 384 names over 8 tenants are cycled in a seeded order on
//           `static`, so almost every begin() evicts one session and
//           rehydrates another.
//
// A scraper thread renders the metrics registry while the producers run
// (every round on ingest, every 8th on churn), so registry reads sit beside
// the per-event writes.

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <optional>

#include "bench.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

struct InProcParams {
    std::string scenario;
    std::size_t sessions = 0;       ///< names in the warm-start snapshot
    std::size_t hot = 0;            ///< ingest: driven prefix of the names
    std::size_t per_round = 0;      ///< iterations per round, all producers
    std::size_t warmup_rounds = 0;
    std::size_t measured_rounds = 0;
    std::size_t max_sessions = 0;   ///< churn: live-session cap
    std::size_t tenants = 1;
    std::size_t stride = 1;         ///< traced: span every stride-th op
    std::size_t scrape_every = 1;   ///< rounds between registry renders
    std::size_t producers = 2;      ///< threads calling begin/report
    bool churn = false;
};

InProcParams ingest_params(Scale scale) {
    InProcParams p;
    p.scenario = "drift";
    switch (scale) {
    case Scale::Full:
        p.sessions = 16384, p.hot = 512, p.warmup_rounds = 10, p.measured_rounds = 1000;
        p.stride = 16;
        break;
    case Scale::Smoke:
        p.sessions = 2048, p.hot = 128, p.warmup_rounds = 2, p.measured_rounds = 30;
        break;
    case Scale::Probe:
        p.sessions = 1024, p.hot = 64, p.warmup_rounds = 2, p.measured_rounds = 40;
        break;
    }
    p.per_round = p.hot;
    return p;
}

InProcParams churn_params(Scale scale) {
    InProcParams p;
    p.scenario = "static";
    p.churn = true;
    p.tenants = 8;
    // The registry keeps series for every name ever served (~100 k lines
    // here, ~40 ms to render): rendering it every 256-iteration round would
    // make churn a scrape benchmark, so it renders once per 2048 iterations.
    p.scrape_every = 8;
    // One producer: with two, both evictors and the aggregator convoy on the
    // LRU lock, and two busy-loop threads on the host cost 18 % of ops/s
    // (3 % with one producer) — the lock, not the eviction, set the number.
    p.producers = 1;
    switch (scale) {
    case Scale::Full:
        // Warm-up is one full cycle (16 384 / 256 rounds): every name has
        // been served once, so the metrics registry is at its steady size.
        p.sessions = 16384, p.max_sessions = 512, p.per_round = 256;
        p.warmup_rounds = 64, p.measured_rounds = 64, p.stride = 2;
        break;
    case Scale::Smoke:
    case Scale::Probe:
        p.sessions = 1024, p.max_sessions = 64, p.per_round = 32;
        p.warmup_rounds = 4, p.measured_rounds = 40;
        break;
    }
    return p;
}

class InProcWorkload final : public Workload {
public:
    InProcWorkload(InProcParams params, std::uint64_t seed)
        : params_(std::move(params)),
          seed_(seed),
          spec_(sim::make_scenario(params_.scenario)) {
        Rng rng(seed_);
        names_.reserve(params_.sessions);
        start_.reserve(params_.sessions);
        char name[64];
        for (std::size_t i = 0; i < params_.sessions; ++i) {
            if (params_.churn) {
                std::snprintf(name, sizeof(name), "t%zu/s%05zu", i % params_.tenants, i);
                start_.push_back(2 + rng.index(4));
            } else if (i < params_.hot) {
                // Staggered just short of the drift shift (iteration 150):
                // warm tuners must re-adapt during the measured rounds.
                std::snprintf(name, sizeof(name), "ingest/h%05zu", i);
                start_.push_back(100 + rng.index(40));
            } else {
                std::snprintf(name, sizeof(name), "ingest/c%05zu", i);
                start_.push_back(2);
            }
            names_.emplace_back(name);
        }
        if (params_.churn) {
            order_.resize(params_.sessions);
            std::iota(order_.begin(), order_.end(), std::size_t{0});
            for (std::size_t i = order_.size(); i > 1; --i)
                std::swap(order_[i - 1], order_[rng.index(i)]);
        }
        snapshot_ = generate_snapshot(spec_, names_, start_, seed_);
    }

    [[nodiscard]] const sim::ScenarioSpec& scenario() const override { return spec_; }
    [[nodiscard]] bool deterministic() const override { return !params_.churn; }

    RepResult run_rep(std::uint64_t rep, bool traced) override {
        RepResult result;
        result.traced = traced;

        // ---- set-up: a warm restart ----
        runtime::ServiceOptions options;  // atk_serve's defaults
        options.queue_capacity = 4096;
        options.block_when_full = false;
        if (params_.churn) {
            options.max_sessions = params_.max_sessions;
            options.tenant_quota = 2 * params_.sessions / params_.tenants;
        }
        const std::uint64_t setup_start = now_ns();
        auto service = std::make_unique<runtime::TuningService>(make_factory(spec_), options);
        {
            ScopedSpan span(Call::RuntimeRestore, op_id(rep, 0, kRoundSlot), traced);
            result.counters.restored_sessions = service->restore_payload(snapshot_);
        }
        result.setup_s = static_cast<double>(now_ns() - setup_start) * 1e-9;

        // ---- rounds ----
        std::vector<Cursor> cursors = make_cursors(seed_, start_);
        std::vector<std::vector<std::uint32_t>> op_ns(params_.producers);
        std::vector<std::uint64_t> attempted(params_.producers, 0);
        std::vector<std::uint64_t> served(params_.producers, 0);
        std::uint64_t prom_lines = 0;
        const std::size_t warmup = params_.warmup_rounds;
        const auto measured = [warmup](std::size_t round) { return round >= warmup; };

        std::vector<std::function<void(std::size_t)>> workers;
        for (std::size_t p = 0; p < params_.producers; ++p) {
            workers.emplace_back([&, p](std::size_t round) {
                const std::size_t share = params_.per_round / params_.producers;
                for (std::size_t slot = 0; slot < share; ++slot) {
                    const std::size_t index = session_at(round, slot * params_.producers + p);
                    const std::string& name = names_[index];
                    Cursor& cursor = cursors[index];
                    const std::uint64_t op = op_id(rep, round, slot * params_.producers + p);
                    const bool sampled =
                        traced && measured(round) && slot % params_.stride == 0;
                    const std::uint64_t t0 = now_ns();
                    runtime::Ticket ticket;
                    {
                        ScopedSpan span(Call::RuntimeBegin, op, sampled);
                        ticket = service->begin(name);
                    }
                    const std::uint64_t t1 = now_ns();
                    Cost cost = 0.0;
                    {
                        ScopedSpan span(Call::SimEvaluate, op, sampled);
                        cost = spec_.evaluate(ticket.trial, cursor.iteration, cursor.rng);
                    }
                    const std::uint64_t t2 = now_ns();
                    bool accepted = false;
                    {
                        ScopedSpan span(Call::RuntimeReport, op, sampled);
                        accepted = service->report(name, ticket, cost);
                    }
                    const std::uint64_t t3 = now_ns();
                    if (measured(round)) {
                        op_ns[p].push_back(static_cast<std::uint32_t>((t1 - t0) + (t3 - t2)));
                        ++attempted[p];
                        if (accepted) ++served[p];
                        cursor.realized += cost;
                        cursor.ideal += spec_.ideal_cost(spec_.best_algorithm(cursor.iteration),
                                                         cursor.iteration);
                    }
                    ++cursor.iteration;
                }
            });
        }
        workers.emplace_back([&](std::size_t round) {
            if (round % params_.scrape_every != 0) return;
            std::string text;
            {
                ScopedSpan span(Call::ObsScrape, op_id(rep, round, kRoundSlot),
                                traced && measured(round));
                text = service->metrics().to_prometheus();
            }
            prom_lines = static_cast<std::uint64_t>(std::count(text.begin(), text.end(), '\n'));
        });

        Rng check_rng(seed_ ^ (rep + 1) * 0xD1B54A32D192ED03ULL);
        RoundPool pool(std::move(workers));
        runtime::ServiceStats before;
        double cpu_start = 0.0;
        std::uint64_t wall_start = 0;
        const std::size_t rounds = warmup + params_.measured_rounds;
        for (std::size_t round = 0; round < rounds; ++round) {
            if (round == warmup) {
                before = service->stats();
                cpu_start = process_cpu_s();
                wall_start = now_ns();
            }
            const std::uint64_t round_start = now_ns();
            pool.run_round(round);
            const bool trace_round = traced && measured(round);
            {
                ScopedSpan span(Call::RuntimeFlush, op_id(rep, round, kRoundSlot), trace_round);
                service->flush();
            }
            check_round(*service, round, rep, trace_round, check_rng, result);
            if (measured(round)) result.round_ns.push_back(now_ns() - round_start);
        }
        result.measured_s = static_cast<double>(now_ns() - wall_start) * 1e-9;
        result.cpu_s = process_cpu_s() - cpu_start;
        result.rss_mb = resident_mb();
        summarize_ops(op_ns, result);
        for (const std::string& failure : pool.failures())
            result.failures.push_back("producer: " + failure);

        const runtime::ServiceStats after = service->stats();
        check_counters(after, result);
        LayerCounters& c = result.counters;
        c.evictions = after.sessions_evicted - before.sessions_evicted;
        c.rehydrations = after.sessions_rehydrated - before.sessions_rehydrated;
        c.fresh = after.reports_fresh - before.reports_fresh;
        c.stale = after.reports_stale - before.reports_stale;
        c.dropped = after.reports_dropped - before.reports_dropped;
        c.prom_lines = prom_lines;
        for (std::size_t p = 0; p < params_.producers; ++p) {
            result.attempted += attempted[p];
            result.served += served[p];
        }
        result.cost_ratio = cost_ratio(cursors);
        return result;
    }

private:
    /// Name index driven by position `slot` of round `round`.
    [[nodiscard]] std::size_t session_at(std::size_t round, std::size_t slot) const {
        if (!params_.churn) return slot;
        return order_[(round * params_.per_round + slot) % order_.size()];
    }

    /// Per-round checks (run after the round's flush).
    void check_round(runtime::TuningService& service, std::size_t round, std::uint64_t rep,
                     bool traced, Rng& rng, RepResult& result) const {
        const std::uint64_t op = op_id(rep, round, kRoundSlot);
        if (!params_.churn) {
            const std::string& name = names_[rng.index(params_.hot)];
            std::optional<std::string> blob;
            {
                ScopedSpan span(Call::RuntimeSnapshot, op, traced);
                blob = service.session_snapshot(name);
            }
            if (!blob || blob->empty())
                result.failures.push_back("no snapshot for live session " + name);
            return;
        }
        const std::size_t live = service.session_count();
        if (live > params_.max_sessions)
            result.failures.push_back("live sessions " + std::to_string(live) +
                                      " exceed the cap " +
                                      std::to_string(params_.max_sessions));
        // Evicted-then-touched: a session parked rounds ago must come back
        // with byte-identical state.
        const std::size_t behind = 2 * params_.max_sessions / params_.per_round + 1;
        if (round < behind) return;
        const std::string& name =
            names_[session_at(round - behind, rng.index(params_.per_round))];
        if (service.find(name)) return;  // touched again since; not parked
        std::optional<std::string> parked;
        std::optional<std::string> revived;
        {
            ScopedSpan span(Call::RuntimeSnapshot, op, traced);
            parked = service.session_snapshot(name);
        }
        (void)service.session(name);
        {
            ScopedSpan span(Call::RuntimeSnapshot, op, traced);
            revived = service.session_snapshot(name);
        }
        if (!parked || !revived || *parked != *revived)
            result.failures.push_back("evicted session " + name +
                                      " did not restore byte-identically");
    }

    void check_counters(const runtime::ServiceStats& s, RepResult& result) const {
        if (s.reports_enqueued != s.reports_fresh + s.reports_stale + s.reports_orphaned)
            result.failures.push_back(
                "counters do not balance: enqueued " + std::to_string(s.reports_enqueued) +
                " != fresh " + std::to_string(s.reports_fresh) + " + stale " +
                std::to_string(s.reports_stale) + " + orphaned " +
                std::to_string(s.reports_orphaned));
        if (s.reports_orphaned != 0)
            result.failures.push_back(std::to_string(s.reports_orphaned) +
                                      " orphaned reports");
        if (params_.churn && s.quota_rejected != 0)
            result.failures.push_back("tenant quota was hit");
    }

    InProcParams params_;
    std::uint64_t seed_;
    sim::ScenarioSpec spec_;
    std::vector<std::string> names_;
    std::vector<std::size_t> start_;  ///< scenario iteration after warm start
    std::vector<std::size_t> order_;  ///< churn: seeded visiting order
    std::string snapshot_;
};

} // namespace

std::unique_ptr<Workload> make_inproc_workload(const std::string& name, std::uint64_t seed,
                                               Scale scale) {
    if (name == "ingest")
        return std::make_unique<InProcWorkload>(ingest_params(scale), seed);
    if (name == "churn")
        return std::make_unique<InProcWorkload>(churn_params(scale), seed);
    return nullptr;
}

} // namespace perfbench
