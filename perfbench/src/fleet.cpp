// The fleet workload: two in-process FleetNodes (own service, one server
// worker each, atk_serve's ring and replication defaults) behind 2 client
// threads with one FleetClient each — 4 loopback connections.  The clients
// drive 1024 sessions with recommend → evaluate → report_async; the wire
// (encode/decode, epoll, loopback round trip) and fleet routing and
// replication dominate, aggregator work is a small share.
//
// Set-up is a scale-out warm restart: node-a restores the snapshot, node-b
// starts empty, both run pull-then-serve catch-up (node-b pulls its owned
// range from node-a's live sessions), then the clients connect.

#include <algorithm>
#include <array>
#include <cstdio>
#include <optional>

#include "bench.hpp"
#include "fleet/fleet.hpp"
#include "net/net.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kClients = 2;
constexpr std::array<const char*, 2> kNodeNames{"node-a", "node-b"};

struct FleetParams {
    std::size_t sessions = 0;  ///< names in the warm-start snapshot
    std::size_t hot = 0;       ///< driven prefix of the names
    std::size_t warmup_rounds = 0;
    std::size_t measured_rounds = 0;
    std::size_t stride = 1;
};

FleetParams fleet_params(Scale scale) {
    switch (scale) {
    case Scale::Full: return {8192, 1024, 5, 100, 8};
    case Scale::Smoke: return {1024, 128, 2, 20, 1};
    case Scale::Probe: return {1024, 128, 2, 60, 1};
    }
    return {};
}

/// One fleet member; declaration order is the construction contract
/// (store → hydrating service → node → server with the node's peer ops).
struct Member {
    fleet::ReplicaStore store;
    runtime::TuningService service;
    fleet::FleetNode node;
    net::TuningServer server;

    Member(const sim::ScenarioSpec& spec, const std::string& name, const std::string& peer)
        : service(make_factory(spec), service_options(store)),
          node(service, store, node_options(name, peer)),
          server(service, server_options(node)) {}
    ~Member() {
        node.stop();
        server.stop();
        service.stop();
    }
    Member(const Member&) = delete;
    Member& operator=(const Member&) = delete;

    static runtime::ServiceOptions service_options(fleet::ReplicaStore& store) {
        runtime::ServiceOptions options;  // atk_serve's defaults
        options.queue_capacity = 4096;
        options.hydrator = fleet::replica_hydrator(store);
        return options;
    }
    static fleet::FleetNodeOptions node_options(const std::string& name,
                                                const std::string& peer) {
        fleet::FleetNodeOptions options;  // 64 vnodes, 1 replica
        options.node_name = name;
        options.peers.push_back({peer, "127.0.0.1", 0});
        options.replicate_every = std::chrono::milliseconds(2000);
        options.peer_client.request_timeout = std::chrono::milliseconds(2000);
        options.peer_client.max_attempts = 1;
        return options;
    }
    static net::ServerOptions server_options(fleet::FleetNode& node) {
        net::ServerOptions options;
        options.port = 0;
        options.worker_threads = 1;
        options.peer_ops = node.peer_ops();
        return options;
    }
};

class FleetWorkload final : public Workload {
public:
    FleetWorkload(FleetParams params, std::uint64_t seed)
        : params_(params), seed_(seed), spec_(sim::make_scenario("drift")) {
        Rng rng(seed_);
        char name[64];
        for (std::size_t i = 0; i < params_.sessions; ++i) {
            const bool hot = i < params_.hot;
            std::snprintf(name, sizeof(name), hot ? "fleet/h%05zu" : "fleet/c%05zu", i);
            names_.emplace_back(name);
            start_.push_back(hot ? 100 + rng.index(40) : 2);
        }
        snapshot_ = generate_snapshot(spec_, names_, start_, seed_);
    }

    [[nodiscard]] const sim::ScenarioSpec& scenario() const override { return spec_; }
    [[nodiscard]] bool deterministic() const override { return false; }

    RepResult run_rep(std::uint64_t rep, bool traced) override {
        RepResult result;
        result.traced = traced;
        const std::uint64_t setup_op = op_id(rep, 0, kRoundSlot);

        // ---- set-up: services, restore, servers, catch-up, clients ----
        const std::uint64_t setup_start = now_ns();
        std::array<std::unique_ptr<Member>, 2> members{
            std::make_unique<Member>(spec_, kNodeNames[0], kNodeNames[1]),
            std::make_unique<Member>(spec_, kNodeNames[1], kNodeNames[0])};
        {
            ScopedSpan span(Call::RuntimeRestore, setup_op, traced);
            result.counters.restored_sessions = members[0]->service.restore_payload(snapshot_);
        }
        for (auto& member : members) member->server.start();
        members[0]->node.set_peer_port(kNodeNames[1], members[1]->server.port());
        members[1]->node.set_peer_port(kNodeNames[0], members[0]->server.port());
        for (std::size_t m : {1, 0}) {
            ScopedSpan span(Call::FleetPull, setup_op, traced);
            (void)members[m]->node.pull_now();
        }
        for (auto& member : members) member->node.start();
        fleet::FleetClientOptions client_options;
        for (std::size_t m = 0; m < members.size(); ++m)
            client_options.nodes.push_back(
                {kNodeNames[m], "127.0.0.1", members[m]->server.port()});
        client_options.client.request_timeout = std::chrono::milliseconds(2000);
        client_options.client.max_attempts = 2;
        std::vector<std::unique_ptr<fleet::FleetClient>> clients;
        for (std::size_t c = 0; c < kClients; ++c) {
            clients.push_back(std::make_unique<fleet::FleetClient>(client_options));
            for (const char* node : kNodeNames) (void)clients[c]->node_client(node).stats();
        }
        result.setup_s = static_cast<double>(now_ns() - setup_start) * 1e-9;

        // ---- rounds ----
        std::vector<Cursor> cursors = make_cursors(seed_, start_);
        std::vector<std::vector<std::uint32_t>> op_ns(kClients);
        std::vector<std::uint64_t> attempted(kClients, 0);
        std::vector<std::uint64_t> errors(kClients, 0);
        std::uint64_t prom_lines = 0;
        const std::size_t warmup = params_.warmup_rounds;

        std::vector<std::function<void(std::size_t)>> workers;
        for (std::size_t c = 0; c < kClients; ++c) {
            workers.emplace_back([&, c](std::size_t round) {
                fleet::FleetClient& client = *clients[c];
                const bool measured = round >= warmup;
                for (std::size_t index = c, slot = 0; index < params_.hot;
                     index += kClients, ++slot) {
                    const std::string& name = names_[index];
                    Cursor& cursor = cursors[index];
                    const std::uint64_t op = op_id(rep, round, index);
                    const bool sampled = traced && measured && slot % params_.stride == 0;
                    try {
                        if (sampled) {
                            ScopedSpan span(Call::FleetRoute, op, true);
                            (void)client.route(name);
                        }
                        const std::uint64_t t0 = now_ns();
                        runtime::Ticket ticket;
                        {
                            ScopedSpan span(Call::NetRecommend, op, sampled);
                            ticket = client.recommend(name);
                        }
                        const std::uint64_t t1 = now_ns();
                        Cost cost = 0.0;
                        {
                            ScopedSpan span(Call::SimEvaluate, op, sampled);
                            cost = spec_.evaluate(ticket.trial, cursor.iteration, cursor.rng);
                        }
                        const std::uint64_t t2 = now_ns();
                        {
                            ScopedSpan span(Call::NetReportAsync, op, sampled);
                            client.report_async(name, ticket, cost);
                        }
                        const std::uint64_t t3 = now_ns();
                        if (measured) {
                            op_ns[c].push_back(
                                static_cast<std::uint32_t>((t1 - t0) + (t3 - t2)));
                            cursor.realized += cost;
                            cursor.ideal += spec_.ideal_cost(
                                spec_.best_algorithm(cursor.iteration), cursor.iteration);
                        }
                    } catch (const std::exception&) {
                        if (measured) ++errors[c];
                    }
                    if (measured) ++attempted[c];
                    ++cursor.iteration;
                }
                {
                    ScopedSpan span(Call::NetFlush, op_id(rep, round, kRoundSlot),
                                    traced && measured);
                    client.flush();
                }
                // A request/reply behind the unacked report frames on each
                // link: once it returns, the server has enqueued them all.
                for (const char* node : kNodeNames) (void)client.node_client(node).stats();
            });
        }
        workers.emplace_back([&](std::size_t round) {
            std::uint64_t lines = 0;
            for (auto& member : members) {
                std::string text;
                {
                    ScopedSpan span(Call::ObsScrape, op_id(rep, round, kRoundSlot),
                                    traced && round >= warmup);
                    text = member->service.metrics().to_prometheus();
                }
                lines += static_cast<std::uint64_t>(std::count(text.begin(), text.end(), '\n'));
            }
            prom_lines = lines;
        });

        Rng check_rng(seed_ ^ (rep + 1) * 0xD1B54A32D192ED03ULL);
        std::array<runtime::ServiceStats, 2> before{};
        std::array<fleet::FleetNodeStats, 2> fleet_before{};
        std::uint64_t net_errors_before = 0;
        double cpu_start = 0.0;
        std::uint64_t wall_start = 0;
        {
            RoundPool pool(std::move(workers));
            const std::size_t rounds = warmup + params_.measured_rounds;
            for (std::size_t round = 0; round < rounds; ++round) {
                if (round == warmup) {
                    for (std::size_t m = 0; m < members.size(); ++m) {
                        before[m] = members[m]->service.stats();
                        fleet_before[m] = members[m]->node.stats();
                    }
                    net_errors_before = net_errors(clients);
                    cpu_start = process_cpu_s();
                    wall_start = now_ns();
                }
                const std::uint64_t round_start = now_ns();
                pool.run_round(round);
                const std::uint64_t op = op_id(rep, round, kRoundSlot);
                const bool trace_round = traced && round >= warmup;
                for (auto& member : members) {
                    ScopedSpan span(Call::RuntimeFlush, op, trace_round);
                    member->service.flush();
                }
                const std::string& name = names_[check_rng.index(params_.hot)];
                runtime::TuningService& owner =
                    members[owner_index(*clients[0], name)]->service;
                std::optional<std::string> blob;
                {
                    ScopedSpan span(Call::RuntimeSnapshot, op, trace_round);
                    blob = owner.session_snapshot(name);
                }
                if (!blob || blob->empty())
                    result.failures.push_back("owner holds no snapshot of " + name);
                if (round >= warmup) result.round_ns.push_back(now_ns() - round_start);
            }
            result.measured_s = static_cast<double>(now_ns() - wall_start) * 1e-9;
            result.cpu_s = process_cpu_s() - cpu_start;
            result.rss_mb = resident_mb();
            summarize_ops(op_ns, result);
            for (const std::string& failure : pool.failures())
                result.failures.push_back("client: " + failure);
        }
        if (traced) {
            for (auto& member : members) {
                ScopedSpan span(Call::FleetReplicate, op_id(rep, 0, kRoundSlot), true);
                (void)member->node.replicate_now();
            }
        }

        // ---- counters and checks ----
        LayerCounters& c = result.counters;
        std::uint64_t dropped_or_orphaned = 0;
        for (std::size_t m = 0; m < members.size(); ++m) {
            const runtime::ServiceStats after = members[m]->service.stats();
            const fleet::FleetNodeStats fleet_after = members[m]->node.stats();
            const std::string node = kNodeNames[m];
            if (after.reports_enqueued !=
                after.reports_fresh + after.reports_stale + after.reports_orphaned)
                result.failures.push_back(node + ": counters do not balance");
            if (after.reports_orphaned != 0)
                result.failures.push_back(node + ": orphaned reports");
            if (fleet_after.push_failures != 0)
                result.failures.push_back(node + ": replication push failures");
            c.fresh += after.reports_fresh - before[m].reports_fresh;
            c.stale += after.reports_stale - before[m].reports_stale;
            c.dropped += after.reports_dropped - before[m].reports_dropped;
            c.evictions += after.sessions_evicted - before[m].sessions_evicted;
            c.rehydrations += after.sessions_rehydrated - before[m].sessions_rehydrated;
            c.pushes += fleet_after.pushes_tx - fleet_before[m].pushes_tx;
            c.push_bytes += fleet_after.push_bytes - fleet_before[m].push_bytes;
            dropped_or_orphaned += (after.reports_dropped - before[m].reports_dropped) +
                                   (after.reports_orphaned - before[m].reports_orphaned);
        }
        c.net_errors = net_errors(clients) - net_errors_before;
        for (const auto& client : clients) c.failovers += client->failovers();
        c.prom_lines = prom_lines;
        if (c.failovers != 0)
            result.failures.push_back(std::to_string(c.failovers) + " failovers");
        if (c.net_errors != 0)
            result.failures.push_back(std::to_string(c.net_errors) + " net errors");
        std::uint64_t op_errors = 0;
        for (std::size_t k = 0; k < kClients; ++k) {
            result.attempted += attempted[k];
            op_errors += errors[k];
        }
        const std::uint64_t lost = op_errors + dropped_or_orphaned + c.net_errors;
        result.served = result.attempted > lost ? result.attempted - lost : 0;
        result.cost_ratio = cost_ratio(cursors);
        return result;
    }

private:
    static std::uint64_t net_errors(
        const std::vector<std::unique_ptr<fleet::FleetClient>>& clients) {
        std::uint64_t total = 0;
        for (const auto& client : clients)
            for (const char* node : kNodeNames) {
                net::TuningClient& link = client->node_client(node);
                total += link.reconnects() + link.timeouts() + link.reports_lost();
            }
        return total;
    }

    static std::size_t owner_index(const fleet::FleetClient& client, const std::string& name) {
        return client.ring().owner(name) == kNodeNames[0] ? 0 : 1;
    }

    FleetParams params_;
    std::uint64_t seed_;
    sim::ScenarioSpec spec_;
    std::vector<std::string> names_;
    std::vector<std::size_t> start_;
    std::string snapshot_;
};

} // namespace

std::unique_ptr<Workload> make_fleet_workload(std::uint64_t seed, Scale scale) {
    return std::make_unique<FleetWorkload>(fleet_params(scale), seed);
}

} // namespace perfbench
