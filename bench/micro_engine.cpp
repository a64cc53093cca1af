// Google-benchmark micro-benchmarks of the simulation substrate: event
// throughput, event-queue scaling with the pending population, coroutine
// round trips, DRR link scheduling, the M/G/1 simulator, one eager MPI
// message and an end-to-end MPI ping-pong — the costs that bound how much
// virtual time a campaign can afford to simulate.
//
// The binary counts global operator new calls, so the message benchmarks
// can report heap allocations per message next to events per message.
//
// `--json=FILE` additionally writes {name, ns_per_op, counters} per
// benchmark for machine-readable tracking (BENCH_pr3.json is a committed
// snapshot).
#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/probes.h"
#include "mpi/job.h"
#include "net/link.h"
#include "queueing/mg1_sim.h"
#include "sim/awaitable.h"
#include "sim/task_group.h"

namespace {

std::atomic<std::uint64_t> g_heap_allocs{0};

void* counted_new(std::size_t bytes) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t bytes) { return counted_new(bytes); }
void* operator new[](std::size_t bytes) { return counted_new(bytes); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace actnet;

std::uint64_t heap_allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

/// Attaches events/sec plus the InlineFn heap-spill rate (allocations per
/// event; 0 = the whole run stayed inside the inline buffers).
void report_event_counters(benchmark::State& state, std::uint64_t events,
                           std::uint64_t heap_allocs_before) {
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events_per_second"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  const auto spills =
      sim::inline_fn_heap_allocations() - heap_allocs_before;
  state.counters["heap_allocs_per_event"] =
      events > 0 ? static_cast<double>(spills) / static_cast<double>(events)
                 : 0.0;
}

void BM_EngineScheduleRun(benchmark::State& state) {
  const auto heap0 = sim::inline_fn_heap_allocations();
  for (auto _ : state) {
    sim::Engine e;
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) e.schedule_at(i, [] {});
    benchmark::DoNotOptimize(e.run());
  }
  report_event_counters(state, state.iterations() * state.range(0), heap0);
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1024)->Arg(65536);

/// Steady-state dispatch: a small population of self-rescheduling events,
/// the shape of a running simulation (queue stays warm, slots recycle).
void BM_EngineSelfScheduling(benchmark::State& state) {
  const auto heap0 = sim::inline_fn_heap_allocations();
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Engine e;
    constexpr int kPopulation = 64;
    constexpr int kHops = 1024;
    int alive = kPopulation;
    for (int i = 0; i < kPopulation; ++i) {
      // Each event reschedules itself kHops times; captures fit inline.
      struct Hopper {
        sim::Engine* e;
        int* alive;
        int left;
        void operator()() {
          if (--left > 0)
            e->schedule_in(1 + (left % 7), Hopper{*this});
          else
            --*alive;
        }
      };
      e.schedule_at(i % 13, Hopper{&e, &alive, kHops});
    }
    benchmark::DoNotOptimize(e.run());
    events += static_cast<std::uint64_t>(kPopulation) * kHops;
  }
  report_event_counters(state, events, heap0);
}
BENCHMARK(BM_EngineSelfScheduling);

/// Closure-capture sweep across the InlineFn small-buffer boundary
/// (capacity 48): 16/48 stay inline, 64 pays one heap allocation per event.
template <std::size_t N>
void BM_EngineClosureSize(benchmark::State& state) {
  const auto heap0 = sim::inline_fn_heap_allocations();
  for (auto _ : state) {
    sim::Engine e;
    std::array<char, N> payload{};  // closure is exactly N bytes
    for (int i = 0; i < 4096; ++i)
      e.schedule_at(i, [payload]() mutable { benchmark::DoNotOptimize(payload); });
    e.run();
  }
  report_event_counters(state, state.iterations() * 4096, heap0);
}
BENCHMARK(BM_EngineClosureSize<16>);
BENCHMARK(BM_EngineClosureSize<48>);
BENCHMARK(BM_EngineClosureSize<64>);

// --- event-queue scaling with the pending population ---

/// Bulk schedule-then-drain at a given pending-population size, insertion
/// times scattered so the heap pays real sift costs (ascending times would
/// flatter it).
void BM_SchedulerScheduleRun(benchmark::State& state) {
  const auto heap0 = sim::inline_fn_heap_allocations();
  for (auto _ : state) {
    sim::Engine e;
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      const Tick t = static_cast<Tick>(
          (static_cast<std::uint64_t>(i) * 2654435761u) % (8u * n));
      e.schedule_at(t, [] {});
    }
    benchmark::DoNotOptimize(e.run());
  }
  report_event_counters(state, state.iterations() * state.range(0), heap0);
}
BENCHMARK(BM_SchedulerScheduleRun)->Arg(1024)->Arg(16384)->Arg(65536);

/// Steady-state churn: a constant pending population of self-rescheduling
/// events with bimodal delays (mostly within ~1 us, ~1.5% at 3 ms — a
/// measurement-window timer). This is the shape of a running campaign.
void BM_SchedulerChurn(benchmark::State& state) {
  const auto heap0 = sim::inline_fn_heap_allocations();
  const int population = static_cast<int>(state.range(0));
  constexpr int kHops = 64;
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Engine e;
    struct Hopper {
      sim::Engine* e;
      int left;
      std::uint64_t s;
      void operator()() {
        if (--left <= 0) return;
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        const std::uint64_t r = s >> 33;
        const Tick d = (r % 64 == 0)
                           ? Tick{3'000'000}
                           : static_cast<Tick>(1 + (r % 1024));
        e->schedule_in(d, Hopper{*this});
      }
    };
    for (int i = 0; i < population; ++i)
      e.schedule_at(i % 1024,
                    Hopper{&e, kHops, 0x9e3779b97f4a7c15ull + 2 * i + 1});
    benchmark::DoNotOptimize(e.run());
    events += static_cast<std::uint64_t>(population) * kHops;
  }
  report_event_counters(state, events, heap0);
}
BENCHMARK(BM_SchedulerChurn)->Arg(1024)->Arg(16384);

sim::Task chain_task(sim::Engine& e, int hops) {
  for (int i = 0; i < hops; ++i) co_await sim::delay(e, 1);
}

void BM_CoroutineDelayChain(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    sim::TaskGroup g(e);
    g.spawn(chain_task(e, static_cast<int>(state.range(0))));
    e.run();
    g.check();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CoroutineDelayChain)->Arg(1024)->Arg(16384);

void BM_LinkDrrManyFlows(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine e;
    net::PortStats stats;
    net::Link link(e, stats, units::GBps(5.0), units::ns(50));
    for (int i = 0; i < 4096; ++i)
      link.transmit(i % flows, 4096, nullptr, [] {});
    e.run();
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_LinkDrrManyFlows)->Arg(2)->Arg(32);

/// Back-to-back message trains on an uncontended port: the per-packet DRR
/// cost (queue entry, flow lookup, quantum credit) of a message's packets
/// on one hop. The argument is the number of flows the trains rotate over:
/// 1 keeps one flow hot; 64 spreads them over a port that has seen many
/// flows, so every train goes through the link's flow index.
void BM_LinkMessageTrain(benchmark::State& state) {
  constexpr int kTrains = 64;
  constexpr std::uint32_t kPackets = 64;
  const auto flows = static_cast<net::FlowId>(state.range(0));
  for (auto _ : state) {
    sim::Engine e;
    net::PortStats stats;
    net::Link link(e, stats, units::GBps(5.0), units::ns(50));
    struct Driver {
      net::Link* link;
      net::FlowId flows;
      int remaining;
      void submit() {
        if (remaining-- <= 0) return;
        link->transmit_train(1 + static_cast<net::FlowId>(remaining) % flows,
                             kPackets, 4096, 0, nullptr,
                             [this](std::uint32_t i) {
                               if (i + 1 == kPackets) submit();
                             });
      }
    };
    Driver d{&link, flows, kTrains};
    d.submit();
    e.run();
  }
  state.SetItemsProcessed(state.iterations() * kTrains * kPackets);
}
BENCHMARK(BM_LinkMessageTrain)->Arg(1)->Arg(64);

/// Serial large messages on an uncontended leaf-local route — the hybrid
/// packet/flow regime's home turf (DESIGN.md §5.12). <true> advances each
/// message in closed form (two events per message: injection + delivery
/// fan-out); <false> pays the full per-packet event chain (~6 events per
/// packet across uplink, switch, downlink, receive). Delivery timestamps,
/// utilization, and depth histograms are identical either way — that
/// equivalence is what tests/test_flowfwd.cpp proves — so the delta is
/// pure event-count and bookkeeping savings.
template <bool FlowFwd>
void BM_MessageFlowForward(benchmark::State& state) {
  constexpr int kMessages = 64;
  const Bytes bytes = static_cast<Bytes>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Engine engine;
    net::NetworkConfig nc;
    nc.nodes = 4;
    net::Network net(engine, nc, Rng(1));
    net.set_flow_forward(FlowFwd);
    const net::FlowId flow = net.allocate_flows(1);
    struct Driver {
      net::Network* net;
      net::FlowId flow;
      Bytes bytes;
      int remaining;
      void submit() {
        if (remaining-- <= 0) return;
        net->send(0, 1, flow, bytes, nullptr, [this] { submit(); });
      }
    };
    Driver d{&net, flow, bytes, kMessages};
    d.submit();
    engine.run();
    events += engine.events_processed();
  }
  const auto packets_per_msg =
      static_cast<std::uint64_t>((bytes + 4096 - 1) / 4096);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kMessages * packets_per_msg);
  state.counters["events_per_message"] =
      state.iterations() > 0
          ? static_cast<double>(events) /
                static_cast<double>(state.iterations() * kMessages)
          : 0.0;
}
// 40 KiB = the paper's CompressionB message; 256 KiB = rendezvous bulk.
BENCHMARK(BM_MessageFlowForward<true>)->Arg(40 * 1024)->Arg(256 * 1024);
BENCHMARK(BM_MessageFlowForward<false>)->Arg(40 * 1024)->Arg(256 * 1024);

void BM_Mg1Simulation(benchmark::State& state) {
  queueing::LogNormal service(1.0, 0.4);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        queueing::simulate_mg1(0.7, service, 100000, rng, 1000));
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_Mg1Simulation);

/// Reduced fat-tree measurement campaign: the paper's active-measurement
/// shape (per-pod ImpactB probes on dedicated nodes + rate-paced
/// CompressionB rings) on a 36-node 2-pod fabric. This is the hybrid
/// regime's claimed domain — 40 KiB messages on routes that are idle at
/// send time — so <true> flow-forwards the bulk of the traffic while
/// occasional ring collisions exercise demotion + cooldown. The contended
/// fig8/fig9 pair matrix is deliberately NOT this shape: there the regime
/// correctly stays out of the way (~1.0x, exactness preserved; see
/// DESIGN.md §5.12).
template <bool FlowFwd>
void BM_FatTreeMeasurementCampaign(benchmark::State& state) {
  std::uint64_t events = 0, messages = 0, ffwd = 0, demotions = 0;
  for (auto _ : state) {
    core::ClusterConfig cc;
    cc.machine.nodes = 36;
    // One socket per node: a single CompressionB ring per pod. Two rings
    // (the dual-socket default) start phase-locked on identical
    // node-to-node routes and collide on every round, which measures the
    // demotion path rather than the campaign shape.
    cc.machine.sockets_per_node = 1;
    cc.network.nodes = 36;
    cc.network.pods = 2;
    cc.network.spines = 2;
    // 64 KiB eager threshold (a common real-MPI setting): the 40 KiB
    // stream messages go as single transfers instead of an RTS/CTS/DATA
    // exchange whose crisscrossing 64 B control messages land inside the
    // neighbours' delivery windows and demote their plans every round.
    cc.mpi.eager_threshold = 64 * 1024;
    cc.flow_forward = FlowFwd;
    core::Cluster cluster(cc);
    std::array<core::LatencyCollector, 2> samples;
    for (int pod = 0; pod < 2; ++pod) {
      const int base = 18 * pod;
      // Probe pair on nodes base..base+1: dedicated NICs, so the probe
      // measures the fabric rather than its own hosts.
      mpi::Job& probe = cluster.add_job(
          "ImpactB/pod" + std::to_string(pod),
          mpi::Placement::per_socket(cc.machine, 2, 1, 7, base));
      cluster.start(probe, core::make_impact_program(
                               {}, &samples[static_cast<std::size_t>(pod)],
                               1));
      // A 16-node CompressionB ring per pod, paced so each 40 KiB message
      // usually finds its route idle.
      mpi::Job& stream = cluster.add_job(
          "CompressionB/pod" + std::to_string(pod),
          mpi::Placement::per_socket(cc.machine, 16, 1, 6, base + 2));
      cluster.start(stream,
                    core::make_compression_program(
                        core::CompressionConfig{1, 2.5e5, 1, 40 * 1024}, 1));
    }
    events += cluster.run_for(units::ms(10));
    cluster.stop_all();
    const net::NetworkCounters& nc = cluster.network().counters();
    messages += nc.messages_sent;
    ffwd += nc.flowfwd_messages;
    demotions += nc.flowfwd_demotions;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(messages));
  const double iters = static_cast<double>(state.iterations());
  state.counters["events_per_run"] = static_cast<double>(events) / iters;
  state.counters["flowfwd_fraction"] =
      messages > 0
          ? static_cast<double>(ffwd) / static_cast<double>(messages)
          : 0.0;
  state.counters["demotions_per_run"] =
      static_cast<double>(demotions) / iters;
}
// No ->Unit override: JsonFileReporter's ns_per_op field assumes the
// default nanosecond unit.
BENCHMARK(BM_FatTreeMeasurementCampaign<true>);
BENCHMARK(BM_FatTreeMeasurementCampaign<false>);

void BM_MpiPingPong(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    mpi::MachineConfig mc;
    mc.nodes = 2;
    mpi::Machine machine(mc);
    net::NetworkConfig nc;
    nc.nodes = 2;
    net::Network network(engine, nc, Rng(1));
    sim::TaskGroup group(engine);
    mpi::Job job("pp", engine, network, machine, mpi::MpiConfig{},
                 mpi::Placement::per_socket(mc, 2, 1, 0), 1);
    const int rounds = static_cast<int>(state.range(0));
    job.start(group, [rounds](mpi::RankCtx& ctx) -> sim::Task {
      for (int i = 0; i < rounds; ++i) {
        if (ctx.rank() == 0) {
          co_await ctx.send(2, 1, 1024);
          co_await ctx.recv(2, 2);
        } else if (ctx.rank() == 2) {
          co_await ctx.recv(0, 1);
          co_await ctx.send(0, 2, 1024);
        }
      }
    });
    engine.run();
    group.check();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_MpiPingPong)->Arg(1000);

/// One 1 KiB eager message between two ranks on different nodes of an
/// idle Network per iteration: the receive and the send tasks, their
/// requests, the network message and its packets. The cluster is built
/// once; each iteration drains the engine. Counters: engine events and
/// global operator new calls per message (0 once the pools are warm).
void BM_EagerMessage(benchmark::State& state) {
  sim::Engine engine;
  mpi::MachineConfig mc;
  mc.nodes = 2;
  mpi::Machine machine(mc);
  net::NetworkConfig nc;
  nc.nodes = 2;
  net::Network network(engine, nc, Rng(1));
  mpi::Job job("eager", engine, network, machine, mpi::MpiConfig{},
               mpi::Placement::per_socket(mc, 2, 1, 0), 1);
  mpi::RankCtx& sender = job.ctx(0);
  mpi::RankCtx& receiver = job.ctx(2);  // first rank on node 1
  const auto one_message = [&] {
    sim::Task recv = receiver.recv(0, 1);
    sim::Task send = sender.send(2, 1, 1024);
    recv.start();
    send.start();
    engine.run();
    recv.rethrow_if_failed();
    send.rethrow_if_failed();
  };
  for (int i = 0; i < 64; ++i) one_message();  // warm the pools
  const std::uint64_t events0 = engine.events_processed();
  const std::uint64_t allocs0 = heap_allocs();
  for (auto _ : state) one_message();
  const auto n = static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations());
  state.counters["events_per_message"] =
      static_cast<double>(engine.events_processed() - events0) / n;
  state.counters["heap_allocs_per_message"] =
      static_cast<double>(heap_allocs() - allocs0) / n;
}
BENCHMARK(BM_EagerMessage);

/// Console output as usual, plus (with --json=FILE) a machine-readable
/// {name, ns_per_op, counters} dump of every iteration run — the format
/// committed as BENCH_pr3.json and diffed across optimization PRs.
class JsonFileReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonFileReporter(std::string path) : path_(std::move(path)) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs) {
      if (r.error_occurred || r.run_type != Run::RT_Iteration) continue;
      Entry e;
      e.name = r.benchmark_name();
      e.ns_per_op = r.GetAdjustedRealTime();  // default time unit: ns
      for (const auto& [cname, counter] : r.counters)
        e.counters.emplace_back(cname, counter.value);
      entries_.push_back(std::move(e));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  void Finalize() override {
    ConsoleReporter::Finalize();
    if (path_.empty()) return;
    std::ofstream out(path_, std::ios::trunc);
    out << "{\n  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      out << "    {\"name\": \"" << e.name
          << "\", \"ns_per_op\": " << e.ns_per_op;
      for (const auto& [cname, value] : e.counters)
        out << ", \"" << cname << "\": " << value;
      out << "}" << (i + 1 < entries_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
  }

 private:
  struct Entry {
    std::string name;
    double ns_per_op = 0.0;
    std::vector<std::pair<std::string, double>> counters;
  };
  std::string path_;
  std::vector<Entry> entries_;
};

}  // namespace

int main(int argc, char** argv) {
  // Peel off --json=FILE before google-benchmark sees (and rejects) it.
  std::string json_path;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    constexpr const char* kFlag = "--json=";
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0)
      json_path = argv[i] + std::strlen(kFlag);
    else
      argv[kept++] = argv[i];
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonFileReporter reporter(std::move(json_path));
  benchmark::RunSpecifiedBenchmarks(&reporter);
  return 0;
}
