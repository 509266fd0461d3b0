//===- bench_server_throughput.cpp - stqd request latency and scaling -----===//
//
// Measures the daemon against its reason to exist: amortizing startup and
// proving cost across requests. An in-process Server on a real Unix-domain
// socket is driven by real client connections speaking stq-rpc-v1:
//
//   * cold vs warm `prove` latency (the warm request replays every proof
//     obligation from the shared cache);
//   * one-shot `check` (fresh Session, as the CLI would) vs a server
//     round-trip including all socket and JSON overhead;
//   * sustained throughput as 1..8 concurrent clients issue requests.
//
// Results go to BENCH_server.json (bench/Report.h), with a timing gate
// that the warm prove is no slower than the cold one: a slower warm
// request means the shared cache was not used.
//
//===----------------------------------------------------------------------===//

#include "Report.h"
#include "server/Exec.h"
#include "server/Protocol.h"
#include "server/Server.h"
#include "support/Socket.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

using namespace stq;

namespace {

const char *CheckSource =
    "int f(int pos a) { int pos b = a * a; return b; }\n"
    "int g(int pos n) { int pos m = n + 1; return f(m); }\n";

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// An in-process daemon on a throwaway socket, serving on its own thread.
class BenchServer {
public:
  BenchServer() {
    std::string Template = "/tmp/stq-bench-XXXXXX";
    if (char *P = ::mkdtemp(Template.data()))
      Dir = P;
    SocketPath = Dir + "/stqd.sock";
    server::ServerOptions Opts;
    Opts.SocketPath = SocketPath;
    Opts.Workers = 4;
    Opts.PoolThreads = 2;
    Opts.QueueCapacity = 64;
    Srv = std::make_unique<server::Server>(std::move(Opts));
    std::string Error;
    if (!Srv->start(Error)) {
      std::fprintf(stderr, "bench_server: start: %s\n", Error.c_str());
      std::exit(1);
    }
    Loop = std::thread([this] { Srv->serve(); });
  }

  ~BenchServer() {
    Srv->requestShutdown();
    Loop.join();
    Srv.reset();
    if (!Dir.empty()) {
      std::error_code EC;
      std::filesystem::remove_all(Dir, EC);
    }
  }

  /// One full client round-trip. Exits the benchmark on any failure: a
  /// broken server would otherwise publish nonsense numbers.
  server::rpc::Response roundTrip(const server::rpc::Request &Req) {
    UnixStream Conn;
    std::string Error, Line;
    server::rpc::Response Resp;
    if (!Conn.connect(SocketPath, Error) ||
        !Conn.writeAll(server::rpc::encodeRequest(Req) + "\n", Error) ||
        !Conn.readLine(Line, 64u << 20, 120000, Error) ||
        !server::rpc::parseResponse(Line, Resp, Error)) {
      std::fprintf(stderr, "bench_server: round trip: %s\n", Error.c_str());
      std::exit(1);
    }
    if (Resp.Status != "ok") {
      std::fprintf(stderr, "bench_server: status %s: %s\n",
                   Resp.Status.c_str(), Resp.Error.c_str());
      std::exit(1);
    }
    return Resp;
  }

private:
  std::string SocketPath;
  std::string Dir;
  std::unique_ptr<server::Server> Srv;
  std::thread Loop;
};

server::rpc::Request proveRequest() {
  server::rpc::Request Req;
  Req.Inv.Command = "prove";
  return Req;
}

server::rpc::Request checkRequest() {
  server::rpc::Request Req;
  Req.Inv.Command = "check";
  Req.Inv.Source = CheckSource;
  Req.Inv.HasSource = true;
  Req.Inv.Session.Builtins = {"pos", "neg"};
  return Req;
}

void measure(BenchServer &Server, bench::Report &R) {
  // Cold vs warm prove: request one is the only one that pays the prover.
  {
    auto Start = std::chrono::steady_clock::now();
    Server.roundTrip(proveRequest());
    double Cold = secondsSince(Start);
    Start = std::chrono::steady_clock::now();
    Server.roundTrip(proveRequest());
    double Warm = secondsSince(Start);
    R.add("prove_cold_seconds", Cold, "seconds",
          "first prove request: every obligation hits the prover, results "
          "enter the shared cache");
    R.add("prove_warm_seconds", Warm, "seconds",
          "second prove request: replayed entirely from the warm shared "
          "cache");
    R.add("prove_warm_speedup", Warm > 0 ? Cold / Warm : 0, "ratio",
          "cold latency / warm latency");
    R.gate("warm_prove_not_slower", bench::GateKind::Timing, Warm <= Cold,
           "the warm prove replays from the shared cache, so it is no "
           "slower than the cold one");
  }

  // One-shot vs server check: what a client saves (or pays) per request.
  {
    server::rpc::Request Check = checkRequest();
    constexpr int Reps = 20;
    auto Start = std::chrono::steady_clock::now();
    for (int I = 0; I < Reps; ++I) {
      server::ExecResult R = server::executeInvocation(Check.Inv);
      benchmark::DoNotOptimize(R.ExitCode);
    }
    R.add("check_one_shot_seconds", secondsSince(Start) / Reps, "seconds",
          "mean `stqc check` executed locally in a fresh Session (no "
          "server)");
    Start = std::chrono::steady_clock::now();
    for (int I = 0; I < Reps; ++I)
      Server.roundTrip(Check);
    R.add("check_server_seconds", secondsSince(Start) / Reps, "seconds",
          "mean `stqc check --server` round trip: socket, JSON framing, "
          "fresh Session on warm shared state");
  }

  // Concurrent-client scaling: aggregate requests per second as clients
  // pile on. Requests alternate check and (cache-warm) prove.
  for (int Clients : {1, 2, 4, 8}) {
    constexpr int PerClient = 10;
    auto Start = std::chrono::steady_clock::now();
    std::vector<std::thread> Threads;
    for (int C = 0; C < Clients; ++C)
      Threads.emplace_back([&Server, C] {
        for (int I = 0; I < PerClient; ++I)
          Server.roundTrip(I % 2 == C % 2 ? checkRequest() : proveRequest());
      });
    for (std::thread &T : Threads)
      T.join();
    double Elapsed = secondsSince(Start);
    R.add("throughput_" + std::to_string(Clients) + "_clients",
          Elapsed > 0 ? Clients * PerClient / Elapsed : 0,
          "requests_per_second",
          std::to_string(Clients) + " concurrent clients, " +
              std::to_string(PerClient) + " requests each");
  }
}

} // namespace

// The warm-path request on its own, for --benchmark_filter runs.
static void BM_WarmProveRoundTrip(benchmark::State &State) {
  BenchServer Server;
  Server.roundTrip(proveRequest()); // warm the cache once
  for (auto _ : State) {
    server::rpc::Response R = Server.roundTrip(proveRequest());
    benchmark::DoNotOptimize(R.ExitCode);
  }
}
BENCHMARK(BM_WarmProveRoundTrip)->Unit(benchmark::kMillisecond);

static void BM_CheckRoundTrip(benchmark::State &State) {
  BenchServer Server;
  for (auto _ : State) {
    server::rpc::Response R = Server.roundTrip(checkRequest());
    benchmark::DoNotOptimize(R.ExitCode);
  }
}
BENCHMARK(BM_CheckRoundTrip)->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  bench::Report R("bench_server_throughput", "server",
                  "stqd server throughput");
  {
    BenchServer Server;
    measure(Server, R);
  }
  int Status = R.finish();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return Status;
}
