// perfbench: the end-to-end benchmark binary. It runs whole
// (model x platform) cells through server::ExecuteExperiment and a request
// mix through an in-process server::Server, and prints one JSON record per
// line (cells, requests, passes, set-up repetitions, layer probes). run.py
// builds this binary, runs it, checks every digest and turns the records
// into metrics.
//
//   perfbench --workload dense_grid|text_grid|server_mix --seed S
//             --seconds T --trace 0|1 --threads N [--trace-out FILE]
//   perfbench --print-requests --workload W --seed S
//
// Every request is a pure function of --seed; the program sees only the
// generated requests and runs with its defaults (no MLBENCH_* knob).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "exec/thread_pool.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/runner.h"
#include "server/server.h"
#include "stats/rng.h"

namespace perfbench {
namespace {

using mlbench::StatusCodeName;
using mlbench::exec::ThreadPool;
using mlbench::server::Client;
using mlbench::server::ClientOptions;
using mlbench::server::ExperimentRequest;
using mlbench::server::Server;
using mlbench::server::ServerOptions;
using mlbench::server::SqlRequest;

constexpr int kSetupReps = 11;
// 4 x 60 (model, platform, machines) experiments + 60 SQL statements: at
// least 200 requests, so p95 keeps 15 samples beyond it.
constexpr int kMixReps = 4;
constexpr int kMixRequests = kMixReps * 60 * 5 / 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 2014;
  double seconds = 10;
  bool trace = false;
  int threads = 1;
  std::string trace_out;
  bool print_requests = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--print-requests") {
      args->print_requests = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--threads") {
      args->threads = std::max(1, std::atoi(value.c_str()));
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return args->workload == "dense_grid" || args->workload == "text_grid" ||
         args->workload == "server_mix";
}

// ---- Requests -------------------------------------------------------------

struct Cell {
  const char* model;
  const char* platform;
  long long actual_per_machine;
};

constexpr const char* kPlatforms[] = {"dataflow", "reldb", "gas", "bsp"};

/// The paper-figure grids at the shapes in bench.h; gmm/imputation are
/// 10-d with k=10, lasso has p=1000, hmm/lda a 10k-word vocabulary.
std::vector<Cell> GridCells(const std::string& workload) {
  struct Model {
    const char* name;
    long long actual;
  };
  std::vector<Model> models;
  if (workload == "dense_grid") {
    models = {{"gmm", kGmmPoints},
              {"imputation", kGmmPoints},
              {"lasso", kLassoPoints}};
  } else {
    models = {{"hmm", kTextDocs}, {"lda", kTextDocs}};
  }
  std::vector<Cell> cells;
  for (const Model& m : models) {
    for (const char* p : kPlatforms) cells.push_back({m.name, p, m.actual});
  }
  return cells;
}

ExperimentRequest GridRequest(const Cell& cell, std::uint64_t seed,
                              std::uint64_t id) {
  ExperimentRequest req;
  req.id = id;
  req.workload = cell.model;
  req.platform = cell.platform;
  req.machines = kMachines;
  req.iterations = 3;
  req.seed = seed;
  req.actual_per_machine = cell.actual_per_machine;
  return req;
}

struct MixRequest {
  bool is_sql = false;
  ExperimentRequest exp;
  SqlRequest sql;
};

constexpr std::uint64_t kMixTag = 0x10ad;

template <typename T>
void Shuffle(std::vector<T>* v, mlbench::stats::Rng& rng) {
  for (std::size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng.NextBounded(i)]);
  }
}

/// The server mix: tools/loadgen's request shapes (all five models on all
/// four platforms, 2-4 machines, two iterations, loadgen's small samples,
/// every 5th request one of its SQL statements over 64-160 rows, every 7th
/// streaming progress). loadgen draws each request independently, so the
/// work of a stream swings with the seed; here every (model, platform,
/// machines) combination appears kMixReps times and the 16 (statement,
/// rows) pairs 3 or 4 times each, so that every seed measures the same work.
/// The order is one fixed shuffle, so that each request also meets the
/// same neighbours in the closed loop; `seed` draws every request's data.
std::vector<MixRequest> MakeMix(std::uint64_t seed) {
  static const char* kModels[] = {"gmm", "lasso", "hmm", "lda", "imputation"};
  static const long long kActual[] = {200, 40, 12, 10, 200};
  struct Combo {
    int model, platform, machines;
  };
  std::vector<Combo> combos;
  for (int rep = 0; rep < kMixReps; ++rep) {
    for (int w = 0; w < 5; ++w) {
      for (int p = 0; p < 4; ++p) {
        for (int m = 2; m <= 4; ++m) combos.push_back({w, p, m});
      }
    }
  }
  std::vector<int> sql_shapes;  // statement + 4 * rows step
  for (int i = 0; i < kMixRequests / 5; ++i) sql_shapes.push_back(i % 16);
  mlbench::stats::Rng rng(kMixTag);
  Shuffle(&combos, rng);
  Shuffle(&sql_shapes, rng);
  std::vector<MixRequest> mix(kMixRequests);
  std::size_t next_combo = 0, next_sql = 0;
  for (int index = 0; index < kMixRequests; ++index) {
    MixRequest& r = mix[static_cast<std::size_t>(index)];
    const auto id = static_cast<std::uint64_t>(index);
    if (index % 5 == 4) {
      const int shape = sql_shapes[next_sql++];
      r.is_sql = true;
      r.sql.id = id;
      r.sql.seed = seed ^ id;
      r.sql.rows = 64 + (shape / 4) * 32;
      r.sql.sql = kMixStatements[shape % 4];
      continue;
    }
    const Combo& c = combos[next_combo++];
    r.exp.id = id;
    r.exp.workload = kModels[c.model];
    r.exp.platform = kPlatforms[c.platform];
    r.exp.machines = c.machines;
    r.exp.iterations = 2;
    r.exp.seed = seed ^ id;
    r.exp.actual_per_machine = kActual[c.model];
    r.exp.want_progress = index % 7 == 0;
  }
  return mix;
}

std::string MixLabel(const MixRequest& r) {
  return r.is_sql ? "sql/reldb" : r.exp.workload + "/" + r.exp.platform;
}

void PrintRequests(const Args& args) {
  if (args.workload == "server_mix") {
    const std::vector<MixRequest> mix = MakeMix(args.seed);
    for (int i = 0; i < kMixRequests; ++i) {
      const MixRequest& r = mix[static_cast<std::size_t>(i)];
      Record rec("request");
      rec.Int("index", i).Str("cell", MixLabel(r));
      if (r.is_sql) {
        rec.Int("seed", static_cast<std::int64_t>(r.sql.seed))
            .Int("rows", r.sql.rows)
            .Str("sql", r.sql.sql);
      } else {
        rec.Int("seed", static_cast<std::int64_t>(r.exp.seed))
            .Int("machines", r.exp.machines)
            .Int("actual_per_machine", r.exp.actual_per_machine);
      }
      rec.Emit();
    }
    return;
  }
  int i = 0;
  for (const Cell& c : GridCells(args.workload)) {
    ExperimentRequest req = GridRequest(c, args.seed, 0);
    Record("request")
        .Int("index", i++)
        .Str("cell", req.workload + "/" + req.platform)
        .Int("seed", static_cast<std::int64_t>(req.seed))
        .Int("machines", req.machines)
        .Int("actual_per_machine", req.actual_per_machine)
        .Emit();
  }
}

// ---- Set-up ---------------------------------------------------------------

/// Sizes the pool and warms it, then runs one small gmm cell per platform
/// so lazy first-use costs (code pages, allocator arenas, pool wake-up)
/// are paid before timing starts.
void SizeAndWarm(int threads) {
  ThreadPool::SetGlobalThreads(threads);
  ThreadPool::Global().Run(threads, [](std::int64_t) {});
  for (const char* p : kPlatforms) {
    ExperimentRequest req;
    req.workload = "gmm";
    req.platform = p;
    req.machines = 2;
    req.iterations = 1;
    req.actual_per_machine = 200;
    mlbench::server::ExecuteExperiment(req, nullptr, {});
  }
}

void EmitSetup(int rep, double seconds) {
  Record("setup").Int("rep", rep).Num("setup_s", seconds).Emit();
}

void EmitPass(int pass, int threads, bool traced, const Counters& delta,
              int cells) {
  Record rec("pass");
  rec.Int("pass", pass).Int("threads", threads).Int("traced", traced ? 1 : 0)
      .Int("cells", cells);
  for (const auto& [key, value] : delta.Fields()) rec.Num(key, value);
  rec.Emit();
}

// ---- Grid workloads -------------------------------------------------------

/// One pass over the grid at the current pool size; emits a record per
/// cell and one for the pass.
void RunGridPass(const std::vector<Cell>& cells, std::uint64_t seed, int pass,
                 int threads, Tracer* tracer) {
  const bool traced = tracer->enabled();
  if (traced) ThreadPool::Global().SetDispatchTiming(true);
  ScopedSpan pass_span(tracer, "pass " + std::to_string(pass), "pass", 0,
                       pass);
  const Counters before = Counters::Read();
  std::uint64_t id = 0;
  for (const Cell& c : cells) {
    ExperimentRequest req = GridRequest(c, seed, id++);
    ScopedSpan cell_span(tracer, req.workload + "/" + req.platform, "cell",
                         pass_span.id(), pass);
    const double t0 = NowS();
    mlbench::server::RunOutcome out =
        mlbench::server::ExecuteExperiment(req, nullptr, {});
    const double wall = NowS() - t0;
    cell_span.AddArg("threads", threads);
    cell_span.AddArg("status_code",
                     static_cast<double>(out.result.status.code()));
    Record("cell")
        .Int("pass", pass)
        .Int("threads", threads)
        .Int("traced", traced ? 1 : 0)
        .Str("model", req.workload)
        .Str("platform", req.platform)
        .Num("wall_s", wall)
        .Hex("digest", out.digest)
        .Str("status", StatusCodeName(out.result.status.code()))
        .Emit();
  }
  EmitPass(pass, threads, traced, Counters::Read().Minus(before),
           static_cast<int>(cells.size()));
  if (traced) ThreadPool::Global().SetDispatchTiming(false);
}

void RunGrid(const Args& args, Tracer* tracer) {
  const std::vector<Cell> cells = GridCells(args.workload);
  Tracer off(false);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = NowS();
    SizeAndWarm(args.threads);
    EmitSetup(rep, NowS() - t0);
  }
  // Passes at N threads first (the pool is sized and warm), then the
  // single-threaded baseline pass. At least two N-thread passes: the
  // page-fault-heavy text dataflow cells vary by about 20% from pass to
  // pass, and the per-platform metrics take the median over passes.
  const double start = NowS();
  int pass = 1;
  if (args.trace) {
    RunGridPass(cells, args.seed, pass++, args.threads, &off);
    RunGridPass(cells, args.seed, pass++, args.threads, tracer);
  } else {
    do {
      RunGridPass(cells, args.seed, pass++, args.threads, &off);
    } while (pass <= 2 || NowS() - start < args.seconds * 0.5);
  }
  ThreadPool::SetGlobalThreads(1);
  RunGridPass(cells, args.seed, 0, 1, &off);
  ThreadPool::SetGlobalThreads(args.threads);
}

// ---- Server mix -----------------------------------------------------------

struct MixClients {
  std::unique_ptr<Server> server;
  std::vector<std::unique_ptr<Client>> clients;
};

MixClients StartServerAndConnect(int clients) {
  MixClients mc;
  mc.server = std::make_unique<Server>(ServerOptions{});
  if (!mc.server->Start().ok()) {
    std::fprintf(stderr, "perfbench: server Start failed\n");
    std::exit(1);
  }
  for (int i = 0; i < clients; ++i) {
    ClientOptions opts;
    opts.port = mc.server->port();
    auto client = std::make_unique<Client>(opts);
    if (!client->Connect().ok() || !client->Ping().ok()) {
      std::fprintf(stderr, "perfbench: client connect failed\n");
      std::exit(1);
    }
    mc.clients.push_back(std::move(client));
  }
  return mc;
}

void StopServer(MixClients* mc) {
  for (auto& c : mc->clients) c->Close();
  mc->clients.clear();
  mc->server->Stop();
}

/// Direct 1-thread digests of every mix request: the reference the
/// server's responses must match. The pool has one thread, so each call
/// runs serially on its caller; `callers` threads share the requests
/// (calls share no state, so each digest is the serial one).
void RunMixReferences(const std::vector<MixRequest>& mix, int callers) {
  ThreadPool::SetGlobalThreads(1);
  const Counters before = Counters::Read();
  std::atomic<int> next{0};
  auto worker = [&] {
    for (;;) {
      const int index = next.fetch_add(1);
      if (index >= static_cast<int>(mix.size())) break;
      const MixRequest& r = mix[static_cast<std::size_t>(index)];
      const double t0 = NowS();
      std::uint64_t digest = 0;
      std::string status;
      if (r.is_sql) {
        mlbench::server::SqlOutcome out = mlbench::server::ExecuteSql(r.sql);
        digest = out.digest;
        status = StatusCodeName(out.status.code());
      } else {
        mlbench::server::RunOutcome out =
            mlbench::server::ExecuteExperiment(r.exp, nullptr, {});
        digest = out.digest;
        status = StatusCodeName(out.result.status.code());
      }
      Record("ref")
          .Int("index", index)
          .Str("cell", MixLabel(r))
          .Num("wall_s", NowS() - t0)
          .Hex("digest", digest)
          .Str("status", status)
          .Emit();
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < callers; ++i) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
  EmitPass(0, 1, false, Counters::Read().Minus(before),
           static_cast<int>(mix.size()));
}

/// One closed-loop pass of the whole mix: each client thread takes the
/// next request index, sends it and waits for the terminal response.
void RunMix(const std::vector<MixRequest>& mix, MixClients* mc, int pass,
            int threads, Tracer* tracer) {
  const bool traced = tracer->enabled();
  if (traced) ThreadPool::Global().SetDispatchTiming(true);
  ScopedSpan mix_span(tracer, "mix " + std::to_string(pass), "pass", 0, pass);
  const int parent = mix_span.id();
  const Counters before = Counters::Read();
  std::vector<mlbench::server::ClientStats> stats_before;
  for (auto& c : mc->clients) stats_before.push_back(c->stats());
  std::atomic<int> next{0};
  auto worker = [&](Client* client) {
    for (;;) {
      const int index = next.fetch_add(1);
      if (index >= static_cast<int>(mix.size())) break;
      const MixRequest& r = mix[static_cast<std::size_t>(index)];
      const double t0 = NowS();
      auto res = r.is_sql ? client->RunSql(r.sql)
                          : client->RunExperiment(r.exp);
      const double t1 = NowS();
      Record rec("request");
      rec.Int("pass", pass)
          .Int("threads", threads)
          .Int("traced", traced ? 1 : 0)
          .Int("index", index)
          .Str("cell", MixLabel(r))
          .Num("latency_ms", (t1 - t0) * 1e3);
      const double queue_ms = res.ok() ? res->queue_ms : 0.0;
      if (res.ok()) {
        rec.Hex("digest", res->digest)
            .Str("status", StatusCodeName(res->code))
            .Num("queue_ms", queue_ms)
            .Int("error", 0);
      } else {
        rec.Str("status", StatusCodeName(res.status().code()))
            .Int("error", 1);
      }
      rec.Emit();
      const std::int64_t group = pass * 100000LL + index;
      const int span = tracer->Add(MixLabel(r), r.is_sql ? "sql" : "request",
                                   parent, group, t0, t1,
                                   {{"index", index}, {"queue_ms", queue_ms}});
      if (queue_ms > 0) {
        tracer->Add("admission wait", "queue", span, group, t0,
                    t0 + queue_ms * 1e-3);
      }
    }
  };
  std::vector<std::thread> threads_v;
  for (auto& c : mc->clients) threads_v.emplace_back(worker, c.get());
  for (auto& t : threads_v) t.join();
  Counters delta = Counters::Read().Minus(before);
  EmitPass(pass, threads, traced, delta,
           static_cast<int>(mix.size()));
  std::int64_t retries = 0, reconnects = 0, sheds = 0, deadlines = 0;
  for (std::size_t i = 0; i < mc->clients.size(); ++i) {
    const auto& now = mc->clients[i]->stats();
    retries += now.retries - stats_before[i].retries;
    reconnects += now.reconnects - stats_before[i].reconnects;
    sheds += now.sheds_seen - stats_before[i].sheds_seen;
    deadlines += now.deadlines_seen - stats_before[i].deadlines_seen;
  }
  Record("clients")
      .Int("pass", pass)
      .Int("retries", retries)
      .Int("reconnects", reconnects)
      .Int("sheds", sheds)
      .Int("deadlines", deadlines)
      .Emit();
  if (traced) ThreadPool::Global().SetDispatchTiming(false);
}

void RunServerMix(const Args& args, Tracer* tracer) {
  const std::vector<MixRequest> mix = MakeMix(args.seed);
  Tracer off(false);
  MixClients mc;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (mc.server) StopServer(&mc);
    const double t0 = NowS();
    SizeAndWarm(args.threads);
    mc = StartServerAndConnect(args.threads);
    EmitSetup(rep, NowS() - t0);
  }
  const double start = NowS();
  int pass = 1;
  if (args.trace) {
    RunMix(mix, &mc, pass++, args.threads, &off);
    RunMix(mix, &mc, pass++, args.threads, tracer);
  } else {
    do {
      RunMix(mix, &mc, pass++, args.threads, &off);
    } while (NowS() - start < args.seconds * 0.5);
  }
  StopServer(&mc);
  EmitServerCounters(*mc.server, "mix");
  RunMixReferences(mix, args.threads);
  ThreadPool::SetGlobalThreads(args.threads);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload dense_grid|text_grid|"
                 "server_mix --seed S --seconds T --trace 0|1 --threads N "
                 "[--trace-out FILE] [--print-requests]\n");
    return 2;
  }
  if (args.print_requests) {
    PrintRequests(args);
    return 0;
  }
  Record("meta")
      .Str("workload", args.workload)
      .Int("seed", static_cast<std::int64_t>(args.seed))
      .Int("threads", args.threads)
      .Int("host_cores",
           static_cast<std::int64_t>(std::thread::hardware_concurrency()))
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("compiler", PERFBENCH_COMPILER)
      .Int("trace", args.trace ? 1 : 0)
      .Num("seconds", args.seconds)
      .Emit();
  Tracer tracer(args.trace);
  if (args.workload == "server_mix") {
    RunServerMix(args, &tracer);
  } else {
    RunGrid(args, &tracer);
  }
  if (args.trace) RunProbes(args.seed, args.threads, &tracer);
  Record("rss").Num("peak_rss_mb", PeakRssMb()).Emit();
  if (args.trace && !args.trace_out.empty()) {
    if (!tracer.WriteChromeJson(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
      return 1;
    }
    Record("trace")
        .Str("path", args.trace_out)
        .Int("spans", static_cast<std::int64_t>(tracer.size()))
        .Emit();
  }
  return 0;
}
