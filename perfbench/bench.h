#pragma once

// Shared pieces of the end-to-end benchmark binary: the JSON-lines record
// writer, process counter snapshots, and the in-memory span recorder that
// the traced run writes out as Chrome trace_event JSON.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace mlbench::server {
class Server;
}

namespace perfbench {

// Workload shapes shared by the grids and the probes: 5 machines; gmm and
// imputation with 2000 points per machine (fig1/fig5), lasso with 300
// (fig2), hmm and lda with 40 documents per machine (fig3/fig4).
inline constexpr int kMachines = 5;
inline constexpr long long kGmmPoints = 2000;
inline constexpr long long kLassoPoints = 300;
inline constexpr long long kTextDocs = 40;

/// The four SQL statements of tools/loadgen's request mix.
inline constexpr const char* kMixStatements[4] = {
    "SELECT grp, COUNT(id) AS n, AVG(val) AS mean FROM data GROUP BY grp",
    "SELECT id, val FROM data WHERE grp = 3",
    "SELECT val * 2 + 1 AS v, id FROM data WHERE id < 32",
    "SELECT grp, MAX(val) AS hi, MIN(val) AS lo FROM data GROUP BY grp",
};

/// Seconds on the steady clock since an arbitrary fixed origin.
double NowS();

/// One JSON object on one stdout line: `Record("cell").Str("k", v).Emit()`.
/// Numbers keep all 17 significant digits; run.py parses every line.
class Record {
 public:
  explicit Record(const std::string& kind);
  Record& Str(const std::string& key, const std::string& value);
  Record& Num(const std::string& key, double value);
  Record& Int(const std::string& key, std::int64_t value);
  Record& Hex(const std::string& key, std::uint64_t value);
  void Emit();

 private:
  std::string line_;
};

/// Process-wide counters read at span boundaries: host pool dispatch stats
/// and getrusage(RUSAGE_SELF).
struct Counters {
  double wall_s = 0;
  double user_s = 0;
  double sys_s = 0;
  double minor_faults = 0;
  double invol_csw = 0;
  double parallel_runs = 0;
  double serial_runs = 0;
  double parks = 0;
  double worker_chunks = 0;
  double caller_chunks = 0;
  double dispatch_ns = 0;

  static Counters Read();
  /// Field-wise `*this - before`.
  Counters Minus(const Counters& before) const;
  /// (name, value) pairs for span args and records.
  std::vector<std::pair<std::string, double>> Fields() const;
};

/// Peak resident set of this process so far, in MB.
double PeakRssMb();

/// Spans kept in memory and written once, at exit, as Chrome trace_event
/// JSON. A disabled tracer records nothing and costs one branch per call.
/// Thread-safe: server_mix client threads record concurrently.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (0 when disabled). `parent` 0 = root.
  /// Spans of one pass or one request share `group`.
  int Begin(const std::string& name, const std::string& cat, int parent,
            std::int64_t group);
  /// Closes span `id` with extra args (counter deltas, digests, ...).
  void End(int id, std::vector<std::pair<std::string, double>> args = {});
  /// Records an already-measured interval as a closed span; returns its id.
  int Add(const std::string& name, const std::string& cat, int parent,
           std::int64_t group, double start_s, double end_s,
           std::vector<std::pair<std::string, double>> args = {});

  std::size_t size() const;
  /// Writes {"traceEvents": [...]} with one complete ("X") event per span.
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::string cat;
    int parent = 0;
    std::int64_t group = 0;
    double start_s = 0;
    double end_s = -1;
    std::uint64_t tid = 0;
    std::vector<std::pair<std::string, double>> args;
  };

  bool enabled_;
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

/// RAII span: Begin on construction, End with the counter deltas over its
/// lifetime on destruction. Costs nothing when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, const std::string& cat,
             int parent, std::int64_t group);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }
  void AddArg(const std::string& key, double value) {
    args_.emplace_back(key, value);
  }

 private:
  Tracer* tracer_;
  int id_;
  Counters before_;
  std::vector<std::pair<std::string, double>> args_;
};

/// Emits a "server" record with the server's counters and admission stats;
/// `source` says which server they come from ("mix" or "probe").
void EmitServerCounters(const mlbench::server::Server& server,
                        const char* source);

/// Runs every per-layer probe at the shapes of the benchmark's workloads,
/// with inputs drawn from `seed`, on a pool of `threads`. Emits one
/// "layer" record per metric and a span per probe call.
void RunProbes(std::uint64_t seed, int threads, Tracer* tracer);

}  // namespace perfbench
