#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <thread>

#include "exec/thread_pool.h"
#include "server/server.h"

namespace perfbench {

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- Record -----------------------------------------------------------------

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

Record::Record(const std::string& kind) : line_("{\"kind\": " + Quote(kind)) {}

Record& Record::Str(const std::string& key, const std::string& value) {
  line_ += ", " + Quote(key) + ": " + Quote(value);
  return *this;
}

Record& Record::Num(const std::string& key, double value) {
  line_ += ", " + Quote(key) + ": " + Number(value);
  return *this;
}

Record& Record::Int(const std::string& key, std::int64_t value) {
  line_ += ", " + Quote(key) + ": " + std::to_string(value);
  return *this;
}

Record& Record::Hex(const std::string& key, std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return Str(key, buf);
}

void Record::Emit() {
  std::printf("%s}\n", line_.c_str());
  std::fflush(stdout);
}

// ---- Counters ---------------------------------------------------------------

Counters Counters::Read() {
  Counters c;
  c.wall_s = NowS();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  c.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  c.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  c.minor_faults = static_cast<double>(ru.ru_minflt);
  c.invol_csw = static_cast<double>(ru.ru_nivcsw);
  const mlbench::exec::DispatchStats s =
      mlbench::exec::ThreadPool::Global().Stats();
  c.parallel_runs = static_cast<double>(s.parallel_runs);
  c.serial_runs = static_cast<double>(s.serial_runs);
  c.parks = static_cast<double>(s.parks);
  c.worker_chunks = static_cast<double>(s.worker_chunks_total());
  c.caller_chunks = static_cast<double>(s.caller_chunks);
  c.dispatch_ns = static_cast<double>(s.dispatch_ns);
  return c;
}

Counters Counters::Minus(const Counters& b) const {
  Counters d;
  d.wall_s = wall_s - b.wall_s;
  d.user_s = user_s - b.user_s;
  d.sys_s = sys_s - b.sys_s;
  d.minor_faults = minor_faults - b.minor_faults;
  d.invol_csw = invol_csw - b.invol_csw;
  d.parallel_runs = parallel_runs - b.parallel_runs;
  d.serial_runs = serial_runs - b.serial_runs;
  d.parks = parks - b.parks;
  d.worker_chunks = worker_chunks - b.worker_chunks;
  d.caller_chunks = caller_chunks - b.caller_chunks;
  d.dispatch_ns = dispatch_ns - b.dispatch_ns;
  return d;
}

std::vector<std::pair<std::string, double>> Counters::Fields() const {
  return {{"wall_s", wall_s},
          {"user_s", user_s},
          {"sys_s", sys_s},
          {"minor_faults", minor_faults},
          {"invol_csw", invol_csw},
          {"parallel_runs", parallel_runs},
          {"serial_runs", serial_runs},
          {"parks", parks},
          {"worker_chunks", worker_chunks},
          {"caller_chunks", caller_chunks},
          {"dispatch_ns", dispatch_ns}};
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ---- Tracer -----------------------------------------------------------------

int Tracer::Begin(const std::string& name, const std::string& cat, int parent,
                  std::int64_t group) {
  if (!enabled_) return 0;
  Span s;
  s.name = name;
  s.cat = cat;
  s.parent = parent;
  s.group = group;
  s.start_s = NowS();
  s.tid = std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size());
}

void Tracer::End(int id, std::vector<std::pair<std::string, double>> args) {
  if (!enabled_ || id <= 0) return;
  double now = NowS();
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_[static_cast<std::size_t>(id - 1)];
  s.end_s = now;
  s.args = std::move(args);
}

int Tracer::Add(const std::string& name, const std::string& cat, int parent,
                std::int64_t group, double start_s, double end_s,
                std::vector<std::pair<std::string, double>> args) {
  if (!enabled_) return 0;
  Span s;
  s.name = name;
  s.cat = cat;
  s.parent = parent;
  s.group = group;
  s.start_s = start_s;
  s.end_s = end_s;
  s.tid = std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000;
  s.args = std::move(args);
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size());
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  double origin = spans_.empty() ? 0 : spans_.front().start_s;
  for (const Span& s : spans_) origin = std::min(origin, s.start_s);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    double end = s.end_s >= s.start_s ? s.end_s : s.start_s;
    std::string args = "\"id\": " + std::to_string(i + 1) +
                       ", \"parent\": " + std::to_string(s.parent) +
                       ", \"group\": " + std::to_string(s.group);
    for (const auto& [key, value] : s.args) {
      args += ", " + Quote(key) + ": " + Number(value);
    }
    std::fprintf(f,
                 "{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"ts\": %.3f, "
                 "\"dur\": %.3f, \"pid\": 1, \"tid\": %llu, "
                 "\"args\": {%s}}%s\n",
                 Quote(s.name).c_str(), Quote(s.cat).c_str(),
                 (s.start_s - origin) * 1e6, (end - s.start_s) * 1e6,
                 static_cast<unsigned long long>(s.tid), args.c_str(),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const std::string& name,
                       const std::string& cat, int parent, std::int64_t group)
    : tracer_(tracer), id_(tracer->Begin(name, cat, parent, group)) {
  if (tracer_->enabled()) before_ = Counters::Read();
}

ScopedSpan::~ScopedSpan() {
  if (!tracer_->enabled()) return;
  for (auto& field : Counters::Read().Minus(before_).Fields()) {
    args_.push_back(std::move(field));
  }
  tracer_->End(id_, std::move(args_));
}

void EmitServerCounters(const mlbench::server::Server& server,
                        const char* source) {
  const mlbench::server::ServerCounters c = server.counters();
  const mlbench::server::AdmissionStats a = server.admission_stats();
  Record("server")
      .Str("source", source)
      .Int("requests", c.requests)
      .Int("results_ok", c.results_ok)
      .Int("results_failed", c.results_failed)
      .Int("errors_sent", c.errors_sent)
      .Int("protocol_errors", c.protocol_errors)
      .Int("admitted", a.admitted)
      .Int("admitted_after_wait", a.admitted_after_wait)
      .Int("peak_queue_depth", a.peak_queue_depth)
      .Emit();
}

}  // namespace perfbench
