#pragma once

#include <cstdint>
#include <ios>
#include <iomanip>
#include <ostream>
#include <string>
#include <variant>

#include "core/experiment.h"
#include "reldb/database.h"
#include "reldb/rel.h"
#include "reldb/table.h"
#include "server/runner.h"

/// \file golden.h
/// Digests for pinned-golden tests: FNV-1a 64 (server::DigestF64) over a
/// run's simulated observables and final model, or over a relation's
/// schema, scale and type-tagged values. Two runs or tables share a digest
/// iff they are bit-identical, so a pinned digest is the oracle for host
/// execution paths without a second implementation to compare against.

namespace mlbench::golden {

/// server::DigestRunResult (status code, init seconds, each iteration's
/// seconds, peak bytes) plus the fault-recovery accounting. Final models
/// digest with server::DigestModel.
inline std::uint64_t DigestRun(const core::RunResult& r) {
  std::uint64_t h = server::DigestRunResult(server::kDigestSeed, r);
  h = server::DigestF64(h, static_cast<double>(r.recovery_events));
  return server::DigestF64(h, r.recovery_seconds);
}

/// Column names, scale, then every value tagged with its type (an int64 1
/// and a double 1.0 digest differently).
inline std::uint64_t DigestTable(const reldb::Table& t) {
  std::uint64_t h = server::kDigestSeed;
  for (const std::string& name : t.schema().columns()) {
    h = server::DigestBytes(h, name.data(), name.size() + 1);
  }
  h = server::DigestF64(h, t.scale());
  for (const auto& row : t.rows()) {
    for (const auto& value : row) {
      if (const std::int64_t* iv = std::get_if<std::int64_t>(&value)) {
        const std::uint8_t tag = 0;
        h = server::DigestBytes(h, &tag, 1);
        h = server::DigestBytes(h, iv, sizeof(*iv));
      } else {
        const std::uint8_t tag = 1;
        h = server::DigestBytes(h, &tag, 1);
        h = server::DigestF64(h, std::get<double>(value));
      }
    }
  }
  return h;
}

/// The observables of one reldb query: result rows and digest, whether the
/// result is columnar, the simulator clock after the query, and the next
/// draw of the database's shared RNG stream (which pins how many draws
/// the query consumed).
struct QueryGolden {
  std::size_t rows = 0;
  std::uint64_t digest = 0;
  bool columnar = false;
  double seconds = 0;
  std::uint64_t next_draw = 0;

  bool operator==(const QueryGolden&) const = default;
};

/// Prints `g` as the initializer that pins it.
inline std::ostream& operator<<(std::ostream& os, const QueryGolden& g) {
  const auto flags = os.flags();
  const auto precision = os.precision();
  os << "{" << g.rows << ", 0x" << std::hex << g.digest << std::dec << ", "
     << (g.columnar ? "true" : "false") << ", " << std::setprecision(17)
     << g.seconds << ", 0x" << std::hex << g.next_draw << "}";
  os.flags(flags);
  os.precision(precision);
  return os;
}

/// Observes `result` on `db` (draws once from its RNG).
inline QueryGolden Observe(const reldb::Rel& result, reldb::Database& db) {
  const reldb::Table& t = result.table();
  return {t.actual_rows(), DigestTable(t), result.columnar(),
          db.sim().elapsed_seconds(), db.rng().NextU64()};
}

}  // namespace mlbench::golden
