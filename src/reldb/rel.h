#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "reldb/column_batch.h"
#include "reldb/database.h"
#include "reldb/expr_vm.h"
#include "reldb/table.h"
#include "reldb/vg_function.h"

/// \file rel.h
/// Eager relational operators over Database tables.
///
/// A Rel wraps an intermediate relation flowing through a query. Operators
/// execute immediately on the actual rows and charge the simulated cluster
/// for the logical work: per-tuple operator costs, shuffle traffic and an
/// extra MapReduce job for every wide operator (join / group-by), and
/// storage I/O for every materialization boundary — the cost structure of
/// SimSQL-on-Hadoop the paper measures.
///
/// Host execution is columnar: operators run over ColumnBatch — typed
/// contiguous arrays, selection-vector filters, index-gather projects,
/// compiled expressions through the bytecode VM (expr_vm.h), and
/// join/group-by/VG hash tables keyed on packed fixed-width integers. The
/// input selects the row operators (vector<Tuple>) in three cases only: a
/// relation whose column mixes int and double values cannot be typed, and
/// join, group-by and VG keys that are double or wider than four columns
/// cannot be packed. Both forms charge the simulator from logical row
/// counts and schema widths only (never from the host representation),
/// commit host-parallel chunks in chunk-index order, and invoke VG
/// functions serially in first-seen group order against the shared RNG
/// stream — so results, draw streams and simulated charges are
/// bit-identical across MLBENCH_THREADS settings.
///
/// Usage follows the SQL structure of the paper's codes:
///
///   db.BeginQuery("clus_prob[i]");
///   auto cmem = Rel::Scan(db, Database::Versioned("membership", i - 1))
///                   .GroupBy({"clus_id"}, {{AggOp::kCount, "", "count"}}, 1);
///   auto para = cmem.HashJoin(Rel::Scan(db, "cluster"),
///                             {"clus_id"}, {"clus_id"}, 1);
///   para.Project(...).VgApply(dirichlet, {}, 1)
///       .Materialize(Database::Versioned("clus_prob", i));
///   db.EndQuery();

namespace mlbench::reldb {

/// Aggregate operators for GroupBy.
enum class AggOp { kSum, kCount, kAvg, kMin, kMax };

struct Agg {
  AggOp op;
  std::string col;       ///< input column (ignored for kCount)
  std::string out_name;  ///< output column name
};

/// One output column of a structured Project: a passthrough of an input
/// column, a constant, a compiled ScalarExpr, or an opaque computed double
/// lambda. Structured projects let the columnar engine share passthrough
/// columns zero-copy and fill constant/computed columns without touching
/// row storage; the row engine evaluates them per row with identical
/// results. Prefer ColExpr::Expr for computed columns — compiled programs
/// run batch-fused through the bytecode VM (expr_vm.h); ColExpr::Fn stays
/// as the fallback for expressions outside the ScalarExpr vocabulary and
/// always pays the per-row interpretation price.
struct ColExpr {
  int src = -1;           ///< passthrough input column (when >= 0)
  bool is_const = false;  ///< emit `constant` for every row
  Value constant = std::int64_t{0};
  std::shared_ptr<const ExprProgram> prog;  ///< compiled double column
  std::function<double(const Tuple&)> fn;   ///< opaque computed column

  static ColExpr Col(std::size_t idx) {
    ColExpr e;
    e.src = static_cast<int>(idx);
    return e;
  }
  static ColExpr Const(Value v) {
    ColExpr e;
    e.is_const = true;
    e.constant = v;
    return e;
  }
  static ColExpr Expr(const ScalarExpr& expr) {
    ColExpr e;
    e.prog = std::make_shared<const ExprProgram>(ExprProgram::Compile(expr));
    return e;
  }
  static ColExpr Fn(std::function<double(const Tuple&)> f) {
    ColExpr e;
    e.fn = std::move(f);
    return e;
  }
};

class Rel {
 public:
  /// Reads a stored table, charging the storage scan.
  static Rel Scan(Database& db, const std::string& name);

  /// Wraps a freshly built in-flight table without a read charge.
  static Rel FromTable(Database& db, Table table);

  /// Row form of this relation (materialized from the columnar form on
  /// first use, then cached).
  const Table& table() const { return *EnsureTable(); }

  const Schema& schema() const {
    return batch_ ? batch_->schema() : table_->schema();
  }
  double scale() const { return batch_ ? batch_->scale() : table_->scale(); }
  double logical_rows() const {
    return batch_ ? batch_->logical_rows() : table_->logical_rows();
  }
  /// True when this relation currently holds a columnar batch.
  bool columnar() const { return batch_ != nullptr; }

  /// Keeps rows satisfying `pred` (narrow, pipelined).
  Rel Filter(const std::function<bool(const Tuple&)>& pred) const;

  /// Keeps rows where the compiled predicate is non-zero. Same semantics
  /// and charges as the lambda form, but the columnar engine runs the
  /// bytecode VM batch-fused over the typed arrays (one dispatch per
  /// opcode per chunk) instead of materializing a Tuple per row.
  Rel Filter(const ScalarExpr& pred) const;

  /// The identity filter: keeps every row, charging exactly what a
  /// Filter whose predicate returns true charges. Used where the paper's
  /// plan scans a relation without dropping anything; shares the input
  /// representation zero-copy on both engines.
  Rel FilterAll() const;

  /// Keeps rows whose integer column `col` is one of `values`. Same
  /// semantics and charges as Filter with an AsInt membership predicate,
  /// but the columnar engine scans the typed array directly.
  Rel FilterIntIn(const std::string& col,
                  const std::vector<std::int64_t>& values) const;

  /// Rewrites every row through `fn` into `out_schema` (narrow, pipelined).
  Rel Project(Schema out_schema,
              const std::function<Tuple(const Tuple&)>& fn) const;

  /// Structured project: one ColExpr per output column (narrow, pipelined).
  Rel Project(Schema out_schema, const std::vector<ColExpr>& exprs) const;

  /// Renames columns without touching data (an identity Project; same
  /// charges). The columnar engine shares all column storage zero-copy.
  Rel Renamed(Schema out_schema) const;

  /// Hash equi-join. Output columns are the left schema followed by the
  /// right schema's non-key columns. `out_scale` gives the logical rows
  /// each actual output row stands for. By default the join is a wide
  /// operator (one more MR job, shuffles both inputs, materializes its
  /// output); `co_partitioned = true` models a map-side join of inputs
  /// already hashed on the key, which pipelines into the consumer.
  Rel HashJoin(const Rel& right, const std::vector<std::string>& left_keys,
               const std::vector<std::string>& right_keys, double out_scale,
               bool co_partitioned = false) const;

  /// Hash aggregation (wide: one MR job). Output columns are the keys
  /// followed by one column per aggregate.
  Rel GroupBy(const std::vector<std::string>& keys,
              const std::vector<Agg>& aggs, double out_scale) const;

  /// Applies a VG function once per distinct value of `group_cols`
  /// (empty = one invocation over the whole input). VG functions run in
  /// C++; `flops_per_out_tuple` declares their numeric work. Narrow.
  Rel VgApply(VgFunction& vg, const std::vector<std::string>& group_cols,
              double out_scale, double flops_per_out_tuple = 0) const;

  /// Concatenates two relations with identical schemas (narrow).
  Rel Union(const Rel& other) const;

  /// Writes this relation into the database under `name`, charging the
  /// materialization write.
  void Materialize(const std::string& name) const;

 private:
  Rel(Database* db, std::shared_ptr<Table> t) : db_(db), table_(std::move(t)) {}
  Rel(Database* db, std::shared_ptr<const ColumnBatch> b)
      : db_(db), batch_(std::move(b)) {}

  /// Lazily materializes (and caches) the row form.
  const Table* EnsureTable() const;
  /// Lazily converts (and caches) the columnar form; false when a column
  /// mixes value types (the failure is cached too). Operators run columnar
  /// exactly when this returns true.
  bool EnsureBatch() const;

  /// Row-engine filter body shared by Filter and fallbacks (no charges).
  Rel RowFilter(const std::function<bool(const Tuple&)>& pred) const;

  /// Charges per-tuple CPU across the cluster for `logical` tuples.
  void ChargeTuples(double logical, double per_tuple_s) const;
  /// Charges cluster-wide storage I/O of `bytes` logical bytes.
  void ChargeIo(double bytes) const;
  /// Charges a shuffle of `bytes` logical bytes across the cluster.
  void ChargeShuffle(double bytes) const;

  /// Logical stored bytes of this relation — a function of logical rows
  /// and schema width only, never of the host representation, so charges
  /// match between engines.
  double SelfBytes() const {
    return logical_rows() * db_->TupleBytes(schema().size());
  }

  Database* db_;
  mutable std::shared_ptr<Table> table_;
  mutable std::shared_ptr<const ColumnBatch> batch_;
  mutable bool batch_failed_ = false;
};

}  // namespace mlbench::reldb
