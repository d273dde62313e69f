#include "reldb/rel.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "exec/parallel_for.h"

namespace mlbench::reldb {

namespace {

/// FROZEN grain for GroupBy's row chunking. GroupBy folds per-chunk Acc
/// partials (floating-point sums) in chunk-index order, so its numeric
/// results depend on the chunk structure itself; fault-parity goldens were
/// recorded against 1024-row chunks. Do not switch GroupBy to
/// exec::GrainFor without re-deriving every golden that flows through an
/// aggregate. The other operator loops (filters, projects, join probes)
/// only stitch chunk outputs back in chunk = row order — they are
/// grain-invariant and pick their grain with exec::GrainFor below.
constexpr std::int64_t kRowGrain = 1024;

using Column = ColumnBatch::Column;

/// Gathers the selected rows of `in` (per-chunk selection vectors, already
/// in chunk-index order) into fresh typed columns. Each chunk writes a
/// disjoint output range, so the fill parallelizes freely.
std::vector<Column> GatherColumns(
    const ColumnBatch& in,
    const std::vector<std::vector<std::uint32_t>>& sel) {
  std::vector<std::size_t> offsets(sel.size() + 1, 0);
  for (std::size_t p = 0; p < sel.size(); ++p) {
    offsets[p + 1] = offsets[p] + sel[p].size();
  }
  const std::size_t total = offsets.back();
  std::vector<Column> out;
  out.reserve(in.num_cols());
  for (std::size_t c = 0; c < in.num_cols(); ++c) {
    out.push_back(Column::Sized(in.col(c).type, total));
  }
  exec::ParallelFor(
      static_cast<std::int64_t>(sel.size()), 1, [&](const exec::Chunk& ch) {
        for (std::int64_t p = ch.begin; p < ch.end; ++p) {
          const auto& rows = sel[static_cast<std::size_t>(p)];
          const std::size_t off = offsets[static_cast<std::size_t>(p)];
          for (std::size_t c = 0; c < in.num_cols(); ++c) {
            const Column& src = in.col(c);
            Column& dst = out[c];
            if (src.type == ColType::kInt) {
              for (std::size_t j = 0; j < rows.size(); ++j) {
                dst.ints[off + j] = src.ints[rows[j]];
              }
            } else {
              for (std::size_t j = 0; j < rows.size(); ++j) {
                dst.doubles[off + j] = src.doubles[rows[j]];
              }
            }
          }
        }
      });
  return out;
}

}  // namespace

const Table* Rel::EnsureTable() const {
  if (table_ == nullptr) {
    table_ = std::make_shared<Table>(batch_->ToTable());
  }
  return table_.get();
}

bool Rel::EnsureBatch() const {
  if (batch_ != nullptr) return true;
  if (batch_failed_) return false;
  auto batch = ColumnBatch::FromTable(*table_);
  if (!batch.has_value()) {
    batch_failed_ = true;
    return false;
  }
  batch_ = std::make_shared<const ColumnBatch>(std::move(*batch));
  return true;
}

Rel Rel::Scan(Database& db, const std::string& name) {
  std::shared_ptr<const ColumnBatch> batch = db.GetColumnar(name);
  Rel r = batch != nullptr ? Rel(&db, std::move(batch)) : Rel(&db, db.Get(name));
  if (r.batch_ == nullptr) r.batch_failed_ = true;
  // Map phase reads the stored table from replicated storage.
  r.ChargeIo(r.SelfBytes());
  r.ChargeTuples(r.logical_rows(), db.costs().per_tuple_s);
  return r;
}

Rel Rel::FromTable(Database& db, Table table) {
  return Rel(&db, std::make_shared<Table>(std::move(table)));
}

void Rel::ChargeTuples(double logical, double per_tuple_s) const {
  db_->sim().ChargeParallelCpu(logical * per_tuple_s);
}

void Rel::ChargeIo(double bytes) const {
  // Storage scan/write is disk-bound: each machine streams its share.
  double per_machine = bytes / db_->sim().machines();
  db_->sim().ChargeCpuAllMachines(per_machine *
                                  db_->costs().materialize_byte_s);
}

void Rel::ChargeShuffle(double bytes) const {
  int m = db_->sim().machines();
  double per_machine = bytes / m * (1.0 - 1.0 / m);
  for (int i = 0; i < m; ++i) db_->sim().ChargeNetwork(i, per_machine);
}

Rel Rel::RowFilter(const std::function<bool(const Tuple&)>& pred) const {
  const Table& in = *EnsureTable();
  const auto& rows = in.rows();
  const std::int64_t n = static_cast<std::int64_t>(rows.size());
  const std::int64_t grain = exec::GrainFor(n, exec::CostHint::kNormal);
  exec::ScratchVec<std::vector<Tuple>> parts_lease;
  std::vector<std::vector<Tuple>>& parts = *parts_lease;
  parts.resize(static_cast<std::size_t>(exec::NumChunks(n, grain)));
  for (auto& part : parts) part.clear();
  exec::ParallelFor(n, grain, [&](const exec::Chunk& chunk) {
    auto& out = parts[static_cast<std::size_t>(chunk.index)];
    for (std::int64_t i = chunk.begin; i < chunk.end; ++i) {
      const auto& row = rows[static_cast<std::size_t>(i)];
      if (pred(row)) out.push_back(row);
    }
  });
  Table out(in.schema(), in.scale());
  for (auto& part : parts) {
    for (auto& row : part) out.Append(std::move(row));
  }
  return Rel(db_, std::make_shared<Table>(std::move(out)));
}

Rel Rel::Filter(const std::function<bool(const Tuple&)>& pred) const {
  ChargeTuples(logical_rows(), db_->costs().per_tuple_s);
  if (EnsureBatch()) {
    const ColumnBatch& in = *batch_;
    const std::int64_t n = static_cast<std::int64_t>(in.num_rows());
    const std::int64_t grain = exec::GrainFor(n, exec::CostHint::kNormal);
    exec::ScratchVec<std::vector<std::uint32_t>> sel_lease;
    std::vector<std::vector<std::uint32_t>>& sel = *sel_lease;
    sel.resize(static_cast<std::size_t>(exec::NumChunks(n, grain)));
    for (auto& keep : sel) keep.clear();
    exec::ParallelFor(n, grain, [&](const exec::Chunk& chunk) {
      auto& keep = sel[static_cast<std::size_t>(chunk.index)];
      Tuple scratch;
      for (std::int64_t i = chunk.begin; i < chunk.end; ++i) {
        in.MaterializeRow(static_cast<std::size_t>(i), &scratch);
        if (pred(scratch)) keep.push_back(static_cast<std::uint32_t>(i));
      }
    });
    return Rel(db_, std::make_shared<const ColumnBatch>(
                        in.schema(), GatherColumns(in, sel), in.scale()));
  }
  return RowFilter(pred);
}

Rel Rel::Filter(const ScalarExpr& pred) const {
  ChargeTuples(logical_rows(), db_->costs().per_tuple_s);
  const ExprProgram prog = ExprProgram::Compile(pred);
  if (EnsureBatch()) {
    const ColumnBatch& in = *batch_;
    const std::int64_t n = static_cast<std::int64_t>(in.num_rows());
    const std::int64_t grain = exec::GrainFor(n, exec::CostHint::kNormal);
    exec::ScratchVec<std::vector<std::uint32_t>> sel_lease;
    std::vector<std::vector<std::uint32_t>>& sel = *sel_lease;
    sel.resize(static_cast<std::size_t>(exec::NumChunks(n, grain)));
    for (auto& keep : sel) keep.clear();
    // Batch-fused VM: one dispatch per opcode per chunk, straight off the
    // typed arrays.
    exec::ParallelFor(n, grain, [&](const exec::Chunk& chunk) {
      ExprProgram::Scratch scratch;
      prog.SelectBatch(in, chunk.begin, chunk.end,
                       &sel[static_cast<std::size_t>(chunk.index)], &scratch);
    });
    return Rel(db_, std::make_shared<const ColumnBatch>(
                        in.schema(), GatherColumns(in, sel), in.scale()));
  }
  return RowFilter(
      [&prog](const Tuple& t) { return prog.EvalRowPred(t); });
}

Rel Rel::FilterAll() const {
  // Same charge as a Filter that keeps everything; the output is the
  // input relation, so its representation (either form) is shared zero-copy
  // (operators never mutate their inputs).
  ChargeTuples(logical_rows(), db_->costs().per_tuple_s);
  if (EnsureBatch()) return Rel(db_, batch_);
  EnsureTable();
  return Rel(db_, table_);
}

Rel Rel::FilterIntIn(const std::string& col,
                     const std::vector<std::int64_t>& values) const {
  ChargeTuples(logical_rows(), db_->costs().per_tuple_s);
  const std::size_t c = schema().IndexOf(col);
  if (EnsureBatch() && batch_->col(c).type == ColType::kInt) {
    const ColumnBatch& in = *batch_;
    const std::int64_t n = static_cast<std::int64_t>(in.num_rows());
    const std::int64_t grain = exec::GrainFor(n, exec::CostHint::kNormal);
    exec::ScratchVec<std::vector<std::uint32_t>> sel_lease;
    std::vector<std::vector<std::uint32_t>>& sel = *sel_lease;
    sel.resize(static_cast<std::size_t>(exec::NumChunks(n, grain)));
    for (auto& keep : sel) keep.clear();
    const ExprProgram prog =
        ExprProgram::Compile(ScalarExpr::IntIn(c, values));
    exec::ParallelFor(n, grain, [&](const exec::Chunk& chunk) {
      ExprProgram::Scratch scratch;
      prog.SelectBatch(in, chunk.begin, chunk.end,
                       &sel[static_cast<std::size_t>(chunk.index)], &scratch);
    });
    return Rel(db_, std::make_shared<const ColumnBatch>(
                        in.schema(), GatherColumns(in, sel), in.scale()));
  }
  return RowFilter([c, &values](const Tuple& t) {
    const std::int64_t v = AsInt(t[c]);
    for (std::int64_t want : values) {
      if (v == want) return true;
    }
    return false;
  });
}

Rel Rel::Project(Schema out_schema,
                 const std::function<Tuple(const Tuple&)>& fn) const {
  ChargeTuples(logical_rows(), db_->costs().per_tuple_s);
  if (EnsureBatch()) {
    // Generic projects compute arbitrary tuples, so the output is row-form;
    // rows bridge through a per-chunk scratch tuple without materializing
    // the whole input table. The next operator re-types the output.
    const ColumnBatch& in = *batch_;
    const std::int64_t n = static_cast<std::int64_t>(in.num_rows());
    const std::int64_t grain = exec::GrainFor(n, exec::CostHint::kNormal);
    exec::ScratchVec<std::vector<Tuple>> parts_lease;
    std::vector<std::vector<Tuple>>& parts = *parts_lease;
    parts.resize(static_cast<std::size_t>(exec::NumChunks(n, grain)));
    for (auto& part : parts) part.clear();
    exec::ParallelFor(n, grain, [&](const exec::Chunk& chunk) {
      auto& out = parts[static_cast<std::size_t>(chunk.index)];
      out.reserve(static_cast<std::size_t>(chunk.end - chunk.begin));
      Tuple scratch;
      for (std::int64_t i = chunk.begin; i < chunk.end; ++i) {
        in.MaterializeRow(static_cast<std::size_t>(i), &scratch);
        out.push_back(fn(scratch));
      }
    });
    Table out(std::move(out_schema), in.scale());
    out.Reserve(static_cast<std::size_t>(n));
    for (auto& part : parts) {
      for (auto& row : part) out.Append(std::move(row));
    }
    return Rel(db_, std::make_shared<Table>(std::move(out)));
  }
  const Table& tin = *EnsureTable();
  const auto& rows = tin.rows();
  const std::int64_t n = static_cast<std::int64_t>(rows.size());
  const std::int64_t grain = exec::GrainFor(n, exec::CostHint::kNormal);
  exec::ScratchVec<std::vector<Tuple>> parts_lease;
  std::vector<std::vector<Tuple>>& parts = *parts_lease;
  parts.resize(static_cast<std::size_t>(exec::NumChunks(n, grain)));
  for (auto& part : parts) part.clear();
  exec::ParallelFor(n, grain, [&](const exec::Chunk& chunk) {
    auto& out = parts[static_cast<std::size_t>(chunk.index)];
    out.reserve(static_cast<std::size_t>(chunk.end - chunk.begin));
    for (std::int64_t i = chunk.begin; i < chunk.end; ++i) {
      out.push_back(fn(rows[static_cast<std::size_t>(i)]));
    }
  });
  Table out(std::move(out_schema), tin.scale());
  for (auto& part : parts) {
    for (auto& row : part) out.Append(std::move(row));
  }
  return Rel(db_, std::make_shared<Table>(std::move(out)));
}

Rel Rel::Project(Schema out_schema, const std::vector<ColExpr>& exprs) const {
  ChargeTuples(logical_rows(), db_->costs().per_tuple_s);
  if (EnsureBatch()) {
    const ColumnBatch& in = *batch_;
    const std::size_t n = in.num_rows();
    std::vector<std::shared_ptr<const Column>> out_cols(exprs.size());
    std::vector<std::size_t> fn_slots;
    for (std::size_t e = 0; e < exprs.size(); ++e) {
      if (exprs[e].src >= 0) {
        out_cols[e] = in.col_ptr(static_cast<std::size_t>(exprs[e].src));
      } else if (exprs[e].is_const) {
        const Value& v = exprs[e].constant;
        Column c = std::holds_alternative<std::int64_t>(v)
                       ? Column::Ints(std::vector<std::int64_t>(
                             n, std::get<std::int64_t>(v)))
                       : Column::Doubles(
                             std::vector<double>(n, std::get<double>(v)));
        out_cols[e] = std::make_shared<const Column>(std::move(c));
      } else {
        fn_slots.push_back(e);
      }
    }
    if (!fn_slots.empty()) {
      std::vector<std::vector<double>> computed(fn_slots.size(),
                                                std::vector<double>(n));
      // Compiled slots run batch-fused through the VM; opaque lambda slots
      // share one materialized scratch Tuple per row.
      std::vector<std::size_t> row_slots;
      for (std::size_t s = 0; s < fn_slots.size(); ++s) {
        if (exprs[fn_slots[s]].prog == nullptr) row_slots.push_back(s);
      }
      exec::ParallelFor(
          static_cast<std::int64_t>(n),
          exec::GrainFor(static_cast<std::int64_t>(n),
                         exec::CostHint::kNormal),
          [&](const exec::Chunk& chunk) {
            ExprProgram::Scratch scratch;
            for (std::size_t s = 0; s < fn_slots.size(); ++s) {
              const ColExpr& e = exprs[fn_slots[s]];
              if (e.prog != nullptr) {
                e.prog->EvalBatch(
                    in, chunk.begin, chunk.end,
                    computed[s].data() + static_cast<std::size_t>(chunk.begin),
                    &scratch);
              }
            }
            if (!row_slots.empty()) {
              Tuple row;
              for (std::int64_t i = chunk.begin; i < chunk.end; ++i) {
                in.MaterializeRow(static_cast<std::size_t>(i), &row);
                for (std::size_t s : row_slots) {
                  computed[s][static_cast<std::size_t>(i)] =
                      exprs[fn_slots[s]].fn(row);
                }
              }
            }
          });
      for (std::size_t s = 0; s < fn_slots.size(); ++s) {
        out_cols[fn_slots[s]] = std::make_shared<const Column>(
            Column::Doubles(std::move(computed[s])));
      }
    }
    return Rel(db_, std::make_shared<const ColumnBatch>(
                        std::move(out_schema), std::move(out_cols),
                        in.scale()));
  }
  const Table& tin = *EnsureTable();
  const auto& rows = tin.rows();
  const std::int64_t n = static_cast<std::int64_t>(rows.size());
  const std::int64_t grain = exec::GrainFor(n, exec::CostHint::kNormal);
  exec::ScratchVec<std::vector<Tuple>> parts_lease;
  std::vector<std::vector<Tuple>>& parts = *parts_lease;
  parts.resize(static_cast<std::size_t>(exec::NumChunks(n, grain)));
  for (auto& part : parts) part.clear();
  exec::ParallelFor(n, grain, [&](const exec::Chunk& chunk) {
    auto& out = parts[static_cast<std::size_t>(chunk.index)];
    out.reserve(static_cast<std::size_t>(chunk.end - chunk.begin));
    for (std::int64_t i = chunk.begin; i < chunk.end; ++i) {
      const Tuple& row = rows[static_cast<std::size_t>(i)];
      Tuple out_row;
      out_row.reserve(exprs.size());
      for (const auto& e : exprs) {
        if (e.src >= 0) {
          out_row.push_back(row[static_cast<std::size_t>(e.src)]);
        } else if (e.is_const) {
          out_row.push_back(e.constant);
        } else if (e.prog != nullptr) {
          out_row.emplace_back(e.prog->EvalRow(row));
        } else {
          out_row.emplace_back(e.fn(row));
        }
      }
      out.push_back(std::move(out_row));
    }
  });
  Table out(std::move(out_schema), tin.scale());
  out.Reserve(static_cast<std::size_t>(n));
  for (auto& part : parts) {
    for (auto& row : part) out.Append(std::move(row));
  }
  return Rel(db_, std::make_shared<Table>(std::move(out)));
}

Rel Rel::Renamed(Schema out_schema) const {
  ChargeTuples(logical_rows(), db_->costs().per_tuple_s);
  if (EnsureBatch()) {
    return Rel(db_, std::make_shared<const ColumnBatch>(batch_->WithSchema(
                        std::move(out_schema), batch_->scale())));
  }
  const Table& tin = *EnsureTable();
  Table out(std::move(out_schema), tin.scale());
  out.rows() = tin.rows();
  return Rel(db_, std::make_shared<Table>(std::move(out)));
}

Rel Rel::HashJoin(const Rel& right, const std::vector<std::string>& left_keys,
                  const std::vector<std::string>& right_keys, double out_scale,
                  bool co_partitioned) const {
  if (!co_partitioned) {
    // Wide operator: one more MR job; both inputs shuffle by key and the
    // output is materialized for the next job.
    db_->ChargeExtraJob();
    ChargeShuffle(SelfBytes() + right.SelfBytes());
  }
  ChargeTuples(logical_rows() + right.logical_rows(),
               db_->costs().join_tuple_s);

  auto lidx = ResolveAll(schema(), left_keys);
  auto ridx = ResolveAll(right.schema(), right_keys);
  MLBENCH_CHECK(lidx.size() == ridx.size());

  // Output schema: all left columns, then right's non-key columns.
  std::vector<std::string> out_cols = schema().columns();
  std::vector<std::size_t> right_keep;
  for (std::size_t c = 0; c < right.schema().size(); ++c) {
    if (std::find(ridx.begin(), ridx.end(), c) == ridx.end()) {
      right_keep.push_back(c);
      out_cols.push_back(right.schema().name(c));
    }
  }
  Schema out_schema(std::move(out_cols));

  const bool packed = EnsureBatch() && right.EnsureBatch() &&
                      CanPackKeys(*batch_, lidx) &&
                      CanPackKeys(*right.batch_, ridx);
  Rel result(db_, std::shared_ptr<Table>(nullptr));
  if (packed) {
    const ColumnBatch& lb = *batch_;
    const ColumnBatch& rb = *right.batch_;
    // Build over the left in scan order: match lists keep left insertion
    // order, exactly like the row engine's pointer lists.
    std::unordered_map<PackedKey, std::vector<std::uint32_t>, PackedKeyHash>
        build;
    build.reserve(lb.num_rows());
    for (std::size_t r = 0; r < lb.num_rows(); ++r) {
      build[PackRowKey(lb, lidx, r)].push_back(static_cast<std::uint32_t>(r));
    }
    struct Pair {
      std::uint32_t l, r;
    };
    const std::int64_t n = static_cast<std::int64_t>(rb.num_rows());
    const std::int64_t grain = exec::GrainFor(n, exec::CostHint::kNormal);
    exec::ScratchVec<std::vector<Pair>> parts_lease;
    std::vector<std::vector<Pair>>& parts = *parts_lease;
    parts.resize(static_cast<std::size_t>(exec::NumChunks(n, grain)));
    for (auto& part : parts) part.clear();
    exec::ParallelFor(n, grain, [&](const exec::Chunk& chunk) {
      auto& local = parts[static_cast<std::size_t>(chunk.index)];
      for (std::int64_t i = chunk.begin; i < chunk.end; ++i) {
        auto it = build.find(PackRowKey(rb, ridx, static_cast<std::size_t>(i)));
        if (it == build.end()) continue;
        for (std::uint32_t l : it->second) {
          local.push_back(Pair{l, static_cast<std::uint32_t>(i)});
        }
      }
    });
    std::vector<std::size_t> offsets(parts.size() + 1, 0);
    for (std::size_t p = 0; p < parts.size(); ++p) {
      offsets[p + 1] = offsets[p] + parts[p].size();
    }
    const std::size_t total = offsets.back();
    std::vector<Column> cols;
    cols.reserve(lb.num_cols() + right_keep.size());
    for (std::size_t c = 0; c < lb.num_cols(); ++c) {
      cols.push_back(Column::Sized(lb.col(c).type, total));
    }
    for (std::size_t c : right_keep) {
      cols.push_back(Column::Sized(rb.col(c).type, total));
    }
    exec::ParallelFor(
        static_cast<std::int64_t>(parts.size()), 1,
        [&](const exec::Chunk& ch) {
          for (std::int64_t p = ch.begin; p < ch.end; ++p) {
            const auto& local = parts[static_cast<std::size_t>(p)];
            const std::size_t off = offsets[static_cast<std::size_t>(p)];
            for (std::size_t c = 0; c < lb.num_cols(); ++c) {
              const Column& src = lb.col(c);
              Column& dst = cols[c];
              if (src.type == ColType::kInt) {
                for (std::size_t j = 0; j < local.size(); ++j) {
                  dst.ints[off + j] = src.ints[local[j].l];
                }
              } else {
                for (std::size_t j = 0; j < local.size(); ++j) {
                  dst.doubles[off + j] = src.doubles[local[j].l];
                }
              }
            }
            for (std::size_t k = 0; k < right_keep.size(); ++k) {
              const Column& src = rb.col(right_keep[k]);
              Column& dst = cols[lb.num_cols() + k];
              if (src.type == ColType::kInt) {
                for (std::size_t j = 0; j < local.size(); ++j) {
                  dst.ints[off + j] = src.ints[local[j].r];
                }
              } else {
                for (std::size_t j = 0; j < local.size(); ++j) {
                  dst.doubles[off + j] = src.doubles[local[j].r];
                }
              }
            }
          }
        });
    result = Rel(db_, std::make_shared<const ColumnBatch>(
                          std::move(out_schema), std::move(cols), out_scale));
  } else {
    Table out(std::move(out_schema), out_scale);
    std::unordered_map<Tuple, std::vector<const Tuple*>, TupleHash, TupleEq>
        build;
    for (const auto& row : EnsureTable()->rows()) {
      build[KeyOf(row, lidx)].push_back(&row);
    }
    // Probe side fans out across the host pool: the build map is read-only
    // here, and per-chunk outputs concatenate in chunk order, matching the
    // serial probe's row order exactly.
    const auto& rrows = right.table().rows();
    const std::int64_t n = static_cast<std::int64_t>(rrows.size());
    const std::int64_t grain = exec::GrainFor(n, exec::CostHint::kNormal);
    exec::ScratchVec<std::vector<Tuple>> parts_lease;
    std::vector<std::vector<Tuple>>& parts = *parts_lease;
    parts.resize(static_cast<std::size_t>(exec::NumChunks(n, grain)));
    for (auto& part : parts) part.clear();
    exec::ParallelFor(n, grain, [&](const exec::Chunk& chunk) {
      auto& local = parts[static_cast<std::size_t>(chunk.index)];
      for (std::int64_t i = chunk.begin; i < chunk.end; ++i) {
        const auto& rrow = rrows[static_cast<std::size_t>(i)];
        auto it = build.find(KeyOf(rrow, ridx));
        if (it == build.end()) continue;
        for (const Tuple* lrow : it->second) {
          Tuple joined = *lrow;
          for (std::size_t c : right_keep) joined.push_back(rrow[c]);
          local.push_back(std::move(joined));
        }
      }
    });
    for (auto& part : parts) {
      for (auto& row : part) out.Append(std::move(row));
    }
    result = Rel(db_, std::make_shared<Table>(std::move(out)));
  }
  if (!co_partitioned) {
    result.ChargeIo(result.SelfBytes() * 2.0);  // write+read
  }
  return result;
}

Rel Rel::GroupBy(const std::vector<std::string>& keys,
                 const std::vector<Agg>& aggs, double out_scale) const {
  db_->ChargeExtraJob();
  ChargeTuples(logical_rows(), db_->costs().group_by_tuple_s);

  auto kidx = ResolveAll(schema(), keys);
  std::vector<std::size_t> aidx;
  for (const auto& a : aggs) {
    aidx.push_back(a.op == AggOp::kCount ? 0 : schema().IndexOf(a.col));
  }
  const std::size_t naggs = aggs.size();

  struct Acc {
    double sum = 0;
    double count = 0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };

  std::vector<std::string> out_cols = keys;
  for (const auto& a : aggs) out_cols.push_back(a.out_name);
  Schema out_schema(std::move(out_cols));

  // Each chunk aggregates its row range into a private map (recording key
  // first-occurrence order); chunk partials then fold in chunk-index
  // order. The chunking is a pure function of the row count, so both the
  // accumulators and the output's key order are identical at any thread
  // count — and identical between the packed and row paths, because chunks
  // are contiguous row ranges in both.
  if (EnsureBatch() && CanPackKeys(*batch_, kidx)) {
    const ColumnBatch& in = *batch_;
    struct ChunkGroups {
      std::unordered_map<PackedKey, std::uint32_t, PackedKeyHash> slots;
      std::vector<PackedKey> order;
      std::vector<Acc> accs;  // slot-major: accs[slot * naggs + a]
    };
    const std::int64_t n = static_cast<std::int64_t>(in.num_rows());
    std::vector<ChunkGroups> parts(
        static_cast<std::size_t>(exec::NumChunks(n, kRowGrain)));
    exec::ParallelFor(n, kRowGrain, [&](const exec::Chunk& chunk) {
      auto& local = parts[static_cast<std::size_t>(chunk.index)];
      for (std::int64_t i = chunk.begin; i < chunk.end; ++i) {
        const std::size_t r = static_cast<std::size_t>(i);
        PackedKey key = PackRowKey(in, kidx, r);
        auto [it, inserted] = local.slots.try_emplace(
            key, static_cast<std::uint32_t>(local.order.size()));
        if (inserted) {
          local.order.push_back(key);
          local.accs.resize(local.accs.size() + naggs);
        }
        Acc* accs = &local.accs[it->second * naggs];
        for (std::size_t a = 0; a < naggs; ++a) {
          double v = aggs[a].op == AggOp::kCount
                         ? 1.0
                         : in.col(aidx[a]).AsDoubleAt(r);
          accs[a].sum += v;
          accs[a].count += 1;
          accs[a].min = std::min(accs[a].min, v);
          accs[a].max = std::max(accs[a].max, v);
        }
      }
    });
    std::unordered_map<PackedKey, std::uint32_t, PackedKeyHash> slots;
    std::vector<PackedKey> order;
    std::vector<Acc> accs;
    for (auto& part : parts) {
      for (std::size_t g = 0; g < part.order.size(); ++g) {
        const PackedKey& key = part.order[g];
        const Acc* src = &part.accs[part.slots[key] * naggs];
        auto [it, inserted] =
            slots.try_emplace(key, static_cast<std::uint32_t>(order.size()));
        if (inserted) {
          order.push_back(key);
          accs.insert(accs.end(), src, src + naggs);
        } else {
          Acc* dst = &accs[it->second * naggs];
          for (std::size_t a = 0; a < naggs; ++a) {
            dst[a].sum += src[a].sum;
            dst[a].count += src[a].count;
            dst[a].min = std::min(dst[a].min, src[a].min);
            dst[a].max = std::max(dst[a].max, src[a].max);
          }
        }
      }
    }
    const std::size_t ngroups = order.size();
    std::vector<Column> cols;
    cols.reserve(kidx.size() + naggs);
    for (std::size_t k = 0; k < kidx.size(); ++k) {
      std::vector<std::int64_t> kv(ngroups);
      for (std::size_t g = 0; g < ngroups; ++g) kv[g] = order[g].v[k];
      cols.push_back(Column::Ints(std::move(kv)));
    }
    for (std::size_t a = 0; a < naggs; ++a) {
      std::vector<double> av(ngroups);
      for (std::size_t g = 0; g < ngroups; ++g) {
        const Acc& acc = accs[g * naggs + a];
        switch (aggs[a].op) {
          case AggOp::kSum:
            av[g] = acc.sum;
            break;
          case AggOp::kCount:
            // Counts are logical: each actual row stands for `scale` rows.
            av[g] = acc.count * in.scale();
            break;
          case AggOp::kAvg:
            av[g] = acc.sum / acc.count;
            break;
          case AggOp::kMin:
            av[g] = acc.min;
            break;
          case AggOp::kMax:
            av[g] = acc.max;
            break;
        }
      }
      cols.push_back(Column::Doubles(std::move(av)));
    }
    Rel result(db_, std::make_shared<const ColumnBatch>(
                        std::move(out_schema), std::move(cols), out_scale));
    double combined_bytes =
        std::min(SelfBytes(), result.logical_rows() * db_->sim().machines() *
                                  db_->TupleBytes(result.schema().size()));
    ChargeShuffle(combined_bytes);
    result.ChargeIo(result.SelfBytes() * 2.0);
    return result;
  }

  struct ChunkGroups {
    std::unordered_map<Tuple, std::vector<Acc>, TupleHash, TupleEq> groups;
    std::vector<Tuple> order;
  };
  const Table& tin = *EnsureTable();
  const auto& rows = tin.rows();
  const std::int64_t n = static_cast<std::int64_t>(rows.size());
  std::vector<ChunkGroups> parts(
      static_cast<std::size_t>(exec::NumChunks(n, kRowGrain)));
  exec::ParallelFor(n, kRowGrain, [&](const exec::Chunk& chunk) {
    auto& local = parts[static_cast<std::size_t>(chunk.index)];
    for (std::int64_t i = chunk.begin; i < chunk.end; ++i) {
      const auto& row = rows[static_cast<std::size_t>(i)];
      Tuple key = KeyOf(row, kidx);
      auto& accs = local.groups[key];
      if (accs.empty()) {
        accs.resize(aggs.size());
        local.order.push_back(std::move(key));
      }
      for (std::size_t a = 0; a < aggs.size(); ++a) {
        double v = aggs[a].op == AggOp::kCount ? 1.0 : AsDouble(row[aidx[a]]);
        accs[a].sum += v;
        accs[a].count += 1;
        accs[a].min = std::min(accs[a].min, v);
        accs[a].max = std::max(accs[a].max, v);
      }
    }
  });
  std::unordered_map<Tuple, std::vector<Acc>, TupleHash, TupleEq> groups;
  std::vector<Tuple> group_order;
  for (auto& part : parts) {
    for (auto& key : part.order) {
      auto& accs = part.groups[key];
      auto it = groups.find(key);
      if (it == groups.end()) {
        group_order.push_back(key);
        groups.emplace(std::move(key), std::move(accs));
      } else {
        for (std::size_t a = 0; a < aggs.size(); ++a) {
          it->second[a].sum += accs[a].sum;
          it->second[a].count += accs[a].count;
          it->second[a].min = std::min(it->second[a].min, accs[a].min);
          it->second[a].max = std::max(it->second[a].max, accs[a].max);
        }
      }
    }
  }

  Table out(std::move(out_schema), out_scale);
  out.Reserve(group_order.size());
  for (auto& key : group_order) {
    auto& accs = groups.find(key)->second;
    // The order list owns its copy of the key, so the output row can take
    // over its storage instead of deep-copying the Tuple.
    Tuple row = std::move(key);
    for (std::size_t a = 0; a < aggs.size(); ++a) {
      switch (aggs[a].op) {
        case AggOp::kSum:
          row.emplace_back(accs[a].sum);
          break;
        case AggOp::kCount:
          // Counts are logical: each actual row stands for `scale` rows.
          row.emplace_back(accs[a].count * tin.scale());
          break;
        case AggOp::kAvg:
          row.emplace_back(accs[a].sum / accs[a].count);
          break;
        case AggOp::kMin:
          row.emplace_back(accs[a].min);
          break;
        case AggOp::kMax:
          row.emplace_back(accs[a].max);
          break;
      }
    }
    out.Append(std::move(row));
  }
  Rel result(db_, std::make_shared<Table>(std::move(out)));
  // Shuffle the map-side-combined groups, then write the aggregate.
  double combined_bytes =
      std::min(SelfBytes(), result.logical_rows() * db_->sim().machines() *
                                db_->TupleBytes(result.schema().size()));
  ChargeShuffle(combined_bytes);
  result.ChargeIo(result.SelfBytes() * 2.0);
  return result;
}

Rel Rel::VgApply(VgFunction& vg, const std::vector<std::string>& group_cols,
                 double out_scale, double flops_per_out_tuple) const {
  // Stays serial: VG functions draw from the database's shared RNG stream,
  // whose consumption order is part of the deterministic contract.
  auto gidx = ResolveAll(schema(), group_cols);
  vg.BindSchema(schema());

  Table out(vg.output_schema(), out_scale);
  std::shared_ptr<const ColumnBatch> out_batch;
  if (EnsureBatch() && CanPackKeys(*batch_, gidx)) {
    const ColumnBatch& in = *batch_;
    // Columnar VG dispatch: every invocation group must be one contiguous
    // column span, groups in first-seen order, rows in original order, so
    // the function consumes the shared RNG exactly as the row path's
    // per-group loop below does. Inputs produced group-major (member
    // lists, doc-major word tables, an empty key over the whole input)
    // already satisfy that: one adjacent-key scan verifies it — one hash
    // insert per *group* rejects keys that reappear in a later run — and
    // the spans then alias the input columns outright. Otherwise
    // group-sort into fresh columns with the same first-seen grouping.
    const std::size_t n_rows = in.num_rows();
    std::vector<std::uint32_t> group_offsets{0};
    bool pre_grouped = true;
    {
      std::unordered_set<PackedKey, PackedKeyHash> seen;
      PackedKey prev{};
      for (std::size_t r = 0; r < n_rows; ++r) {
        PackedKey key = PackRowKey(in, gidx, r);
        if (r == 0 || !(key == prev)) {
          if (!seen.insert(key).second) {
            pre_grouped = false;
            break;
          }
          if (r != 0) group_offsets.push_back(static_cast<std::uint32_t>(r));
          prev = key;
        }
      }
    }
    ColumnBatch grouped;
    if (pre_grouped) {
      if (n_rows > 0) {
        group_offsets.push_back(static_cast<std::uint32_t>(n_rows));
      }
      std::vector<std::shared_ptr<const Column>> cols;
      cols.reserve(in.num_cols());
      for (std::size_t c = 0; c < in.num_cols(); ++c) {
        cols.push_back(in.col_ptr(c));
      }
      grouped = ColumnBatch(in.schema(), std::move(cols), in.scale());
    } else {
      std::unordered_map<PackedKey, std::uint32_t, PackedKeyHash> slots;
      std::vector<std::vector<std::uint32_t>> group_rows;
      for (std::size_t r = 0; r < n_rows; ++r) {
        auto [it, inserted] = slots.try_emplace(
            PackRowKey(in, gidx, r),
            static_cast<std::uint32_t>(group_rows.size()));
        if (inserted) group_rows.emplace_back();
        group_rows[it->second].push_back(static_cast<std::uint32_t>(r));
      }
      group_offsets.assign(group_rows.size() + 1, 0);
      for (std::size_t g = 0; g < group_rows.size(); ++g) {
        group_offsets[g + 1] =
            group_offsets[g] +
            static_cast<std::uint32_t>(group_rows[g].size());
      }
      grouped = ColumnBatch(in.schema(), GatherColumns(in, group_rows),
                            in.scale());
    }
    const std::size_t n_groups = group_offsets.size() - 1;
    const std::size_t hint =
        n_groups == 0 ? 0 : n_groups * vg.OutRowsHint(n_rows / n_groups);
    VgBatchOut vout;
    vout.rows.reserve(hint);
    vg.SampleBatch(grouped, group_offsets, db_->rng(), &vout);
    if (vout.columnar) {
      out_batch = std::make_shared<const ColumnBatch>(
          vg.output_schema(), std::move(vout.cols), out_scale);
    } else {
      // Fallback default went through Sample: adopt its rows wholesale.
      out.rows() = std::move(vout.rows);
    }
  } else {
    // Partition parameter rows into invocation groups (stable order).
    const Table& tin = *EnsureTable();
    std::unordered_map<Tuple, std::vector<Tuple>, TupleHash, TupleEq> groups;
    std::vector<Tuple> group_order;
    for (const auto& row : tin.rows()) {
      Tuple key = KeyOf(row, gidx);
      auto it = groups.find(key);
      if (it == groups.end()) {
        group_order.push_back(key);
        groups.emplace(std::move(key), std::vector<Tuple>{row});
      } else {
        it->second.push_back(row);
      }
    }
    out.Reserve(group_order.empty()
                    ? 0
                    : group_order.size() *
                          vg.OutRowsHint(tin.rows().size() /
                                         group_order.size()));
    for (const auto& key : group_order) {
      vg.Sample(groups[key], schema(), db_->rng(), &out.rows());
    }
  }
  // Parameter tuples in, sampled tuples out — each crosses the Java/C++
  // VG boundary; the function body itself runs at C++ speed. actual_rows
  // and out_scale are representation-independent, so the charges are the
  // same doubles whichever form the function emitted.
  const std::size_t actual_out =
      out_batch != nullptr ? out_batch->num_rows() : out.actual_rows();
  ChargeTuples(logical_rows(), db_->costs().vg_tuple_s);
  double logical_out = static_cast<double>(actual_out) * out_scale;
  ChargeTuples(logical_out, db_->costs().vg_tuple_s);
  db_->sim().ChargeParallelCpu(logical_out * flops_per_out_tuple *
                               sim::CppModel().flop_s);
  if (out_batch != nullptr) return Rel(db_, std::move(out_batch));
  return Rel(db_, std::make_shared<Table>(std::move(out)));
}

Rel Rel::Union(const Rel& other) const {
  MLBENCH_CHECK(schema().size() == other.schema().size());
  if (EnsureBatch() && other.EnsureBatch()) {
    const ColumnBatch& a = *batch_;
    const ColumnBatch& b = *other.batch_;
    if (b.num_rows() == 0) return Rel(db_, batch_);
    if (a.num_rows() == 0) {
      // Adopt the right side's columns under the left schema and scale
      // (Union keeps the left's, like the row engine).
      return Rel(db_, std::make_shared<const ColumnBatch>(
                          b.WithSchema(a.schema(), a.scale())));
    }
    bool types_match = true;
    for (std::size_t c = 0; c < a.num_cols(); ++c) {
      if (a.col(c).type != b.col(c).type) {
        types_match = false;
        break;
      }
    }
    if (types_match) {
      std::vector<Column> cols;
      cols.reserve(a.num_cols());
      for (std::size_t c = 0; c < a.num_cols(); ++c) {
        const Column& ca = a.col(c);
        const Column& cb = b.col(c);
        Column nc;
        nc.type = ca.type;
        if (ca.type == ColType::kInt) {
          nc.ints = ca.ints;
          nc.ints.insert(nc.ints.end(), cb.ints.begin(), cb.ints.end());
        } else {
          nc.doubles = ca.doubles;
          nc.doubles.insert(nc.doubles.end(), cb.doubles.begin(),
                            cb.doubles.end());
        }
        cols.push_back(std::move(nc));
      }
      return Rel(db_, std::make_shared<const ColumnBatch>(
                          a.schema(), std::move(cols), a.scale()));
    }
  }
  const Table& tin = *EnsureTable();
  Table out(tin.schema(), tin.scale());
  out.rows() = tin.rows();
  for (const auto& row : other.table().rows()) out.Append(row);
  return Rel(db_, std::make_shared<Table>(std::move(out)));
}

void Rel::Materialize(const std::string& name) const {
  ChargeIo(SelfBytes());
  ChargeTuples(logical_rows(), db_->costs().per_tuple_s);
  if (EnsureBatch()) {
    db_->PutBatch(name, batch_, table_);
  } else {
    db_->Put(name, *table_);
  }
}

}  // namespace mlbench::reldb
