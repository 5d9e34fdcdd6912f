#include "obs/bench_report.h"

#include <cstddef>

namespace sjoin::obs {

namespace {

void AppendIndent(std::string& out, int n) { out.append(static_cast<std::size_t>(n), ' '); }

void AppendKey(std::string& out, int indent, std::string_view key) {
  AppendIndent(out, indent);
  AppendJsonString(out, key);
  out += ": ";
}

void AppendCell(std::string& out, const BenchCell& c) {
  if (c.is_text) {
    AppendJsonString(out, c.text);
  } else {
    out += JsonNumber(c.number);
  }
}

void WriteReport(std::string& out, const BenchReport& r, int indent) {
  const int in1 = indent + 2;
  AppendIndent(out, indent);
  out += "{\n";
  AppendKey(out, in1, "schema");
  AppendJsonString(out, kBenchReportSchema);
  out += ",\n";
  AppendKey(out, in1, "schema_version");
  out += std::to_string(kBenchSchemaVersion);
  out += ",\n";
  AppendKey(out, in1, "bench_id");
  AppendJsonString(out, r.bench_id);
  out += ",\n";
  AppendKey(out, in1, "figure");
  AppendJsonString(out, r.figure);
  out += ",\n";
  AppendKey(out, in1, "title");
  AppendJsonString(out, r.title);
  out += ",\n";
  AppendKey(out, in1, "paper_shape");
  AppendJsonString(out, r.paper_shape);
  out += ",\n";
  AppendKey(out, in1, "mode");
  AppendJsonString(out, r.mode);
  out += ",\n";
  AppendKey(out, in1, "deterministic");
  out += r.deterministic ? "true" : "false";
  out += ",\n";
  AppendKey(out, in1, "warmup_s");
  out += JsonNumber(r.warmup_s);
  out += ",\n";
  AppendKey(out, in1, "measure_s");
  out += JsonNumber(r.measure_s);
  out += ",\n";
  AppendKey(out, in1, "config");
  AppendJsonString(out, r.config);
  out += ",\n";
  AppendKey(out, in1, "columns");
  out += "[";
  for (std::size_t i = 0; i < r.columns.size(); ++i) {
    if (i != 0) out += ", ";
    AppendJsonString(out, r.columns[i]);
  }
  out += "],\n";
  AppendKey(out, in1, "rows");
  if (r.rows.empty()) {
    out += "[],\n";
  } else {
    out += "[\n";
    for (std::size_t i = 0; i < r.rows.size(); ++i) {
      AppendIndent(out, in1 + 2);
      out += "[";
      for (std::size_t j = 0; j < r.rows[i].size(); ++j) {
        if (j != 0) out += ", ";
        AppendCell(out, r.rows[i][j]);
      }
      out += i + 1 < r.rows.size() ? "],\n" : "]\n";
    }
    AppendIndent(out, in1);
    out += "],\n";
  }
  AppendKey(out, in1, "counters");
  if (r.counters.empty()) {
    out += "{},\n";
  } else {
    out += "{\n";
    for (std::size_t i = 0; i < r.counters.size(); ++i) {
      AppendIndent(out, in1 + 2);
      AppendJsonString(out, r.counters[i].first);
      out += ": ";
      out += std::to_string(r.counters[i].second);
      out += i + 1 < r.counters.size() ? ",\n" : "\n";
    }
    AppendIndent(out, in1);
    out += "},\n";
  }
  AppendKey(out, in1, "wall_stages");
  if (r.wall_stages.empty()) {
    out += "[]\n";
  } else {
    out += "[\n";
    for (std::size_t i = 0; i < r.wall_stages.size(); ++i) {
      const WallStageSummary& s = r.wall_stages[i];
      AppendIndent(out, in1 + 2);
      out += "{\"stage\": ";
      AppendJsonString(out, s.stage);
      out += ", \"count\": ";
      out += std::to_string(s.count);
      out += ", \"p50_us\": ";
      out += JsonNumber(s.p50_us);
      out += ", \"p95_us\": ";
      out += JsonNumber(s.p95_us);
      out += i + 1 < r.wall_stages.size() ? "},\n" : "}\n";
    }
    AppendIndent(out, in1);
    out += "]\n";
  }
  AppendIndent(out, indent);
  out += "}";
}

bool Fail(std::string* err, const std::string& what) {
  if (err != nullptr && err->empty()) *err = what;
  return false;
}

const JsonValue* Need(const JsonValue& v, std::string_view key,
                      JsonValue::Kind kind, std::string* err,
                      const std::string& ctx) {
  const JsonValue* f = v.Find(key);
  if (f == nullptr) {
    Fail(err, ctx + ": missing field \"" + std::string(key) + "\"");
    return nullptr;
  }
  if (f->kind != kind) {
    Fail(err, ctx + ": field \"" + std::string(key) + "\" has wrong type");
    return nullptr;
  }
  return f;
}

}  // namespace

std::string BenchReport::ToJson() const {
  std::string out;
  WriteReport(out, *this, 0);
  out += "\n";
  return out;
}

bool BenchReportFromJson(const JsonValue& v, BenchReport* out,
                         std::string* err) {
  *out = BenchReport{};
  if (!v.IsObject()) return Fail(err, "report: not a JSON object");
  std::string ctx = "report";
  const JsonValue* id = Need(v, "bench_id", JsonValue::Kind::kString, err, ctx);
  if (id == nullptr) return false;
  out->bench_id = id->str;
  ctx = "report " + out->bench_id;
  if (out->bench_id.empty()) return Fail(err, ctx + ": empty bench_id");

  const JsonValue* schema = Need(v, "schema", JsonValue::Kind::kString, err, ctx);
  if (schema == nullptr) return false;
  if (schema->str != kBenchReportSchema) {
    return Fail(err, ctx + ": schema is \"" + schema->str + "\", expected \"" +
                         std::string(kBenchReportSchema) + "\"");
  }
  const JsonValue* ver =
      Need(v, "schema_version", JsonValue::Kind::kNumber, err, ctx);
  if (ver == nullptr) return false;
  if (ver->number != kBenchSchemaVersion) {
    return Fail(err, ctx + ": unsupported schema_version " +
                         JsonNumber(ver->number));
  }

  const JsonValue* f;
  if ((f = Need(v, "figure", JsonValue::Kind::kString, err, ctx)) == nullptr)
    return false;
  out->figure = f->str;
  if ((f = Need(v, "title", JsonValue::Kind::kString, err, ctx)) == nullptr)
    return false;
  out->title = f->str;
  if ((f = Need(v, "paper_shape", JsonValue::Kind::kString, err, ctx)) ==
      nullptr)
    return false;
  out->paper_shape = f->str;
  if ((f = Need(v, "mode", JsonValue::Kind::kString, err, ctx)) == nullptr)
    return false;
  out->mode = f->str;
  if (out->mode != "quick" && out->mode != "full") {
    return Fail(err, ctx + ": mode must be \"quick\" or \"full\", got \"" +
                         out->mode + "\"");
  }
  if ((f = Need(v, "deterministic", JsonValue::Kind::kBool, err, ctx)) ==
      nullptr)
    return false;
  out->deterministic = f->boolean;
  if ((f = Need(v, "warmup_s", JsonValue::Kind::kNumber, err, ctx)) == nullptr)
    return false;
  out->warmup_s = f->number;
  if ((f = Need(v, "measure_s", JsonValue::Kind::kNumber, err, ctx)) == nullptr)
    return false;
  out->measure_s = f->number;
  if ((f = Need(v, "config", JsonValue::Kind::kString, err, ctx)) == nullptr)
    return false;
  out->config = f->str;

  const JsonValue* cols =
      Need(v, "columns", JsonValue::Kind::kArray, err, ctx);
  if (cols == nullptr) return false;
  if (cols->array.empty()) return Fail(err, ctx + ": empty columns");
  for (const JsonValue& c : cols->array) {
    if (!c.IsString()) return Fail(err, ctx + ": non-string column name");
    out->columns.push_back(c.str);
  }

  const JsonValue* rows = Need(v, "rows", JsonValue::Kind::kArray, err, ctx);
  if (rows == nullptr) return false;
  for (std::size_t i = 0; i < rows->array.size(); ++i) {
    const JsonValue& row = rows->array[i];
    if (!row.IsArray()) {
      return Fail(err, ctx + ": row " + std::to_string(i) + " is not an array");
    }
    if (row.array.size() != out->columns.size()) {
      return Fail(err, ctx + ": row " + std::to_string(i) + " has " +
                       std::to_string(row.array.size()) + " cells, expected " +
                       std::to_string(out->columns.size()));
    }
    std::vector<BenchCell> cells;
    for (const JsonValue& c : row.array) {
      if (c.IsNumber()) {
        cells.push_back(BenchCell::Num(c.number));
      } else if (c.IsString()) {
        cells.push_back(BenchCell::Text(c.str));
      } else {
        return Fail(err, ctx + ": row " + std::to_string(i) +
                         " has a cell that is neither number nor string");
      }
    }
    out->rows.push_back(std::move(cells));
  }

  const JsonValue* counters =
      Need(v, "counters", JsonValue::Kind::kObject, err, ctx);
  if (counters == nullptr) return false;
  for (const auto& [k, cv] : counters->object) {
    if (!cv.IsNumber() || cv.number < 0) {
      return Fail(err, ctx + ": counter \"" + k + "\" is not a non-negative number");
    }
    out->counters.emplace_back(k, static_cast<std::uint64_t>(cv.number));
  }

  const JsonValue* stages =
      Need(v, "wall_stages", JsonValue::Kind::kArray, err, ctx);
  if (stages == nullptr) return false;
  for (const JsonValue& sv : stages->array) {
    if (!sv.IsObject()) return Fail(err, ctx + ": wall_stage is not an object");
    WallStageSummary s;
    const JsonValue* sf;
    if ((sf = Need(sv, "stage", JsonValue::Kind::kString, err, ctx)) == nullptr)
      return false;
    s.stage = sf->str;
    if ((sf = Need(sv, "count", JsonValue::Kind::kNumber, err, ctx)) == nullptr)
      return false;
    s.count = static_cast<std::uint64_t>(sf->number);
    if ((sf = Need(sv, "p50_us", JsonValue::Kind::kNumber, err, ctx)) == nullptr)
      return false;
    s.p50_us = sf->number;
    if ((sf = Need(sv, "p95_us", JsonValue::Kind::kNumber, err, ctx)) == nullptr)
      return false;
    s.p95_us = sf->number;
    out->wall_stages.push_back(std::move(s));
  }
  return true;
}

std::string BenchSuite::ToJson() const {
  std::string out = "{\n  \"schema\": ";
  AppendJsonString(out, kBenchSuiteSchema);
  out += ",\n  \"schema_version\": ";
  out += std::to_string(kBenchSchemaVersion);
  out += ",\n  \"mode\": ";
  AppendJsonString(out, mode);
  out += ",\n  \"benches\": ";
  if (benches.empty()) {
    out += "[]\n";
  } else {
    out += "[\n";
    for (std::size_t i = 0; i < benches.size(); ++i) {
      WriteReport(out, benches[i], 4);
      out += i + 1 < benches.size() ? ",\n" : "\n";
    }
    out += "  ]\n";
  }
  out += "}\n";
  return out;
}

bool BenchSuiteFromJson(const JsonValue& v, BenchSuite* out, std::string* err) {
  *out = BenchSuite{};
  if (!v.IsObject()) return Fail(err, "suite: not a JSON object");
  const std::string ctx = "suite";
  const JsonValue* schema =
      Need(v, "schema", JsonValue::Kind::kString, err, ctx);
  if (schema == nullptr) return false;
  if (schema->str != kBenchSuiteSchema) {
    return Fail(err, ctx + ": schema is \"" + schema->str + "\", expected \"" +
                         std::string(kBenchSuiteSchema) + "\"");
  }
  const JsonValue* ver =
      Need(v, "schema_version", JsonValue::Kind::kNumber, err, ctx);
  if (ver == nullptr) return false;
  if (ver->number != kBenchSchemaVersion) {
    return Fail(err, ctx + ": unsupported schema_version " +
                         JsonNumber(ver->number));
  }
  const JsonValue* mode = Need(v, "mode", JsonValue::Kind::kString, err, ctx);
  if (mode == nullptr) return false;
  out->mode = mode->str;
  if (out->mode != "quick" && out->mode != "full") {
    return Fail(err, ctx + ": mode must be \"quick\" or \"full\"");
  }
  const JsonValue* benches =
      Need(v, "benches", JsonValue::Kind::kArray, err, ctx);
  if (benches == nullptr) return false;
  for (const JsonValue& bv : benches->array) {
    BenchReport r;
    if (!BenchReportFromJson(bv, &r, err)) return false;
    if (r.mode != out->mode) {
      return Fail(err, "suite: report " + r.bench_id + " mode \"" + r.mode +
                           "\" does not match suite mode \"" + out->mode +
                           "\"");
    }
    for (const BenchReport& prev : out->benches) {
      if (prev.bench_id == r.bench_id) {
        return Fail(err, "suite: duplicate bench_id " + r.bench_id);
      }
    }
    out->benches.push_back(std::move(r));
  }
  return true;
}

bool ParseBenchReport(std::string_view text, BenchReport* out,
                      std::string* err) {
  JsonValue v;
  if (!ParseJson(text, &v, err)) return false;
  return BenchReportFromJson(v, out, err);
}

bool ParseBenchSuite(std::string_view text, BenchSuite* out,
                     std::string* err) {
  JsonValue v;
  if (!ParseJson(text, &v, err)) return false;
  return BenchSuiteFromJson(v, out, err);
}

std::vector<std::string> KnownBenchIds() {
  return {
      "table1_defaults",
      "fig05_delay_small",
      "fig06_delay_large",
      "fig07_cpu_finetune",
      "fig08_delay_no_finetune",
      "fig09_idle_comm_no_tune",
      "fig10_idle_comm_tune",
      "fig11_comm_vs_nodes",
      "fig12_comm_vs_rate",
      "fig13_delay_vs_epoch",
      "fig14_comm_vs_epoch",
      "ext_adaptive_epoch",
      "ext_atr_baseline",
      "ext_beta_sweep",
      "ext_bursty_load",
      "ext_delay_distribution",
      "ext_delay_telemetry",
      "ext_elastic_scaling",
      "ext_record_replay",
      "ext_recovery_overhead",
      "ext_subgroup_buffer",
      "ext_theta_sweep",
      "ext_window_size",
      "ext_worker_scaling",
      "micro_benchmarks",
  };
}

}  // namespace sjoin::obs
