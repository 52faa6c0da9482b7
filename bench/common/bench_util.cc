#include "common/bench_util.h"

#include <cstdio>
#include <cstdlib>

#include "obs/exporters.h"

namespace warpindex {
namespace bench {
namespace {

std::vector<std::string> SplitCommas(const std::string& text) {
  std::vector<std::string> parts;
  size_t begin = 0;
  while (begin <= text.size()) {
    const size_t comma = text.find(',', begin);
    if (comma == std::string::npos) {
      parts.push_back(text.substr(begin));
      break;
    }
    parts.push_back(text.substr(begin, comma - begin));
    begin = comma + 1;
  }
  return parts;
}

}  // namespace

std::vector<double> ParseDoubleList(const std::string& text) {
  std::vector<double> values;
  for (const std::string& part : SplitCommas(text)) {
    char* end = nullptr;
    const double v = std::strtod(part.c_str(), &end);
    if (end == part.c_str() || *end != '\0') {
      std::fprintf(stderr, "bad number in list: '%s'\n", part.c_str());
      std::exit(1);
    }
    values.push_back(v);
  }
  return values;
}

std::vector<int64_t> ParseIntList(const std::string& text) {
  std::vector<int64_t> values;
  for (const double v : ParseDoubleList(text)) {
    values.push_back(static_cast<int64_t>(v));
  }
  return values;
}

WorkloadSummary RunWorkload(const Engine& engine, MethodKind kind,
                            const std::vector<Sequence>& queries,
                            double epsilon, double cpu_scale) {
  WorkloadSummary summary;
  for (const Sequence& q : queries) {
    const SearchResult result = engine.SearchWith(kind, q, epsilon);
    summary.avg_candidates += static_cast<double>(result.num_candidates);
    summary.avg_matches += static_cast<double>(result.matches.size());
    summary.avg_wall_ms += result.cost.wall_ms;
    const double io_ms = engine.disk_model().CostMillis(result.cost.io);
    summary.avg_io_ms += io_ms;
    summary.avg_elapsed_ms += result.cost.wall_ms * cpu_scale + io_ms;
    summary.avg_pages +=
        static_cast<double>(result.cost.io.TotalPageReads());
    summary.avg_dtw_cells += static_cast<double>(result.cost.dtw_cells);
    summary.avg_dtw_evals += static_cast<double>(result.cost.dtw_evals);
    summary.avg_stage_ms.Merge(result.cost.stages);
    summary.total_prunes.Merge(result.cost.prunes);
  }
  const double n = static_cast<double>(queries.size());
  summary.avg_candidates /= n;
  summary.avg_matches /= n;
  summary.avg_wall_ms /= n;
  summary.avg_io_ms /= n;
  summary.avg_elapsed_ms /= n;
  summary.avg_pages /= n;
  summary.avg_dtw_cells /= n;
  summary.avg_dtw_evals /= n;
  summary.avg_stage_ms.Scale(1.0 / n);
  summary.candidate_ratio =
      summary.avg_candidates / static_cast<double>(engine.dataset().size());
  return summary;
}

void PrintPreamble(const std::string& title, const std::string& paper_ref,
                   const std::string& workload) {
  std::printf("== %s ==\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("workload:   %s\n\n", workload.c_str());
}

void PrintStageBreakdown(std::FILE* out, const std::string& label,
                         const WorkloadSummary& summary) {
  if (summary.avg_stage_ms.empty()) {
    return;
  }
  std::fprintf(out, "%-14s", label.c_str());
  for (const auto& [stage, ms] : summary.avg_stage_ms.entries()) {
    std::fprintf(out, "  %s=%.3fms", stage.c_str(), ms);
  }
  std::fprintf(out, "\n");
}

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

void MetricsJsonWriter::AddRow(const std::string& method,
                               const std::string& sweep_name,
                               double sweep_value,
                               const WorkloadSummary& summary) {
  if (!enabled()) {
    return;
  }
  JsonValue row = JsonValue::Object();
  row.Set("bench", JsonValue::Str(bench_name_));
  row.Set("method", JsonValue::Str(method));
  row.Set(sweep_name, JsonValue::Double(sweep_value));
  row.Set("avg_candidates", JsonValue::Double(summary.avg_candidates));
  row.Set("candidate_ratio", JsonValue::Double(summary.candidate_ratio));
  row.Set("avg_matches", JsonValue::Double(summary.avg_matches));
  row.Set("avg_wall_ms", JsonValue::Double(summary.avg_wall_ms));
  row.Set("avg_io_ms", JsonValue::Double(summary.avg_io_ms));
  row.Set("avg_elapsed_ms", JsonValue::Double(summary.avg_elapsed_ms));
  row.Set("avg_pages", JsonValue::Double(summary.avg_pages));
  row.Set("avg_dtw_cells", JsonValue::Double(summary.avg_dtw_cells));
  row.Set("avg_dtw_evals", JsonValue::Double(summary.avg_dtw_evals));
  row.Set("stages_ms", StageTimingsToJson(summary.avg_stage_ms));
  row.Set("prunes", StageCountersToJson(summary.total_prunes));
  rows_.push_back(row.Render());
}

bool MetricsJsonWriter::Flush() {
  if (!enabled()) {
    return false;
  }
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write --metrics_json file '%s'\n",
                 path_.c_str());
    std::exit(1);
  }
  for (const std::string& row : rows_) {
    std::fprintf(f, "%s\n", row.c_str());
  }
  std::fclose(f);
  std::printf("\nwrote %zu metric rows to %s\n", rows_.size(),
              path_.c_str());
  return true;
}

}  // namespace bench
}  // namespace warpindex
