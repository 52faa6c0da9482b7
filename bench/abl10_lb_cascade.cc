// Ablation A10: the lower-bound filter cascade (src/plan/).
//
// Sweeps fixed stage subsets of the cascade — none (the paper's
// Algorithm 1), the default plan (DefaultCascadePlan), each bound alone,
// and combinations — over a random-walk workload under each of the three
// similarity models (L_inf, L1, L2) at the --band radius, reporting
// per-stage pruning counters and the headline metric: exact-DTW
// evaluations started per query. Every plan's answers are
// cross-validated against plain TW-Sim-Search at the same tolerance (the
// cascade's no-false-dismissal contract), so rows differ only in cost;
// any disagreement exits 1. With --metrics_json the per-(model, eps,
// plan) rows are also written as JSON lines including the prune
// breakdown.
//
// The --eps sweep is in L_inf units; the sum models scale it by fixed
// factors (Models()). A Sakoe-Chiba band (--band >= 0) is the showcase
// configuration: with an unconstrained DTW the per-position envelope
// degenerates to LB_Yi's global envelope, and under L_inf every bound
// is dominated by the index predicate (docs/PLANNER.md).

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "common/flags.h"
#include "common/table_printer.h"
#include "plan/filter_cascade.h"
#include "sequence/random_walk_generator.h"

namespace warpindex {
namespace {

struct PlanCase {
  std::string label;
  CascadePlan plan;
};

std::vector<PlanCase> PlanCases(const DtwOptions& dtw) {
  using S = CascadeStage;
  return {
      {"paper", CascadePlan::Paper()},
      {"default", DefaultCascadePlan(dtw)},
      {"feature", CascadePlan{{S::kFeatureLb}}},
      {"yi", CascadePlan{{S::kLbYi}}},
      {"keogh", CascadePlan{{S::kLbKeogh}}},
      {"improved", CascadePlan{{S::kLbImproved}}},
      {"keogh+improved", CascadePlan{{S::kLbKeogh, S::kLbImproved}}},
      {"full", CascadePlan::Full()},
  };
}

struct ModelCase {
  std::string label;
  DtwOptions dtw;
  // Multiplies the --eps sweep. A sum model adds a cost per path step,
  // so the same tolerance admits far fewer rows than under L_inf; the
  // factors are fixed round numbers that keep each model's lower bounds
  // pruning some but not all candidates at the default length.
  double eps_scale;
};

std::vector<ModelCase> Models() {
  return {
      {"linf", DtwOptions::Linf(), 1.0},
      {"l1", DtwOptions::L1(), 10.0},
      {"l2", DtwOptions::L2(), 2.0},
  };
}

uint64_t PrunedAt(const bench::WorkloadSummary& summary,
                  std::string_view stage) {
  return summary.total_prunes.Get(stage).pruned;
}

int Run(int argc, char** argv) {
  int64_t num_sequences = 4000;
  int64_t length = 100;
  int64_t band = 8;
  int64_t num_queries = 100;
  std::string eps_list = "0.2,0.5,1.0";
  std::string metrics_json;

  FlagSet flags("abl10_lb_cascade");
  flags.AddInt64("n", &num_sequences, "number of sequences");
  flags.AddInt64("len", &length, "sequence length");
  flags.AddInt64("band", &band, "Sakoe-Chiba radius (<0 unconstrained)");
  flags.AddInt64("queries", &num_queries, "queries per configuration");
  flags.AddString("eps", &eps_list, "tolerance sweep");
  flags.AddString("metrics_json", &metrics_json,
                  "write per-row JSON lines to this file");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }

  RandomWalkOptions rw;
  rw.num_sequences = static_cast<size_t>(num_sequences);
  rw.min_length = static_cast<size_t>(length);
  rw.max_length = static_cast<size_t>(length);
  const Dataset dataset = GenerateRandomWalkDataset(rw);

  bench::PrintPreamble(
      "Ablation A10: lower-bound filter cascade",
      "extension of Kim/Park/Chu ICDE'01 Algorithm 1 (docs/PLANNER.md)",
      std::to_string(num_sequences) + " walks of length " +
          std::to_string(length) + ", band=" + std::to_string(band) +
          ", " + std::to_string(num_queries) + " queries per eps");

  const auto queries = GenerateQueryWorkload(
      dataset, QueryWorkloadOptions{
                   .num_queries = static_cast<size_t>(num_queries)});

  bench::MetricsJsonWriter json("abl10_lb_cascade", metrics_json);
  TablePrinter table(stdout,
                     {"model", "eps", "plan", "candidates", "dtw_evals",
                      "dtw_cells", "pr_feat", "pr_yi", "pr_keogh",
                      "pr_impr", "wall_ms"});
  table.PrintHeader();
  size_t mismatches = 0;
  for (const ModelCase& model : Models()) {
    DtwOptions dtw = model.dtw;
    dtw.band = static_cast<int>(band);
    const std::vector<PlanCase> plans = PlanCases(dtw);
    // One engine per plan, all over the same dataset, each with its
    // row's plan fixed; the "paper" row doubles as the plain
    // TW-Sim-Search baseline (its dtw_evals match by construction, which
    // the cross-validation below re-checks).
    std::vector<std::unique_ptr<Engine>> engines;
    for (const PlanCase& plan_case : plans) {
      EngineOptions options;
      options.dtw = dtw;
      options.cascade_plan = plan_case.plan;
      engines.push_back(
          std::make_unique<Engine>(dataset, std::move(options)));
    }
    for (const double sweep_eps : bench::ParseDoubleList(eps_list)) {
      const double eps = sweep_eps * model.eps_scale;
      // Cross-validate: every plan must return the plain method's
      // answers.
      size_t model_mismatches = 0;
      for (const Sequence& q : queries) {
        const SearchResult expected =
            engines[0]->SearchWith(MethodKind::kTwSimSearch, q, eps);
        for (std::unique_ptr<Engine>& engine : engines) {
          const SearchResult got =
              engine->SearchWith(MethodKind::kTwSimSearchCascade, q, eps);
          if (got.matches != expected.matches) {
            ++model_mismatches;
          }
        }
      }

      const bench::WorkloadSummary baseline = bench::RunWorkload(
          *engines[0], MethodKind::kTwSimSearch, queries, eps);
      for (size_t i = 0; i < engines.size(); ++i) {
        const bench::WorkloadSummary summary = bench::RunWorkload(
            *engines[i], MethodKind::kTwSimSearchCascade, queries, eps);
        table.PrintRow(
            {model.label, bench::FormatDouble(eps, 2), plans[i].label,
             bench::FormatDouble(summary.avg_candidates, 1),
             bench::FormatDouble(summary.avg_dtw_evals, 1),
             bench::FormatDouble(summary.avg_dtw_cells, 0),
             std::to_string(PrunedAt(summary, kStageFeatureLbCascade)),
             std::to_string(PrunedAt(summary, kStageLbYiCascade)),
             std::to_string(PrunedAt(summary, kStageLbKeoghCascade)),
             std::to_string(PrunedAt(summary, kStageLbImprovedCascade)),
             bench::FormatDouble(summary.avg_wall_ms, 3)});
        json.AddRow(model.label + ":cascade:" + plans[i].label, "eps", eps,
                    summary);
      }
      json.AddRow(model.label + ":tw", "eps", eps, baseline);
      if (model_mismatches != 0) {
        std::printf("!! %zu plan rows disagreed with TW-Sim-Search (%s, "
                    "eps=%.3f): cascade soundness bug\n",
                    model_mismatches, model.label.c_str(), eps);
      } else {
        std::printf("  (%s baseline TW-Sim-Search: %s dtw_evals/query; "
                    "default plan %s; all plans answer-identical)\n",
                    model.label.c_str(),
                    bench::FormatDouble(baseline.avg_dtw_evals, 1).c_str(),
                    DefaultCascadePlan(dtw).ToString().c_str());
      }
      mismatches += model_mismatches;
    }
  }
  json.Flush();
  std::printf(
      "\nexpected shape: dtw_evals falls as stages are added; with a "
      "narrow band lb_keogh/lb_improved prune far more than the "
      "global-envelope lb_yi, and keogh+improved leaves exactly the "
      "candidates improved alone does (LB_Improved's pass 1 is "
      "LB_Keogh).\n");
  return mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace warpindex

int main(int argc, char** argv) { return warpindex::Run(argc, argv); }
