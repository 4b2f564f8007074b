// Shared plumbing for the paper-reproduction bench binaries.
//
// Every binary follows the same pattern: run google-benchmark
// microbenchmarks for the mechanism under study, then execute the actual
// experiment and print the paper-style table, with the paper's reported
// numbers quoted alongside for comparison (EXPERIMENTS.md records both).
//
// Experiment sizes honour two environment variables:
//   SWTNAS_BENCH_SEEDS  - number of repeated NAS runs per scheme (default 3)
//   SWTNAS_BENCH_EVALS  - candidate evaluations per NAS run (default 60)
// so `SWTNAS_BENCH_SEEDS=1 SWTNAS_BENCH_EVALS=24 ./bench_fig7_convergence`
// gives a fast smoke run and larger values a higher-fidelity reproduction.
#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "common/stats.hpp"

#include "exp/apps.hpp"
#include "exp/pair_study.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "obs/json.hpp"

namespace swt::bench {

inline long env_long(const char* name, long fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::atol(v);
}

inline int bench_seeds() { return static_cast<int>(env_long("SWTNAS_BENCH_SEEDS", 3)); }
inline long bench_evals() { return env_long("SWTNAS_BENCH_EVALS", 60); }

inline NasRunConfig standard_run_config(TransferMode mode, std::uint64_t seed,
                                        long n_evals, int workers = 8) {
  NasRunConfig cfg;
  cfg.mode = mode;
  cfg.n_evals = n_evals;
  cfg.seed = seed;
  cfg.cluster.num_workers = workers;
  // Downscaled from the paper's N=64 / S=32 in proportion to the number of
  // candidate evaluations per run.
  cfg.evolution = {.population_size = 16, .sample_size = 8};
  return cfg;
}

inline const char* scheme_name(TransferMode mode) { return to_string(mode); }

constexpr TransferMode kAllSchemes[] = {TransferMode::kNone, TransferMode::kLP,
                                        TransferMode::kLCS};

/// Aggregates of the top-K full-training study, shared by the Fig. 8,
/// Table III and Table IV binaries (Section VIII-B/C methodology: run NAS,
/// take the top-K scored distinct models, fully train each — with early
/// stopping and, optionally, a separate 20-epoch pass without).
struct FullTrainAgg {
  RunningStats epochs_to_stop;     ///< early-stopping epochs (Fig. 8 bars)
  RunningStats early_objective;    ///< Table III "Early Stopped"
  RunningStats full_objective;     ///< Table III "Fully Trained"
  RunningStats params_m;           ///< Table IV, millions of parameters
};

inline std::map<TransferMode, FullTrainAgg> full_training_study(const AppConfig& app,
                                                                int seeds, long evals,
                                                                std::size_t k,
                                                                bool with_full_pass) {
  std::map<TransferMode, FullTrainAgg> out;
  for (TransferMode mode : {TransferMode::kNone, TransferMode::kLP, TransferMode::kLCS}) {
    FullTrainAgg& agg = out[mode];
    for (int s = 0; s < seeds; ++s) {
      const NasRun run = run_nas(app, standard_run_config(mode, 100 + s, evals));
      for (const EvalRecord& rec : top_k(run.trace, k)) {
        Checkpoint ckpt;
        const Checkpoint* resume = nullptr;
        if (mode != TransferMode::kNone && run.store->contains(rec.ckpt_key)) {
          ckpt = run.store->get(rec.ckpt_key).first;
          resume = &ckpt;  // transfer schemes resume from the estimation ckpt
        }
        const FullTrainResult ft =
            full_train(app, rec.arch, resume, mode,
                       {.seed = 100 + static_cast<std::uint64_t>(s),
                        .with_full_pass = with_full_pass});
        agg.epochs_to_stop.add(ft.early_stop_epochs);
        agg.early_objective.add(ft.early_stop_objective);
        agg.full_objective.add(ft.full_objective);
        agg.params_m.add(static_cast<double>(ft.param_count) / 1e6);
      }
    }
  }
  return out;
}

/// RAII machine-readable results file: declare one at the top of a bench
/// binary's main() and every banner/table the run prints is also written as
/// `BENCH_<name>.json` on exit (into $SWTNAS_BENCH_OUT_DIR, default cwd) —
/// the artifact CI uploads so paper-figure numbers are diffable across
/// commits without scraping stdout.
class BenchResultFile {
 public:
  explicit BenchResultFile(std::string name) : name_(std::move(name)) {
    ReportCapture::global().clear();
    ReportCapture::global().set_enabled(true);
  }

  BenchResultFile(const BenchResultFile&) = delete;
  BenchResultFile& operator=(const BenchResultFile&) = delete;

  ~BenchResultFile() {
    ReportCapture::global().set_enabled(false);
    try {
      write();
    } catch (const std::exception& e) {
      std::cerr << "warning: BENCH_" << name_ << ".json not written: " << e.what() << "\n";
    }
  }

 private:
  // Cells that parse fully as numbers ("0.823", "42") are emitted as JSON
  // numbers so downstream diffing needs no coercion; everything else
  // ("LCS", "0.82 +- 0.04") stays a string.
  static std::string cell_to_json(const std::string& cell) {
    try {
      std::size_t pos = 0;
      const double v = std::stod(cell, &pos);
      if (pos == cell.size()) return json_number(v);
    } catch (const std::exception&) {
    }
    return '"' + json_escape(cell) + '"';
  }

  static std::string row_to_json(const std::vector<std::string>& cells) {
    std::string out = "[";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i) out += ',';
      out += cell_to_json(cells[i]);
    }
    return out + "]";
  }

  void write() const {
    const char* dir = std::getenv("SWTNAS_BENCH_OUT_DIR");
    const std::string path =
        (dir != nullptr && *dir != '\0' ? std::string(dir) + "/" : std::string()) +
        "BENCH_" + name_ + ".json";
    std::ofstream out(path, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open " + path);
    out << "{\"bench\":\"" << json_escape(name_) << "\",\"seeds\":" << bench_seeds()
        << ",\"evals\":" << bench_evals() << ",\"tables\":[";
    const auto& tables = ReportCapture::global().tables();
    for (std::size_t t = 0; t < tables.size(); ++t) {
      if (t) out << ',';
      out << "{\"section\":\"" << json_escape(tables[t].section) << "\",\"header\":"
          << row_to_json(tables[t].header) << ",\"rows\":[";
      for (std::size_t r = 0; r < tables[t].rows.size(); ++r) {
        if (r) out << ',';
        out << row_to_json(tables[t].rows[r]);
      }
      out << "]}";
    }
    out << "]}\n";
    if (!out) throw std::runtime_error("write failed for " + path);
    std::cout << "\nbench results written to " << path << "\n";
  }

  std::string name_;
};

/// Print the standard header note for a reproduction binary.
inline void print_repro_note(const std::string& paper_ref) {
  std::cout << "\nReproduction of " << paper_ref
            << " from \"Accelerating DNN Architecture Search at Scale Using "
               "Selective Weight Transfer\" (CLUSTER'21).\n"
            << "Substrate: synthetic datasets + virtual cluster (see DESIGN.md); "
               "compare shapes/orderings with the paper, not absolute values.\n";
}

}  // namespace swt::bench
