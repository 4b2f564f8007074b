// Resilience study (robustness extension; paper Section VII runs on a real
// 32-GPU cluster where crashes, stragglers and PFS hiccups are routine but
// the simulation used to assume a perfect machine): how does each transfer
// scheme degrade as the fault rate rises?
//
// Grid: {none, LP, LCS} x fault level in {0, 0.05, 0.15, 0.30}, where a
// level r means: per-try checkpoint read/write failure probability r,
// straggler probability r/2 (4x slowdown), and a crash MTBF of 1/r virtual
// seconds of compute (~= crash probability r per unit-time attempt).
// Fixed 1 s evaluations keep the fault exposure identical across schemes,
// so any score gap is attributable to the transfer mechanism itself —
// the interesting question being whether weight transfer's advantage
// survives lost parents and random-init fallbacks.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "cluster/faults.hpp"
#include "common/stats.hpp"

namespace {

using namespace swt;
using namespace swt::bench;

void BM_FaultModelDecisions(benchmark::State& state) {
  FaultConfig cfg;
  cfg.seed = 1;
  cfg.mtbf_seconds = 10.0;
  cfg.straggler_rate = 0.1;
  cfg.ckpt_read_fault_rate = 0.1;
  const FaultModel model(cfg);
  long id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.crash(id, 0, 1.0));
    benchmark::DoNotOptimize(model.straggler_factor(id, 0));
    benchmark::DoNotOptimize(model.ckpt_read_fails(id, 0, 0));
    ++id;
  }
}
BENCHMARK(BM_FaultModelDecisions)->Unit(benchmark::kNanosecond);

void BM_FaultInjectingPut(benchmark::State& state) {
  FaultConfig cfg;
  cfg.seed = 2;
  cfg.ckpt_write_fault_rate = static_cast<double>(state.range(0)) / 100.0;
  const FaultModel model(cfg);
  CheckpointStore inner;
  FaultInjectingStore store(inner, cfg.active() ? &model : nullptr);
  Checkpoint ckpt;
  ckpt.arch = {1, 2, 3};
  ckpt.tensors.push_back({"d/W", Tensor(Shape{64, 64})});
  long id = 0;
  for (auto _ : state) {
    store.set_context(id++, 0);
    benchmark::DoNotOptimize(store.put("k", ckpt));
  }
  state.SetLabel("write_fault_rate=" + std::to_string(state.range(0)) + "%");
}
BENCHMARK(BM_FaultInjectingPut)->Arg(0)->Arg(15)->Unit(benchmark::kMicrosecond);

FaultConfig fault_level(double r) {
  FaultConfig cfg;  // seed derived from the run seed by run_nas
  if (r <= 0.0) return cfg;
  cfg.mtbf_seconds = 1.0 / r;
  cfg.ckpt_read_fault_rate = r;
  cfg.ckpt_write_fault_rate = r;
  cfg.straggler_rate = r / 2.0;
  cfg.straggler_multiplier = 4.0;
  cfg.worker_recovery_s = 5.0;
  // The default retry budget heals essentially every transient I/O fault
  // (give-up probability r^4); one retry keeps give-ups — and therefore
  // random-init fallbacks — frequent enough to study (r^2 per read).
  cfg.max_io_retries = 1;
  return cfg;
}

void print_table() {
  print_repro_note("score-vs-fault-rate resilience study (robustness extension)");
  const long evals = bench_evals();
  const int seeds = bench_seeds();
  const AppConfig app = make_app(AppId::kMnist, 1);

  print_banner(std::cout, app.name + " (" + std::to_string(evals) + " candidates, " +
                              std::to_string(seeds) + " seeds)");
  TableReport table({"scheme", "fault rate", "best score", "mean late-trace score",
                     "crashed", "lost", "fallback", "retry s", "makespan"});
  for (TransferMode mode : kAllSchemes) {
    for (double rate : {0.0, 0.05, 0.15, 0.30}) {
      RunningStats best, late;
      long crashed = 0, lost = 0, fallbacks = 0, completed = 0;
      double retry_s = 0.0, makespan = 0.0;
      for (int s = 0; s < seeds; ++s) {
        NasRunConfig cfg = standard_run_config(mode, 200 + s, evals);
        cfg.cluster.fixed_train_seconds = 1.0;
        cfg.cluster.faults = fault_level(rate);
        const NasRun run = run_nas(app, cfg);
        best.add(top_k(run.trace, 1).at(0).score);
        for (std::size_t i = run.trace.records.size() / 2;
             i < run.trace.records.size(); ++i)
          late.add(run.trace.records[i].score);
        crashed += static_cast<long>(run.trace.crashes.size());
        lost += run.trace.lost_evaluations;
        fallbacks += run.trace.transfer_fallbacks;
        completed += static_cast<long>(run.trace.records.size());
        retry_s += run.trace.retry_seconds;
        makespan += run.trace.makespan;
      }
      table.add_row({scheme_name(mode), TableReport::cell_pct(rate, 0),
                     TableReport::cell(best.mean()), TableReport::cell(late.mean()),
                     std::to_string(crashed), std::to_string(lost),
                     TableReport::cell_pct(
                         completed > 0 ? static_cast<double>(fallbacks) / completed : 0.0,
                         1),
                     TableReport::cell(retry_s / seeds, 2),
                     TableReport::cell(makespan / seeds, 1)});
    }
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: all schemes lose a few evaluations and stretch their\n"
               "makespan as the fault rate rises; the transfer schemes additionally\n"
               "fall back to random init whenever a parent checkpoint is unreadable,\n"
               "so their late-trace advantage over the baseline narrows with the\n"
               "fault rate but should not invert — transfer degrades gracefully.\n";

  // The content-addressed bank under the same fault grid: corrupt or lost
  // chunks read as misses (random-init fallback) exactly like flat-blob
  // faults, while the dedup'd layout keeps PFS traffic and therefore the
  // modelled checkpoint overhead lower (DESIGN.md "Weight bank").
  print_banner(std::cout, "flat vs banked store under faults (LCS, " +
                              std::to_string(evals) + " candidates)");
  TableReport bank_table({"store", "fault rate", "best score", "fallback",
                          "PFS MiB written", "makespan"});
  for (bool banked : {false, true}) {
    for (double rate : {0.0, 0.15}) {
      RunningStats best;
      long fallbacks = 0, completed = 0;
      double makespan = 0.0, mib = 0.0;
      for (int s = 0; s < seeds; ++s) {
        NasRunConfig cfg = standard_run_config(TransferMode::kLCS, 200 + s, evals);
        cfg.cluster.fixed_train_seconds = 1.0;
        cfg.cluster.faults = fault_level(rate);
        cfg.bank = banked;
        const NasRun run = run_nas(app, cfg);
        best.add(top_k(run.trace, 1).at(0).score);
        fallbacks += run.trace.transfer_fallbacks;
        completed += static_cast<long>(run.trace.records.size());
        makespan += run.trace.makespan;
        mib += static_cast<double>(run.store->total_bytes_written()) / (1024.0 * 1024.0);
      }
      bank_table.add_row(
          {banked ? "banked" : "flat", TableReport::cell_pct(rate, 0),
           TableReport::cell(best.mean()),
           TableReport::cell_pct(
               completed > 0 ? static_cast<double>(fallbacks) / completed : 0.0, 1),
           TableReport::cell(mib / seeds, 2), TableReport::cell(makespan / seeds, 1)});
    }
  }
  bank_table.print(std::cout);
  std::cout << "\nExpected shape: the banked store moves fewer PFS bytes at equal\n"
               "fault exposure; fallback rates stay comparable (fault injection\n"
               "sits above the store, so both layouts see the same fault draws).\n";
}

}  // namespace

int main(int argc, char** argv) {
  swt::bench::BenchResultFile bench_json("resilience");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_table();
  return 0;
}
