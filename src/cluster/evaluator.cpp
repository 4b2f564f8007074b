#include "cluster/evaluator.hpp"

#include <algorithm>
#include <stdexcept>

#include "cluster/faults.hpp"
#include "common/log.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"

namespace swt {

prof::EvalSpan eval_span(const EvalRecord& rec) noexcept {
  prof::EvalSpan s;
  s.id = rec.id;
  s.parent_id = rec.tensors_transferred > 0 ? rec.parent_id : -1;
  s.worker = rec.worker;
  s.start = rec.virtual_start;
  s.finish = rec.virtual_finish;
  s.ready_at = std::max(rec.virtual_finish, rec.ckpt_available_at);
  s.stall = rec.ckpt_read_wait;
  s.ckpt_read = rec.ckpt_read_cost;
  s.ckpt_write = rec.ckpt_write_charged;
  s.ckpt_retry = rec.retry_seconds;
  const double compute = std::max(0.0, (s.finish - s.start) - s.stall - s.ckpt_read -
                                           s.ckpt_write - s.ckpt_retry);
  s.transfer = std::min(rec.transfer_seconds, compute);
  s.train = compute - s.transfer;
  return s;
}

Evaluator::Evaluator(const SearchSpace& space, const DatasetPair& data,
                     CheckpointStore& store, Config cfg)
    : space_(&space), data_(&data), store_(&store), cfg_(cfg) {
  if (cfg_.train_subset_fraction <= 0.0 || cfg_.train_subset_fraction > 1.0)
    throw std::invalid_argument("Evaluator: train_subset_fraction must be in (0, 1]");
  if (cfg_.train_subset_fraction < 1.0) {
    // A fixed, seed-deterministic subset shared by every candidate, so that
    // estimation scores stay comparable across the whole search.
    const std::int64_t n = data_->train.size();
    const auto keep = std::max<std::int64_t>(
        8, static_cast<std::int64_t>(static_cast<double>(n) * cfg_.train_subset_fraction));
    std::vector<std::int64_t> idx(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) idx[static_cast<std::size_t>(i)] = i;
    Rng rng(mix64(cfg_.seed, 0x5B5E7));
    shuffle(idx, rng);
    idx.resize(static_cast<std::size_t>(std::min(keep, n)));
    train_subset_ = data_->train.subset(idx);
    use_subset_ = true;
  }
}

EvalRecord Evaluator::evaluate(long id, const Proposal& proposal, int attempt,
                               const FaultModel* faults) {
  const ScopedSpan evaluate_span("evaluate " + std::to_string(id), "eval");
  if (metrics_enabled()) metrics().counter("eval.total").add();
  EvalRecord rec;
  rec.id = id;
  rec.arch = proposal.arch;
  rec.parent_id = proposal.parent_id;
  rec.attempt = attempt;

  // Per-evaluation RNG: a pure function of (seed, id, arch) so that results
  // do not depend on worker interleaving.  Resubmissions of a crashed
  // attempt fold the attempt number in for a fresh, equally deterministic
  // stream; attempt 0 keeps the historical derivation bit for bit.
  std::uint64_t eval_key = mix64(static_cast<std::uint64_t>(id), arch_hash(proposal.arch));
  if (attempt > 0) eval_key = mix64(eval_key, 0xA77E3D00ULL + static_cast<std::uint64_t>(attempt));
  Rng rng(mix64(cfg_.seed, eval_key));

  NetworkPtr net = space_->build(proposal.arch);
  net->init(rng);
  rec.param_count = net->param_count();

  FaultInjectingStore store(*store_, faults);
  store.set_context(id, attempt);

  // Weight transfer from the parent checkpoint, when we have a provider.
  // Any way the parent can be unreadable — never checkpointed (its write
  // gave up), missing, CRC-corrupt on disk, or injected read failures past
  // the retry budget — degrades to the random init applied above.
  const bool wants_parent =
      cfg_.mode != TransferMode::kNone && proposal.parent_arch.has_value();
  if (wants_parent && !proposal.parent_ckpt_key.empty()) {
    auto parent = store.try_get(proposal.parent_ckpt_key);
    rec.retries += store.last_op().failed_tries;
    rec.retry_seconds += store.last_op().retry_seconds;
    if (store.last_op().failed_tries > 0) rec.faults |= kFaultCkptRead;
    if (parent.has_value()) {
      const ScopedSpan transfer_span("transfer", "transfer");
      rec.ckpt_read_cost = parent->second.cost_seconds;
      const TransferStats ts = apply_transfer(parent->first, *net, cfg_.mode);
      rec.tensors_transferred = ts.tensors_transferred;
      rec.values_transferred = ts.values_transferred;
      rec.transfer_seconds = ts.match_seconds + ts.copy_seconds;
    } else {
      rec.transfer_fallback = true;
      rec.faults |= kFaultParentUnreadable;
    }
  } else if (wants_parent) {
    rec.transfer_fallback = true;
    rec.faults |= kFaultParentUnreadable;
  }
  if (rec.transfer_fallback) {
    if (metrics_enabled()) metrics().counter("eval.transfer_fallback_total").add();
    log_warn("eval ", id, ": parent checkpoint unreadable, falling back to random init");
  }

  WallTimer train_timer;
  const Dataset& train_split = use_subset_ ? train_subset_ : data_->train;
  const TrainResult tr = [&] {
    const ScopedSpan train_span("train", "train");
    return Trainer::fit(*net, train_split, data_->val, cfg_.train, rng);
  }();
  rec.train_seconds = train_timer.seconds();
  rec.score = tr.final_objective;
  rec.first_epoch_score = tr.history.empty() ? tr.final_objective : tr.history.front();
  if (metrics_enabled())
    metrics().histogram("eval.train_seconds").observe(rec.train_seconds);

  if (cfg_.write_checkpoints) {
    const ScopedSpan ckpt_span("checkpoint", "checkpoint");
    rec.ckpt_key = "ckpt-" + std::to_string(id);
    const Checkpoint ckpt = Checkpoint::from_network(*net, proposal.arch, rec.score);
    const IoStats ws = store.put(rec.ckpt_key, ckpt);
    rec.retries += store.last_op().failed_tries;
    rec.retry_seconds += store.last_op().retry_seconds;
    if (store.last_op().failed_tries > 0) rec.faults |= kFaultCkptWrite;
    if (store.last_op().gave_up) {
      rec.ckpt_key.clear();  // never became visible; children get no provider
    } else {
      rec.ckpt_write_cost = ws.cost_seconds;
      rec.ckpt_bytes = ws.bytes;
    }
  }
  return rec;
}

std::optional<EvalRecord> Evaluator::plan(long id, const Proposal& proposal,
                                          int attempt) const {
  EvalRecord rec;
  rec.id = id;
  rec.arch = proposal.arch;
  rec.parent_id = proposal.parent_id;
  rec.attempt = attempt;
  // Mirrors evaluate(): the same parent test, the same store prices.
  if (cfg_.mode != TransferMode::kNone && proposal.parent_arch.has_value()) {
    const std::optional<std::size_t> parent_bytes =
        proposal.parent_ckpt_key.empty() ? std::nullopt
                                         : store_->blob_size(proposal.parent_ckpt_key);
    if (!parent_bytes.has_value()) return std::nullopt;
    rec.ckpt_read_cost = store_->cost_model().read_cost(*parent_bytes);
  }
  if (cfg_.write_checkpoints) {
    if (store_->bank() != nullptr) return std::nullopt;
    const NetworkPtr net = space_->build(proposal.arch);
    rec.ckpt_bytes = serialized_size(*net, proposal.arch.size(), store_->compression());
    rec.ckpt_write_cost = store_->cost_model().write_cost(rec.ckpt_bytes);
  }
  return rec;
}

}  // namespace swt
