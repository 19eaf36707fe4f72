#include "nn/trainer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "exec/thread_pool.h"
#include "nn/checkpoint.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace o2sr::nn {

namespace {

using common::Status;

bool AllFinite(const Tensor& t) {
  const float* data = t.data();
  for (size_t i = 0; i < t.size(); ++i) {
    if (!std::isfinite(data[i])) return false;
  }
  return true;
}

// Name of the first parameter whose `member` tensor holds a NaN/Inf, or
// empty when all are finite.
std::string FirstNonFinite(const ParameterStore& store, bool gradients) {
  for (const auto& p : store.params()) {
    if (!AllFinite(gradients ? p->grad : p->value)) return p->name;
  }
  return "";
}

// Global L2 norm over every gradient in the store (NaN if any entry is).
double GradL2Norm(const ParameterStore& store) {
  double sq = 0.0;
  for (const auto& p : store.params()) {
    const float* g = p->grad.data();
    for (size_t i = 0; i < p->grad.size(); ++i) {
      sq += static_cast<double>(g[i]) * static_cast<double>(g[i]);
    }
  }
  return std::sqrt(sq);
}

// Everything needed to rewind training to the end of a known-good epoch.
struct Snapshot {
  int epoch = 0;
  double best_loss = std::numeric_limits<double>::infinity();
  std::vector<Tensor> values;
  AdamState adam;
  std::string rng_state;
};

Snapshot TakeSnapshot(int epoch, double best_loss, ParameterStore* store,
                      AdamOptimizer* adam, Rng* rng) {
  Snapshot s;
  s.epoch = epoch;
  s.best_loss = best_loss;
  s.values.reserve(store->params().size());
  for (const auto& p : store->params()) s.values.push_back(p->value);
  s.adam = adam->SaveState();
  if (rng != nullptr) s.rng_state = rng->SaveState();
  return s;
}

void RestoreSnapshot(const Snapshot& s, ParameterStore* store,
                     AdamOptimizer* adam, Rng* rng) {
  O2SR_CHECK_EQ(s.values.size(), store->params().size());
  for (size_t k = 0; k < s.values.size(); ++k) {
    store->params()[k]->value = s.values[k];
  }
  adam->LoadState(s.adam);
  if (rng != nullptr && !s.rng_state.empty()) {
    O2SR_CHECK(rng->LoadState(s.rng_state));
  }
  // Accumulated (possibly poisoned) gradients belong to the abandoned
  // attempt.
  store->ZeroGrads();
}

Status WriteCheckpoint(const GuardrailOptions& options, int epoch,
                       double best_loss, int recoveries,
                       ParameterStore* store, AdamOptimizer* adam,
                       Rng* rng) {
  O2SR_TRACE_SCOPE("train.checkpoint_write");
  CheckpointMeta meta;
  meta.epoch = epoch;
  meta.learning_rate = adam->options().learning_rate;
  meta.recoveries = recoveries;
  meta.best_loss = best_loss;
  if (rng != nullptr) meta.rng_state = rng->SaveState();
  return SaveCheckpoint(options.checkpoint_path, meta, *store,
                        adam->SaveState())
      .WithContext("writing checkpoint");
}

// Records the event in the report and forwards it to the telemetry hook.
void Emit(TrainReport& report, const TrainHooks& hooks,
          const obs::TrainEvent& event) {
  report.events.push_back(event);
  if (hooks.on_event) hooks.on_event(event);
}

}  // namespace

common::Status RunGuardedTraining(ParameterStore* store, AdamOptimizer* adam,
                                  Rng* epoch_rng, int epochs,
                                  const EpochFn& epoch_fn,
                                  const GuardrailOptions& options,
                                  const TrainHooks& hooks,
                                  TrainReport* report) {
  O2SR_CHECK(store != nullptr);
  O2SR_CHECK(adam != nullptr);
  O2SR_CHECK(epoch_fn != nullptr);
  if (epochs < 0) {
    return common::InvalidArgumentError("negative epoch count " +
                                        std::to_string(epochs));
  }

  static obs::Counter* epochs_counter =
      obs::MetricsRegistry::Global().GetCounter("train.epochs_completed");
  static obs::Counter* recoveries_counter =
      obs::MetricsRegistry::Global().GetCounter("train.recoveries");
  static obs::Counter* resumes_counter =
      obs::MetricsRegistry::Global().GetCounter("train.resumes");
  static obs::Histogram* epoch_ms =
      obs::MetricsRegistry::Global().GetHistogram("train.epoch_ms");

  TrainReport local_report;
  TrainReport& rep = report != nullptr ? *report : local_report;
  rep = TrainReport();

  int epoch = 0;
  int recoveries = 0;
  int diverged_streak = 0;
  double best_loss = std::numeric_limits<double>::infinity();

  if (!options.checkpoint_path.empty() &&
      CheckpointExists(options.checkpoint_path)) {
    CheckpointMeta meta;
    AdamState adam_state;
    O2SR_RETURN_IF_ERROR(LoadCheckpoint(options.checkpoint_path, &meta,
                                        store, &adam_state)
                             .WithContext("resuming training"));
    adam->LoadState(adam_state);
    adam->set_learning_rate(meta.learning_rate);
    if (epoch_rng != nullptr && !meta.rng_state.empty()) {
      if (!epoch_rng->LoadState(meta.rng_state)) {
        return common::DataLossError("checkpoint '" +
                                     options.checkpoint_path +
                                     "' holds an invalid RNG state");
      }
    }
    epoch = meta.epoch;
    recoveries = meta.recoveries;
    best_loss = meta.best_loss;
    rep.resumed = true;
    resumes_counter->Increment();
    O2SR_LOG(INFO) << "resumed from '" << options.checkpoint_path
                   << "' at epoch " << epoch << " (lr "
                   << adam->options().learning_rate << ")";
    obs::TrainEvent event;
    event.kind = obs::TrainEventKind::kResume;
    event.epoch = epoch;
    event.loss = best_loss;
    event.learning_rate = adam->options().learning_rate;
    event.recoveries = recoveries;
    event.note = options.checkpoint_path;
    Emit(rep, hooks, event);
  }
  rep.start_epoch = epoch;
  rep.final_learning_rate = adam->options().learning_rate;

  Snapshot good = TakeSnapshot(epoch, best_loss, store, adam, epoch_rng);

  while (epoch < epochs) {
    O2SR_TRACE_SCOPE("train.epoch");
    const auto epoch_start = std::chrono::steady_clock::now();
    double loss;
    {
      O2SR_TRACE_SCOPE("train.forward_backward");
      // One session per step: every parallel region of the forward and
      // backward pass reuses the same hot worker set.
      exec::Session session(exec::CurrentPool(), nullptr);
      loss = epoch_fn(epoch);
    }
    if (hooks.post_backward) hooks.post_backward(epoch, *store);
    const double grad_norm = GradL2Norm(*store);

    // Sentinel sweep. An empty string means the epoch is healthy.
    std::string trip;
    {
      O2SR_TRACE_SCOPE("train.finite_sweep");
      if (options.check_finite && !std::isfinite(loss)) {
        trip = "non-finite loss at epoch " + std::to_string(epoch);
      }
      if (trip.empty() && options.check_finite) {
        const std::string bad = FirstNonFinite(*store, /*gradients=*/true);
        if (!bad.empty()) {
          trip = "non-finite gradient in '" + bad + "' at epoch " +
                 std::to_string(epoch);
        }
      }
    }
    if (trip.empty() && options.divergence_factor > 0.0 &&
        std::isfinite(best_loss)) {
      if (loss > options.divergence_factor * std::max(best_loss, 1e-12)) {
        ++diverged_streak;
        if (diverged_streak >= options.divergence_patience) {
          trip = "divergence at epoch " + std::to_string(epoch) + ": loss " +
                 std::to_string(loss) + " vs best " +
                 std::to_string(best_loss) + " for " +
                 std::to_string(diverged_streak) + " epochs";
        }
      } else {
        diverged_streak = 0;
      }
    }
    if (trip.empty()) {
      O2SR_TRACE_SCOPE("train.optimizer_step");
      adam->Step();
      if (options.check_finite) {
        const std::string bad = FirstNonFinite(*store, /*gradients=*/false);
        if (!bad.empty()) {
          trip = "non-finite parameter in '" + bad + "' after epoch " +
                 std::to_string(epoch);
        }
      }
    }

    if (!trip.empty()) {
      if (recoveries >= options.max_recoveries) {
        return common::ResourceExhaustedError(
            "training sentinel tripped (" + trip + ") with the recovery "
            "budget of " + std::to_string(options.max_recoveries) +
            " rollbacks exhausted");
      }
      ++recoveries;
      rep.recoveries = recoveries;
      recoveries_counter->Increment();
      RestoreSnapshot(good, store, adam, epoch_rng);
      const double lr = std::max(
          adam->options().learning_rate * options.lr_backoff,
          options.min_learning_rate);
      adam->set_learning_rate(lr);
      const int bad_epoch = epoch;
      epoch = good.epoch;
      best_loss = good.best_loss;
      diverged_streak = 0;
      O2SR_LOG(WARNING) << trip << "; rolled back to epoch " << epoch
                        << ", lr -> " << lr << " (recovery " << recoveries
                        << "/" << options.max_recoveries << ")";
      obs::TrainEvent event;
      event.kind = obs::TrainEventKind::kRecovery;
      event.epoch = bad_epoch;
      event.loss = loss;
      event.grad_norm = grad_norm;
      event.learning_rate = lr;
      event.recoveries = recoveries;
      event.note = trip;
      Emit(rep, hooks, event);
      continue;
    }

    best_loss = std::min(best_loss, loss);
    ++epoch;
    ++rep.epochs_run;
    rep.final_loss = loss;
    rep.final_learning_rate = adam->options().learning_rate;
    good = TakeSnapshot(epoch, best_loss, store, adam, epoch_rng);
    epochs_counter->Increment();
    epoch_ms->Observe(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - epoch_start)
                          .count());
    obs::TrainEvent event;
    event.kind = obs::TrainEventKind::kEpoch;
    event.epoch = epoch - 1;
    event.loss = loss;
    event.grad_norm = grad_norm;
    event.learning_rate = adam->options().learning_rate;
    event.recoveries = recoveries;
    Emit(rep, hooks, event);
    if (hooks.on_epoch_end) hooks.on_epoch_end(epoch - 1, loss);

    if (!options.checkpoint_path.empty() &&
        (epoch == epochs || (options.checkpoint_every > 0 &&
                             epoch % options.checkpoint_every == 0))) {
      O2SR_RETURN_IF_ERROR(WriteCheckpoint(options, epoch, best_loss,
                                           recoveries, store, adam,
                                           epoch_rng));
    }
  }
  return Status::Ok();
}

WarmStartReport WarmStartParameters(const std::vector<NamedTensor>& donor,
                                    ParameterStore* store) {
  O2SR_CHECK(store != nullptr);
  std::unordered_map<std::string, const Tensor*> by_name;
  by_name.reserve(donor.size());
  for (const auto& d : donor) by_name[d.name] = &d.tensor;

  WarmStartReport report;
  for (const auto& p : store->params()) {
    const auto it = by_name.find(p->name);
    if (it == by_name.end()) {
      ++report.params_fresh;
      continue;
    }
    const Tensor& src = *it->second;
    if (src.SameShape(p->value)) {
      p->value = src;
      ++report.params_matched;
      report.scalars_copied += src.size();
      continue;
    }
    const int rows = std::min(src.rows(), p->value.rows());
    const int cols = std::min(src.cols(), p->value.cols());
    if (rows == 0 || cols == 0) {
      ++report.params_fresh;
      continue;
    }
    for (int r = 0; r < rows; ++r) {
      std::memcpy(p->value.row(r), src.row(r),
                  static_cast<size_t>(cols) * sizeof(float));
    }
    ++report.params_partial;
    report.scalars_copied += static_cast<uint64_t>(rows) * cols;
  }
  return report;
}

}  // namespace o2sr::nn
