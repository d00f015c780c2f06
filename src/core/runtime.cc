#include "core/runtime.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "fault/injector.h"
#include "nn/mlp.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/span.h"
#include "obs/stream.h"
#include "obs/timer.h"
#include "obs/trace.h"

namespace rumba::core {

void
RumbaRuntime::RegisterMetrics()
{
    auto& registry = obs::Registry::Default();
    obs_invocations_ = registry.GetCounter("runtime.invocations");
    obs_elements_ = registry.GetCounter("runtime.elements");
    obs_fixes_ = registry.GetCounter("runtime.fixes");
    obs_drift_alarms_ = registry.GetCounter("drift.alarms");
    obs_non_finite_salvaged_ =
        registry.GetCounter("runtime.non_finite_salvaged");
    obs_breaker_exact_elements_ =
        registry.GetCounter("breaker.exact_elements");
    obs_tier_accept_ = registry.GetCounter("recovery.tier.accept");
    obs_tier_compensate_ =
        registry.GetCounter("recovery.tier.compensate");
    obs_tier_reexecute_ =
        registry.GetCounter("recovery.tier.reexecute");
    obs_output_error_ = registry.GetGauge("runtime.output_error_pct");
    obs_invocation_ns_ = registry.GetHistogram("runtime.invocation_ns");
    obs_verify_ns_ = registry.GetHistogram("runtime.verify_ns");
    obs_calibrate_ns_ = registry.GetHistogram("runtime.calibrate_ns");
}

RumbaRuntime::RumbaRuntime(std::unique_ptr<apps::Benchmark> bench,
                           const RuntimeConfig& config)
    : config_(config),
      pipeline_(std::move(bench), config.pipeline),
      accel_(pipeline_.MakeAccelerator(/*use_rumba_topology=*/true)),
      detector_(pipeline_.TrainPredictor(config.checker),
                config.initial_threshold),
      recovery_(&pipeline_.Bench(), config.recovery_queue_capacity),
      policy_(config.recovery_policy, config.tuner.target_error_pct),
      tuner_(config.tuner, config.initial_threshold),
      system_(config.core, config.energy),
      breaker_(config.breaker)
{
    RUMBA_CHECK(IsPredictorScheme(config.checker));
    RegisterMetrics();
    kernel_ops_ = pipeline_.Bench().ProfileKernel();
    if (config.recovery_policy.compensation)
        InstallCompensator(pipeline_.TrainCompensator());
    if (config.initial_threshold <= 0.0) {
        const Result<double> result =
            CalibrateThreshold(config.tuner.target_error_pct);
        if (!result.ok())
            Fatal("%s", result.status().ToString().c_str());
        const double calibrated = *result;
        detector_.SetThreshold(calibrated);
        tuner_ = OnlineTuner(config.tuner, calibrated);
        // The calibration pass measured the expected fire rate on the
        // training distribution; monitor for departures from it.
        size_t fired = 0;
        for (double e : calibration_scores_)
            fired += e >= calibrated ? 1 : 0;
        DriftMonitor::Options drift_options;
        drift_options.expected_fire_rate =
            static_cast<double>(fired) /
            static_cast<double>(std::max<size_t>(
                1, calibration_scores_.size()));
        drift_ = DriftMonitor(drift_options);
    }
    obs::SnapshotStreamer::AcquireFromEnv();
}

RumbaRuntime::RumbaRuntime(const Artifact& artifact,
                           const RuntimeConfig& config)
    : config_(config),
      pipeline_(apps::MakeBenchmark(artifact.benchmark), config.pipeline,
                artifact),
      accel_(pipeline_.MakeAccelerator(/*use_rumba_topology=*/true)),
      detector_(predict::DeserializePredictor(artifact.predictor),
                artifact.threshold),
      recovery_(&pipeline_.Bench(), config.recovery_queue_capacity),
      policy_(config.recovery_policy, config.tuner.target_error_pct),
      tuner_(config.tuner, artifact.threshold),
      system_(config.core, config.energy),
      breaker_(config.breaker)
{
    RegisterMetrics();
    kernel_ops_ = pipeline_.Bench().ProfileKernel();
    // Restore the compensation model whenever the artifact carries
    // one (not just when the compensate tier is on): the serving
    // engine's compensate-only shedding rung needs it regardless.
    if (!artifact.compensator.empty()) {
        Result<predict::Compensator> compensator =
            predict::Compensator::TryDeserialize(artifact.compensator);
        if (!compensator.ok())
            Fatal("%s", compensator.status().ToString().c_str());
        InstallCompensator(*std::move(compensator));
    }
    obs::SnapshotStreamer::AcquireFromEnv();
}

void
RumbaRuntime::InstallCompensator(predict::Compensator compensator)
{
    RUMBA_CHECK(compensator.Trained());
    RUMBA_CHECK(compensator.InputArity() ==
                pipeline_.Bench().NumInputs() +
                    pipeline_.Bench().NumOutputs());
    RUMBA_CHECK(compensator.OutputArity() ==
                pipeline_.Bench().NumOutputs());
    compensator_.emplace(std::move(compensator));
    recovery_.SetCompensator(
        [this](const double* raw_in, double* raw_out) {
            // Feature vector: normalized inputs, then the element's
            // normalized approximate outputs (see
            // predict/compensator.h). The predicted signed residual
            // comes back in the NN domain; add it to the normalized
            // approximate outputs, denormalize, and overwrite the
            // element only once everything is finite.
            const size_t in_w = pipeline_.Bench().NumInputs();
            const size_t out_w = pipeline_.Bench().NumOutputs();
            scratch_comp_in_.resize(in_w + out_w);
            double* norm_out = scratch_comp_in_.data() + in_w;
            pipeline_.NormalizeInput(raw_in, scratch_comp_in_.data());
            pipeline_.NormalizeOutput(raw_out, norm_out);
            if (!compensator_->Predict(scratch_comp_in_,
                                       &scratch_comp_pred_))
                return false;
            for (size_t o = 0; o < out_w; ++o)
                scratch_comp_pred_[o] += norm_out[o];
            scratch_comp_out_.resize(out_w);
            pipeline_.DenormalizeOutput(scratch_comp_pred_.data(),
                                        scratch_comp_out_.data());
            if (!std::all_of(scratch_comp_out_.begin(),
                             scratch_comp_out_.end(),
                             [](double v) { return std::isfinite(v); }))
                return false;
            std::copy(scratch_comp_out_.begin(),
                      scratch_comp_out_.end(), raw_out);
            return true;
        });
}

RumbaRuntime::~RumbaRuntime()
{
    obs::SnapshotStreamer::Release();
}

Artifact
RumbaRuntime::ExportArtifact() const
{
    return pipeline_.ExportArtifact(
        detector_.Predictor(), tuner_.Threshold(),
        compensator_.has_value() ? &*compensator_ : nullptr);
}

Result<double>
RumbaRuntime::CalibrateThreshold(double target_error_pct)
{
    // Replay the training elements through the accelerator and the
    // checker, exactly as the online system would see them, then pick
    // the smallest fix set (largest threshold) whose residual error
    // meets the target on the training data.
    const apps::Benchmark& app = pipeline_.Bench();
    const auto& train = pipeline_.TrainInputs();
    const auto& true_errors = pipeline_.TrainErrors();
    if (train.empty() || true_errors.size() != train.size()) {
        return Status(
            StatusCode::kFailedPrecondition,
            "threshold calibration needs a non-empty training set "
            "with per-element errors (" +
                std::to_string(train.size()) + " inputs, " +
                std::to_string(true_errors.size()) +
                " errors); set initial_threshold > 0 to skip "
                "calibration");
    }

    const obs::ScopedTimer timer(obs_calibrate_ns_);
    const obs::Span span("runtime.calibrate");
    obs::Registry::Default()
        .GetCounter("runtime.calibrations")
        ->Increment();
    // The approximate and check stages over bounded chunks of the
    // training set, so calibration scratch stays small.
    constexpr size_t kChunk = 512;
    const size_t in_w = app.NumInputs();
    detector_.Reset();
    std::vector<double> scores(train.size());
    std::vector<double> chunk_in, chunk_out;
    for (size_t start = 0; start < train.size(); start += kChunk) {
        const size_t count = std::min(kChunk, train.size() - start);
        chunk_in.clear();
        for (size_t i = start; i < start + count; ++i)
            chunk_in.insert(chunk_in.end(), train[i].begin(),
                            train[i].end());
        chunk_out.resize(count * app.NumOutputs());
        ApproximateStage(BatchView(chunk_in.data(), count, in_w), count,
                         chunk_out.data());
        CheckStage(count, chunk_out.data(), /*inject_faults=*/false);
        for (size_t i = 0; i < count; ++i)
            scores[start + i] = scratch_checks_[i].predicted_error;
    }
    detector_.Reset();
    calibration_scores_ = scores;

    // Candidate thresholds: the observed scores, descending.
    std::vector<size_t> order(scores.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return scores[a] > scores[b];
    });

    // Residual error is monotone in the number of fixes along this
    // order, so binary-search the smallest sufficient fix count.
    auto error_at = [&](size_t k) {
        std::vector<double> residual = true_errors;
        for (size_t i = 0; i < k; ++i)
            residual[order[i]] = 0.0;
        return app.AggregateError(residual);
    };
    if (error_at(0) <= target_error_pct) {
        return std::max(scores[order.front()] * 2.0,
                        config_.tuner.min_threshold);
    }
    if (error_at(order.size()) > target_error_pct)
        return config_.tuner.min_threshold;  // even fixing all is short.
    size_t lo = 0, hi = order.size();  // lo insufficient, hi sufficient.
    while (lo + 1 < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        if (error_at(mid) <= target_error_pct)
            hi = mid;
        else
            lo = mid;
    }
    return std::max(scores[order[hi - 1]], config_.tuner.min_threshold);
}

Result<std::unique_ptr<RumbaRuntime>>
RumbaRuntime::FromArtifact(const Artifact& artifact,
                           const RuntimeConfig& config)
{
    auto bench = apps::TryMakeBenchmark(artifact.benchmark);
    if (bench == nullptr) {
        return Status(StatusCode::kNotFound,
                      "artifact names unknown benchmark '" +
                          artifact.benchmark + "'");
    }
    if (predict::TryDeserializePredictor(artifact.predictor) ==
        nullptr) {
        return Status(StatusCode::kDataLoss,
                      "artifact carries an unrecognized checker blob");
    }
    const nn::Mlp probe = nn::Mlp::Deserialize(artifact.rumba_mlp);
    if (probe.GetTopology().NumInputs() != bench->NumInputs() ||
        probe.GetTopology().NumOutputs() != bench->NumOutputs()) {
        return Status(
            StatusCode::kFailedPrecondition,
            "artifact network arity does not match kernel '" +
                artifact.benchmark + "'");
    }
    if (!std::isfinite(artifact.threshold)) {
        return Status(StatusCode::kFailedPrecondition,
                      "artifact threshold is not finite");
    }
    // External configuration: report bad knobs instead of dying in
    // the constructors' checked-fatal paths.
    if (Status status = ValidateTunerConfig(config.tuner); !status.ok())
        return status;
    if (Status status =
            ValidateRecoveryPolicyConfig(config.recovery_policy);
        !status.ok()) {
        return status;
    }
    if (!artifact.compensator.empty()) {
        const Result<predict::Compensator> compensator =
            predict::Compensator::TryDeserialize(artifact.compensator);
        if (!compensator.ok())
            return compensator.status();
        if (compensator->InputArity() !=
                bench->NumInputs() + bench->NumOutputs() ||
            compensator->OutputArity() != bench->NumOutputs()) {
            return Status(
                StatusCode::kFailedPrecondition,
                "artifact compensator arity does not match kernel '" +
                    artifact.benchmark + "'");
        }
    }
    return std::unique_ptr<RumbaRuntime>(
        new RumbaRuntime(artifact, config));
}

const char*
DegradeModeName(DegradeMode mode)
{
    switch (mode) {
      case DegradeMode::kNone:
        return "none";
      case DegradeMode::kCompensateOnly:
        return "compensate-only";
      case DegradeMode::kSkipRecovery:
        return "skip-recovery";
      case DegradeMode::kSkipCheck:
        return "skip-check";
    }
    return "unknown";
}

namespace {

/**
 * The one clock of an invocation, read only at stage boundaries: wall
 * time always, thread CPU as well when @p cpu is set. Lap() charges
 * the time since the previous boundary to one stage.
 */
class StageClock {
  public:
    explicit StageClock(bool cpu)
        : cpu_(cpu), start_ns_(obs::NowNs()), wall_ns_(start_ns_),
          cpu_ns_(cpu ? obs::ThreadCpuNowNs() : 0)
    {
    }

    void
    Lap(uint64_t* wall_ns, int64_t* cpu_ns)
    {
        const uint64_t now = obs::NowNs();
        *wall_ns += now - wall_ns_;
        wall_ns_ = now;
        if (cpu_) {
            const int64_t cpu_now = obs::ThreadCpuNowNs();
            *cpu_ns += cpu_now - cpu_ns_;
            cpu_ns_ = cpu_now;
        }
    }

    /** Wall time since the clock started (one more read). */
    uint64_t SinceStartNs() const { return obs::NowNs() - start_ns_; }

  private:
    bool cpu_;
    uint64_t start_ns_;
    uint64_t wall_ns_;
    int64_t cpu_ns_;
};

/** A stage's timeline span and sampling-profiler tag (no clock reads
 *  unless span recording is on). */
class StageMark {
  public:
    StageMark(const char* span_name, obs::ProfileStage stage)
        : span_(span_name), tag_(stage)
    {
    }

  private:
    obs::Span span_;
    obs::StageScope tag_;
};

}  // namespace

struct RumbaRuntime::Invocation {
    const BatchView& in;
    double* outputs;
    AuditCapture* capture;
    size_t n = 0;
    size_t approx_n = 0;  ///< elements the breaker lets ride the NPU.
    size_t out_w = 0;
    bool degraded = false;
    bool run_check = true;
    bool run_recovery = true;
    bool compensate_only = false;
    BreakerState state_before = BreakerState::kClosed;
    InvocationReport report = {};
    size_t fires = 0;
    size_t non_finite = 0;
    size_t queue_full_stalls = 0;
    size_t queue_drops = 0;
    double unfixed_predicted_sum = 0.0;
    DrainStats drain = {};
};

InvocationReport
RumbaRuntime::ProcessInvocation(const BatchView& raw_inputs,
                                double* outputs, AuditCapture* capture,
                                DegradeMode degrade)
{
    RUMBA_CHECK(outputs != nullptr);
    RUMBA_CHECK(!raw_inputs.empty());
    RUMBA_CHECK(raw_inputs.width() == pipeline_.Bench().NumInputs());
    StageClock clock(config_.cpu_attribution);
    const obs::Span invocation_span("runtime.invocation");
    const size_t n = raw_inputs.count();
    Invocation inv{raw_inputs, outputs, capture};
    inv.n = n;
    inv.out_w = pipeline_.Bench().NumOutputs();
    // The breaker decides how much of the batch may ride the
    // accelerator: all of it while closed, a canary slice while
    // half-open, none while open (exact-only degradation).
    inv.state_before = breaker_.State();
    inv.approx_n = breaker_.ApproxBudget(n);
    // The overload rungs (serve/admission.h): compensate-only keeps
    // the checker and the cheap compensate tier but never re-executes
    // (degenerates to skip-recovery without a deployed compensator);
    // skip-recovery keeps the checker but never queues its verdicts;
    // skip-check bypasses the detector entirely. All of them skip the
    // verify pass (the auditor owns degraded ground truth) and give
    // no tuner/drift/breaker feedback.
    inv.degraded = degrade != DegradeMode::kNone;
    inv.run_check = degrade != DegradeMode::kSkipCheck;
    inv.compensate_only = degrade == DegradeMode::kCompensateOnly &&
                          recovery_.HasCompensator();
    inv.run_recovery = !inv.degraded || inv.compensate_only;
    InvocationReport& report = inv.report;
    InvocationTimings& wall = report.timings;
    InvocationCpuTimings& cpu = report.cpu;
    report.elements = n;
    report.degrade = degrade;

    if (capture != nullptr) {
        capture->count = n;
        capture->out_width = inv.out_w;
        capture->approx_outputs.assign(n * inv.out_w, 0.0);
        capture->predicted_error.assign(n, 0.0);
        capture->fired.assign(n, 0);
        capture->fixed.assign(n, 0);
        capture->exact_path.assign(n, 0);
    }
    detector_.SetThreshold(tuner_.Threshold());
    detector_.Reset();
    report.threshold_used = detector_.Threshold();

    ApproximateStage(raw_inputs, inv.approx_n, outputs);
    clock.Lap(&wall.device_ns, &cpu.device_cpu_ns);
    if (capture != nullptr) {
        std::copy(outputs, outputs + inv.approx_n * inv.out_w,
                  capture->approx_outputs.begin());
    }
    if (inv.run_check) {
        inv.fires = CheckStage(inv.approx_n, outputs,
                               /*inject_faults=*/true);
        clock.Lap(&wall.check_ns, &cpu.check_cpu_ns);
        for (size_t i = 0; i < inv.approx_n; ++i) {
            const CheckResult& check = scratch_checks_[i];
            inv.non_finite += check.non_finite ? 1 : 0;
            if (capture != nullptr) {
                capture->predicted_error[i] = check.predicted_error;
                capture->fired[i] = check.fired ? 1 : 0;
            }
        }
    }

    scratch_fixed_.assign(n, kFixedNone);
    if (inv.run_check)
        TierStage(inv);
    if (inv.approx_n < n) {
        clock.Lap(&wall.recover_ns, &cpu.recover_cpu_ns);
        ExactTailStage(inv);
        clock.Lap(&wall.exact_ns, &cpu.exact_cpu_ns);
    }
    DrainStage(inv);
    clock.Lap(&wall.recover_ns, &cpu.recover_cpu_ns);
    // The compensate tier's share of the recover stages: measured per
    // entry inside the drains for wall time, apportioned by the same
    // per-tier wall ratio for CPU.
    wall.compensate_ns = std::min(inv.drain.compensate_ns, wall.recover_ns);
    wall.recover_ns -= wall.compensate_ns;
    if (inv.drain.compensate_ns > 0) {
        const double frac =
            static_cast<double>(inv.drain.compensate_ns) /
            static_cast<double>(inv.drain.compensate_ns +
                                inv.drain.reexec_ns);
        cpu.compensate_cpu_ns = static_cast<int64_t>(
            static_cast<double>(cpu.recover_cpu_ns) * frac);
        cpu.recover_cpu_ns -= cpu.compensate_cpu_ns;
    }

    VerifyStage(inv);
    clock.Lap(&wall.verify_ns, &cpu.verify_cpu_ns);
    obs_verify_ns_->Observe(static_cast<double>(wall.verify_ns));

    FeedbackStage(inv);
    obs_invocation_ns_->Observe(static_cast<double>(clock.SinceStartNs()));
    return report;
}

void
RumbaRuntime::ApproximateStage(const BatchView& in, size_t count,
                               double* outputs)
{
    const StageMark mark("runtime.approximate", obs::ProfileStage::kDevice);
    const size_t in_w = in.width();
    const size_t out_w = pipeline_.Bench().NumOutputs();
    scratch_norm_in_.resize(count * in_w);
    scratch_norm_out_.resize(count * out_w);
    for (size_t i = 0; i < count; ++i) {
        pipeline_.NormalizeInput(in[i].data(),
                                 scratch_norm_in_.data() + i * in_w);
    }
    accel_.InvokeBatch(scratch_norm_in_.data(), count,
                       scratch_norm_out_.data());
    for (size_t i = 0; i < count; ++i) {
        pipeline_.DenormalizeOutput(scratch_norm_out_.data() + i * out_w,
                                    outputs + i * out_w);
    }
}

size_t
RumbaRuntime::CheckStage(size_t count, const double* outputs,
                         bool inject_faults)
{
    const StageMark mark("runtime.check",
                         obs::ProfileStage::kPredictCheck);
    scratch_checks_.resize(count);
    detector_.CheckBatch(scratch_norm_in_.data(),
                         pipeline_.Bench().NumInputs(), outputs,
                         pipeline_.Bench().NumOutputs(), count,
                         scratch_checks_.data());
    fault::FaultInjector& injector = fault::FaultInjector::Default();
    const bool mispredict =
        inject_faults && injector.Armed() &&
        injector.Enabled(fault::FaultClass::kCheckerMispredict);
    size_t fires = 0;
    for (size_t i = 0; i < count; ++i) {
        CheckResult& check = scratch_checks_[i];
        // Checker-mispredict fault: flip the verdict. Non-finite
        // fires are never flipped — that guard is unconditional.
        if (mispredict && !check.non_finite &&
            injector.ShouldInject(fault::FaultClass::kCheckerMispredict))
            check.fired = !check.fired;
        fires += check.fired ? 1 : 0;
    }
    return fires;
}

void
RumbaRuntime::TierStage(Invocation& inv)
{
    const StageMark mark("runtime.tier", obs::ProfileStage::kRecover);
    fault::FaultInjector& injector = fault::FaultInjector::Default();
    const bool inject_stall =
        injector.Armed() &&
        injector.Enabled(fault::FaultClass::kQueueStall);
    for (size_t i = 0; i < inv.approx_n; ++i) {
        const CheckResult& check = scratch_checks_[i];
        if (!check.fired || !inv.run_recovery) {
            // Unfired — or fired on the skip-recovery rung, where the
            // verdict is recorded but the element stays approximate
            // and its predicted error stays in the estimate.
            inv.unfixed_predicted_sum +=
                std::max(0.0, check.predicted_error);
            continue;
        }
        // On the compensate-only shedding rung, finite re-execute
        // verdicts are demoted to the cheap tier — that is the rung's
        // point; non-finite garbage still re-executes (no mode may
        // deliver NaN/Inf).
        RecoveryDecision decision =
            policy_.Decide(i, check.predicted_error, check.non_finite,
                           inv.report.threshold_used);
        if (inv.compensate_only && !check.non_finite &&
            std::isfinite(check.predicted_error) &&
            decision.tier == RecoveryTier::kReexecute) {
            decision.tier = RecoveryTier::kCompensate;
        }
        // Backpressure: drain the queue when full, as the pipelined
        // CPU side would — unless the queue-stall fault says the CPU
        // side is unavailable, in which case the push overflows into
        // drop-and-count.
        if (recovery_.Queue().Full() &&
            !(inject_stall &&
              injector.ShouldInject(fault::FaultClass::kQueueStall))) {
            const obs::Span stall_span("recovery.queue_backpressure");
            ++inv.queue_full_stalls;
            recovery_.Drain(inv.in, inv.outputs, inv.out_w,
                            &scratch_fixed_, &inv.drain);
        }
        if (!recovery_.Queue().Push(decision))
            ++inv.queue_drops;
    }
    recovery_.RecordQueueFullStalls(inv.queue_full_stalls);
    recovery_.RecordQueueDrops(inv.queue_drops);
}

void
RumbaRuntime::ExactTailStage(Invocation& inv)
{
    // Breaker-degraded tail: exact CPU execution (paper-faithful
    // recovery of everything), bypassing accelerator and checker.
    const StageMark mark("runtime.breaker_exact",
                         obs::ProfileStage::kRecover);
    const apps::Benchmark& app = pipeline_.Bench();
    const size_t out_w = inv.out_w;
    for (size_t i = inv.approx_n; i < inv.n; ++i) {
        app.RunExact(inv.in[i].data(), inv.outputs + i * out_w);
        scratch_fixed_[i] = kFixedExact;
    }
    if (inv.capture != nullptr) {
        std::copy(inv.outputs + inv.approx_n * out_w,
                  inv.outputs + inv.n * out_w,
                  inv.capture->approx_outputs.begin() +
                      static_cast<ptrdiff_t>(inv.approx_n * out_w));
        std::fill(inv.capture->exact_path.begin() +
                      static_cast<ptrdiff_t>(inv.approx_n),
                  inv.capture->exact_path.end(), 1);
    }
    obs_breaker_exact_elements_->Increment(inv.n - inv.approx_n);
}

void
RumbaRuntime::DrainStage(Invocation& inv)
{
    const StageMark mark("runtime.drain", obs::ProfileStage::kRecover);
    if (inv.run_recovery) {
        recovery_.Drain(inv.in, inv.outputs, inv.out_w, &scratch_fixed_,
                        &inv.drain);
    }
    // Non-finite salvage: a NaN/Inf approximate output must never be
    // delivered. The detector's guard queues them, but an overflowed
    // (dropped) entry could still slip through — recover it here,
    // unconditionally.
    const apps::Benchmark& app = pipeline_.Bench();
    size_t salvaged = 0;
    for (size_t i = 0; i < inv.approx_n; ++i) {
        if (scratch_fixed_[i])
            continue;
        const double* out = inv.outputs + i * inv.out_w;
        if (std::all_of(out, out + inv.out_w,
                        [](double v) { return std::isfinite(v); }))
            continue;
        app.RunExact(inv.in[i].data(), inv.outputs + i * inv.out_w);
        scratch_fixed_[i] = kFixedExact;
        ++salvaged;
    }
    if (salvaged > 0)
        obs_non_finite_salvaged_->Increment(salvaged);

    InvocationReport& report = inv.report;
    for (const char f : scratch_fixed_) {
        if (f == kFixedExact)
            ++report.tier_reexecuted;
        else if (f == kFixedCompensated)
            ++report.tier_compensated;
    }
    report.tier_accepted =
        inv.n - report.tier_reexecuted - report.tier_compensated;
    report.fixes = report.tier_reexecuted + report.tier_compensated;
    if (inv.capture != nullptr) {
        inv.capture->fixed.assign(scratch_fixed_.begin(),
                                  scratch_fixed_.end());
    }
}

void
RumbaRuntime::VerifyStage(Invocation& inv)
{
    // True residual error (the runtime can verify because the exact
    // kernel is available; a production deployment would not).
    // Degraded invocations skip verification entirely — it is the
    // single most expensive stage (exact re-execution per unfixed
    // element), and shedding it is the point of the rung. Their
    // ground truth comes from the auditor's forced samples. Exactly
    // re-executed elements have zero residual by construction;
    // *compensated* elements do not — their true residual is measured
    // here, so compensation shows up in the verified output error and
    // feeds the policy's boundary tuning.
    const StageMark mark("runtime.verify", obs::ProfileStage::kVerify);
    const apps::Benchmark& app = pipeline_.Bench();
    std::vector<double>& residual = scratch_residual_;
    residual.assign(inv.n, 0.0);
    scratch_exact_.assign(inv.out_w, 0.0);
    for (size_t i = 0; !inv.degraded && i < inv.n; ++i) {
        if (scratch_fixed_[i] == kFixedExact)
            continue;
        app.RunExact(inv.in[i].data(), scratch_exact_.data());
        scratch_approx_.assign(inv.outputs + i * inv.out_w,
                               inv.outputs + (i + 1) * inv.out_w);
        residual[i] = app.ElementError(scratch_exact_, scratch_approx_);
    }
    inv.report.output_error_pct = app.AggregateError(residual);
}

void
RumbaRuntime::FeedbackStage(Invocation& inv)
{
    const apps::Benchmark& app = pipeline_.Bench();
    InvocationReport& report = inv.report;
    const size_t n = inv.n;
    const std::vector<double>& residual = scratch_residual_;
    if (!inv.degraded && report.tier_compensated > 0) {
        // Verified ground truth for the compensate tier: its mean
        // true residual drives the policy's re-execute boundary (the
        // audit path feeds the same loop for degraded invocations).
        double comp_sum = 0.0;
        for (size_t i = 0; i < n; ++i) {
            if (scratch_fixed_[i] == kFixedCompensated)
                comp_sum += residual[i];
        }
        policy_.OnCompensatedGroundTruth(
            100.0 * comp_sum /
                static_cast<double>(report.tier_compensated),
            report.tier_compensated);
    }
    report.estimated_error_pct =
        100.0 * inv.unfixed_predicted_sum / static_cast<double>(n);

    // ---- Modeled costs and tuner feedback ----------------------------
    sim::RegionProfile region;
    region.cpu_ops_per_iter = kernel_ops_;
    region.iterations = n;
    region.region_fraction = app.RegionFraction();

    sim::AcceleratorProfile accel_profile;
    accel_profile.cycles_per_invocation = accel_.CyclesPerInvocation();
    accel_profile.frequency_ghz = config_.pipeline.npu.frequency_ghz;
    const auto topo_macs =
        pipeline_.RumbaMlp().GetTopology().MacsPerInvocation();
    accel_profile.macs_per_invocation = static_cast<double>(topo_macs);
    accel_profile.luts_per_invocation = static_cast<double>(
        pipeline_.RumbaMlp().GetTopology().NumNeurons());
    accel_profile.queue_words_per_invocation =
        static_cast<double>(app.NumInputs() + app.NumOutputs()) + 1.0;

    const sim::CheckerCost checker = detector_.CostPerCheck();
    // The system model charges exact CPU re-execution per fix;
    // compensated iterations cost a handful of MACs, not a kernel
    // re-run, so only the re-execute tier counts here.
    report.costs = system_.Evaluate(region, accel_profile,
                                    inv.run_check ? &checker : nullptr,
                                    report.tier_reexecuted);

    const size_t adjustments_before = tuner_.Adjustments();
    if (!inv.degraded && inv.approx_n == n) {
        // Only full-approximate invocations feed the tuner: a
        // breaker-degraded batch would read as an artificially low
        // error and pull the threshold the wrong way.
        InvocationFeedback feedback;
        feedback.elements = n;
        // Energy mode budgets *re-executions* (the expensive tier).
        feedback.fixes = report.tier_reexecuted;
        feedback.estimated_error_pct = report.estimated_error_pct;
        feedback.cpu_busy_ratio =
            report.costs.npu_ns > 0.0
                ? report.costs.recovery_ns / report.costs.npu_ns
                : 0.0;
        tuner_.EndInvocation(feedback);
    }

    if (!inv.degraded) {
        // Fire rate over the accelerator-served slice only (Observe
        // ignores zero-element rounds, i.e. an open breaker).
        drift_.Observe(inv.fires, inv.approx_n);
        report.drift_detected = drift_.DriftDetected();
        if (report.drift_detected)
            obs_drift_alarms_->Increment();

        // Breaker health covers only the accelerator-served slice;
        // the exact tail is correct by construction. Degraded
        // invocations feed neither drift nor breaker: their reduced
        // service is deliberate, not accelerator sickness.
        BreakerHealth health;
        health.approx_elements = inv.approx_n;
        health.fires = inv.fires;
        health.non_finite = inv.non_finite;
        health.queue_drops = inv.queue_drops;
        health.drift = report.drift_detected;
        if (inv.approx_n > 0) {
            const std::vector<double> approx_residual(
                residual.begin(),
                residual.begin() + static_cast<ptrdiff_t>(inv.approx_n));
            health.output_error_pct =
                app.AggregateError(approx_residual);
        }
        health.target_error_pct = config_.tuner.target_error_pct;
        breaker_.OnInvocation(health);
        if (inv.state_before == BreakerState::kHalfOpen &&
            breaker_.State() == BreakerState::kClosed) {
            // Quality recovered: the drift baseline restarts from the
            // calibrated expectation instead of the outage's fire
            // storm.
            drift_.ReArm();
        }
    }
    report.queue_drops = inv.queue_drops;
    report.non_finite_outputs = inv.non_finite;
    report.exact_elements = n - inv.approx_n;
    report.breaker_state = breaker_.State();

    ++invocations_;
    ++summary_.invocations;
    summary_.elements += n;
    summary_.fixes += report.fixes;
    summary_.error_weighted_sum +=
        report.output_error_pct * static_cast<double>(n);
    summary_.baseline_app_ns += report.costs.baseline_app_ns;
    summary_.baseline_app_nj += report.costs.baseline_app_nj;
    summary_.scheme_app_ns += report.costs.scheme_app_ns;
    summary_.scheme_app_nj += report.costs.scheme_app_nj;

    obs_invocations_->Increment();
    obs_elements_->Increment(n);
    obs_fixes_->Increment(report.fixes);
    obs_tier_accept_->Increment(report.tier_accepted);
    obs_tier_compensate_->Increment(report.tier_compensated);
    obs_tier_reexecute_->Increment(report.tier_reexecuted);
    if (!inv.degraded)  // degraded rounds skip verify: no true error.
        obs_output_error_->Set(report.output_error_pct);

    obs::TraceEvent event;
    event.invocation = invocations_ - 1;
    event.elements = n;
    event.threshold = report.threshold_used;
    event.fires = inv.fires;
    event.fixes = report.fixes;
    event.queue_full_stalls = inv.queue_full_stalls;
    event.queue_drops = inv.queue_drops;
    event.non_finite = inv.non_finite;
    event.exact_elements = report.exact_elements;
    event.tuner_adjustments = tuner_.Adjustments() - adjustments_before;
    event.output_error_pct = report.output_error_pct;
    event.estimated_error_pct = report.estimated_error_pct;
    event.drift = report.drift_detected;
    event.breaker_state =
        static_cast<uint32_t>(report.breaker_state);
    obs::TraceRing::Default().Record(event);
}

}  // namespace rumba::core
