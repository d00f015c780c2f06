#include "core/detector.h"

#include <cmath>

#include "common/logging.h"
#include "obs/metrics.h"

namespace rumba::core {

Detector::Detector(std::unique_ptr<predict::ErrorPredictor> predictor,
                   double threshold)
    : predictor_(std::move(predictor)),
      threshold_(threshold),
      obs_checks_(obs::Registry::Default().GetCounter("detector.checks")),
      obs_fires_(obs::Registry::Default().GetCounter("detector.fires")),
      obs_non_finite_(
          obs::Registry::Default().GetCounter("detector.non_finite"))
{
    RUMBA_CHECK(predictor_ != nullptr);
}

CheckResult
Detector::Check(const std::vector<double>& inputs,
                const std::vector<double>& approx_outputs)
{
    const CheckResult result = Evaluate(inputs, approx_outputs);
    Publish(1, result.fired ? 1 : 0, result.non_finite ? 1 : 0);
    return result;
}

void
Detector::CheckBatch(const double* inputs, size_t in_width,
                     const double* approx_outputs, size_t out_width,
                     size_t count, CheckResult* results)
{
    size_t fired = 0;
    size_t non_finite = 0;
    for (size_t i = 0; i < count; ++i) {
        row_in_.assign(inputs + i * in_width,
                       inputs + (i + 1) * in_width);
        row_out_.assign(approx_outputs + i * out_width,
                        approx_outputs + (i + 1) * out_width);
        results[i] = Evaluate(row_in_, row_out_);
        fired += results[i].fired ? 1 : 0;
        non_finite += results[i].non_finite ? 1 : 0;
    }
    Publish(count, fired, non_finite);
}

CheckResult
Detector::Evaluate(const std::vector<double>& inputs,
                   const std::vector<double>& approx_outputs)
{
    CheckResult result;

    // Non-finite guard: a NaN/Inf anywhere in the element means the
    // accelerator (or the data feeding it) misbehaved outright. Fire
    // unconditionally and skip the predictor — running it would both
    // waste the check and, for sequential checkers like the EMA,
    // poison their running state with the garbage value.
    auto any_non_finite = [](const std::vector<double>& values) {
        for (double v : values) {
            if (!std::isfinite(v))
                return true;
        }
        return false;
    };
    if (any_non_finite(approx_outputs) || any_non_finite(inputs)) {
        result.predicted_error = threshold_;
        result.fired = true;
        result.non_finite = true;
        return result;
    }

    result.predicted_error =
        predictor_->PredictError(inputs, approx_outputs);
    result.fired = result.predicted_error >= threshold_;
    return result;
}

void
Detector::Publish(size_t checks, size_t fired, size_t non_finite)
{
    checks_ += checks;
    fired_ += fired;
    non_finite_ += non_finite;
    obs_checks_->Increment(checks);
    if (fired > 0)
        obs_fires_->Increment(fired);
    if (non_finite > 0)
        obs_non_finite_->Increment(non_finite);
}

}  // namespace rumba::core
