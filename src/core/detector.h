#ifndef RUMBA_CORE_DETECTOR_H_
#define RUMBA_CORE_DETECTOR_H_

/**
 * @file
 * Rumba's detection module (Section 3.2): an error predictor attached
 * to the accelerator plus a tuning threshold. Each accelerator
 * invocation is checked; when the predicted error exceeds the
 * threshold the check "fires" and the element's recovery bit is set.
 */

#include <memory>
#include <vector>

#include "predict/predictor.h"

namespace rumba::obs {
class Counter;
}  // namespace rumba::obs

namespace rumba::core {

/** Outcome of one dynamic check. */
struct CheckResult {
    double predicted_error = 0.0;  ///< the checker's error estimate.
    bool fired = false;            ///< predicted_error >= threshold.
    /** The approximate output (or the input) contained NaN/Inf. Such
     *  elements fire unconditionally — a non-finite word can never be
     *  delivered — and bypass the predictor so sequential checker
     *  state (the EMA history) is not poisoned by it. */
    bool non_finite = false;
};

/** The detection module: predictor + threshold. */
class Detector {
  public:
    /**
     * @param predictor the trained checker; the detector takes
     *        ownership.
     * @param threshold initial tuning threshold (the online tuner may
     *        move it between invocations).
     */
    Detector(std::unique_ptr<predict::ErrorPredictor> predictor,
             double threshold);

    /** Run one check over an element's inputs/approximate outputs. */
    CheckResult Check(const std::vector<double>& inputs,
                      const std::vector<double>& approx_outputs);

    /**
     * Check() over @p count elements in order: element i's inputs are
     * the @p in_width values at inputs + i * in_width, its approximate
     * outputs the @p out_width values at approx_outputs + i *
     * out_width; its result lands in results[i]. Verdicts and
     * sequential predictor state are those of @p count Check() calls;
     * the shared check/fire counters are published once per batch.
     */
    void CheckBatch(const double* inputs, size_t in_width,
                    const double* approx_outputs, size_t out_width,
                    size_t count, CheckResult* results);

    /** Current tuning threshold. */
    double Threshold() const { return threshold_; }

    /** Move the tuning threshold (online tuner, Section 3.4). */
    void SetThreshold(double threshold) { threshold_ = threshold; }

    /** The wrapped predictor. */
    const predict::ErrorPredictor& Predictor() const { return *predictor_; }

    /** Clear sequential predictor state between runs. */
    void Reset() { predictor_->Reset(); }

    /** Hardware cost of one check. */
    sim::CheckerCost CostPerCheck() const
    {
        return predictor_->CostPerCheck();
    }

    /** Checks performed since construction. */
    size_t ChecksPerformed() const { return checks_; }

    /** Checks that fired since construction. */
    size_t ChecksFired() const { return fired_; }

    /** Checks that fired on a non-finite value since construction. */
    size_t NonFiniteChecks() const { return non_finite_; }

  private:
    /** One check, without touching any counter. */
    CheckResult Evaluate(const std::vector<double>& inputs,
                         const std::vector<double>& approx_outputs);

    /** Add checks, fires and non-finite fires to the counters. */
    void Publish(size_t checks, size_t fired, size_t non_finite);

    std::unique_ptr<predict::ErrorPredictor> predictor_;
    double threshold_;
    size_t checks_ = 0;
    size_t fired_ = 0;
    size_t non_finite_ = 0;
    /** CheckBatch() staging: the predictor takes element vectors. */
    std::vector<double> row_in_;
    std::vector<double> row_out_;
    /** Process-wide telemetry: check/fire counts. */
    obs::Counter* obs_checks_;
    obs::Counter* obs_fires_;
    obs::Counter* obs_non_finite_;
};

}  // namespace rumba::core

#endif  // RUMBA_CORE_DETECTOR_H_
