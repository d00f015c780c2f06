#ifndef RUMBA_NPU_NPU_H_
#define RUMBA_NPU_NPU_H_

/**
 * @file
 * The approximate accelerator: an 8-PE NPU-style neural unit. It is
 * configured once per kernel with a trained MLP's weights (quantized
 * into PE weight buffers) and then invoked once per loop iteration of
 * the approximated region, consuming inputs from the input queue and
 * producing approximate outputs into the output queue.
 */

#include <cstddef>
#include <vector>

#include "nn/mlp.h"
#include "npu/fixed_point.h"
#include "npu/schedule.h"
#include "npu/sigmoid_lut.h"

namespace rumba::obs {
class Counter;
}  // namespace rumba::obs

namespace rumba::npu {

/** Structural configuration of the accelerator. */
struct NpuConfig {
    size_t num_pes = 8;          ///< processing elements.
    FixedFormat format;          ///< datapath fixed-point format.
    size_t lut_entries = 2048;   ///< activation table size.
    double lut_range = 8.0;      ///< activation table input coverage.
    double frequency_ghz = 2.0;  ///< accelerator clock; the NPU sits
                                 ///< on-chip and clocks with the core.
};

/** Event counters exposed to the energy/timing model. */
struct NpuStats {
    size_t invocations = 0;   ///< network evaluations performed.
    size_t macs = 0;          ///< fixed-point multiply-accumulates.
    size_t lut_lookups = 0;   ///< activation-table reads.
    size_t cycles = 0;        ///< busy cycles (schedule-derived).
    size_t input_words = 0;   ///< words consumed from the input queue.
    size_t output_words = 0;  ///< words pushed to the output queue.
    size_t config_words = 0;  ///< words streamed via the config queue.
};

/** The accelerator model. */
class Npu {
  public:
    /** Build an unconfigured accelerator. */
    explicit Npu(const NpuConfig& config = NpuConfig());

    /**
     * Load a trained network: quantizes weights into the PE weight
     * buffers and compiles the static schedule. Counts config-queue
     * traffic. May be called again to re-target the accelerator.
     */
    void Configure(const nn::Mlp& mlp);

    /** True once Configure() has run. */
    bool Configured() const { return !layers_.empty(); }

    /**
     * Evaluate the network on one iteration's inputs using the
     * fixed-point datapath. Input values are expected in the
     * normalized domain the network was trained on.
     */
    std::vector<double> Invoke(const std::vector<double>& input);

    /**
     * Invoke() into a caller-owned output vector (hot-path form: the
     * datapath reuses internal scratch and @p output keeps its
     * capacity across calls, so a steady-state invocation performs no
     * heap allocation).
     */
    void Invoke(const std::vector<double>& input,
                std::vector<double>* output);

    /**
     * Invoke() over @p count elements stored back to back: @p inputs
     * holds count x NumInputs() normalized values, @p outputs receives
     * count x NumOutputs(). Results, event counters and fault draws
     * are those of @p count Invoke() calls in element order; the
     * `npu.invocations` counter is published once per batch.
     */
    void InvokeBatch(const double* inputs, size_t count, double* outputs);

    /** Latency of one invocation in accelerator cycles. */
    size_t CyclesPerInvocation() const { return schedule_.total_cycles; }

    /** Latency of one invocation in nanoseconds. */
    double InvocationLatencyNs() const;

    /** The compiled schedule (inspection/tests). */
    const Schedule& GetSchedule() const { return schedule_; }

    /** Event counters accumulated since construction/ResetStats(). */
    const NpuStats& Stats() const { return stats_; }

    /** Clear the event counters (configuration traffic included). */
    void ResetStats() { stats_ = NpuStats(); }

    /** Structural configuration. */
    const NpuConfig& Config() const { return config_; }

    /** Input arity of the loaded network. */
    size_t NumInputs() const;

    /** Output arity of the loaded network. */
    size_t NumOutputs() const;

  private:
    /** The fixed-point datapath for one element: NumInputs() values
     *  in, NumOutputs() values out. Updates stats_, publishes nothing. */
    void Forward(const double* input, double* output);

    /** Quantized mirror of one nn::Layer. */
    struct QuantLayer {
        size_t in = 0;
        size_t out = 0;
        nn::Activation act = nn::Activation::kSigmoid;
        std::vector<int16_t> weights;  ///< [out][in + 1], bias last.
    };

    NpuConfig config_;
    std::vector<QuantLayer> layers_;
    nn::Topology topology_;
    Schedule schedule_;
    SigmoidLut sigmoid_lut_;
    SigmoidLut tanh_lut_;
    NpuStats stats_;
    /** Datapath scratch reused across invocations (see Invoke). */
    std::vector<int16_t> scratch_current_;
    std::vector<int16_t> scratch_next_;
    /** Process-wide telemetry (obs/metrics.h): invocation count. */
    obs::Counter* obs_invocations_;
};

}  // namespace rumba::npu

#endif  // RUMBA_NPU_NPU_H_
