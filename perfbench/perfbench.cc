/**
 * @file
 * The repository benchmark driver. One process runs one workload on
 * inputs generated from --seed and prints one JSON object (the last
 * line of stdout) with every metric, its unit and its sample count;
 * perfbench/run.py builds this binary, stamps the run record and
 * prints the result line the benchmark contract asks for.
 *
 * Workloads (see perfbench/README.md for why each exists):
 *   embed_mix   one thread, seven RumbaRuntime replicas (one per
 *               Table 1 app) deployed from artifacts trained in
 *               process at the library-default RuntimeConfig, driven
 *               round-robin with 500-element invocations.
 *   embed_2t    embed_mix on two threads, each with its own replicas.
 *   serve_open  a 2-shard serve::ShardedEngine (default ServeConfig)
 *               serving inversek2j requests of 4+-1 elements from an
 *               open-loop Poisson schedule at a fixed rate.
 *
 * --trace 0 measures the end-to-end metrics with nothing but the
 * program's own telemetry running. --trace 1 produces the per-layer
 * metrics: the runtime's stages are not public calls, so every
 * invocation is replayed through the public functions of each module
 * on shadow objects restored from the same artifact, each stage timed
 * over the whole batch from this file. The replay must reproduce the
 * runtime's fired set, re-executed set, outputs, verified error,
 * modeled costs and next threshold bit for bit, or the invocation
 * counts as failed.
 *
 * Time-based end-to-end metrics are reported at a nominal host speed
 * measured by a probe timed alongside them (Record::SetAtNominalSpeed);
 * the measured values stay in the record as <name>.raw.
 */

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/benchmark.h"
#include "common/random.h"
#include "common/statistics.h"
#include "core/artifact.h"
#include "core/detector.h"
#include "core/pipeline.h"
#include "core/recovery.h"
#include "core/recovery_policy.h"
#include "core/runtime.h"
#include "core/tuner.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "predict/predictor.h"
#include "serve/engine.h"
#include "sim/system_model.h"

using namespace rumba;

namespace {

// ---- Fixed benchmark settings -----------------------------------------

constexpr size_t kEmbedElements = 500;   ///< elements per invocation.
/** Latency quantiles are taken per window of this many samples
 *  (enough for ten beyond the p99) and reported as the median window. */
constexpr size_t kLatencyWindow = 2000;
constexpr size_t kWarmRounds = 3;        ///< untimed rounds per replica.
/** Traced embed runs replay at least this many rounds from fresh
 *  replicas; the deterministic counts cover exactly these rounds. */
constexpr size_t kDetRounds = 24;
constexpr int kSetupReps = 3;            ///< setups per run (median).
/** Probe pass time the nominal-speed metrics are expressed at. */
constexpr double kProbeNominalNs = 50'000.0;
/** Probe passes at each embed rotation and each setup step. */
constexpr int kProbePasses = 4;
/** Embed threads move to the next allowed CPU every this many rounds
 *  (tens of ms), so a run samples every vCPU instead of whichever one
 *  the scheduler left it on; on a shared host, vCPU speeds differ by
 *  up to 1.5x. */
constexpr size_t kRotateRounds = 16;
constexpr const char* kServeApp = "inversek2j";
constexpr size_t kServeShards = 2;
/** Open-loop offered load: about a third of the request rate the
 *  2-shard engine sustained on the 4-vCPU host the benchmark was
 *  defined on (see README.md). */
constexpr double kServeRate = 4000.0;
/** Serving warm-up excluded from stats (a quarter of shorter phases). */
constexpr uint64_t kServeWarmNs = 300'000'000;
/** A send this much behind its schedule counts as late. */
constexpr uint64_t kLateNs = 100'000;
/** The sender spins without yielding once a send is this close. */
constexpr uint64_t kSpinNs = 10'000;
/** The sender runs a probe pass when a send is this far off, at most
 *  once per kProbeEveryNs. */
constexpr uint64_t kProbeSlackNs = 300'000;
constexpr uint64_t kProbeEveryNs = 20'000'000;
/** The engine's default quality-SLO margin over the TOQ target. */
constexpr double kToqMarginPct = 2.0;

using obs::NowNs;

double
Seconds(uint64_t start_ns)
{
    return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/** Quantile @p q in [0, 1] of @p v; 0 when empty. */
double
Quantile(const std::vector<double>& v, double q)
{
    return v.empty() ? 0.0 : Percentile(v, q * 100.0);
}

double
Median(const std::vector<double>& v)
{
    return Quantile(v, 0.5);
}

/** Median over consecutive windows of @p window samples of each
 *  window's quantile @p q: one burst of host noise moves one window,
 *  not the result. Falls back to the plain quantile when there is no
 *  full window. */
double
WindowedQuantile(const std::vector<double>& v, size_t window, double q)
{
    if (v.size() < window)
        return Quantile(v, q);
    std::vector<double> per_window;
    for (size_t i = 0; i + window <= v.size(); i += window) {
        per_window.push_back(Quantile(
            std::vector<double>(v.begin() + static_cast<ptrdiff_t>(i),
                                v.begin() + static_cast<ptrdiff_t>(i + window)),
            q));
    }
    return Median(per_window);
}

/** Geometric mean of the positive entries (0 when there are none). */
double
Geomean(const std::vector<double>& v)
{
    double log_sum = 0.0;
    size_t n = 0;
    for (double x : v) {
        if (x > 0.0) {
            log_sum += std::log(x);
            ++n;
        }
    }
    return n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(n));
}

double
PeakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

bool
AllFinite(const double* v, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        if (!std::isfinite(v[i]))
            return false;
    }
    return true;
}

/**
 * One pass of the host-speed probe: fixed floating-point, table-lookup
 * and libm work that is no part of the program. Returns its duration
 * in ns. The host's speed drifts by tens of percent between runs and
 * between vCPUs (README.md), so the measuring threads interleave probe
 * passes with the workload, on the same vCPU at the same time, and the
 * time-based end-to-end metrics are reported at the probe's nominal
 * speed (see Record::SetAtNominalSpeed).
 */
double
ProbePass()
{
    static volatile double sink = 0.0;
    // 4 KiB, so the table stays in L1 wherever the process's layout
    // puts it: with 32 KiB, passes ran 1.3-1.7x slower in some
    // processes than in others.
    static const std::vector<double> table = [] {
        std::vector<double> t(512);
        for (size_t i = 0; i < t.size(); ++i)
            t[i] = std::sin(static_cast<double>(i));
        return t;
    }();
    double acc[16];
    for (int i = 0; i < 16; ++i)
        acc[i] = 1.0 + i * 1e-3;
    uint64_t x = 0x9E3779B97F4A7C15ull;
    const uint64_t t0 = NowNs();
    for (int it = 0; it < 1500; ++it) {
        for (int i = 0; i < 16; ++i) {
            acc[i] = acc[i] * 0.999999 + table[x >> 55] * 1e-6;
            x = x * 6364136223846793005ull + 1442695040888963407ull;
        }
        acc[it & 15] += std::exp(-acc[(it + 1) & 15]) * 1e-9;
    }
    const double ns = static_cast<double>(NowNs() - t0);
    sink = sink + acc[x & 15];
    return ns;
}

/** Append @p passes probe passes to @p out. */
void
Probe(std::vector<double>* out, int passes)
{
    for (int k = 0; k < passes; ++k)
        out->push_back(ProbePass());
}

/** The CPUs this process may run on. */
std::vector<int>
AllowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
        }
    }
    return cpus;
}

/** Pin the calling thread to one CPU (no-op when @p cpus is empty). */
void
PinThread(const std::vector<int>& cpus, size_t index)
{
    if (cpus.empty())
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus[index % cpus.size()], &set);
    pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

uint64_t
CounterValue(const char* name)
{
    return obs::Registry::Default().GetCounter(name)->Value();
}

// ---- Result record ----------------------------------------------------

struct Metric {
    double value = 0.0;
    std::string unit;
    size_t samples = 0;  ///< observations behind the value.
};

struct Record {
    std::map<std::string, Metric> metrics;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool correct = true;
    std::vector<std::string> errors;

    void
    Set(const std::string& name, double value, const char* unit,
        size_t samples)
    {
        metrics[name] = Metric{value, unit, samples};
    }

    /**
     * Record a host-speed-dependent metric at the probe's nominal speed
     * (@p probe_ns is the median probe pass measured alongside it) and
     * keep the measured value as <name>.raw. A time scales with the
     * host's slowness, a rate with its speed.
     */
    void
    SetAtNominalSpeed(const std::string& name, double raw, const char* unit,
                      size_t samples, double probe_ns, bool is_rate)
    {
        const double slowness =
            probe_ns > 0.0 ? probe_ns / kProbeNominalNs : 1.0;
        Set(name + ".raw", raw, unit, samples);
        Set(name, is_rate ? raw * slowness : raw / slowness, unit, samples);
    }

    void
    Fail(const std::string& why)
    {
        correct = false;
        if (errors.size() < 16)
            errors.push_back(why);
    }
};

std::string
JsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += (c == '\n' || c == '\t') ? ' ' : c;
    }
    return out + "\"";
}

void
PrintRecord(const Record& record)
{
    std::string out = "{\"correct\": ";
    out += record.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(record.attempted);
    out += ", \"failed\": " + std::to_string(record.failed);
    out += ", \"errors\": [";
    for (size_t i = 0; i < record.errors.size(); ++i)
        out += (i ? ", " : "") + JsonString(record.errors[i]);
    out += "], \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : record.metrics) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        out += (first ? "" : ", ") + JsonString(name) +
               ": {\"value\": " + value +
               ", \"unit\": " + JsonString(m.unit) +
               ", \"samples\": " + std::to_string(m.samples) + "}";
        first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

// ---- Inputs -----------------------------------------------------------

/** One app's test set, flattened in seeded order. */
struct InputPool {
    std::vector<double> flat;
    size_t width = 0;
    size_t count = 0;

    const double*
    Element(size_t i) const
    {
        return flat.data() + (i % count) * width;
    }
};

InputPool
MakePool(const apps::Benchmark& bench, uint64_t seed, uint64_t stream)
{
    const std::vector<std::vector<double>> tests = bench.TestInputs();
    std::vector<size_t> order(tests.size());
    std::iota(order.begin(), order.end(), size_t{0});
    Rng rng = Rng::ForStream(seed, stream);
    rng.Shuffle(order);
    InputPool pool;
    pool.width = bench.NumInputs();
    pool.count = tests.size();
    pool.flat.reserve(pool.count * pool.width);
    for (size_t i : order)
        pool.flat.insert(pool.flat.end(), tests[i].begin(),
                         tests[i].end());
    return pool;
}

// ---- Per-layer replay ---------------------------------------------------

/** Per-invocation stage times; ns per element except feedback. */
struct LayerSample {
    double normalize = 0.0;
    double invoke = 0.0;
    double check = 0.0;
    double recover = 0.0;
    double verify = 0.0;
    double exact = 0.0;
    double feedback = 0.0;  ///< ns per invocation.
};

/** Counts the replay observes (they repeat exactly for equal code). */
struct ReplayCounts {
    uint64_t elements = 0;
    uint64_t approx_elements = 0;
    uint64_t fires = 0;
    uint64_t reexecuted = 0;
    uint64_t wasted = 0;  ///< re-executed although already under target.
    uint64_t queue_full_stalls = 0;
    uint64_t exact_elements = 0;
    uint64_t macs = 0;
    uint64_t npu_invocations = 0;

    void
    Add(const ReplayCounts& o)
    {
        elements += o.elements;
        approx_elements += o.approx_elements;
        fires += o.fires;
        reexecuted += o.reexecuted;
        wasted += o.wasted;
        queue_full_stalls += o.queue_full_stalls;
        exact_elements += o.exact_elements;
        macs += o.macs;
        npu_invocations += o.npu_invocations;
    }
};

/**
 * The runtime's modules, rebuilt from the artifact the runtime was
 * deployed from and driven stage by stage through their public calls.
 */
class Shadow {
  public:
    Shadow(const core::Artifact& artifact,
           const core::RuntimeConfig& config)
        : config_(config),
          pipeline_(apps::MakeBenchmark(artifact.benchmark),
                    config.pipeline, artifact),
          accel_(pipeline_.MakeAccelerator(/*use_rumba_topology=*/true)),
          detector_(predict::DeserializePredictor(artifact.predictor),
                    artifact.threshold),
          policy_(config.recovery_policy,
                  config.tuner.target_error_pct),
          recovery_(&pipeline_.Bench(), config.recovery_queue_capacity),
          tuner_(config.tuner, artifact.threshold),
          system_(config.core, config.energy),
          kernel_ops_(pipeline_.Bench().ProfileKernel())
    {
    }

    Shadow(const Shadow&) = delete;
    Shadow& operator=(const Shadow&) = delete;

    /**
     * Replay one invocation the runtime processed. @p runtime_out are
     * the outputs it delivered; @p capture (optional) its per-element
     * verdicts; @p next_threshold (NaN = unknown) the threshold its
     * tuner chose afterwards. Returns "" on a bit-exact match, else
     * what differed.
     */
    std::string
    Replay(const core::BatchView& in, const core::InvocationReport& report,
           const double* runtime_out, const core::AuditCapture* capture,
           double next_threshold, LayerSample* sample,
           ReplayCounts* counts)
    {
        const apps::Benchmark& app = pipeline_.Bench();
        const size_t n = in.count();
        const size_t out_w = app.NumOutputs();
        const size_t approx_n = n - report.exact_elements;
        Resize(n, out_w);
        const npu::NpuStats npu_before = accel_.Stats();

        detector_.SetThreshold(report.threshold_used);
        detector_.Reset();

        uint64_t t0 = NowNs();
        for (size_t i = 0; i < approx_n; ++i)
            pipeline_.NormalizeInput(in[i].data(), &norm_in_[i]);
        uint64_t t1 = NowNs();
        for (size_t i = 0; i < approx_n; ++i)
            accel_.Invoke(norm_in_[i], &norm_out_[i]);
        uint64_t t2 = NowNs();
        for (size_t i = 0; i < approx_n; ++i)
            pipeline_.DenormalizeOutput(norm_out_[i], &raw_out_[i]);
        uint64_t t3 = NowNs();
        const double normalize_ns =
            static_cast<double>((t1 - t0) + (t3 - t2));
        const double invoke_ns = static_cast<double>(t2 - t1);

        t0 = NowNs();
        for (size_t i = 0; i < approx_n; ++i) {
            const core::CheckResult check =
                detector_.Check(norm_in_[i], raw_out_[i]);
            predicted_[i] = check.predicted_error;
            fired_[i] = check.fired ? 1 : 0;
            non_finite_[i] = check.non_finite ? 1 : 0;
        }
        const double check_ns = static_cast<double>(NowNs() - t0);

        for (size_t i = 0; i < approx_n; ++i) {
            std::copy(raw_out_[i].begin(), raw_out_[i].end(),
                      out_.begin() + static_cast<ptrdiff_t>(i * out_w));
        }

        // Recovery: tier every fired check, push it (draining on a
        // full queue as the runtime's backpressure does), run the
        // breaker's exact tail, drain, then salvage non-finite
        // outputs that were never queued.
        t0 = NowNs();
        double unfixed_sum = 0.0;
        size_t unfixed = 0;
        size_t fires = 0;
        size_t stalls = 0;
        std::fill(fixed_.begin(), fixed_.end(), 0);
        for (size_t i = 0; i < approx_n; ++i) {
            if (!fired_[i]) {
                unfixed_sum += std::max(0.0, predicted_[i]);
                ++unfixed;
                continue;
            }
            ++fires;
            const core::RecoveryDecision decision =
                policy_.Decide(i, predicted_[i], non_finite_[i] != 0,
                               report.threshold_used);
            if (recovery_.Queue().Full()) {
                ++stalls;
                recovery_.Drain(in, out_.data(), out_w, &fixed_);
            }
            if (!recovery_.Queue().Push(decision))
                return "recovery queue overflowed during replay";
        }
        for (size_t i = approx_n; i < n; ++i) {
            app.RunExact(in[i].data(), out_.data() + i * out_w);
            fixed_[i] = core::kFixedExact;
        }
        recovery_.Drain(in, out_.data(), out_w, &fixed_);
        for (size_t i = 0; i < approx_n; ++i) {
            if (!fixed_[i] && !AllFinite(out_.data() + i * out_w, out_w)) {
                app.RunExact(in[i].data(), out_.data() + i * out_w);
                fixed_[i] = core::kFixedExact;
            }
        }
        const double recover_ns = static_cast<double>(NowNs() - t0);
        size_t reexecuted = 0;
        for (size_t i = 0; i < n; ++i)
            reexecuted += fixed_[i] == core::kFixedExact ? 1 : 0;

        t0 = NowNs();
        for (size_t i = 0; i < n; ++i) {
            residual_[i] = 0.0;
            if (fixed_[i] == core::kFixedExact)
                continue;
            app.RunExact(in[i].data(), exact_.data());
            approx_.assign(out_.data() + i * out_w,
                           out_.data() + (i + 1) * out_w);
            residual_[i] = app.ElementError(exact_, approx_);
        }
        const double verify_ns = static_cast<double>(NowNs() - t0);

        t0 = NowNs();
        for (size_t i = 0; i < n; ++i)
            app.RunExact(in[i].data(), exact_all_.data() + i * out_w);
        const double exact_ns = static_cast<double>(NowNs() - t0);

        t0 = NowNs();
        const double error_pct = app.AggregateError(residual_);
        const double estimated_pct =
            unfixed == 0 ? 0.0
                         : 100.0 * unfixed_sum / static_cast<double>(n);
        const sim::SystemCosts costs = Evaluate(n, reexecuted);
        if (approx_n == n && report.degrade == core::DegradeMode::kNone) {
            core::InvocationFeedback feedback;
            feedback.elements = n;
            feedback.fixes = reexecuted;
            feedback.estimated_error_pct = estimated_pct;
            feedback.cpu_busy_ratio =
                costs.npu_ns > 0.0 ? costs.recovery_ns / costs.npu_ns
                                   : 0.0;
            tuner_.EndInvocation(feedback);
        }
        const double feedback_ns = static_cast<double>(NowNs() - t0);

        const double per = 1.0 / static_cast<double>(n);
        *sample = LayerSample{normalize_ns * per, invoke_ns * per,
                              check_ns * per,     recover_ns * per,
                              verify_ns * per,    exact_ns * per,
                              feedback_ns};

        // Fig. 11 false positives: re-executed elements whose
        // approximate output was already within the target.
        size_t wasted = 0;
        const double target = config_.tuner.target_error_pct;
        for (size_t i = 0; i < approx_n; ++i) {
            if (fixed_[i] != core::kFixedExact)
                continue;
            exact_.assign(exact_all_.begin() +
                              static_cast<ptrdiff_t>(i * out_w),
                          exact_all_.begin() +
                              static_cast<ptrdiff_t>((i + 1) * out_w));
            if (100.0 * app.ElementError(exact_, raw_out_[i]) < target)
                ++wasted;
        }
        const npu::NpuStats& npu_after = accel_.Stats();
        counts->elements += n;
        counts->approx_elements += approx_n;
        counts->fires += fires;
        counts->reexecuted += reexecuted;
        counts->wasted += wasted;
        counts->queue_full_stalls += stalls;
        counts->exact_elements += n - approx_n;
        counts->macs += npu_after.macs - npu_before.macs;
        counts->npu_invocations +=
            npu_after.invocations - npu_before.invocations;

        // Bit-for-bit comparison with what the runtime did.
        if (std::memcmp(out_.data(), runtime_out,
                        n * out_w * sizeof(double)) != 0)
            return "outputs differ";
        if (reexecuted != report.tier_reexecuted)
            return "re-executed count differs";
        if (capture != nullptr) {
            for (size_t i = 0; i < approx_n; ++i) {
                if ((capture->fired[i] != 0) != (fired_[i] != 0))
                    return "fired set differs";
            }
            if (!std::equal(fixed_.begin(), fixed_.end(),
                            capture->fixed.begin()))
                return "re-executed set differs";
        }
        if (report.degrade == core::DegradeMode::kNone &&
            (error_pct != report.output_error_pct ||
             estimated_pct != report.estimated_error_pct))
            return "verified or estimated error differs";
        if (costs.scheme_app_ns != report.costs.scheme_app_ns ||
            costs.scheme_app_nj != report.costs.scheme_app_nj)
            return "modeled costs differ";
        if (!std::isnan(next_threshold) &&
            tuner_.Threshold() != next_threshold)
            return "tuner threshold differs";
        return "";
    }

  private:
    void
    Resize(size_t n, size_t out_w)
    {
        if (norm_in_.size() < n) {
            norm_in_.resize(n);
            norm_out_.resize(n);
            raw_out_.resize(n);
        }
        predicted_.resize(n);
        fired_.resize(n);
        non_finite_.resize(n);
        fixed_.resize(n);
        residual_.resize(n);
        out_.resize(n * out_w);
        exact_all_.resize(n * out_w);
        exact_.resize(out_w);
    }

    sim::SystemCosts
    Evaluate(size_t n, size_t reexecuted) const
    {
        const apps::Benchmark& app = pipeline_.Bench();
        sim::RegionProfile region;
        region.cpu_ops_per_iter = kernel_ops_;
        region.iterations = n;
        region.region_fraction = app.RegionFraction();
        sim::AcceleratorProfile accel;
        accel.cycles_per_invocation = accel_.CyclesPerInvocation();
        accel.frequency_ghz = config_.pipeline.npu.frequency_ghz;
        const nn::Topology& topo = pipeline_.RumbaMlp().GetTopology();
        accel.macs_per_invocation =
            static_cast<double>(topo.MacsPerInvocation());
        accel.luts_per_invocation =
            static_cast<double>(topo.NumNeurons());
        accel.queue_words_per_invocation =
            static_cast<double>(app.NumInputs() + app.NumOutputs()) + 1.0;
        const sim::CheckerCost checker = detector_.CostPerCheck();
        return system_.Evaluate(region, accel, &checker, reexecuted);
    }

    core::RuntimeConfig config_;
    core::Pipeline pipeline_;
    npu::Npu accel_;
    core::Detector detector_;
    core::RecoveryPolicy policy_;
    core::RecoveryModule recovery_;
    core::OnlineTuner tuner_;
    sim::SystemModel system_;
    sim::OpCounts kernel_ops_;
    std::vector<std::vector<double>> norm_in_, norm_out_, raw_out_;
    std::vector<double> predicted_, residual_, out_, exact_all_;
    std::vector<double> exact_, approx_;
    std::vector<char> fired_, non_finite_, fixed_;
};

std::vector<double>
Column(const std::vector<LayerSample>& samples,
       double LayerSample::*field)
{
    std::vector<double> v;
    v.reserve(samples.size());
    for (const LayerSample& s : samples)
        v.push_back(s.*field);
    return v;
}

// ---- Setup -------------------------------------------------------------

struct SetupTimes {
    std::vector<double> total_s, train_s, deploy_s, create_s;
    std::vector<double> probe_ns;  ///< taken before each setup step.
};

void
SetSetupMetrics(const SetupTimes& t, Record* record)
{
    const size_t reps = t.total_s.size();
    record->SetAtNominalSpeed("setup_s", Median(t.total_s), "s", reps,
                              Median(t.probe_ns), /*is_rate=*/false);
    record->Set("nn.train_s", Median(t.train_s), "s", reps);
    record->Set("core.deploy_s", Median(t.deploy_s), "s", reps);
    record->Set("serve.create_s",
                t.create_s.empty() ? 0.0 : Median(t.create_s), "s",
                t.create_s.size());
}

/** Train one app at library defaults and export its artifact. */
core::Artifact
TrainArtifact(const std::string& app, const core::RuntimeConfig& config,
              double* train_s, double* export_s)
{
    uint64_t t0 = NowNs();
    core::RumbaRuntime trainer(apps::MakeBenchmark(app), config);
    *train_s += Seconds(t0);
    t0 = NowNs();
    core::Artifact artifact = trainer.ExportArtifact();
    *export_s += Seconds(t0);
    return artifact;
}

std::unique_ptr<core::RumbaRuntime>
Deploy(const core::Artifact& artifact, const core::RuntimeConfig& config)
{
    auto runtime = core::RumbaRuntime::FromArtifact(artifact, config);
    if (!runtime.ok()) {
        std::fprintf(stderr, "deploy failed: %s\n",
                     runtime.status().ToString().c_str());
        std::exit(2);
    }
    return std::move(runtime).value();
}

/** The deterministic counts: equal code and seed give equal values. */
void
SetReplayCounts(const ReplayCounts& c, Record* record)
{
    auto frac = [](uint64_t num, uint64_t den) {
        return den == 0 ? 0.0
                        : static_cast<double>(num) /
                              static_cast<double>(den);
    };
    record->Set("predict.fire_frac", frac(c.fires, c.approx_elements),
                "ratio", c.approx_elements);
    record->Set("core.reexec_frac", frac(c.reexecuted, c.elements),
                "ratio", c.elements);
    record->Set("core.wasted_reexec_frac", frac(c.wasted, c.reexecuted),
                "ratio", c.reexecuted);
    record->Set("core.exact_elements_frac",
                frac(c.exact_elements, c.elements), "ratio", c.elements);
    record->Set("core.queue_full_stalls",
                static_cast<double>(c.queue_full_stalls), "count",
                c.elements);
    record->Set("npu.macs_per_element", frac(c.macs, c.npu_invocations),
                "count", c.npu_invocations);
}

/** Layer metrics from per-app replay samples. @p pi_ns_per_element
 *  holds each app's untraced ProcessInvocation cost. */
void
SetLayerMetrics(const std::vector<std::vector<LayerSample>>& per_app,
                const std::vector<double>& pi_ns_per_element,
                double elements_per_invocation, Record* record)
{
    std::vector<double> normalize, invoke, check, recover, verify, exact,
        feedback;
    double unattributed = 0.0;
    size_t samples = 0, apps_seen = 0;
    for (size_t a = 0; a < per_app.size(); ++a) {
        const std::vector<LayerSample>& s = per_app[a];
        if (s.empty())
            continue;
        samples += s.size();
        const double n = Median(Column(s, &LayerSample::normalize));
        const double i = Median(Column(s, &LayerSample::invoke));
        const double c = Median(Column(s, &LayerSample::check));
        const double r = Median(Column(s, &LayerSample::recover));
        const double v = Median(Column(s, &LayerSample::verify));
        const double f = Median(Column(s, &LayerSample::feedback));
        normalize.push_back(n);
        invoke.push_back(i);
        check.push_back(c);
        recover.push_back(r);
        verify.push_back(v);
        exact.push_back(Median(Column(s, &LayerSample::exact)));
        feedback.push_back(f);
        // Can be negative for an app, so it is averaged, not geomeaned.
        unattributed += pi_ns_per_element[a] -
                        (n + i + c + r + v + f / elements_per_invocation);
        ++apps_seen;
    }
    record->Set("core.normalize_ns", Geomean(normalize), "ns", samples);
    record->Set("npu.invoke_ns", Geomean(invoke), "ns", samples);
    record->Set("predict.check_ns", Geomean(check), "ns", samples);
    record->Set("core.recover_ns", Geomean(recover), "ns", samples);
    record->Set("core.verify_ns", Geomean(verify), "ns", samples);
    record->Set("apps.exact_ns", Geomean(exact), "ns", samples);
    record->Set("core.feedback_ns", Geomean(feedback), "ns", samples);
    record->Set("core.unattributed_ns",
                apps_seen == 0
                    ? 0.0
                    : unattributed / static_cast<double>(apps_seen),
                "ns", samples);
}

void
SetQualityMetrics(const core::RunSummary& s, uint64_t toq_misses,
                  Record* record)
{
    const size_t inv = s.invocations;
    record->Set("output_error_pct", s.MeanOutputErrorPct(), "%", inv);
    record->Set("toq_met_frac",
                1.0 - static_cast<double>(toq_misses) /
                          static_cast<double>(std::max<size_t>(1, inv)),
                "ratio", inv);
    record->Set("modeled_speedup", s.Speedup(), "x", inv);
    record->Set("modeled_energy_saving", s.EnergySaving(), "x", inv);
}

void
AddToSummary(const core::InvocationReport& report, core::RunSummary* s)
{
    ++s->invocations;
    s->elements += report.elements;
    s->fixes += report.fixes;
    s->error_weighted_sum +=
        report.output_error_pct * static_cast<double>(report.elements);
    s->baseline_app_ns += report.costs.baseline_app_ns;
    s->baseline_app_nj += report.costs.baseline_app_nj;
    s->scheme_app_ns += report.costs.scheme_app_ns;
    s->scheme_app_nj += report.costs.scheme_app_nj;
}

bool
MissesToq(const core::InvocationReport& report,
          const core::RuntimeConfig& config)
{
    return report.output_error_pct >
           config.tuner.target_error_pct + kToqMarginPct;
}

// ---- Embedded workloads -----------------------------------------------

/** What one thread measured in one phase. */
struct EmbedAccounting {
    explicit EmbedAccounting(size_t apps)
        : invocation_us(apps), layers(apps)
    {
    }

    std::vector<std::vector<double>> invocation_us;  ///< [app].
    core::RunSummary summary;
    uint64_t toq_misses = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::vector<LayerSample>> layers;  ///< [app], traced.
    ReplayCounts det;  ///< replay counts over the first kDetRounds.
    std::vector<double> probe_ns;  ///< host probe at each CPU rotation.
    std::string first_error;

    void
    Error(const std::string& why)
    {
        ++failed;
        if (first_error.empty())
            first_error = why;
    }
};

struct Replica {
    size_t app = 0;
    std::unique_ptr<core::RumbaRuntime> runtime;
    std::unique_ptr<Shadow> shadow;  ///< traced runs only.
    size_t cursor = 0;               ///< next element in the app's pool.
};

struct EmbedContext {
    const std::vector<std::string>* apps;
    const std::vector<InputPool>* pools;
    core::RuntimeConfig config;
    std::vector<int> cpus;  ///< rotated through every kRotateRounds.
};

/** One thread's loop: warm-up rounds, then timed rounds until
 *  @p end_ns; a traced loop replays every invocation and runs at
 *  least kDetRounds rounds. A round is one invocation per replica. */
void
RunEmbedThread(const EmbedContext& ctx, std::vector<Replica>* replicas,
               size_t thread_index, size_t threads, bool traced,
               uint64_t end_ns, EmbedAccounting* acct)
{
    std::vector<double> out;
    core::AuditCapture capture;
    const size_t cpu_offset = thread_index * ctx.cpus.size() / threads;
    for (size_t round = 0;; ++round) {
        if (round % kRotateRounds == 0) {
            PinThread(ctx.cpus, round / kRotateRounds + cpu_offset);
            Probe(&acct->probe_ns, kProbePasses);
        }
        const bool det = traced && round < kDetRounds;
        const bool timed = round >= kWarmRounds;
        if (timed && !det && NowNs() >= end_ns)
            break;
        for (Replica& r : *replicas) {
            const InputPool& pool = (*ctx.pools)[r.app];
            const std::string& name = (*ctx.apps)[r.app];
            if (r.cursor + kEmbedElements > pool.count)
                r.cursor = 0;
            const core::BatchView view(pool.Element(r.cursor),
                                       kEmbedElements, pool.width);
            r.cursor += kEmbedElements;
            out.resize(kEmbedElements * r.runtime->Bench().NumOutputs());

            const uint64_t start = NowNs();
            const core::InvocationReport report =
                r.runtime->ProcessInvocation(view, out.data(),
                                             traced ? &capture : nullptr);
            const uint64_t ns = NowNs() - start;

            if (timed)
                ++acct->attempted;
            if (!AllFinite(out.data(), out.size())) {
                acct->Error(name + ": non-finite output delivered");
                continue;
            }
            if (traced) {
                LayerSample sample;
                ReplayCounts counts;
                const std::string diff = r.shadow->Replay(
                    view, report, out.data(), &capture,
                    r.runtime->Threshold(), &sample, &counts);
                if (!diff.empty()) {
                    acct->Error(name + " replay: " + diff);
                    continue;
                }
                if (det)
                    acct->det.Add(counts);
                if (timed)
                    acct->layers[r.app].push_back(sample);
            }
            if (!timed)
                continue;
            AddToSummary(report, &acct->summary);
            acct->toq_misses += MissesToq(report, ctx.config) ? 1 : 0;
            acct->invocation_us[r.app].push_back(static_cast<double>(ns) *
                                                 1e-3);
        }
    }
}

void
RunEmbed(size_t threads, uint64_t seed, double seconds, bool trace,
         Record* record)
{
    const core::RuntimeConfig config;  // library defaults.
    const std::vector<std::string> apps = apps::BenchmarkNames();
    const size_t n_apps = apps.size();

    std::vector<InputPool> pools;
    for (size_t a = 0; a < n_apps; ++a)
        pools.push_back(MakePool(*apps::MakeBenchmark(apps[a]), seed, a));

    // Setup, several times; the last one's replicas are measured.
    SetupTimes setup;
    std::vector<core::Artifact> artifacts;
    std::vector<std::vector<Replica>> replicas(threads);
    for (int rep = 0; rep < kSetupReps; ++rep) {
        for (auto& r : replicas)
            r.clear();
        artifacts.clear();
        const uint64_t t0 = NowNs();
        double train_s = 0.0, deploy_s = 0.0;
        for (const std::string& app : apps) {
            Probe(&setup.probe_ns, kProbePasses);
            artifacts.push_back(
                TrainArtifact(app, config, &train_s, &deploy_s));
        }
        Probe(&setup.probe_ns, kProbePasses);
        const uint64_t d0 = NowNs();
        for (auto& thread_replicas : replicas) {
            for (size_t a = 0; a < n_apps; ++a) {
                Replica r;
                r.app = a;
                r.runtime = Deploy(artifacts[a], config);
                thread_replicas.push_back(std::move(r));
            }
        }
        deploy_s += Seconds(d0);
        setup.total_s.push_back(Seconds(t0));
        setup.train_s.push_back(train_s);
        setup.deploy_s.push_back(deploy_s);
    }
    SetSetupMetrics(setup, record);

    // Threads start at different offsets of the shared seeded pools.
    for (size_t ti = 0; ti < threads; ++ti) {
        for (Replica& r : replicas[ti]) {
            r.cursor = (pools[r.app].count * ti / threads) /
                       kEmbedElements * kEmbedElements;
            if (trace)
                r.shadow =
                    std::make_unique<Shadow>(artifacts[r.app], config);
        }
    }

    const EmbedContext ctx{&apps, &pools, config, AllowedCpus()};
    auto run_phase = [&](bool traced, double phase_s) {
        std::vector<EmbedAccounting> accts(threads,
                                           EmbedAccounting(n_apps));
        const uint64_t end_ns =
            NowNs() + static_cast<uint64_t>(phase_s * 1e9);
        std::vector<std::thread> workers;
        for (size_t ti = 0; ti < threads; ++ti) {
            workers.emplace_back(RunEmbedThread, std::cref(ctx),
                                 &replicas[ti], ti, threads, traced,
                                 end_ns, &accts[ti]);
        }
        for (std::thread& w : workers)
            w.join();
        return accts;
    };

    const uint64_t trips_before = CounterValue("breaker.trips");
    obs::Histogram* invocation_hist =
        obs::Registry::Default().GetHistogram("runtime.invocation_ns");
    // A traced run replays for half its time, then measures the
    // untraced per-app rates the layer times are compared against.
    std::vector<EmbedAccounting> traced;
    if (trace) {
        invocation_hist->Reset();
        traced = run_phase(/*traced=*/true, seconds / 2.0);
        record->Set("core.invocation_us_p50",
                    invocation_hist->Quantile(0.5) * 1e-3, "us",
                    invocation_hist->Count());
    }
    const std::vector<EmbedAccounting> untraced =
        run_phase(/*traced=*/false, trace ? seconds / 2.0 : seconds);
    const uint64_t trips = CounterValue("breaker.trips") - trips_before;

    // ---- End-to-end metrics ----------------------------------------------
    // Throughput windows are single invocations (500 elements): with
    // windows of 16, one preempted invocation moved its whole window and
    // the run-to-run spread on a shared host grew several-fold
    // (README.md). Each thread's per-app rate is its median window;
    // rates are summed over threads and the headline is their geometric
    // mean over apps.
    std::vector<double> app_rate(n_apps, 0.0), pi_ns(n_apps, 0.0);
    std::vector<double> app_p50(n_apps, 0.0), app_p99(n_apps, 0.0);
    size_t invocations = 0;
    core::RunSummary summary;
    uint64_t misses = 0;
    for (size_t a = 0; a < n_apps; ++a) {
        std::vector<double> app_us;
        for (const EmbedAccounting& acct : untraced) {
            const std::vector<double>& us = acct.invocation_us[a];
            if (!us.empty())
                app_rate[a] += static_cast<double>(kEmbedElements) * 1e6 /
                               Median(us);
            app_us.insert(app_us.end(), us.begin(), us.end());
        }
        invocations += app_us.size();
        app_p50[a] = Median(app_us);
        app_p99[a] = Quantile(app_us, 0.99);
        pi_ns[a] = app_p50[a] * 1e3 / static_cast<double>(kEmbedElements);
        record->Set("apps." + apps[a] + ".elements_per_s", app_rate[a],
                    "elements/s", app_us.size());
    }
    for (const std::vector<EmbedAccounting>* phase :
         {&std::as_const(traced), &untraced}) {
        for (const EmbedAccounting& acct : *phase) {
            record->attempted += acct.attempted;
            record->failed += acct.failed;
            if (!acct.first_error.empty())
                record->Fail(acct.first_error);
        }
    }
    std::vector<double> probe_ns;
    for (const EmbedAccounting& acct : untraced) {
        probe_ns.insert(probe_ns.end(), acct.probe_ns.begin(),
                        acct.probe_ns.end());
        misses += acct.toq_misses;
        const core::RunSummary& s = acct.summary;
        summary.invocations += s.invocations;
        summary.elements += s.elements;
        summary.fixes += s.fixes;
        summary.error_weighted_sum += s.error_weighted_sum;
        summary.baseline_app_ns += s.baseline_app_ns;
        summary.baseline_app_nj += s.baseline_app_nj;
        summary.scheme_app_ns += s.scheme_app_ns;
        summary.scheme_app_nj += s.scheme_app_nj;
    }
    record->Set("core.breaker_trips", static_cast<double>(trips), "count",
                record->attempted);
    const double probe = Median(probe_ns);
    record->Set("host.probe_ns", probe, "ns", probe_ns.size());
    record->SetAtNominalSpeed("elements_per_s", Geomean(app_rate),
                              "elements/s", invocations, probe,
                              /*is_rate=*/true);
    // Embedded callers see one ProcessInvocation call (500 elements) as
    // their latency: per app over all threads, then the geometric mean
    // over apps. With one thread the p50 is the reciprocal of
    // elements_per_s; it is kept because every workload reports every
    // end-to-end metric.
    record->SetAtNominalSpeed("latency_us_p50", Geomean(app_p50), "us",
                              invocations, probe, /*is_rate=*/false);
    record->SetAtNominalSpeed("latency_us_p99", Geomean(app_p99), "us",
                              invocations, probe, /*is_rate=*/false);
    SetQualityMetrics(summary, misses, record);
    if (!trace)
        return;

    // ---- Per-layer metrics --------------------------------------------
    // Tracing cost: the traced phase's median ProcessInvocation time
    // over the untraced one (capture, plus caches the replay disturbs).
    std::vector<std::vector<LayerSample>> per_app(n_apps);
    std::vector<double> overhead;
    ReplayCounts det;
    for (size_t a = 0; a < n_apps; ++a) {
        std::vector<double> traced_us;
        for (const EmbedAccounting& acct : traced) {
            per_app[a].insert(per_app[a].end(), acct.layers[a].begin(),
                              acct.layers[a].end());
            traced_us.insert(traced_us.end(), acct.invocation_us[a].begin(),
                             acct.invocation_us[a].end());
        }
        if (!traced_us.empty() && app_p50[a] > 0.0)
            overhead.push_back(100.0 * (Median(traced_us) / app_p50[a] - 1.0));
    }
    for (const EmbedAccounting& acct : traced)
        det.Add(acct.det);
    SetLayerMetrics(per_app, pi_ns, static_cast<double>(kEmbedElements),
                    record);
    SetReplayCounts(det, record);
    record->Set("trace.overhead_pct",
                overhead.empty()
                    ? 0.0
                    : std::accumulate(overhead.begin(), overhead.end(),
                                      0.0) /
                          static_cast<double>(overhead.size()),
                "%", overhead.size());
}

// ---- Open-loop serving workload -----------------------------------------

/** A seeded Poisson schedule of requests. */
struct ServePlan {
    std::vector<uint64_t> due_ns;  ///< send time after the loop start.
    std::vector<serve::InvocationRequest> requests;
    std::vector<size_t> first_element;  ///< into the pool, for replay.
    size_t measured_from = 0;  ///< first request past the warm-up.
    double measured_s = 0.0;   ///< schedule span of measured requests.
};

ServePlan
MakePlan(const InputPool& pool, double rate, uint64_t seed,
         uint64_t stream, double seconds)
{
    Rng rng = Rng::ForStream(seed, stream);
    ServePlan plan;
    const uint64_t end_ns = static_cast<uint64_t>(seconds * 1e9);
    const uint64_t warm_ns = std::min(kServeWarmNs, end_ns / 4);
    size_t cursor = static_cast<size_t>(rng.Below(pool.count));
    double t = 0.0;
    for (;;) {
        t += -std::log(1.0 - rng.Uniform()) / rate * 1e9;
        const uint64_t due = static_cast<uint64_t>(t);
        if (due >= end_ns)
            break;
        const size_t count = 3 + static_cast<size_t>(rng.Below(3));
        serve::InvocationRequest request;
        request.count = count;
        request.width = pool.width;
        request.inputs.reserve(count * pool.width);
        plan.first_element.push_back(cursor);
        for (size_t e = 0; e < count; ++e, ++cursor) {
            const double* in = pool.Element(cursor);
            request.inputs.insert(request.inputs.end(), in,
                                  in + pool.width);
        }
        if (due < warm_ns)
            plan.measured_from = plan.due_ns.size() + 1;
        plan.due_ns.push_back(due);
        plan.requests.push_back(std::move(request));
    }
    plan.measured_s = static_cast<double>(end_ns - warm_ns) * 1e-9;
    return plan;
}

/** What one open-loop phase measured (measured requests only). */
struct LoopResult {
    std::vector<double> latency_us;  ///< scheduled send to completion.
    std::vector<double> lag_us;      ///< send time minus schedule.
    std::vector<double> submit_us;   ///< Submit() call time.
    std::vector<double> probe_ns;    ///< host probe, on the sender.
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t late = 0;
    uint64_t served_elements = 0;
    uint64_t audited_elements = 0;
    std::map<std::string, uint64_t> counters;  ///< deltas, see below.
    double server_us_p50 = 0.0, server_us_p99 = 0.0;
    double invocation_us_p50 = 0.0;
    size_t server_samples = 0, invocation_samples = 0;
    core::RunSummary summary;
    uint64_t toq_misses = 0;
    std::vector<size_t> kept;  ///< request index of each kept result.
    std::vector<serve::InvocationResult> results;
    std::string first_error;
};

constexpr const char* kServeCounters[] = {
    "serve.submitted",          "serve.admission.rejected",
    "serve.admission.shed",     "serve.admission.degraded",
    "serve.admission.compensated", "audit.audited_elements",
    "breaker.trips",
};

/**
 * Drive @p engine through @p plan open loop: one sender thread submits
 * each request at its scheduled time regardless of the engine's state;
 * one completion thread blocks on the futures in order. Latency runs
 * from the scheduled send time, so a stall also delays every request
 * scheduled behind it.
 */
LoopResult
RunOpenLoop(serve::ShardedEngine* engine, ServePlan plan,
            const core::RuntimeConfig& config, bool traced)
{
    const size_t n = plan.requests.size();
    std::vector<std::future<serve::InvocationResult>> futures(n);
    std::vector<uint64_t> sent_ns(n, 0), submit_ns(n, 0);
    std::atomic<size_t> sent{0};
    LoopResult result;
    obs::Registry& registry = obs::Registry::Default();
    obs::Histogram* server_hist =
        registry.GetHistogram("serve.enqueue_to_complete_ns");
    obs::Histogram* invocation_hist =
        registry.GetHistogram("runtime.invocation_ns");
    std::map<std::string, uint64_t> before;
    const uint64_t start_ns = NowNs() + 2'000'000;

    std::thread sender([&] {
        uint64_t next_probe_ns = 0;
        for (size_t i = 0; i < n; ++i) {
            const uint64_t due = start_ns + plan.due_ns[i];
            // Sleep only when far ahead: a sleep can overshoot by a
            // scheduler tick, which would show up as sender lag. A
            // probe pass takes slack at most every kProbeEveryNs.
            for (uint64_t now = NowNs(); now < due; now = NowNs()) {
                if (due - now > 2'000'000) {
                    std::this_thread::sleep_for(
                        std::chrono::nanoseconds(due - now - 1'000'000));
                } else if (due - now > kProbeSlackNs && now >= next_probe_ns &&
                           i >= plan.measured_from) {
                    result.probe_ns.push_back(ProbePass());
                    next_probe_ns = now + kProbeEveryNs;
                } else if (due - now > kSpinNs) {
                    std::this_thread::yield();
                }
            }
            if (i == plan.measured_from) {
                server_hist->Reset();
                invocation_hist->Reset();
                for (const char* name : kServeCounters)
                    before[name] = CounterValue(name);
            }
            sent_ns[i] = NowNs();
            futures[i] = engine->Submit(std::move(plan.requests[i]));
            if (traced)
                submit_ns[i] = NowNs() - sent_ns[i];
            sent.store(i + 1, std::memory_order_release);
            sent.notify_one();
        }
    });

    for (size_t i = 0; i < n; ++i) {
        for (size_t s = sent.load(std::memory_order_acquire); s <= i;
             s = sent.load(std::memory_order_acquire))
            sent.wait(s, std::memory_order_acquire);
        serve::InvocationResult r = futures[i].get();
        const uint64_t done = NowNs();
        if (i < plan.measured_from)
            continue;
        const uint64_t due = start_ns + plan.due_ns[i];
        ++result.attempted;
        // A refused request (rejected, shed, expired, cancelled) fails
        // but is no wrong output; a served one must be whole and finite.
        const bool served = r.status.ok();
        const bool ok = served &&
                        r.outputs.size() ==
                            plan.requests[i].count * engine->OutputWidth() &&
                        AllFinite(r.outputs.data(), r.outputs.size());
        if (served && !ok && result.first_error.empty())
            result.first_error = "served request delivered a short or "
                                 "non-finite output";
        // A failed request misses every latency limit.
        result.latency_us.push_back(
            ok ? static_cast<double>(done - due) * 1e-3 : 1e9);
        result.lag_us.push_back(static_cast<double>(sent_ns[i] - due) *
                                1e-3);
        result.late += sent_ns[i] - due > kLateNs ? 1 : 0;
        if (traced)
            result.submit_us.push_back(static_cast<double>(submit_ns[i]) *
                                       1e-3);
        if (!ok) {
            ++result.failed;
            continue;
        }
        result.served_elements += plan.requests[i].count;
        if (r.report.degrade == core::DegradeMode::kNone) {
            AddToSummary(r.report, &result.summary);
            result.toq_misses += MissesToq(r.report, config) ? 1 : 0;
        }
        if (traced) {
            result.kept.push_back(i);
            result.results.push_back(std::move(r));
        }
    }
    sender.join();
    engine->Drain();
    std::fprintf(stderr,
                 "# open loop%s: %llu requests, %llu failed, latency "
                 "p50/p99 %.1f/%.1f us, lag p99 %.1f us, %llu late submit p99 %.1f\n",
                 traced ? " (traced)" : "",
                 static_cast<unsigned long long>(result.attempted),
                 static_cast<unsigned long long>(result.failed),
                 Quantile(result.latency_us, 0.5),
                 Quantile(result.latency_us, 0.99),
                 Quantile(result.lag_us, 0.99),
                 static_cast<unsigned long long>(result.late), Quantile(result.submit_us, 0.99));
    for (const char* name : kServeCounters)
        result.counters[name] = CounterValue(name) - before[name];
    result.server_us_p50 = server_hist->Quantile(0.5) * 1e-3;
    result.server_us_p99 = server_hist->Quantile(0.99) * 1e-3;
    result.server_samples = server_hist->Count();
    result.invocation_us_p50 = invocation_hist->Quantile(0.5) * 1e-3;
    result.invocation_samples = invocation_hist->Count();
    return result;
}

std::unique_ptr<serve::ShardedEngine>
CreateEngine(const core::Artifact& artifact,
             const core::RuntimeConfig& config,
             const serve::ServeConfig& serve_config)
{
    auto engine =
        serve::ShardedEngine::Create(artifact, config, serve_config);
    if (!engine.ok()) {
        std::fprintf(stderr, "engine create failed: %s\n",
                     engine.status().ToString().c_str());
        std::exit(2);
    }
    return std::move(engine).value();
}

void
SetServeEndToEnd(const LoopResult& r, double measured_s, Record* record)
{
    record->attempted += r.attempted;
    record->failed += r.failed;
    if (!r.first_error.empty())
        record->Fail(r.first_error);
    record->Set("elements_per_s",
                static_cast<double>(r.served_elements) / measured_s,
                "elements/s", r.attempted);
    const double probe = Median(r.probe_ns);
    record->Set("host.probe_ns", probe, "ns", r.probe_ns.size());
    record->SetAtNominalSpeed(
        "latency_us_p50", WindowedQuantile(r.latency_us, kLatencyWindow, 0.5),
        "us", r.latency_us.size(), probe, /*is_rate=*/false);
    record->SetAtNominalSpeed(
        "latency_us_p99", WindowedQuantile(r.latency_us, kLatencyWindow, 0.99),
        "us", r.latency_us.size(), probe, /*is_rate=*/false);
    SetQualityMetrics(r.summary, r.toq_misses, record);
}

void
RunServe(uint64_t seed, double seconds, bool trace, double rate,
         const std::string& dump_dir, Record* record)
{
    const core::RuntimeConfig config;  // library defaults.
    serve::ServeConfig serve_config;   // full observability stack.
    serve_config.shards = kServeShards;
    serve_config.flight.dump_dir = dump_dir;
    const InputPool pool =
        MakePool(*apps::MakeBenchmark(kServeApp), seed, 0);

    SetupTimes setup;
    core::Artifact artifact;
    std::unique_ptr<serve::ShardedEngine> engine;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        engine.reset();
        const uint64_t t0 = NowNs();
        double train_s = 0.0, export_s = 0.0;
        Probe(&setup.probe_ns, kProbePasses);
        artifact = TrainArtifact(kServeApp, config, &train_s, &export_s);
        Probe(&setup.probe_ns, kProbePasses);
        const uint64_t c0 = NowNs();
        engine = CreateEngine(artifact, config, serve_config);
        setup.create_s.push_back(Seconds(c0));
        setup.total_s.push_back(Seconds(t0));
        setup.train_s.push_back(train_s);
        setup.deploy_s.push_back(export_s);
    }
    SetSetupMetrics(setup, record);

    // An untraced run is one phase. A traced run splits its time in
    // three: the same untraced phase, a traced phase on the same
    // engine, and the traced phase's schedule again on an engine with
    // trace, flight, SLO, audit, profile and forensics off.
    const double phase_s = trace ? seconds / 3.0 : seconds;
    const ServePlan plan = MakePlan(pool, rate, seed, 1, phase_s);
    const LoopResult untraced =
        RunOpenLoop(engine.get(), plan, config, /*traced=*/false);
    SetServeEndToEnd(untraced, plan.measured_s, record);
    record->Set("core.breaker_trips",
                static_cast<double>(untraced.counters.at("breaker.trips")),
                "count", untraced.attempted);
    if (!trace)
        return;

    const ServePlan traced_plan = MakePlan(pool, rate, seed, 2, phase_s);
    const LoopResult traced =
        RunOpenLoop(engine.get(), traced_plan, config, /*traced=*/true);
    engine->Shutdown();
    engine.reset();
    serve::ServeConfig bare = serve_config;
    bare.trace.enabled = false;
    bare.flight.capacity = 0;
    bare.slo.enabled = false;
    bare.audit.enabled = false;
    bare.profile.enabled = false;
    bare.forensics.enabled = false;
    auto bare_engine = CreateEngine(artifact, config, bare);
    const LoopResult bare_run =
        RunOpenLoop(bare_engine.get(), traced_plan, config,
                    /*traced=*/false);
    bare_engine->Shutdown();
    for (const LoopResult* r : {&traced, &bare_run}) {
        record->attempted += r->attempted;
        record->failed += r->failed;
        if (!r->first_error.empty())
            record->Fail(r->first_error);
    }

    // Replay every traced request on one shadow: the shards' tuners
    // interleave, so each request carries the threshold it ran with
    // and the next-threshold check is skipped.
    Shadow shadow(artifact, config);
    std::vector<std::vector<LayerSample>> per_app(1);
    ReplayCounts counts;
    std::vector<double> in;
    for (size_t k = 0; k < traced.kept.size(); ++k) {
        const serve::InvocationResult& r = traced.results[k];
        const size_t idx = traced.kept[k];
        const size_t count = traced_plan.requests[idx].count;
        in.clear();
        for (size_t e = 0; e < count; ++e) {
            const double* x = pool.Element(traced_plan.first_element[idx] + e);
            in.insert(in.end(), x, x + pool.width);
        }
        if (r.report.degrade != core::DegradeMode::kNone)
            continue;  // shed quality on purpose; nothing to replay.
        LayerSample sample;
        const std::string diff =
            shadow.Replay(core::BatchView(in, pool.width), r.report,
                          r.outputs.data(), nullptr,
                          std::numeric_limits<double>::quiet_NaN(),
                          &sample, &counts);
        if (!diff.empty()) {
            ++record->failed;
            record->Fail("serve replay: " + diff);
            continue;
        }
        per_app[0].push_back(sample);
    }
    const double elements_per_invocation =
        traced.attempted == 0
            ? 1.0
            : static_cast<double>(traced.served_elements) /
                  static_cast<double>(traced.attempted);
    const std::vector<double> pi_ns = {
        untraced.invocation_us_p50 * 1e3 / elements_per_invocation};
    SetLayerMetrics(per_app, pi_ns, elements_per_invocation, record);
    SetReplayCounts(counts, record);
    record->Set(std::string("apps.") + kServeApp + ".elements_per_s",
                static_cast<double>(untraced.served_elements) /
                    plan.measured_s,
                "elements/s", untraced.attempted);

    auto frac = [&](const char* name) {
        const uint64_t submitted = traced.counters.at("serve.submitted");
        return submitted == 0 ? 0.0
                              : static_cast<double>(
                                    traced.counters.at(name)) /
                                    static_cast<double>(submitted);
    };
    record->Set("serve.submit_us_p50", Median(traced.submit_us), "us",
                traced.submit_us.size());
    record->Set("serve.server_us_p50", traced.server_us_p50, "us",
                traced.server_samples);
    record->Set("serve.server_us_p99", traced.server_us_p99, "us",
                traced.server_samples);
    record->Set("core.invocation_us_p50", traced.invocation_us_p50, "us",
                traced.invocation_samples);
    record->Set("serve.rejected_frac", frac("serve.admission.rejected"),
                "ratio", traced.attempted);
    record->Set("serve.shed_frac", frac("serve.admission.shed"), "ratio",
                traced.attempted);
    record->Set("serve.degraded_frac",
                frac("serve.admission.degraded") +
                    frac("serve.admission.compensated"),
                "ratio", traced.attempted);
    record->Set("obs.audit_elements_frac",
                traced.served_elements == 0
                    ? 0.0
                    : static_cast<double>(
                          traced.counters.at("audit.audited_elements")) /
                          static_cast<double>(traced.served_elements),
                "ratio", traced.served_elements);
    record->Set("obs.serve_tax_us",
                traced.server_us_p50 - bare_run.server_us_p50, "us",
                traced.server_samples + bare_run.server_samples);
    record->Set("loadgen.late_frac",
                static_cast<double>(untraced.late) /
                    static_cast<double>(
                        std::max<uint64_t>(1, untraced.attempted)),
                "ratio", untraced.attempted);
    record->Set("loadgen.lag_us_p99", Quantile(untraced.lag_us, 0.99),
                "us", untraced.lag_us.size());
    record->Set("trace.overhead_pct",
                100.0 * (Quantile(traced.latency_us, 0.5) /
                             Quantile(untraced.latency_us, 0.5) -
                         1.0),
                "%", traced.latency_us.size());
    record->Set("core.breaker_trips",
                static_cast<double>(untraced.counters.at("breaker.trips") +
                                    traced.counters.at("breaker.trips")),
                "count", untraced.attempted + traced.attempted);
}

// ---- Entry point ----------------------------------------------------------

[[noreturn]] void
Usage(const char* why)
{
    std::fprintf(stderr,
                 "rumba_perfbench: %s\n"
                 "usage: rumba_perfbench --workload "
                 "embed_mix|embed_2t|serve_open --seed N --seconds S "
                 "--trace 0|1 [--dump-dir DIR] [--rate REQ_PER_S]\n",
                 why);
    std::exit(2);
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string workload, dump_dir = ".";
    uint64_t seed = 0;
    double seconds = 0.0, rate = kServeRate;
    int trace = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            Usage(("missing value for " + arg).c_str());
        const char* value = argv[++i];
        if (arg == "--workload")
            workload = value;
        else if (arg == "--seed")
            seed = std::strtoull(value, nullptr, 10);
        else if (arg == "--seconds")
            seconds = std::atof(value);
        else if (arg == "--trace")
            trace = std::atoi(value);
        else if (arg == "--dump-dir")
            dump_dir = value;
        else if (arg == "--rate")
            rate = std::atof(value);
        else
            Usage(("unknown argument " + arg).c_str());
    }
    if (!(seconds > 0.0) || (trace != 0 && trace != 1) || !(rate > 0.0))
        Usage("--seconds must be > 0 and --trace 0 or 1");

    Record record;
    if (workload == "embed_mix")
        RunEmbed(1, seed, seconds, trace == 1, &record);
    else if (workload == "embed_2t")
        RunEmbed(2, seed, seconds, trace == 1, &record);
    else if (workload == "serve_open")
        RunServe(seed, seconds, trace == 1, rate, dump_dir, &record);
    else
        Usage(("unknown workload '" + workload + "'").c_str());
    record.Set("peak_rss_mb", PeakRssMb(), "MiB", 1);
    record.Set("served_frac",
               1.0 - static_cast<double>(record.failed) /
                         static_cast<double>(
                             std::max<uint64_t>(1, record.attempted)),
               "ratio", record.attempted);
    PrintRecord(record);
    return 0;
}
