// Tests for the serving layer (src/serve): the sharded engine's
// async submit/future contract, backpressure, drain/shutdown
// semantics and shard determinism — plus unit tests for the
// Status/Result and ElementView/BatchView API types it is built on.

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/artifact.h"
#include "core/batch_view.h"
#include "core/runtime.h"
#include "core/status.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "obs/reqtrace.h"
#include "obs/timer.h"
#include "serve/admission.h"
#include "serve/engine.h"
#include "serve/flight_recorder.h"
#include "serve/loadgen.h"
#include "serve/queue.h"

namespace rumba {
namespace {

// ------------------------------------------------------- Status/Result

TEST(StatusTest, DefaultIsOk)
{
    const core::Status ok;
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(ok.code(), core::StatusCode::kOk);
    EXPECT_EQ(ok.ToString(), "ok");
    EXPECT_TRUE(core::Status::Ok().ok());
}

TEST(StatusTest, FailureCarriesCodeAndMessage)
{
    const core::Status s(core::StatusCode::kResourceExhausted,
                         "queue full");
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), core::StatusCode::kResourceExhausted);
    EXPECT_EQ(s.message(), "queue full");
    EXPECT_EQ(s.ToString(), "resource-exhausted: queue full");
}

TEST(StatusTest, CodeNamesAreStable)
{
    EXPECT_STREQ(core::StatusCodeName(core::StatusCode::kOk), "ok");
    EXPECT_STREQ(core::StatusCodeName(core::StatusCode::kDataLoss),
                 "data-loss");
    EXPECT_STREQ(
        core::StatusCodeName(core::StatusCode::kFailedPrecondition),
        "failed-precondition");
    EXPECT_STREQ(
        core::StatusCodeName(core::StatusCode::kDeadlineExceeded),
        "deadline-exceeded");
    EXPECT_STREQ(core::StatusCodeName(core::StatusCode::kUnavailable),
                 "unavailable");
}

TEST(ResultTest, HoldsValueOrStatus)
{
    const core::Result<int> good(42);
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good.value(), 42);
    EXPECT_EQ(*good, 42);
    EXPECT_TRUE(good.status().ok());

    const core::Result<int> bad(
        core::Status(core::StatusCode::kNotFound, "nope"));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), core::StatusCode::kNotFound);
}

TEST(ResultTest, MovesOutMoveOnlyPayloads)
{
    core::Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(**r, 7);
    std::unique_ptr<int> moved = std::move(r).value();
    EXPECT_EQ(*moved, 7);
}

TEST(ResultTest, WrongSideAccessDies)
{
    const core::Result<int> bad(
        core::Status(core::StatusCode::kInternal, "x"));
    EXPECT_DEATH(bad.value(), "check failed");
}

// --------------------------------------------------------- Batch views

TEST(BatchViewTest, ElementViewWrapsContiguousDoubles)
{
    const std::vector<double> row{1.0, 2.0, 3.0};
    const core::ElementView view(row);
    EXPECT_EQ(view.size(), 3u);
    EXPECT_DOUBLE_EQ(view[1], 2.0);
    EXPECT_EQ(view.data(), row.data());
}

TEST(BatchViewTest, BatchViewSlicesFlatBuffer)
{
    const std::vector<double> flat{1, 2, 3, 4, 5, 6};
    const core::BatchView batch(flat, /*width=*/2);
    EXPECT_EQ(batch.count(), 3u);
    EXPECT_EQ(batch.width(), 2u);
    EXPECT_DOUBLE_EQ(batch[0][0], 1.0);
    EXPECT_DOUBLE_EQ(batch[2][1], 6.0);
    EXPECT_EQ(batch[1].data(), flat.data() + 2);
}

TEST(BatchViewTest, FlattenBatchPacksRows)
{
    const std::vector<std::vector<double>> rows{{1, 2}, {3, 4}, {5, 6}};
    const std::vector<double> flat = core::FlattenBatch(rows);
    EXPECT_EQ(flat, (std::vector<double>{1, 2, 3, 4, 5, 6}));
}

TEST(BatchViewTest, RaggedRowsAreAProgrammingError)
{
    const std::vector<std::vector<double>> ragged{{1, 2}, {3}};
    EXPECT_DEATH(core::FlattenBatch(ragged), "check failed");
}

// -------------------------------------------------------- BoundedQueue

TEST(BoundedQueueTest, RejectsWhenFullAndDrainsFifo)
{
    serve::BoundedQueue<int> q(2);
    int a = 1, b = 2, c = 3;
    EXPECT_TRUE(q.TryPush(a));
    EXPECT_TRUE(q.TryPush(b));
    EXPECT_FALSE(q.TryPush(c));  // full: reject, don't block.
    int out = 0;
    EXPECT_TRUE(q.Pop(&out));
    EXPECT_EQ(out, 1);
    EXPECT_TRUE(q.Pop(&out));
    EXPECT_EQ(out, 2);
}

TEST(BoundedQueueTest, CloseWakesConsumersAndReturnsLeftovers)
{
    serve::BoundedQueue<int> q(4);
    int a = 1, b = 2;
    ASSERT_TRUE(q.TryPush(a));
    ASSERT_TRUE(q.TryPush(b));
    std::deque<int> leftovers;
    q.Close(&leftovers);
    ASSERT_EQ(leftovers.size(), 2u);
    EXPECT_EQ(leftovers[0], 1);
    int out = 0;
    EXPECT_FALSE(q.Pop(&out));   // closed and empty.
    EXPECT_FALSE(q.TryPush(a));  // closed: no new work.
}

// ------------------------------------------------------ Engine fixture

core::RuntimeConfig
ServeRuntimeConfig()
{
    return core::RuntimeConfig::Builder()
        .WithChecker(core::Scheme::kTree)
        .WithTargetErrorPct(10.0)
        .WithTrainEpochs(30)
        .WithElementCaps(800, 400)
        .Build();
}

/** One trained artifact shared by every engine test (training is the
 *  expensive part; the engine only ever deploys from it). */
const core::Artifact&
SharedArtifact()
{
    static const core::Artifact artifact = [] {
        core::RumbaRuntime trained(apps::MakeBenchmark("inversek2j"),
                                   ServeRuntimeConfig());
        return trained.ExportArtifact();
    }();
    return artifact;
}

/** Flat test inputs for the artifact's kernel. */
const std::vector<double>&
SharedInputs()
{
    static const std::vector<double> flat = [] {
        const auto bench = apps::MakeBenchmark("inversek2j");
        return core::FlattenBatch(bench->TestInputs());
    }();
    return flat;
}

serve::InvocationRequest
MakeRequest(size_t start_element, size_t count)
{
    serve::InvocationRequest request;
    request.width = 2;  // inversek2j input arity.
    request.count = count;
    const auto& flat = SharedInputs();
    request.inputs.assign(
        flat.begin() + static_cast<ptrdiff_t>(start_element * 2),
        flat.begin() +
            static_cast<ptrdiff_t>((start_element + count) * 2));
    return request;
}

std::unique_ptr<serve::ShardedEngine>
MakeEngine(const serve::ServeConfig& config)
{
    auto engine = serve::ShardedEngine::Create(
        SharedArtifact(), ServeRuntimeConfig(), config);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    return std::move(engine).value();
}

// ------------------------------------------------------- Engine tests

TEST(ShardedEngineTest, CreateRejectsDegenerateShapes)
{
    serve::ServeConfig no_shards;
    no_shards.shards = 0;
    EXPECT_EQ(serve::ShardedEngine::Create(SharedArtifact(),
                                           ServeRuntimeConfig(),
                                           no_shards)
                  .status()
                  .code(),
              core::StatusCode::kInvalidArgument);

    core::Artifact unknown = SharedArtifact();
    unknown.benchmark = "martian";
    EXPECT_EQ(serve::ShardedEngine::Create(unknown,
                                           ServeRuntimeConfig(), {})
                  .status()
                  .code(),
              core::StatusCode::kNotFound);
}

TEST(ShardedEngineTest, SubmitValidatesRequestShape)
{
    serve::ServeConfig config;
    config.shards = 1;
    auto engine = MakeEngine(config);

    serve::InvocationRequest empty;
    EXPECT_EQ(engine->Submit(std::move(empty)).get().status.code(),
              core::StatusCode::kInvalidArgument);

    serve::InvocationRequest wrong_width = MakeRequest(0, 4);
    wrong_width.width = 3;
    EXPECT_EQ(
        engine->Submit(std::move(wrong_width)).get().status.code(),
        core::StatusCode::kInvalidArgument);

    serve::InvocationRequest short_buffer = MakeRequest(0, 4);
    short_buffer.inputs.pop_back();
    EXPECT_EQ(
        engine->Submit(std::move(short_buffer)).get().status.code(),
        core::StatusCode::kInvalidArgument);

    serve::InvocationRequest bad_shard = MakeRequest(0, 4);
    bad_shard.shard = 7;  // only shard 0 exists.
    EXPECT_EQ(engine->Submit(std::move(bad_shard)).get().status.code(),
              core::StatusCode::kInvalidArgument);

    engine->Shutdown();
    EXPECT_EQ(engine->Submit(MakeRequest(0, 4)).get().status.code(),
              core::StatusCode::kUnavailable);
}

TEST(ShardedEngineTest, ServesOneRequestCorrectly)
{
    serve::ServeConfig config;
    config.shards = 1;
    auto engine = MakeEngine(config);

    // Reference: a dedicated runtime deployed from the same artifact.
    auto reference = core::RumbaRuntime::FromArtifact(
        SharedArtifact(), ServeRuntimeConfig());
    ASSERT_TRUE(reference.ok());
    constexpr size_t kCount = 200;
    std::vector<double> expected(kCount * 2);
    (*reference)->ProcessInvocation(
        core::BatchView(SharedInputs().data(), kCount, 2),
        expected.data());

    auto future = engine->Submit(MakeRequest(0, kCount));
    const serve::InvocationResult result = future.get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.report.elements, kCount);
    ASSERT_EQ(result.outputs.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i)
        EXPECT_DOUBLE_EQ(result.outputs[i], expected[i]) << "at " << i;
}

TEST(ShardedEngineTest, FourShardsMatchFourSequentialStreams)
{
    constexpr size_t kShards = 4;
    constexpr size_t kRequests = 16;
    constexpr size_t kCount = 100;

    serve::ServeConfig config;
    config.shards = kShards;
    config.queue_capacity = kRequests;
    config.max_coalesce_elements = 0;  // deterministic replay mode.
    auto engine = MakeEngine(config);

    // Round-robin submission from one thread: request r lands on
    // shard r % kShards, each shard serves its stream in FIFO order.
    std::vector<std::future<serve::InvocationResult>> futures;
    for (size_t r = 0; r < kRequests; ++r)
        futures.push_back(engine->Submit(MakeRequest(r * kCount,
                                                     kCount)));

    // Reference: four *sequential* single-runtime streams, stream k
    // processing requests k, k+4, k+8, ... in order.
    std::vector<std::vector<double>> expected(kRequests);
    for (size_t k = 0; k < kShards; ++k) {
        auto replica = core::RumbaRuntime::FromArtifact(
            SharedArtifact(), ServeRuntimeConfig());
        ASSERT_TRUE(replica.ok());
        for (size_t r = k; r < kRequests; r += kShards) {
            expected[r].resize(kCount * 2);
            (*replica)->ProcessInvocation(
                core::BatchView(SharedInputs().data() + r * kCount * 2,
                                kCount, 2),
                expected[r].data());
        }
    }

    for (size_t r = 0; r < kRequests; ++r) {
        const serve::InvocationResult result = futures[r].get();
        ASSERT_TRUE(result.status.ok()) << result.status.ToString();
        EXPECT_EQ(result.shard, r % kShards);
        ASSERT_EQ(result.outputs.size(), expected[r].size());
        for (size_t i = 0; i < expected[r].size(); ++i)
            EXPECT_DOUBLE_EQ(result.outputs[i], expected[r][i])
                << "request " << r << " element " << i;
    }
    engine->Shutdown();
}

TEST(ShardedEngineTest, CoalescedBatchMatchesOneBigInvocation)
{
    serve::ServeConfig config;
    config.shards = 1;
    config.max_coalesce_elements = 4096;
    auto engine = MakeEngine(config);

    constexpr size_t kCount = 50;
    constexpr size_t kRequests = 4;
    engine->Pause();  // queue all four, then serve them as one batch.
    std::vector<std::future<serve::InvocationResult>> futures;
    for (size_t r = 0; r < kRequests; ++r)
        futures.push_back(engine->Submit(MakeRequest(r * kCount,
                                                     kCount)));
    engine->Resume();

    auto reference = core::RumbaRuntime::FromArtifact(
        SharedArtifact(), ServeRuntimeConfig());
    ASSERT_TRUE(reference.ok());
    std::vector<double> expected(kRequests * kCount * 2);
    (*reference)->ProcessInvocation(
        core::BatchView(SharedInputs().data(), kRequests * kCount, 2),
        expected.data());

    for (size_t r = 0; r < kRequests; ++r) {
        const serve::InvocationResult result = futures[r].get();
        ASSERT_TRUE(result.status.ok());
        EXPECT_EQ(result.report.elements, kCount);
        for (size_t i = 0; i < result.outputs.size(); ++i)
            EXPECT_DOUBLE_EQ(result.outputs[i],
                             expected[r * kCount * 2 + i])
                << "request " << r << " element " << i;
    }
}

TEST(ShardedEngineTest, FullQueueRejectsWithResourceExhausted)
{
    serve::ServeConfig config;
    config.shards = 1;
    config.queue_capacity = 2;
    auto engine = MakeEngine(config);

    engine->Pause();  // workers stall: pushes accumulate.
    auto first = engine->Submit(MakeRequest(0, 10));
    auto second = engine->Submit(MakeRequest(10, 10));
    auto third = engine->Submit(MakeRequest(20, 10));

    const serve::InvocationResult rejected = third.get();
    EXPECT_EQ(rejected.status.code(),
              core::StatusCode::kResourceExhausted);
    EXPECT_TRUE(rejected.outputs.empty());

    engine->Resume();
    EXPECT_TRUE(first.get().status.ok());
    EXPECT_TRUE(second.get().status.ok());
}

TEST(ShardedEngineTest, DrainCompletesEveryAcceptedFuture)
{
    serve::ServeConfig config;
    config.shards = 2;
    config.queue_capacity = 64;
    auto engine = MakeEngine(config);

    std::vector<std::future<serve::InvocationResult>> futures;
    for (size_t r = 0; r < 24; ++r)
        futures.push_back(engine->Submit(MakeRequest(r * 20, 20)));
    engine->Drain();

    for (auto& future : futures) {
        ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
        EXPECT_TRUE(future.get().status.ok());
    }
}

TEST(ShardedEngineTest, ShutdownCancelsQueuedWork)
{
    serve::ServeConfig config;
    config.shards = 1;
    config.queue_capacity = 8;
    auto engine = MakeEngine(config);

    engine->Pause();
    auto queued_a = engine->Submit(MakeRequest(0, 10));
    auto queued_b = engine->Submit(MakeRequest(10, 10));
    engine->Shutdown();

    EXPECT_EQ(queued_a.get().status.code(),
              core::StatusCode::kCancelled);
    EXPECT_EQ(queued_b.get().status.code(),
              core::StatusCode::kCancelled);
    // Post-shutdown submissions are turned away, not crashed.
    EXPECT_EQ(engine->Submit(MakeRequest(0, 4)).get().status.code(),
              core::StatusCode::kUnavailable);
}

TEST(ShardedEngineTest, ConcurrentSubmitStress)
{
    serve::ServeConfig config;
    config.shards = 2;
    config.queue_capacity = 16;
    auto engine = MakeEngine(config);

    constexpr size_t kThreads = 4;
    constexpr size_t kPerThread = 40;
    std::atomic<size_t> served{0};
    std::atomic<size_t> rejected{0};
    std::vector<std::thread> clients;
    clients.reserve(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
        clients.emplace_back([&, t] {
            for (size_t r = 0; r < kPerThread; ++r) {
                auto future = engine->Submit(
                    MakeRequest(((t * kPerThread + r) * 8) % 4000, 8));
                const serve::InvocationResult result = future.get();
                if (result.status.ok()) {
                    ASSERT_EQ(result.outputs.size(), 8u * 2u);
                    served.fetch_add(1);
                } else {
                    // Backpressure is the only acceptable failure.
                    ASSERT_EQ(result.status.code(),
                              core::StatusCode::kResourceExhausted);
                    rejected.fetch_add(1);
                }
            }
        });
    }
    for (auto& client : clients)
        client.join();
    engine->Drain();
    engine->Shutdown();
    EXPECT_EQ(served.load() + rejected.load(), kThreads * kPerThread);
    EXPECT_GT(served.load(), 0u);
}

// ------------------------------------------- Request-scoped tracing

TEST(ShardedEngineTest, TraceIdsAppearExactlyOnceInExportedTraces)
{
    auto& collector = obs::RequestTraceCollector::Default();
    collector.Clear();

    serve::ServeConfig config;
    config.shards = 2;
    config.queue_capacity = 64;
    config.max_coalesce_elements = 4096;  // force coalesced batches.
    config.trace.sample_every = 1;        // tail policy keeps all.
    auto engine = MakeEngine(config);

    // Completed (and coalesced): queue twelve requests while paused so
    // each shard serves its whole backlog as one multi-request batch.
    engine->Pause();
    std::vector<std::future<serve::InvocationResult>> futures;
    for (size_t r = 0; r < 12; ++r)
        futures.push_back(engine->Submit(MakeRequest(r * 50, 50)));
    engine->Resume();
    engine->Drain();

    // Rejected: a malformed request fails at Submit, yet carries an id.
    serve::InvocationRequest bad = MakeRequest(0, 4);
    bad.width = 3;
    const serve::InvocationResult rejected =
        engine->Submit(std::move(bad)).get();
    EXPECT_EQ(rejected.status.code(),
              core::StatusCode::kInvalidArgument);

    // Cancelled: queued work killed by Shutdown.
    engine->Pause();
    auto queued_a = engine->Submit(MakeRequest(0, 10));
    auto queued_b = engine->Submit(MakeRequest(10, 10));
    engine->Shutdown();

    std::map<uint64_t, obs::RequestOutcome> expected;
    for (auto& future : futures) {
        const serve::InvocationResult result = future.get();
        ASSERT_TRUE(result.status.ok());
        ASSERT_NE(result.trace_id, 0u);
        EXPECT_TRUE(expected
                        .emplace(result.trace_id,
                                 obs::RequestOutcome::kCompleted)
                        .second)
            << "duplicate id " << result.trace_id;
    }
    ASSERT_NE(rejected.trace_id, 0u);
    expected.emplace(rejected.trace_id,
                     obs::RequestOutcome::kRejected);
    for (auto* queued : {&queued_a, &queued_b}) {
        const serve::InvocationResult result = queued->get();
        ASSERT_EQ(result.status.code(), core::StatusCode::kCancelled);
        ASSERT_NE(result.trace_id, 0u);
        expected.emplace(result.trace_id,
                         obs::RequestOutcome::kCancelled);
    }

    const auto traces = collector.Dump();
    EXPECT_EQ(traces.size(), expected.size());
    std::map<uint64_t, size_t> seen;
    bool saw_coalesced = false;
    for (const auto& trace : traces) {
        ++seen[trace.trace_id];
        const auto it = expected.find(trace.trace_id);
        ASSERT_NE(it, expected.end())
            << "unexpected trace " << trace.trace_id;
        EXPECT_EQ(trace.outcome, it->second);
        if (trace.outcome == obs::RequestOutcome::kCompleted) {
            saw_coalesced |= trace.batch_requests > 1;
            // Served traces carry the span tree.
            bool has_queue_wait = false, has_device = false;
            for (const auto& span : trace.spans) {
                has_queue_wait |=
                    std::string(span.name) == "queue_wait";
                has_device |= std::string(span.name) == "device";
            }
            EXPECT_TRUE(has_queue_wait && has_device)
                << "trace " << trace.trace_id << " missing spans";
        }
    }
    for (const auto& [id, outcome] : expected)
        EXPECT_EQ(seen[id], 1u) << "trace " << id;
    EXPECT_TRUE(saw_coalesced);
    collector.Clear();
}

// ------------------------------------------------ Flight recorder

size_t
CountFlightDumps(const std::string& dir)
{
    size_t n = 0;
    if (DIR* d = ::opendir(dir.c_str())) {
        while (const dirent* entry = ::readdir(d))
            n += std::string(entry->d_name).rfind("flight-shard", 0) ==
                 0;
        ::closedir(d);
    }
    return n;
}

// TempDir() persists across test runs and dump sequence numbers
// restart per engine, so stale artifacts from a previous run would
// absorb a fresh dump into an unchanged file count. Start clean.
void
RemoveFlightDumps(const std::string& dir)
{
    if (DIR* d = ::opendir(dir.c_str())) {
        while (const dirent* entry = ::readdir(d)) {
            const std::string name = entry->d_name;
            if (name.rfind("flight-shard", 0) == 0)
                std::remove((dir + "/" + name).c_str());
        }
        ::closedir(d);
    }
}

std::string
ReadWholeFile(const std::string& path)
{
    std::ifstream in(path);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

TEST(FlightRecorderTest, RingEvictsOldestAndDumpsJsonl)
{
    serve::FlightRecorder recorder(4);
    for (uint64_t id = 1; id <= 6; ++id) {
        serve::FlightRecord record;
        record.trace_id = id;
        record.elements = id * 10;
        recorder.Append(record);
    }
    EXPECT_EQ(recorder.TotalAppended(), 6u);
    const auto snapshot = recorder.Snapshot();
    ASSERT_EQ(snapshot.size(), 4u);
    EXPECT_EQ(snapshot.front().trace_id, 3u);  // 1 and 2 evicted.
    EXPECT_EQ(snapshot.back().trace_id, 6u);

    const std::string path =
        recorder.Dump(::testing::TempDir(), 9, "unit_test");
    ASSERT_FALSE(path.empty());
    EXPECT_NE(path.find("flight-shard9-"), std::string::npos);
    const std::string contents = ReadWholeFile(path);
    EXPECT_NE(contents.find("\"type\":\"meta\""), std::string::npos);
    EXPECT_NE(contents.find("\"type\":\"flight_dump\""),
              std::string::npos);
    EXPECT_NE(contents.find("\"reason\":\"unit_test\""),
              std::string::npos);
    EXPECT_NE(contents.find("\"records\":4"), std::string::npos);
    EXPECT_NE(contents.find("\"trace_id\":6"), std::string::npos);
    std::remove(path.c_str());

    // A second dump gets a fresh sequence number (never overwrites).
    const std::string second =
        recorder.Dump(::testing::TempDir(), 9, "unit_test");
    EXPECT_NE(second, path);
    std::remove(second.c_str());
}

TEST(FlightRecorderTest, DigestIsStableAndInputSensitive)
{
    const std::vector<double> a = {1.0, 2.0, 3.0};
    const std::vector<double> b = {1.0, 2.0, 3.5};
    EXPECT_EQ(serve::DigestInputs(a.data(), a.size()),
              serve::DigestInputs(a.data(), a.size()));
    EXPECT_NE(serve::DigestInputs(a.data(), a.size()),
              serve::DigestInputs(b.data(), b.size()));
    EXPECT_NE(serve::DigestInputs(a.data(), a.size()), 0u);
}

TEST(ShardedEngineTest, FlightRecorderCapturesServedRequests)
{
    serve::ServeConfig config;
    config.shards = 1;
    config.flight.capacity = 8;
    config.flight.dump_dir = ::testing::TempDir() + "flight_manual";
    ::mkdir(config.flight.dump_dir.c_str(), 0755);
    RemoveFlightDumps(config.flight.dump_dir);
    auto engine = MakeEngine(config);

    std::vector<uint64_t> ids;
    for (size_t r = 0; r < 3; ++r) {
        const serve::InvocationResult result =
            engine->Submit(MakeRequest(r * 30, 30)).get();
        ASSERT_TRUE(result.status.ok());
        ids.push_back(result.trace_id);
    }
    engine->Drain();

    const auto records = engine->Flight(0).Snapshot();
    ASSERT_EQ(records.size(), 3u);
    for (size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].trace_id, ids[i]);
        EXPECT_EQ(records[i].elements, 30u);
        EXPECT_NE(records[i].inputs_digest, 0u);
        EXPECT_GE(records[i].threshold, 0.0);
        EXPECT_GE(records[i].complete_ns, records[i].enqueue_ns);
        EXPECT_EQ(records[i].status_code, 0u);
    }

    const auto paths = engine->DumpFlightRecords("operator");
    ASSERT_EQ(paths.size(), 1u);
    const std::string contents = ReadWholeFile(paths[0]);
    EXPECT_NE(contents.find("\"reason\":\"operator\""),
              std::string::npos);
    EXPECT_NE(contents.find("\"trace_id\""), std::string::npos);
    std::remove(paths[0].c_str());

    const std::string statusz = engine->StatuszJson();
    EXPECT_NE(statusz.find("\"healthy\":true"), std::string::npos);
    EXPECT_NE(statusz.find("\"tuner_mode\":\"toq\""),
              std::string::npos);
    EXPECT_NE(statusz.find("\"shards\":[{\"shard\":0"),
              std::string::npos);
    EXPECT_NE(statusz.find("\"queue_depth\":0"), std::string::npos);
    EXPECT_NE(statusz.find("\"breaker_state\":0"), std::string::npos);
    EXPECT_NE(statusz.find("\"flight_records\":3"), std::string::npos);
}

TEST(ShardedEngineTest, BreakerTripAutoDumpsFlightRecorder)
{
    struct DisarmGuard {
        ~DisarmGuard() { fault::FaultInjector::Default().Disarm(); }
    } guard;

    core::RuntimeConfig runtime_config = ServeRuntimeConfig();
    runtime_config.breaker.trip_after = 1;  // twitchy test breaker.

    serve::ServeConfig config;
    config.shards = 1;
    const std::string dir = ::testing::TempDir() + "flight_trip";
    ::mkdir(dir.c_str(), 0755);
    RemoveFlightDumps(dir);
    config.flight.dump_dir = dir;

    auto created = serve::ShardedEngine::Create(
        SharedArtifact(), runtime_config, config);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    auto engine = std::move(created).value();

    // Healthy round: breaker closed, nothing dumped.
    ASSERT_TRUE(engine->Submit(MakeRequest(0, 50)).get().status.ok());
    const size_t dumps_before = CountFlightDumps(dir);

    fault::FaultPlan plan;
    std::string error;
    ASSERT_TRUE(fault::FaultPlan::Parse("seed=9;npu.output_nan=1",
                                        &plan, &error))
        << error;
    fault::FaultInjector::Default().Arm(plan);
    const serve::InvocationResult faulty =
        engine->Submit(MakeRequest(0, 50)).get();
    fault::FaultInjector::Default().Disarm();
    ASSERT_TRUE(faulty.status.ok());  // salvaged, never failed.
    EXPECT_GT(faulty.report.non_finite_outputs, 0u);

    // Barrier: the dump happens after the faulty batch's futures
    // resolve, so wait for the *next* batch to clear the worker.
    ASSERT_TRUE(
        engine->Submit(MakeRequest(100, 50)).get().status.ok());
    engine->Drain();

    EXPECT_EQ(engine->Runtime(0).Breaker().State(),
              core::BreakerState::kOpen);
    ASSERT_GT(CountFlightDumps(dir), dumps_before);

    // The dump artifact names the trip and joins to request traces.
    std::string all;
    if (DIR* d = ::opendir(dir.c_str())) {
        while (const dirent* entry = ::readdir(d)) {
            const std::string name = entry->d_name;
            if (name.rfind("flight-shard", 0) == 0)
                all += ReadWholeFile(dir + "/" + name);
        }
        ::closedir(d);
    }
    EXPECT_NE(all.find("\"reason\":\"breaker_open\""),
              std::string::npos);
    EXPECT_NE(all.find("\"trace_id\""), std::string::npos);
    engine->Shutdown();
}

// ------------------------------------------- Admission state machine

TEST(AdmissionControllerTest, SheddingLadderOrdersByClass)
{
    serve::AdmissionController adm(serve::AdmissionConfig{});
    // One high-fill observation escalates immediately.
    EXPECT_EQ(adm.Decide(serve::QualityClass::kGold, 0.80, false),
              serve::AdmissionAction::kAdmit);
    EXPECT_EQ(adm.state(), serve::AdmissionState::kShedding);
    // While shedding: gold untouched, silver keeps its checker but
    // drops to compensate-only recovery, best-effort sheds at/above
    // best_effort_shed_fill and degrades below it.
    EXPECT_EQ(adm.Decide(serve::QualityClass::kSilver, 0.80, false),
              serve::AdmissionAction::kCompensateOnly);
    EXPECT_EQ(
        adm.Decide(serve::QualityClass::kBestEffort, 0.80, false),
        serve::AdmissionAction::kShed);
    EXPECT_EQ(
        adm.Decide(serve::QualityClass::kBestEffort, 0.30, false),
        serve::AdmissionAction::kDegrade);
}

TEST(AdmissionControllerTest, EmergencyNeverShedsGold)
{
    serve::AdmissionController adm(serve::AdmissionConfig{});
    EXPECT_EQ(adm.Decide(serve::QualityClass::kGold, 0.96, false),
              serve::AdmissionAction::kCompensateOnly);
    EXPECT_EQ(adm.state(), serve::AdmissionState::kEmergency);
    EXPECT_EQ(adm.Decide(serve::QualityClass::kSilver, 0.96, false),
              serve::AdmissionAction::kShed);
    EXPECT_EQ(
        adm.Decide(serve::QualityClass::kBestEffort, 0.96, false),
        serve::AdmissionAction::kShed);
    // Below the emergency shed fill the lower tiers ride the cheaper
    // rungs (0.80 is still pressure, so the state holds).
    EXPECT_EQ(adm.Decide(serve::QualityClass::kSilver, 0.80, false),
              serve::AdmissionAction::kDegrade);
    EXPECT_EQ(
        adm.Decide(serve::QualityClass::kBestEffort, 0.80, false),
        serve::AdmissionAction::kBypassCheck);
    // Gold rides the compensate rung, never refused, no matter the
    // pressure.
    EXPECT_EQ(adm.Decide(serve::QualityClass::kGold, 1.0, true),
              serve::AdmissionAction::kCompensateOnly);
    EXPECT_EQ(adm.state(), serve::AdmissionState::kEmergency);
}

TEST(AdmissionControllerTest, LatencySloEscalatesAtAnyFill)
{
    serve::AdmissionController adm(serve::AdmissionConfig{});
    EXPECT_EQ(adm.Decide(serve::QualityClass::kGold, 0.05, true),
              serve::AdmissionAction::kAdmit);
    EXPECT_EQ(adm.state(), serve::AdmissionState::kShedding);
}

TEST(AdmissionControllerTest, HysteresisRequiresUnbrokenCalmRun)
{
    serve::AdmissionConfig config;
    serve::AdmissionController adm(config);
    ASSERT_EQ(adm.Decide(serve::QualityClass::kGold, 0.80, false),
              serve::AdmissionAction::kAdmit);
    ASSERT_EQ(adm.state(), serve::AdmissionState::kShedding);

    // calm_steps - 1 calm observations are not enough...
    for (uint32_t i = 0; i + 1 < config.calm_steps; ++i) {
        adm.Decide(serve::QualityClass::kGold, 0.10, false);
        EXPECT_EQ(adm.state(), serve::AdmissionState::kShedding);
    }
    // ...one more de-escalates.
    adm.Decide(serve::QualityClass::kGold, 0.10, false);
    EXPECT_EQ(adm.state(), serve::AdmissionState::kClosed);

    // A single pressure observation mid-run resets the calm counter:
    // the full run must be consecutive.
    adm.Decide(serve::QualityClass::kGold, 0.80, false);
    ASSERT_EQ(adm.state(), serve::AdmissionState::kShedding);
    for (uint32_t i = 0; i + 1 < config.calm_steps; ++i)
        adm.Decide(serve::QualityClass::kGold, 0.10, false);
    adm.Decide(serve::QualityClass::kGold, 0.80, false);  // reset.
    for (uint32_t i = 0; i + 1 < config.calm_steps; ++i) {
        adm.Decide(serve::QualityClass::kGold, 0.10, false);
        EXPECT_EQ(adm.state(), serve::AdmissionState::kShedding);
    }
    adm.Decide(serve::QualityClass::kGold, 0.10, false);
    EXPECT_EQ(adm.state(), serve::AdmissionState::kClosed);
    EXPECT_EQ(adm.Transitions(), 4u);
}

TEST(AdmissionControllerTest, DisabledAlwaysAdmits)
{
    serve::AdmissionConfig off;
    off.enabled = false;
    serve::AdmissionController adm(off);
    EXPECT_EQ(adm.Decide(serve::QualityClass::kBestEffort, 1.0, true),
              serve::AdmissionAction::kAdmit);
    EXPECT_EQ(adm.state(), serve::AdmissionState::kClosed);
    EXPECT_EQ(adm.Transitions(), 0u);
}

// ----------------------------------- Admission + deadlines in engine

TEST(ShardedEngineTest, BestEffortShedsBeforeQueueFullRejectsGold)
{
    serve::ServeConfig config;
    config.shards = 1;
    config.queue_capacity = 8;
    auto engine = MakeEngine(config);

    // Park the worker and stack the queue to 7/8 with gold.
    engine->Pause();
    std::vector<std::future<serve::InvocationResult>> gold;
    for (int r = 0; r < 7; ++r)
        gold.push_back(engine->Submit(MakeRequest(r * 4, 4)));

    // Best-effort is shed by admission (kUnavailable) while the queue
    // still has room — shedding fires BEFORE queue-full backpressure.
    serve::InvocationRequest best_effort = MakeRequest(0, 4);
    best_effort.quality = serve::QualityClass::kBestEffort;
    auto shed = engine->Submit(std::move(best_effort));
    EXPECT_EQ(engine->Admission()->state(),
              serve::AdmissionState::kShedding);

    // The slot the shed request did not take still serves gold.
    gold.push_back(engine->Submit(MakeRequest(28, 4)));

    engine->Resume();
    engine->Drain();

    const auto shed_result = shed.get();
    EXPECT_EQ(shed_result.status.code(),
              core::StatusCode::kUnavailable);
    EXPECT_TRUE(shed_result.outputs.empty());
    for (auto& f : gold) {
        const auto result = f.get();
        EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    }
    engine->Shutdown();
}

TEST(ShardedEngineTest, ExpiredQueuedWorkNeverReachesTheDevice)
{
    serve::ServeConfig config;
    config.shards = 1;
    config.queue_capacity = 8;
    config.admission.enabled = false;  // isolate the deadline path.
    auto engine = MakeEngine(config);

    engine->Pause();
    auto healthy = engine->Submit(MakeRequest(0, 4));
    serve::InvocationRequest doomed = MakeRequest(4, 4);
    doomed.deadline_ns = obs::NowNs() + 2'000'000ull;  // +2 ms.
    auto expired = engine->Submit(std::move(doomed));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    engine->Resume();
    engine->Drain();

    const auto expired_result = expired.get();
    EXPECT_EQ(expired_result.status.code(),
              core::StatusCode::kDeadlineExceeded);
    // The promise the scenario matrix asserts fleet-wide: expired
    // work resolves without ever executing, so it carries no outputs.
    EXPECT_TRUE(expired_result.outputs.empty());
    EXPECT_TRUE(healthy.get().status.ok());
    engine->Shutdown();
}

TEST(ShardedEngineTest, DeadArrivalExpiresWithoutQueueSlot)
{
    serve::ServeConfig config;
    config.shards = 1;
    auto engine = MakeEngine(config);
    serve::InvocationRequest dead = MakeRequest(0, 4);
    dead.deadline_ns = 1;  // long past.
    const auto result = engine->Submit(std::move(dead)).get();
    EXPECT_EQ(result.status.code(),
              core::StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(result.outputs.empty());
    engine->Shutdown();
}

// ------------------------------------------------------ Loadgen smoke

TEST(LoadGeneratorTest, ArrivalProcessNamesRoundTrip)
{
    for (const auto arrival : {serve::ArrivalProcess::kPoisson,
                               serve::ArrivalProcess::kBursty,
                               serve::ArrivalProcess::kDiurnal}) {
        serve::ArrivalProcess parsed;
        ASSERT_TRUE(serve::ParseArrivalProcess(
            serve::ArrivalProcessName(arrival), &parsed));
        EXPECT_EQ(parsed, arrival);
    }
    serve::ArrivalProcess unused;
    EXPECT_FALSE(serve::ParseArrivalProcess("lunar", &unused));
}

TEST(LoadGeneratorTest, OpenLoopRunAccountsForEveryArrival)
{
    serve::ServeConfig config;
    config.shards = 2;
    config.queue_capacity = 8;
    auto engine = MakeEngine(config);

    serve::LoadGenConfig load;
    load.arrival = serve::ArrivalProcess::kPoisson;
    load.rate_hz = 2000.0;
    load.duration_ns = 100'000'000ull;  // 100 ms schedule.
    load.elements = 4;
    load.seed = 1234;
    load.input_pool = SharedInputs();
    load.best_effort_deadline_ns = 5'000'000ull;  // 5 ms.

    serve::LoadGenerator generator(*engine, load);
    const serve::LoadReport report = generator.Run();
    engine->Shutdown();

    EXPECT_GT(report.offered, 0u);
    // Every arrival lands in exactly one outcome bucket — nothing is
    // lost silently, under any interleaving.
    uint64_t submitted_sum = 0;
    for (const auto& cls : report.per_class) {
        submitted_sum += cls.submitted;
        EXPECT_EQ(cls.submitted,
                  cls.ok + cls.degraded + cls.compensated +
                      cls.bypassed + cls.shed + cls.expired +
                      cls.rejected + cls.cancelled + cls.failed);
    }
    EXPECT_EQ(report.offered, submitted_sum);
    EXPECT_EQ(report.expired_with_output, 0u);
    EXPECT_EQ(report.Total().failed, 0u);

    // The schedule is frozen by the seed: a second run offers exactly
    // the same arrivals no matter how the first engine coped.
    auto engine2 = MakeEngine(config);
    serve::LoadGenerator generator2(*engine2, load);
    const serve::LoadReport report2 = generator2.Run();
    engine2->Shutdown();
    EXPECT_EQ(report2.offered, report.offered);
}

TEST(LoadGeneratorTest, LatencyEndsAtCompletionNotCollection)
{
    serve::ServeConfig config;
    config.shards = 1;
    auto engine = MakeEngine(config);

    // A future collected long after the engine finished keeps the
    // engine's completion stamp.
    const uint64_t submit_ns = obs::NowNs();
    auto future = engine->Submit(MakeRequest(0, 4));
    future.wait();
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    const uint64_t collect_ns = obs::NowNs();
    const serve::InvocationResult result = future.get();
    ASSERT_TRUE(result.status.ok());
    EXPECT_GE(result.done_ns, submit_ns);
    EXPECT_LE(result.done_ns + 25'000'000ull, collect_ns);

    // Ten arrivals a second: each 4-element request completes within
    // a few milliseconds, but the generator only collects it when it
    // submits the next one, ~100 ms later. Its latencies must not
    // follow the arrival gap.
    serve::LoadGenConfig load;
    load.rate_hz = 10.0;
    load.duration_ns = 600'000'000ull;
    load.elements = 4;
    load.seed = 7;
    load.input_pool = SharedInputs();
    serve::LoadGenerator generator(*engine, load);
    const serve::LoadReport report = generator.Run();
    engine->Shutdown();
    const serve::ClassStats total = report.Total();
    ASSERT_GE(total.latencies_ns.size(), 2u);
    for (double latency_ns : total.latencies_ns)
        EXPECT_LT(latency_ns, 20e6);
}

}  // namespace
}  // namespace rumba
