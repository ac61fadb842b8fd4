// Tests for clpp::serve (dynamic micro-batching inference server) and the
// batched ParallelAdvisor entry point it drives.
//
// The advisors here are deliberately *untrained* (random weights from a
// fixed seed): batching correctness, scheduling, backpressure, and drain
// semantics are independent of model quality, and skipping training keeps
// the suite fast enough for the TSan CI job that runs it on every push.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/advisor.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "resil/fault.h"
#include "serve/queue.h"
#include "serve/server.h"
#include "support/json.h"
#include "tokenize/representation.h"
#include "tokenize/vocabulary.h"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace clpp::serve {
namespace {

using core::Advice;
using core::AdviseOptions;
using core::ParallelAdvisor;

/// Snippets of varied token lengths so advise_batch exercises several
/// length buckets per call.
const std::vector<std::string>& snippets() {
  static const std::vector<std::string> list = {
      "for (i = 0; i < n; i++) a[i] = b[i];",
      "for (i = 0; i < n; i++) c[i] = a[i] + b[i];",
      "for (i = 0; i < n; i++) sum += a[i];",
      "for (i = 1; i < n; i++) a[i] = a[i - 1] + 1;",
      "for (i = 0; i < n; i++) { t = a[i] * 0.5; b[i] = t + a[i]; }",
      "for (i = 0; i < n; i++) printf(\"%d\", a[i]);",
      "for (i = 0; i < n; i++) { if (a[i] > 0.5) a[i] = evolve(a[i]); }",
      "for (i = 0; i < n; i++) { for (j = 0; j < m; j++) c[i] += a[i] * b[j]; }",
      "for (i = 0; i < n; i++) best = a[i] > best ? a[i] : best;",
      "for (i = 2; i < n; i++) a[i] = a[i - 2] * 2.0;",
      "for (i = 0; i < n; i++) { x = f(i); y = g(x); d[i] = x + y; }",
      "for (i = 0; i < n; i++) a[i] = 0;",
  };
  return list;
}

/// Builds a small untrained advisor whose vocabulary covers the snippets.
std::unique_ptr<ParallelAdvisor> tiny_advisor() {
  constexpr std::size_t kMaxLen = 48;
  std::vector<std::vector<std::string>> documents;
  for (const std::string& code : snippets())
    documents.push_back(tokenize::tokenize(code, tokenize::Representation::kText));
  tokenize::Vocabulary vocab = tokenize::Vocabulary::build(documents);

  core::PragFormerConfig config;
  config.encoder.vocab_size = vocab.size();
  config.encoder.max_seq = kMaxLen;
  config.encoder.dim = 16;
  config.encoder.heads = 2;
  config.encoder.layers = 1;
  config.encoder.ffn_dim = 32;
  Rng rng(4242);
  auto directive = std::make_unique<core::PragFormer>(config, rng);
  auto private_model = std::make_unique<core::PragFormer>(config, rng);
  auto reduction = std::make_unique<core::PragFormer>(config, rng);
  auto schedule = std::make_unique<core::PragFormer>(config, rng);
  auto advisor = std::make_unique<ParallelAdvisor>(
      std::move(directive), std::move(private_model), std::move(reduction),
      std::move(vocab), tokenize::Representation::kText, kMaxLen);
  advisor->set_schedule_model(std::move(schedule));
  return advisor;
}

void expect_same_advice(const Advice& a, const Advice& b, const std::string& code) {
  // Bitwise float equality is the contract: batched rows must reproduce
  // the batch-of-one forward exactly, not approximately.
  EXPECT_EQ(a.p_directive, b.p_directive) << code;
  EXPECT_EQ(a.p_private, b.p_private) << code;
  EXPECT_EQ(a.p_reduction, b.p_reduction) << code;
  EXPECT_EQ(a.p_dynamic, b.p_dynamic) << code;
  EXPECT_EQ(a.needs_directive, b.needs_directive) << code;
  EXPECT_EQ(a.needs_private, b.needs_private) << code;
  EXPECT_EQ(a.needs_reduction, b.needs_reduction) << code;
  EXPECT_EQ(a.wants_dynamic_schedule, b.wants_dynamic_schedule) << code;
  EXPECT_EQ(a.suggestion, b.suggestion) << code;
  EXPECT_EQ(a.compar_suggestion, b.compar_suggestion) << code;
}

TEST(AdviseBatch, BitwiseIdenticalToSequentialAdvise) {
  const auto advisor = tiny_advisor();
  // Three copies of the snippet set → buckets larger than one row each.
  std::vector<std::string> codes;
  for (int round = 0; round < 3; ++round)
    for (const std::string& code : snippets()) codes.push_back(code);

  const std::vector<Advice> batched = advisor->advise_batch(codes);
  ASSERT_EQ(batched.size(), codes.size());
  for (std::size_t i = 0; i < codes.size(); ++i) {
    const Advice sequential = advisor->advise(codes[i]);
    expect_same_advice(batched[i], sequential, codes[i]);
  }
}

TEST(AdviseBatch, EmptyAndSingle) {
  const auto advisor = tiny_advisor();
  EXPECT_TRUE(advisor->advise_batch({}).empty());
  const std::vector<Advice> one = advisor->advise_batch({snippets()[0]});
  ASSERT_EQ(one.size(), 1u);
  expect_same_advice(one[0], advisor->advise(snippets()[0]), snippets()[0]);
}

TEST(AdviseBatch, CoalescesDuplicatesToTheSameVerdict) {
  const auto advisor = tiny_advisor();
  // Interleaved duplicates: every copy must carry the (bitwise) same verdict
  // as its own sequential advise, i.e. coalescing is unobservable except in
  // the work saved.
  const std::vector<std::string> codes = {snippets()[0], snippets()[1],
                                          snippets()[0], snippets()[2],
                                          snippets()[1], snippets()[0]};
  const std::vector<Advice> batched = advisor->advise_batch(codes);
  ASSERT_EQ(batched.size(), codes.size());
  for (std::size_t i = 0; i < codes.size(); ++i)
    expect_same_advice(batched[i], advisor->advise(codes[i]), codes[i]);
}

TEST(AdviseBatch, OptionsSkipDeterministicExtras) {
  const auto advisor = tiny_advisor();
  AdviseOptions model_only;
  model_only.with_analysis = false;
  model_only.with_compar = false;
  const std::vector<Advice> advices =
      advisor->advise_batch(snippets(), model_only);
  const std::vector<Advice> full = advisor->advise_batch(snippets());
  for (std::size_t i = 0; i < advices.size(); ++i) {
    // Model verdicts are untouched by the options...
    EXPECT_EQ(advices[i].p_directive, full[i].p_directive);
    // ...but the ComPar comparison is skipped entirely.
    EXPECT_TRUE(advices[i].compar_suggestion.empty());
    if (advices[i].needs_directive) {
      EXPECT_NE(advices[i].suggestion.find("#pragma omp parallel for"),
                std::string::npos);
    }
  }
}

TEST(AdvisorClone, CloneBehavesIdentically) {
  const auto advisor = tiny_advisor();
  const auto copy = advisor->clone();
  for (const std::string& code : snippets())
    expect_same_advice(copy->advise(code), advisor->advise(code), code);
}

TEST(ServeConfigTest, MaxBatchSharesTheInferBatchConstant) {
  EXPECT_EQ(ServeConfig{}.max_batch, core::kDefaultInferBatch);
  EXPECT_THROW(
      [] {
        ServeConfig config;
        config.max_batch = 0;
        config.validate();
      }(),
      InvalidArgument);
  EXPECT_THROW(
      [] {
        ServeConfig config;
        config.queue_capacity = 0;
        config.validate();
      }(),
      InvalidArgument);
}

TEST(ServerTest, ConcurrentSubmissionsMatchSequentialVerdicts) {
  const auto advisor = tiny_advisor();
  ServeConfig config;
  config.max_batch = 8;
  config.max_delay_us = 500;
  config.workers = 2;
  InferenceServer server(*advisor, config);

  constexpr int kClients = 6;
  constexpr int kPerClient = 8;
  std::vector<std::vector<std::future<ServedAdvice>>> futures(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kPerClient; ++r)
        futures[c].push_back(
            server.submit(snippets()[(c * kPerClient + r) % snippets().size()]));
    });
  }
  for (std::thread& t : clients) t.join();

  for (int c = 0; c < kClients; ++c) {
    for (int r = 0; r < kPerClient; ++r) {
      const std::string& code = snippets()[(c * kPerClient + r) % snippets().size()];
      const ServedAdvice served = futures[c][r].get();
      expect_same_advice(served.advice, advisor->advise(code), code);
      EXPECT_NE(served.timing.trace_id, 0u);
    }
  }
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.submitted, kClients * kPerClient);
  EXPECT_EQ(stats.completed, kClients * kPerClient);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_EQ(stats.batch_rows, kClients * kPerClient);
}

TEST(ServerTest, WorkersRunOneOmpThreadWhateverTheCallerSet) {
#if !defined(_OPENMP)
  GTEST_SKIP() << "built without OpenMP: every loop is serial anyway";
#else
  const auto advisor = tiny_advisor();
  const int caller_threads = omp_get_max_threads();
  omp_set_num_threads(4);
  obs::set_enabled(true);
  obs::Counter& parallel_loops =
      obs::metrics().counter("clpp.parallel.loops_parallel");
  obs::Counter& serial_loops =
      obs::metrics().counter("clpp.parallel.loops_serial");

  // Reference verdicts on the caller's 4-thread path, which does fan out.
  const std::uint64_t parallel_before_reference = parallel_loops.value();
  std::vector<Advice> reference;
  for (const std::string& code : snippets())
    reference.push_back(advisor->advise(code));
  EXPECT_GT(parallel_loops.value(), parallel_before_reference)
      << "snippets too short to cross the GEMM grain: the test proves nothing";

  const std::uint64_t parallel_before = parallel_loops.value();
  const std::uint64_t serial_before = serial_loops.value();
  std::vector<ServedAdvice> served;
  {
    ServeConfig config;
    config.workers = 2;
    InferenceServer server(*advisor, config);
    std::vector<std::future<ServedAdvice>> futures;
    for (const std::string& code : snippets())
      futures.push_back(server.submit(code));
    for (auto& future : futures) served.push_back(future.get());
    server.shutdown();
  }
  const std::uint64_t parallel_after = parallel_loops.value();
  const std::uint64_t serial_after = serial_loops.value();
  obs::set_enabled(false);
  omp_set_num_threads(caller_threads);

  EXPECT_EQ(parallel_after, parallel_before);
  EXPECT_GT(serial_after, serial_before);
  ASSERT_EQ(served.size(), snippets().size());
  for (std::size_t i = 0; i < served.size(); ++i)
    expect_same_advice(served[i].advice, reference[i], snippets()[i]);
#endif
}

TEST(ServerTest, MaxDelayFlushesPartialBatch) {
  const auto advisor = tiny_advisor();
  ServeConfig config;
  config.max_batch = 64;  // never reachable with one request
  config.max_delay_us = 1000;
  InferenceServer server(*advisor, config);

  std::future<ServedAdvice> future = server.submit(snippets()[0]);
  // The batch can never fill, so completion proves the delay-based flush.
  ASSERT_EQ(future.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  expect_same_advice(future.get().advice, advisor->advise(snippets()[0]), snippets()[0]);
  EXPECT_EQ(server.stats().completed, 1u);
}

TEST(ServerTest, DuplicateRequestsCoalesceWithinABatch) {
  const auto advisor = tiny_advisor();
  ServeConfig config;
  config.max_batch = 8;
  // Wide window: the batch flushes the moment all eight requests land, so
  // they deterministically share one inference pass.
  config.max_delay_us = 200'000;
  InferenceServer server(*advisor, config);

  const std::string code = snippets()[0];
  const Advice sequential = advisor->advise(code);
  std::vector<std::future<ServedAdvice>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(server.submit(code));
  for (auto& future : futures)
    expect_same_advice(future.get().advice, sequential, code);

  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.completed, 8u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batch_rows, 8u);
  EXPECT_EQ(stats.coalesced, 7u);  // one forward served all eight copies
}

TEST(ServerTest, ResultCacheServesRepeatsWithoutReinference) {
  const auto advisor = tiny_advisor();
  ServeConfig config;
  config.max_batch = 4;
  config.max_delay_us = 500;
  config.cache.max_entries = 64;
  InferenceServer server(*advisor, config);

  const std::string code = snippets()[0];
  const Advice sequential = advisor->advise(code);
  const ServedAdvice first = server.submit(code).get();
  expect_same_advice(first.advice, sequential, code);
  EXPECT_FALSE(first.timing.cached);

  // The repeat is served from the result cache: identical advice, flagged
  // cached, fresh trace id, and no second batch row.
  const ServedAdvice repeat = server.submit(code).get();
  expect_same_advice(repeat.advice, sequential, code);
  EXPECT_TRUE(repeat.timing.cached);
  EXPECT_NE(repeat.timing.trace_id, 0u);

  // Whitespace-only edits hit the same canonical digest.
  const ServedAdvice reformatted =
      server.submit("  " + code + "\n").get();
  expect_same_advice(reformatted.advice, sequential, code);
  EXPECT_TRUE(reformatted.timing.cached);

  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(stats.batch_rows, 1u);
}

TEST(ServerTest, RejectPolicyShedsLoadWhenQueueIsFull) {
  const auto advisor = tiny_advisor();
  ServeConfig config;
  config.queue_capacity = 3;
  config.overflow = OverflowPolicy::kReject;
  config.workers = 0;  // nothing consumes: the queue fills deterministically
  InferenceServer server(*advisor, config);

  std::vector<std::future<ServedAdvice>> accepted;
  for (int i = 0; i < 3; ++i) accepted.push_back(server.submit(snippets()[0]));
  EXPECT_EQ(server.queue_depth(), 3u);
  EXPECT_THROW(server.submit(snippets()[0]), ServeOverload);
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.rejected, 1u);

  // Shutdown with no workers cannot drain: every accepted future must still
  // complete — with ServeShutdown, never by abandonment.
  server.shutdown();
  for (auto& future : accepted) EXPECT_THROW(future.get(), ServeShutdown);
  EXPECT_THROW(server.submit(snippets()[0]), ServeShutdown);
}

TEST(ServerTest, BlockPolicyWaitsForSpace) {
  const auto advisor = tiny_advisor();
  ServeConfig config;
  config.queue_capacity = 2;
  config.overflow = OverflowPolicy::kBlock;
  config.max_batch = 1;
  config.max_delay_us = 0;  // serve immediately, one request per batch
  InferenceServer server(*advisor, config);

  // Many more submissions than capacity: with kBlock none may be rejected,
  // and all must eventually be served.
  constexpr int kTotal = 24;
  std::vector<std::future<ServedAdvice>> futures;
  futures.reserve(kTotal);
  for (int i = 0; i < kTotal; ++i)
    futures.push_back(server.submit(snippets()[i % snippets().size()]));
  for (auto& future : futures) EXPECT_NO_THROW(future.get());
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.submitted, kTotal);
  EXPECT_EQ(stats.completed, kTotal);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(ServerTest, ShutdownDrainsAllInFlightRequests) {
  const auto advisor = tiny_advisor();
  ServeConfig config;
  config.max_batch = 4;
  config.max_delay_us = 200'000;  // long window: shutdown must cut it short
  InferenceServer server(*advisor, config);

  std::vector<std::future<ServedAdvice>> futures;
  for (int i = 0; i < 10; ++i)
    futures.push_back(server.submit(snippets()[i % snippets().size()]));
  server.shutdown();  // graceful drain: every queued request still served
  for (auto& future : futures) EXPECT_NO_THROW(future.get());
  EXPECT_EQ(server.stats().completed, 10u);
  EXPECT_EQ(server.queue_depth(), 0u);
}

TEST(ServerTest, InjectedWorkerFaultFailsOnlyItsOwnBatch) {
  const auto advisor = tiny_advisor();
  ServeConfig config;
  config.max_batch = 4;
  // A wide window so each group of 4 submissions lands in exactly one batch
  // (the batch flushes the moment max_batch is reached, not at the window).
  config.max_delay_us = 200'000;
  InferenceServer server(*advisor, config);

  // First arrival at the serve.batch seam throws inside the worker.
  resil::FaultPlan plan;
  plan.triggers["serve.batch"] = {1};
  resil::set_fault_plan(plan);

  std::vector<std::future<ServedAdvice>> doomed;
  for (int i = 0; i < 4; ++i) doomed.push_back(server.submit(snippets()[i]));
  // The injected fault must surface through exactly these futures...
  for (auto& future : doomed) EXPECT_THROW(future.get(), resil::InjectedFault);

  // ...while the worker survives and serves subsequent requests normally.
  std::vector<std::future<ServedAdvice>> healthy;
  for (int i = 0; i < 4; ++i) healthy.push_back(server.submit(snippets()[i]));
  for (auto& future : healthy) EXPECT_NO_THROW(future.get());
  resil::clear_fault_plan();

  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.failed, 4u);
  EXPECT_EQ(stats.completed, 4u);
}

TEST(ServerTest, EnqueueFaultSeamRejectsTheSubmission) {
  const auto advisor = tiny_advisor();
  InferenceServer server(*advisor, ServeConfig{});
  resil::FaultPlan plan;
  plan.triggers["serve.enqueue"] = {1};
  resil::set_fault_plan(plan);
  EXPECT_THROW(server.submit(snippets()[0]), resil::InjectedFault);
  resil::clear_fault_plan();
  // The failed submission never entered the queue; the server still works.
  EXPECT_NO_THROW(server.submit(snippets()[0]).get());
}

TEST(ServerTest, ResponsesCarryTraceAndTiming) {
  const auto advisor = tiny_advisor();
  ServeConfig config;
  config.max_batch = 4;
  config.max_delay_us = 200'000;  // all four submissions share one batch
  InferenceServer server(*advisor, config);

  // Second submission duplicates the first: exactly one coalesced row.
  const std::vector<std::string> codes = {snippets()[0], snippets()[0],
                                          snippets()[1], snippets()[2]};
  std::vector<std::future<ServedAdvice>> futures;
  for (const std::string& code : codes) futures.push_back(server.submit(code));

  std::set<std::uint64_t> trace_ids;
  std::vector<ServedAdvice> served;
  for (auto& future : futures) served.push_back(future.get());
  ASSERT_EQ(server.stats().batches, 1u) << "submissions split across batches";

  for (const ServedAdvice& response : served) {
    EXPECT_NE(response.timing.trace_id, 0u);
    trace_ids.insert(response.timing.trace_id);
    // The batch pass contains the model forwards, so batch time bounds
    // infer time; a batch that did any work has a nonzero forward share.
    EXPECT_GE(response.timing.batch_us, response.timing.infer_us);
    EXPECT_GT(response.timing.infer_us, 0u);
    // All four rode the same batch, so they report the same batch split.
    EXPECT_EQ(response.timing.batch_us, served[0].timing.batch_us);
  }
  // Trace ids are per-request, not per-batch: duplicates get their own id.
  EXPECT_EQ(trace_ids.size(), codes.size());
  EXPECT_FALSE(served[0].timing.coalesced);
  EXPECT_TRUE(served[1].timing.coalesced);  // duplicate of request 0
  EXPECT_FALSE(served[2].timing.coalesced);
  EXPECT_FALSE(served[3].timing.coalesced);
}

TEST(ServerTest, ChromeTraceLinksRequestAcrossThreads) {
  const auto advisor = tiny_advisor();
  obs::Tracer::instance().reset();
  obs::set_enabled(true);

  std::uint64_t trace_id = 0;
  {
    ServeConfig config;
    config.max_batch = 2;
    config.max_delay_us = 1000;
    InferenceServer server(*advisor, config);
    trace_id = server.submit(snippets()[0]).get().timing.trace_id;
    server.shutdown();
  }
  obs::set_enabled(false);
  ASSERT_NE(trace_id, 0u);

  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(trace_id));
  const Json doc = obs::Tracer::instance().chrome_trace();
  obs::Tracer::instance().reset();

  // Collect the flow events ("s" start / "t" step / "f" finish) carrying
  // this request's id and the spans that anchor them.
  std::map<std::string, std::set<std::int64_t>> flow_tids;  // ph -> tids
  const Json& events = doc.at("traceEvents");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& e = events.at(i);
    const std::string ph = e.get_string("ph", "");
    if ((ph == "s" || ph == "t" || ph == "f") &&
        e.get_string("id", "") == hex)
      flow_tids[ph].insert(e.at("tid").as_int());
  }
  // The flow starts at submit (client thread) and finishes at the infer
  // span (worker thread) — one connected lane across two threads.
  ASSERT_EQ(flow_tids.count("s"), 1u) << "missing flow start";
  ASSERT_EQ(flow_tids.count("f"), 1u) << "missing flow finish";
  EXPECT_NE(*flow_tids["s"].begin(), *flow_tids["f"].begin())
      << "flow start and finish landed on the same thread";
}

TEST(ServerTest, FlightRecorderDumpsOnInjectedServeFault) {
  const auto advisor = tiny_advisor();
  const std::string dump_path =
      testing::TempDir() + "clpp_serve_flight_test.json";
  std::remove(dump_path.c_str());
  obs::set_flight_out(dump_path);  // also arms dump-on-injected-fault

  ServeConfig config;
  config.max_batch = 2;
  config.max_delay_us = 1000;
  InferenceServer server(*advisor, config);
  resil::FaultPlan plan;
  plan.triggers["serve.batch"] = {1};
  resil::set_fault_plan(plan);
  EXPECT_THROW(server.submit(snippets()[0]).get(), resil::InjectedFault);
  resil::clear_fault_plan();
  obs::set_flight_out("");  // disarm for the rest of the suite

  std::ifstream in(dump_path);
  ASSERT_TRUE(in.good()) << "no flight dump at " << dump_path;
  std::ostringstream text;
  text << in.rdbuf();
  const Json dump = Json::parse(text.str());
  EXPECT_EQ(dump.at("schema").as_string(), "clpp.flight.v1");
  EXPECT_NE(dump.at("reason").as_string().find("serve.batch"),
            std::string::npos);
  bool saw_fault = false;
  bool saw_submit = false;
  const Json& dumped = dump.at("events");
  for (std::size_t i = 0; i < dumped.size(); ++i) {
    const std::string kind = dumped.at(i).at("kind").as_string();
    if (kind == "resil.fault") saw_fault = true;
    if (kind == "serve.submit") saw_submit = true;
  }
  EXPECT_TRUE(saw_fault) << "dump lacks the injected-fault event";
  EXPECT_TRUE(saw_submit) << "dump lacks the submit that led to the fault";
  std::remove(dump_path.c_str());
}

TEST(ServerTest, StatsJsonReportsLiveTelemetry) {
  const auto advisor = tiny_advisor();
  ServeConfig config;
  config.max_batch = 4;
  config.max_delay_us = 200'000;
  InferenceServer server(*advisor, config);

  std::vector<std::future<ServedAdvice>> futures;
  futures.push_back(server.submit(snippets()[0]));
  futures.push_back(server.submit(snippets()[0]));  // coalesces
  futures.push_back(server.submit(snippets()[1]));
  futures.push_back(server.submit(snippets()[2]));
  for (auto& future : futures) future.get();

  // stats_json is always-on telemetry: it must be populated even though
  // this test never enabled CLPP_OBS.
  const Json stats = server.stats_json();
  EXPECT_EQ(stats.at("schema").as_string(), "clpp.serve_stats.v1");
  EXPECT_EQ(stats.at("completed").as_int(), 4);
  EXPECT_EQ(stats.at("queue_depth").as_int(), 0);
  EXPECT_EQ(stats.at("coalesced").as_int(), 1);
  EXPECT_DOUBLE_EQ(stats.at("coalesce_rate").as_double(), 0.25);
  EXPECT_EQ(stats.at("latency_us").at("count").as_int(), 4);
  EXPECT_EQ(stats.at("queue_wait_us").at("count").as_int(), 4);
  EXPECT_GT(stats.at("latency_us").at("p99").as_double(), 0.0);
  // Latency includes the queue wait, so the percentiles must order.
  EXPECT_GE(stats.at("latency_us").at("p50").as_double(),
            stats.at("queue_wait_us").at("p50").as_double());
  // One batch ran: the per-batch histograms saw exactly one sample, and
  // every task model (directive + clause heads + schedule) was timed.
  EXPECT_EQ(stats.at("batch_size").at("count").as_int(), 1);
  EXPECT_EQ(stats.at("infer_us").at("count").as_int(), 1);
  const Json& tasks = stats.at("tasks");
  EXPECT_EQ(tasks.at("directive_us").at("count").as_int(), 1);
  EXPECT_GT(tasks.at("directive_us").at("mean").as_double(), 0.0);
}

TEST(ServerTest, QualityJsonRoundTripsLiveInsight) {
  const auto advisor = tiny_advisor();
  // Arm drift detection the way a trained checkpoint would: fingerprint
  // the "training" distribution and hand it to the advisor.
  insight::FingerprintBuilder builder;
  for (const std::string& code : snippets()) builder.observe(code);
  advisor->set_fingerprint(builder.build());

  ServeConfig config;
  config.max_batch = 4;
  InferenceServer server(*advisor, config);
  // Serve exactly the fingerprinted distribution: the drift window then
  // matches the reference and must score stable.
  std::vector<std::future<ServedAdvice>> futures;
  for (const std::string& code : snippets())
    futures.push_back(server.submit(code));
  for (auto& future : futures) future.get();
  const std::int64_t served = static_cast<std::int64_t>(snippets().size());

  // The snapshot must survive a serialize/parse cycle (it is the payload
  // of the {"cmd":"quality"} admin verb).
  const Json doc = Json::parse(server.quality_json().dump());
  EXPECT_EQ(doc.at("schema").as_string(), "clpp.insight.v1");
  EXPECT_EQ(doc.at("samples").as_int(), served);
  EXPECT_EQ(doc.at("tasks").at("directive").at("count").as_int(), served);

  const Json& drift = doc.at("drift");
  EXPECT_TRUE(drift.at("armed").as_bool());
  EXPECT_EQ(drift.at("observed").as_int(), served);
  EXPECT_LT(drift.at("score").as_double(), 0.1);

  // Several snippets (elementwise copy, the a[i-1] recurrence) carry a
  // conclusive proof, and the books must balance regardless of what the
  // untrained model predicted.
  const Json& disagreement = doc.at("disagreement");
  const std::int64_t checked = disagreement.at("checked").as_int();
  EXPECT_GE(checked, 2);
  EXPECT_LE(checked, served);
  EXPECT_EQ(disagreement.at("agreements").as_int() +
                disagreement.at("count").as_int(),
            checked);
  EXPECT_GE(disagreement.at("rate").as_double(), 0.0);
  EXPECT_LE(disagreement.at("rate").as_double(), 1.0);
}

TEST(RequestQueueTest, PopBatchHonorsMaxBatch) {
  RequestQueue queue(16, OverflowPolicy::kBlock);
  for (int i = 0; i < 10; ++i) {
    PendingRequest request;
    request.code = "x";
    ASSERT_TRUE(queue.push(std::move(request)));
  }
  EXPECT_EQ(queue.depth(), 10u);
  EXPECT_EQ(queue.pop_batch(4, 0).size(), 4u);
  EXPECT_EQ(queue.pop_batch(4, 0).size(), 4u);
  EXPECT_EQ(queue.pop_batch(4, 0).size(), 2u);
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(RequestQueueTest, CloseWakesBlockedPusherAndDrainsPoppers) {
  RequestQueue queue(1, OverflowPolicy::kBlock);
  {
    PendingRequest request;
    request.code = "first";
    ASSERT_TRUE(queue.push(std::move(request)));
  }
  std::atomic<bool> pusher_threw{false};
  std::thread pusher([&] {
    PendingRequest request;
    request.code = "blocked";
    try {
      queue.push(std::move(request));  // full queue: blocks until close
    } catch (const ServeShutdown&) {
      pusher_threw = true;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  pusher.join();
  EXPECT_TRUE(pusher_threw.load());

  // Poppers still drain the item that was queued before the close...
  EXPECT_EQ(queue.pop_batch(8, 0).size(), 1u);
  // ...and then get the closed-and-drained exit signal.
  EXPECT_TRUE(queue.pop_batch(8, 0).empty());
}

TEST(RequestQueueTest, PopBatchPrunesExpiredWithoutBurningSlots) {
  RequestQueue queue(16, OverflowPolicy::kBlock);
  std::vector<std::future<ServedAdvice>> expired_futures;
  // Three requests whose deadline passed long ago, interleaved with two
  // live ones — the batch must contain exactly the live pair.
  for (int i = 0; i < 3; ++i) {
    PendingRequest request;
    request.code = "expired";
    request.deadline_ns = 1;  // epoch of the steady clock: long past
    expired_futures.push_back(request.result.get_future());
    ASSERT_TRUE(queue.push(std::move(request)));
    if (i < 2) {
      PendingRequest live;
      live.code = "live";
      ASSERT_TRUE(queue.push(std::move(live)));
    }
  }
  const std::vector<PendingRequest> batch = queue.pop_batch(8, 0);
  ASSERT_EQ(batch.size(), 2u);
  for (const PendingRequest& request : batch)
    EXPECT_EQ(request.code, "live");
  EXPECT_EQ(queue.deadline_dropped(), 3u);
  for (auto& future : expired_futures)
    EXPECT_THROW(future.get(), ServeDeadline);
}

TEST(RequestQueueTest, PopBatchKeepsWaitingWhenEveryItemExpired) {
  // A batch of only-expired requests must not return an empty vector (the
  // workers' exit signal): the popper drops them and goes back to waiting
  // until a live request (or close) arrives.
  RequestQueue queue(16, OverflowPolicy::kBlock);
  for (int i = 0; i < 4; ++i) {
    PendingRequest request;
    request.code = "expired";
    request.deadline_ns = 1;
    ASSERT_TRUE(queue.push(std::move(request)));
  }
  std::thread late_pusher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    PendingRequest live;
    live.code = "live";
    queue.push(std::move(live));
  });
  const std::vector<PendingRequest> batch = queue.pop_batch(8, 0);
  late_pusher.join();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].code, "live");
  EXPECT_EQ(queue.deadline_dropped(), 4u);
}

TEST(ServerTest, ExpiredDeadlineFailsWithServeDeadlineAndCounts) {
  const auto advisor = tiny_advisor();
  ServeConfig config;
  config.workers = 1;
  InferenceServer server(*advisor, config);
  // An already-expired deadline is deterministic: whenever the worker
  // dequeues it, the drop path fires.
  auto doomed = server.submit(snippets()[0], /*deadline_ns=*/1);
  EXPECT_THROW(doomed.get(), ServeDeadline);
  // A deadline-free request on the same server still serves normally.
  auto served = server.submit(snippets()[1]);
  EXPECT_NO_THROW(served.get());
  server.shutdown();
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.deadline_dropped, 1u);
  EXPECT_EQ(stats.completed, 1u);
  // Deadline drops are their own series, not inference failures.
  EXPECT_EQ(stats.failed, 0u);
  const Json json = server.stats_json();
  EXPECT_EQ(json.at("deadline_dropped").as_int(), 1);
}

TEST(ServerTest, FarFutureDeadlineNeverDrops) {
  const auto advisor = tiny_advisor();
  ServeConfig config;
  config.workers = 1;
  InferenceServer server(*advisor, config);
  const std::uint64_t hour_from_now =
      obs::Tracer::now_ns() + 3'600'000'000'000ULL;
  std::vector<std::future<ServedAdvice>> futures;
  for (int i = 0; i < 8; ++i)
    futures.push_back(server.submit(snippets()[i], hour_from_now));
  for (auto& future : futures) EXPECT_NO_THROW(future.get());
  server.shutdown();
  EXPECT_EQ(server.stats().deadline_dropped, 0u);
}

}  // namespace
}  // namespace clpp::serve
