// Serving throughput bench: scores/sec and p50/p99 latency for scoring
// candidate catalogs through
//   (a) the taped training-path forward (status quo before src/serve/),
//   (b) the tape-free generic forward (NoGradGuard micro-batches),
//   (c) the serve::Predictor factored catalog program (SeqFM fast path),
//   (d) the compiled op program (trace -> IR passes -> arena-planned VM),
//       alone and behind a serve::ContextCache (the production config),
//   (e) serve::BatchServer fusing many requests into multi-user waves,
// across thread counts. Every path produces bit-for-bit identical scores
// and rankings; the bench asserts that (including cached-warm and
// batch-served results, and rankings partitioned into --shards
// LocalShardBackend jobs) before any timing and exits 1 on the first
// mismatch.
//
// --smoke runs the parity gates only, on tiny shapes, and exits — the mode
// CI uses under ASan+UBSan.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>

#include "autograd/variable.h"
#include "bench/bench_common.h"
#include "ir/exec.h"
#include "serve/backend.h"
#include "serve/predictor.h"
#include "serve/server.h"
#include "serve/shard.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"
#include "util/cpu.h"
#include "util/thread_pool.h"

namespace seqfm {
namespace bench {
namespace {

struct PathStats {
  double scores_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

// Latency percentiles come from bench_common's nearest-rank Percentile
// (the local copy here used to index q*n, reporting the max as p99 for
// n <= 100 samples).

/// The one timing harness behind every measured path: runs fn(r, &latencies)
/// for each request, derives scores/sec from \p total_scores over the whole
/// run, and p50/p99 from the latency samples fn appends (usually one per
/// request; the taped path appends one per forward batch).
PathStats MeasurePath(size_t requests, size_t total_scores,
                      const std::function<void(size_t, std::vector<double>*)>&
                          fn) {
  std::vector<double> latencies;
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t r = 0; r < requests; ++r) fn(r, &latencies);
  const auto t1 = std::chrono::steady_clock::now();
  PathStats stats;
  stats.scores_per_sec = static_cast<double>(total_scores) /
                         std::chrono::duration<double>(t1 - t0).count();
  stats.p50_ms = PercentileMs(&latencies, 0.50);
  stats.p99_ms = PercentileMs(&latencies, 0.99);
  return stats;
}

/// MeasurePath with the harness itself timing each request as one sample.
PathStats MeasurePathPerRequest(size_t requests, size_t total_scores,
                                const std::function<void(size_t)>& fn) {
  return MeasurePath(requests, total_scores,
                     [&](size_t r, std::vector<double>* latencies) {
                       const auto s0 = std::chrono::steady_clock::now();
                       fn(r);
                       const auto s1 = std::chrono::steady_clock::now();
                       latencies->push_back(
                           std::chrono::duration<double>(s1 - s0).count());
                     });
}

/// Scores \p candidates for \p ex through the taped training-path forward in
/// batches of \p batch_size, recording one latency sample per batch.
std::vector<float> ScoreTaped(core::Model* model,
                              const data::BatchBuilder& builder,
                              const data::SequenceExample& ex,
                              const std::vector<int32_t>& candidates,
                              size_t batch_size,
                              std::vector<double>* latencies) {
  std::vector<float> scores;
  scores.reserve(candidates.size());
  for (size_t start = 0; start < candidates.size(); start += batch_size) {
    const size_t end = std::min(candidates.size(), start + batch_size);
    std::vector<const data::SequenceExample*> repeated(end - start, &ex);
    std::vector<int32_t> chunk(candidates.begin() + start,
                               candidates.begin() + end);
    data::Batch batch = builder.Build(repeated, &chunk);
    const auto t0 = std::chrono::steady_clock::now();
    autograd::Variable out = model->Score(batch, /*training=*/false);
    const auto t1 = std::chrono::steady_clock::now();
    latencies->push_back(std::chrono::duration<double>(t1 - t0).count());
    for (size_t i = 0; i < end - start; ++i) {
      scores.push_back(out.value().data()[i]);
    }
  }
  return scores;
}

size_t CountMismatches(const std::vector<float>& ref,
                       const std::vector<float>& got) {
  if (ref.size() != got.size()) return ref.size() + got.size();
  size_t mismatches = 0;
  for (size_t i = 0; i < ref.size(); ++i) {
    if (std::memcmp(&ref[i], &got[i], sizeof(float)) != 0) ++mismatches;
  }
  return mismatches;
}

/// Top-k of \p candidates by their taped \p scores under serve::RankBefore,
/// by one full sort — the ranking oracle of the top-K parity gates.
std::vector<serve::ScoredItem> RankTaped(
    const std::vector<int32_t>& candidates, const std::vector<float>& scores,
    size_t k) {
  std::vector<serve::RankEntry> entries(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    entries[i] = {scores[i], candidates[i], i};
  }
  std::sort(entries.begin(), entries.end(), serve::RankBefore);
  std::vector<serve::ScoredItem> top;
  for (size_t i = 0; i < std::min(k, entries.size()); ++i) {
    top.push_back({entries[i].item, entries[i].score});
  }
  return top;
}

/// The repeated-user multi-request workload: request r comes from user
/// r % users and re-ranks a rotating slate of \p slate candidates, so a
/// (user, history) context is re-requested requests/users times — the
/// cache-hit-heavy traffic shape the ContextCache targets.
struct RequestWorkload {
  std::vector<const data::SequenceExample*> examples;  // per request
  std::vector<std::vector<int32_t>> slates;            // per request
};

RequestWorkload MakeRequestWorkload(
    const std::vector<data::SequenceExample>& pool, size_t num_objects,
    size_t requests, size_t users, size_t slate) {
  // Pick `users` examples with distinct user ids (histories differ too, so
  // each is one distinct serving context).
  std::vector<const data::SequenceExample*> distinct;
  for (const auto& ex : pool) {
    bool seen = false;
    for (const auto* d : distinct) seen = seen || d->user == ex.user;
    if (!seen) distinct.push_back(&ex);
    if (distinct.size() >= users) break;
  }
  RequestWorkload w;
  for (size_t r = 0; r < requests; ++r) {
    w.examples.push_back(distinct[r % distinct.size()]);
    std::vector<int32_t> s(slate);
    for (size_t j = 0; j < slate; ++j) {
      s[j] = static_cast<int32_t>((r * 7 + j) % num_objects);
    }
    w.slates.push_back(std::move(s));
  }
  return w;
}

int Run(int argc, char** argv) {
  FlagParser flags = ParseBenchFlagsOrDie(
      argc, argv,
      {"candidates", "requests", "thread-sweep", "smoke", "users", "slate",
       "cache-mb", "wave", "shards", "json"});
  const bool smoke = flags.GetBool("smoke", false);
  const std::string json_path = flags.GetString("json", "");
  JsonResultWriter json;
  json.Add("bench", "serving");
  json.Add("simd_level", tensor::kernels::Active().name);
  BenchOptions opts = BenchOptions::FromFlags(flags);
  if (smoke) {
    // Tiny shapes: the gates exercise every serving path bit-for-bit under
    // sanitizers without paying for a timed workload.
    if (!flags.Has("scale")) opts.scale = 0.2;
    if (!flags.Has("dim")) opts.dim = 8;
  } else {
    // Serving-shaped defaults: the paper's latent dim (64) and a long
    // check-in history. At the training benches' tiny dim=16/seq=20 the
    // per-request context is too cheap for caching to matter; serving heavy
    // users is exactly where the (user, history) context dominates.
    if (!flags.Has("dim")) opts.dim = 64;
    if (!flags.Has("seq-len")) opts.max_seq_len = 50;
  }
  // Acceptance workload: batch 256 unless the caller asks otherwise.
  const size_t batch = flags.Has("batch") ? opts.batch_size : 256;
  const size_t requests = static_cast<size_t>(
      std::max<int64_t>(1, flags.GetInt("requests", opts.quick ? 4 : 16)));
  const size_t rb_requests = smoke ? 8 : std::max<size_t>(requests, 64);
  const size_t rb_users = static_cast<size_t>(
      std::max<int64_t>(1, flags.GetInt("users", 8)));
  const size_t rb_slate = static_cast<size_t>(
      std::max<int64_t>(1, flags.GetInt("slate", 8)));
  const size_t cache_mb = static_cast<size_t>(
      std::max<int64_t>(1, flags.GetInt("cache-mb", 64)));
  const size_t wave = static_cast<size_t>(
      std::max<int64_t>(1, flags.GetInt("wave", 64)));

  PrintBanner("Serving throughput — taped vs tape-free vs factored vs "
              "cached vs request-batched",
              "src/serve/ subsystem (no paper counterpart); catalog scoring "
              "for next-object ranking");

  PreparedDataset prep = PrepareDataset("gowalla", opts);
  auto model = MakeModel("SeqFM", prep.space, opts);

  size_t num_candidates = static_cast<size_t>(
      flags.GetInt("candidates", prep.space.num_objects()));
  num_candidates = std::min(num_candidates, prep.space.num_objects());
  std::vector<int32_t> catalog(num_candidates);
  for (size_t i = 0; i < num_candidates; ++i) {
    catalog[i] = static_cast<int32_t>(i);
  }
  const auto& examples = prep.dataset.test().empty() ? prep.dataset.train()
                                                     : prep.dataset.test();
  SEQFM_CHECK(!examples.empty());

  // The eager baselines pin use_compiled_program off: with the serving
  // compiler on by default, every Predictor would otherwise score through
  // the op program and the rows below would all measure the same path.
  serve::PredictorOptions generic_opts;
  generic_opts.micro_batch = batch;
  generic_opts.enable_seqfm_fast_path = false;
  generic_opts.use_compiled_program = false;
  serve::Predictor generic(model.get(), prep.builder.get(), generic_opts);
  serve::PredictorOptions fast_opts;
  fast_opts.micro_batch = batch;
  fast_opts.use_compiled_program = false;  // hand-factored eager program
  serve::Predictor fast(model.get(), prep.builder.get(), fast_opts);
  // The compiled op program (trace -> IR passes -> arena-planned VM).
  serve::PredictorOptions compiled_opts;
  compiled_opts.micro_batch = batch;
  serve::Predictor compiled(model.get(), prep.builder.get(), compiled_opts);
  // Compiled + context cache: the production serving configuration.
  serve::PredictorOptions cached_opts = compiled_opts;
  cached_opts.context_cache_bytes = cache_mb << 20;
  serve::Predictor cached(model.get(), prep.builder.get(), cached_opts);

  std::printf("model=SeqFM dim=%zu seq-len=%zu | catalog=%zu candidates, "
              "%zu requests, batch=%zu | fast path %s, compiler %s, "
              "cache %zu MiB\n",
              opts.dim, opts.max_seq_len, num_candidates, requests, batch,
              fast.fast_path_active() ? "ACTIVE" : "inactive",
              compiled.compiled_active() ? "ACTIVE" : "inactive", cache_mb);
  if (!compiled.compiled_active()) {
    std::fprintf(stderr, "SeqFM failed to compile into an op program\n");
    return 1;
  }
  // Compile-time facts, for --json and the log: instruction counts after
  // the pass pipeline and the statically planned execution-frame bytes.
  {
    const ir::EngineStats es = compiled.engine()->stats();
    std::printf("compiled program: %zu prologue + %zu body instrs, %zu "
                "slots, %zu planned frame bytes, %zu folded / %zu dce / "
                "%zu fused\n",
                es.prologue_instrs, es.body_instrs, es.slots,
                (es.prologue_frame_floats + es.body_frame_floats) *
                    sizeof(float),
                es.folded, es.dce_removed, es.fused);
    json.Add("compiled_prologue_instrs",
             static_cast<double>(es.prologue_instrs));
    json.Add("compiled_body_instrs", static_cast<double>(es.body_instrs));
    json.Add("compiled_slots", static_cast<double>(es.slots));
    json.Add("compiled_frame_bytes",
             static_cast<double>(
                 (es.prologue_frame_floats + es.body_frame_floats) *
                 sizeof(float)));
    json.Add("compiled_folded", static_cast<double>(es.folded));
    json.Add("compiled_dce_removed", static_cast<double>(es.dce_removed));
    json.Add("compiled_fused", static_cast<double>(es.fused));
  }

  const RequestWorkload workload =
      MakeRequestWorkload(examples, prep.space.num_objects(), rb_requests,
                          rb_users, std::min(rb_slate, num_candidates));

  // Shard sweep (--shards): same CSV validation treatment as --thread-sweep.
  const std::vector<size_t> shard_counts = ParseSizeListOrDie(
      flags, "shards", smoke ? "1,2,3,8" : "1,2,4,8", 4096);

  // -------------------------------------------------------------------------
  // Parity gates: every serving path must agree with the taped forward
  // bit-for-bit before any timing. Runs at each sweep thread count in smoke
  // mode, at the first otherwise.
  // -------------------------------------------------------------------------
  auto run_parity_gates = [&]() -> size_t {
    size_t mismatches = 0;
    std::vector<double> scratch;
    const auto& ex = examples.front();
    const std::vector<float> ref =
        ScoreTaped(model.get(), *prep.builder, ex, catalog, batch, &scratch);
    mismatches += CountMismatches(ref, generic.ScoreCandidates(ex, catalog));
    mismatches += CountMismatches(ref, fast.ScoreCandidates(ex, catalog));
    // The compiled op program against the taped forward — the compiled
    // on/off smoke CI leans on this gate.
    mismatches += CountMismatches(ref, compiled.ScoreCandidates(ex, catalog));
    // Cached path twice: the cold pass fills the cache, the warm pass must
    // serve the memoized context with identical bits.
    cached.InvalidateContextCache();
    mismatches += CountMismatches(ref, cached.ScoreCandidates(ex, catalog));
    mismatches += CountMismatches(ref, cached.ScoreCandidates(ex, catalog));

    // Shared ranking comparison for every top-K gate below: item equality
    // plus score-bit equality, size mismatch counted as all-wrong.
    auto count_ranking_mismatches =
        [](const std::vector<serve::ScoredItem>& got,
           const std::vector<serve::ScoredItem>& want) {
          if (got.size() != want.size()) return want.size() + 1;
          size_t bad = 0;
          for (size_t j = 0; j < got.size(); ++j) {
            if (got[j].item != want[j].item ||
                std::memcmp(&got[j].score, &want[j].score,
                            sizeof(float)) != 0) {
              ++bad;
            }
          }
          return bad;
        };

    // Batch-served parity over the repeated-user workload (fused waves +
    // cache): top-K of every request must equal the taped reference's.
    cached.InvalidateContextCache();
    serve::BatchServerOptions server_opts;
    server_opts.max_wave_requests = wave;
    serve::BatchServer server(&cached, server_opts);
    std::vector<std::future<std::vector<serve::ScoredItem>>> futures;
    for (size_t r = 0; r < workload.examples.size(); ++r) {
      futures.push_back(
          server.Submit(*workload.examples[r], workload.slates[r], 10));
    }
    for (size_t r = 0; r < futures.size(); ++r) {
      const std::vector<float> rref =
          ScoreTaped(model.get(), *prep.builder, *workload.examples[r],
                     workload.slates[r], batch, &scratch);
      mismatches += count_ranking_mismatches(
          futures[r].get(), RankTaped(workload.slates[r], rref, 10));
    }

    // Partitioned ranking parity: each request split into `shards`
    // LocalShardBackend jobs over ShardBounds and merged by MergeSortedRuns
    // must reproduce the taped ranking bit-for-bit — items and score bits —
    // for every shard count, eager and compiled. Rank the same `catalog`
    // everywhere: TopKAll would cover the full object space even when
    // --candidates trimmed the bench catalog.
    const size_t gate_k = std::min<size_t>(10, num_candidates);
    const auto want_top = RankTaped(catalog, ref, gate_k);
    for (const serve::Predictor* p : {&generic, &fast, &compiled}) {
      mismatches += count_ranking_mismatches(p->TopK(ex, catalog, gate_k),
                                             want_top);
      serve::LocalShardBackend backend(p);
      for (size_t shards : shard_counts) {
        const std::vector<size_t> bounds =
            serve::ShardBounds(catalog.size(), shards);
        std::vector<serve::ScoreJob> jobs;
        for (size_t s = 0; s < shards; ++s) {
          jobs.push_back({&ex, &catalog, bounds[s], bounds[s + 1], gate_k});
        }
        std::vector<std::vector<serve::RankEntry>> runs;
        if (!backend.ScoreTopK(jobs, &runs).ok()) {
          mismatches += gate_k + 1;
          continue;
        }
        mismatches += count_ranking_mismatches(
            serve::MergeSortedRuns(runs, gate_k), want_top);
      }
    }
    return mismatches;
  };

  // Validated here so a malformed token gets the usage treatment, not an
  // uncaught exception or a SetGlobalThreads(0) check-fail.
  const std::vector<size_t> thread_counts = ParseSizeListOrDie(
      flags, "thread-sweep", smoke ? "1,2" : "1,2,4", 1024);

  for (size_t threads : smoke ? thread_counts
                              : std::vector<size_t>{thread_counts.front()}) {
    util::SetGlobalThreads(threads);
    const size_t mismatches = run_parity_gates();
    std::printf("parity gates @threads=%zu: %zu mismatching results "
                "(must be 0)\n", threads, mismatches);
    if (mismatches != 0) return 1;
  }
  if (smoke) {
    std::printf("smoke mode: parity gates passed, skipping timed runs.\n");
    if (!json_path.empty()) {
      json.Add("mode", "smoke");
      json.Add("parity_mismatches", 0.0);
      json.WriteTo(json_path);
    }
    return 0;
  }

  // -------------------------------------------------------------------------
  // Full-catalog sweep: one request at a time (PR 2 paths).
  // -------------------------------------------------------------------------
  const size_t sweep_scores = requests * num_candidates;
  for (size_t threads : thread_counts) {
    util::SetGlobalThreads(threads);
    const PathStats taped = MeasurePath(
        requests, sweep_scores, [&](size_t r, std::vector<double>* lat) {
          (void)ScoreTaped(model.get(), *prep.builder,
                           examples[r % examples.size()], catalog, batch,
                           lat);
        });
    const PathStats tape_free =
        MeasurePathPerRequest(requests, sweep_scores, [&](size_t r) {
          (void)generic.ScoreCandidates(examples[r % examples.size()],
                                        catalog);
        });
    const PathStats factored =
        MeasurePathPerRequest(requests, sweep_scores, [&](size_t r) {
          (void)fast.ScoreCandidates(examples[r % examples.size()], catalog);
        });
    const PathStats compiled_path =
        MeasurePathPerRequest(requests, sweep_scores, [&](size_t r) {
          (void)compiled.ScoreCandidates(examples[r % examples.size()],
                                         catalog);
        });

    std::printf("\n[threads=%zu] %-28s %12s %10s %10s %9s\n", threads, "path",
                "scores/sec", "p50 ms", "p99 ms", "speedup");
    auto print_row = [&](const char* name, const char* unit,
                         const PathStats& s) {
      std::printf("            %-28s %12.0f %7.3f/%s %7.3f/%s %8.2fx\n", name,
                  s.scores_per_sec, s.p50_ms, unit, s.p99_ms, unit,
                  s.scores_per_sec / taped.scores_per_sec);
    };
    print_row("taped forward (batch)", "b", taped);
    print_row("tape-free forward (batch)", "rq", tape_free);
    print_row("factored catalog (request)", "rq", factored);
    print_row("compiled op program (request)", "rq", compiled_path);
    if (threads == thread_counts.front()) {
      json.Add("threads", static_cast<double>(threads));
      json.Add("catalog", static_cast<double>(num_candidates));
      json.Add("taped_scores_per_sec", taped.scores_per_sec);
      json.Add("tape_free_scores_per_sec", tape_free.scores_per_sec);
      json.Add("factored_scores_per_sec", factored.scores_per_sec);
      json.Add("factored_speedup_vs_taped",
               factored.scores_per_sec / taped.scores_per_sec);
      json.Add("factored_p50_ms", factored.p50_ms);
      json.Add("factored_p99_ms", factored.p99_ms);
      json.Add("compiled_scores_per_sec", compiled_path.scores_per_sec);
      json.Add("compiled_speedup_vs_taped",
               compiled_path.scores_per_sec / taped.scores_per_sec);
      json.Add("compiled_p50_ms", compiled_path.p50_ms);
      json.Add("compiled_p99_ms", compiled_path.p99_ms);
      json.Add("compiled_counts",
               static_cast<double>(compiled.engine()->stats().compiled_counts));
    }
    std::fflush(stdout);
  }

  // -------------------------------------------------------------------------
  // Request-batched serving: the repeated-user workload through the PR 2
  // factored path (baseline), the ContextCache, and the BatchServer. The
  // acceptance criterion is cached/batched >= 2x the uncached factored path.
  // -------------------------------------------------------------------------
  std::printf("\n--- request-batched serving: %zu requests over %zu users, "
              "slate=%zu, wave<=%zu ---\n",
              rb_requests, rb_users, std::min(rb_slate, num_candidates),
              wave);
  const size_t rb_scores = rb_requests * std::min(rb_slate, num_candidates);
  for (size_t threads : thread_counts) {
    util::SetGlobalThreads(threads);

    auto run_serial = [&](const serve::Predictor& p) {
      return MeasurePathPerRequest(rb_requests, rb_scores, [&](size_t r) {
        (void)p.ScoreCandidates(*workload.examples[r], workload.slates[r]);
      });
    };

    const PathStats uncached = run_serial(fast);
    cached.InvalidateContextCache();
    // Counters are cumulative over the process; report this run's delta.
    const auto cache_before = cached.context_cache()->stats();
    const PathStats with_cache = run_serial(cached);
    auto cache_stats = cached.context_cache()->stats();
    cache_stats.hits -= cache_before.hits;
    cache_stats.misses -= cache_before.misses;

    // Steady-state allocation audit: with the context cache and the scratch
    // arena warm (the run above warmed both), additional requests must not
    // heap-allocate tensor data or grow the arena. This is the acceptance
    // assertion for allocation-free serving; a regression exits 1 like a
    // parity failure. `cached` serves through the compiled VM, so the audit
    // also pins the compiled path's zero-allocation claim — the explicit
    // warm-up pass makes sure every lazy per-count body compile and
    // execution-frame growth happened before the counters are read.
    const size_t warm_requests = std::min<size_t>(8, rb_requests);
    for (size_t r = 0; r < warm_requests; ++r) {
      (void)cached.ScoreCandidates(*workload.examples[r],
                                   workload.slates[r]);
    }
    const uint64_t heap_allocs_before = tensor::internal::HeapAllocCount();
    const auto scratch_before = cached.scratch_stats();
    const size_t audit_requests = std::min<size_t>(8, rb_requests);
    for (size_t r = 0; r < audit_requests; ++r) {
      (void)cached.ScoreCandidates(*workload.examples[r],
                                   workload.slates[r]);
    }
    const uint64_t heap_alloc_delta =
        tensor::internal::HeapAllocCount() - heap_allocs_before;
    const uint64_t refill_delta =
        cached.scratch_stats().heap_refills - scratch_before.heap_refills;
    std::printf("            steady state over %zu requests: %llu tensor "
                "heap allocations, %llu arena refills (must be 0)\n",
                audit_requests,
                static_cast<unsigned long long>(heap_alloc_delta),
                static_cast<unsigned long long>(refill_delta));
    if (heap_alloc_delta != 0 || refill_delta != 0) {
      std::fprintf(stderr, "steady-state serving allocated: %llu tensor "
                   "heap allocations, %llu arena refills\n",
                   static_cast<unsigned long long>(heap_alloc_delta),
                   static_cast<unsigned long long>(refill_delta));
      return 1;
    }

    cached.InvalidateContextCache();
    PathStats batched;
    {
      serve::BatchServerOptions server_opts;
      server_opts.max_wave_requests = wave;
      serve::BatchServer server(&cached, server_opts);
      std::vector<std::future<std::vector<serve::ScoredItem>>> futures;
      std::vector<std::chrono::steady_clock::time_point> submit_at;
      std::vector<double> latencies(rb_requests);
      const auto t0 = std::chrono::steady_clock::now();
      for (size_t r = 0; r < rb_requests; ++r) {
        submit_at.push_back(std::chrono::steady_clock::now());
        futures.push_back(
            server.Submit(*workload.examples[r], workload.slates[r], 10));
      }
      for (size_t r = 0; r < rb_requests; ++r) {
        (void)futures[r].get();
        latencies[r] = std::chrono::duration<double>(
            std::chrono::steady_clock::now() - submit_at[r]).count();
      }
      const auto t1 = std::chrono::steady_clock::now();
      batched.scores_per_sec =
          static_cast<double>(rb_scores) /
          std::chrono::duration<double>(t1 - t0).count();
      batched.p50_ms = PercentileMs(&latencies, 0.50);
      batched.p99_ms = PercentileMs(&latencies, 0.99);
    }

    std::printf("\n[threads=%zu] %-28s %12s %10s %10s %9s\n", threads, "path",
                "scores/sec", "p50 ms", "p99 ms", "speedup");
    auto print_row = [&](const char* name, const PathStats& s) {
      std::printf("            %-28s %12.0f %7.3f    %7.3f    %8.2fx\n", name,
                  s.scores_per_sec, s.p50_ms, s.p99_ms,
                  s.scores_per_sec / uncached.scores_per_sec);
    };
    print_row("factored, no cache (PR 2)", uncached);
    print_row("compiled + context cache", with_cache);
    print_row("batch server (fused+cache)", batched);
    std::printf("            cache: %llu hits / %llu misses (%.1f%% hit "
                "rate), %zu entries, %.1f KiB\n",
                static_cast<unsigned long long>(cache_stats.hits),
                static_cast<unsigned long long>(cache_stats.misses),
                100.0 * cache_stats.hit_rate(), cache_stats.entries,
                static_cast<double>(cache_stats.bytes) / 1024.0);
    const double best = std::max(with_cache.scores_per_sec,
                                 batched.scores_per_sec);
    std::printf("            best cached/batched = %.2fx uncached (PR 3's "
                ">= 2x acceptance predates the SIMD kernels, which sped up "
                "the uncached baseline itself)\n",
                best / uncached.scores_per_sec);
    if (threads == thread_counts.front()) {
      json.Add("cached_scores_per_sec", with_cache.scores_per_sec);
      json.Add("batched_scores_per_sec", batched.scores_per_sec);
      json.Add("best_cached_speedup", best / uncached.scores_per_sec);
      json.Add("cache_hit_rate", cache_stats.hit_rate());
      json.Add("steady_state_tensor_heap_allocs",
               static_cast<double>(heap_alloc_delta));
      json.Add("steady_state_arena_refills",
               static_cast<double>(refill_delta));
    }
    std::fflush(stdout);
  }
  const auto scratch = cached.scratch_stats();
  json.Add("scratch_allocations", static_cast<double>(scratch.allocations));
  json.Add("scratch_heap_refills", static_cast<double>(scratch.heap_refills));
  json.Add("scratch_bytes_reserved",
           static_cast<double>(scratch.bytes_reserved));
  json.Add("scratch_high_water", static_cast<double>(scratch.high_water));
  if (!json_path.empty()) json.WriteTo(json_path);
  std::printf("\nLatency units: /b = per batch-%zu forward, /rq = per "
              "catalog request; request-batched latencies are per request "
              "(batch-server latency includes queueing).\n", batch);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace seqfm

int main(int argc, char** argv) { return seqfm::bench::Run(argc, argv); }
