#include "workloads.h"

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "ir/exec.h"
#include "serve/backend.h"
#include "serve/checkpoint.h"
#include "serve/protocol.h"
#include "serve/rpc_server.h"
#include "serve/shard.h"
#include "stack.h"
#include "stats.h"
#include "tensor/kernels.h"
#include "trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace servebench {

namespace {

using seqfm::Status;

// ---------------------------------------------------------------------------
// Correctness oracle: the taped eager forward, core::Model::Score, on a
// model loaded from the same checkpoint, ranked by serve::RankBefore.
// ---------------------------------------------------------------------------

class Oracle {
 public:
  explicit Oracle(const Fixture& fx) : fx_(fx), model_(NewModel(fx.space)) {
    const Status loaded =
        serve::Checkpoint::Load(model_.get(), fx.checkpoint_path);
    SEQFM_CHECK(loaded.ok()) << loaded.ToString();
  }

  std::vector<serve::ScoredItem> TopK(const data::SequenceExample& ex,
                                      const std::vector<int32_t>& slate,
                                      size_t k) {
    constexpr size_t kChunk = 256;
    std::vector<serve::RankEntry> entries(slate.size());
    for (size_t begin = 0; begin < slate.size(); begin += kChunk) {
      const size_t end = std::min(slate.size(), begin + kChunk);
      std::vector<const data::SequenceExample*> rows(end - begin, &ex);
      std::vector<int32_t> chunk(slate.begin() + static_cast<ptrdiff_t>(begin),
                                 slate.begin() + static_cast<ptrdiff_t>(end));
      const data::Batch batch = fx_.builder->Build(rows, &chunk);
      const seqfm::autograd::Variable out =
          model_->Score(batch, /*training=*/false);
      const float* scores = out.value().data();
      for (size_t i = begin; i < end; ++i) {
        entries[i] = serve::RankEntry{scores[i - begin], slate[i], i};
      }
    }
    k = std::min(k, entries.size());
    std::partial_sort(entries.begin(), entries.begin() + static_cast<ptrdiff_t>(k),
                      entries.end(), serve::RankBefore);
    std::vector<serve::ScoredItem> out(k);
    for (size_t i = 0; i < k; ++i) out[i] = {entries[i].item, entries[i].score};
    return out;
  }

 private:
  const Fixture& fx_;
  std::unique_ptr<core::SeqFm> model_;
};

bool SameBits(const std::vector<serve::ScoredItem>& a,
              const std::vector<serve::ScoredItem>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].item != b[i].item ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

// A seeded ~1/kSampleEvery of every phase's responses is checked.
constexpr uint64_t kSampleEvery = 50;
bool Sampled(uint64_t seed, uint64_t phase, uint64_t id) {
  uint64_t h = (seed * 0x9E3779B97F4A7C15ull) ^ (phase << 32) ^ id;
  h ^= h >> 31;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 29;
  return h % kSampleEvery == 0;
}

// ---------------------------------------------------------------------------
// Load generation over one RpcClient connection.
// ---------------------------------------------------------------------------

struct PhaseStats {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;  // non-OK status, transport failure or wrong bits
  uint64_t wrong = 0;   // responses whose bits differ from the oracle
  uint64_t checked = 0;
  std::vector<double> lat_ms;  // OK responses only, in arrival order
  std::vector<size_t> lat_id;  // the request id of each lat_ms entry
  std::vector<std::pair<double, size_t>> done;  // (time, scores) per OK
  std::vector<double> lag_ms;  // how late the sender ran, per request
  double wall_s = 0.0;
  // Closed loop: when sending began and stopped, per block of the phase.
  std::vector<std::pair<double, double>> spans;
  // Open loop: how long after the last request was due its last response
  // came. A backlog that grew during the phase shows as a long drain.
  double drain_ms = 0.0;
  Counters delta;  // stack counters over the phase
  Counters after;  // stack counters at its end
  std::vector<std::pair<size_t, std::vector<serve::ScoredItem>>> samples;

  double achieved_qps() const {
    return wall_s > 0.0 ? static_cast<double>(ok) / wall_s : 0.0;
  }
};

constexpr int64_t kIoTimeoutMs = 20000;
// setup_s is the median of this many set-ups in one run.
constexpr int kSetupReps = 15;
// Outstanding requests of the warm-up.
constexpr size_t kWindow = 4;
// A rung whose sender ran later than this share of the p99 limit at its own
// p99 did not offer the rate it names.
constexpr double kMaxLagShare = 0.1;
constexpr double kSpinS = 300e-6;
// Rounds of the timed run: each takes its share of the set-ups, the low
// rate and the closed loop.
constexpr size_t kRounds = 3;

serve::RpcRequest Encode(const Request& r, uint64_t id) {
  serve::RpcRequest req;
  req.id = id;
  req.user = r.user;
  req.k = kTopK;
  req.history = r.history;
  req.slate = r.slate;
  return req;
}

bool Connect(serve::RpcClient* client, uint16_t port) {
  serve::RpcClientOptions opts;
  opts.connect_timeout_ms = 5000;
  opts.io_timeout_ms = kIoTimeoutMs;
  return client->Connect("127.0.0.1", port, opts).ok();
}

/// Records a response that arrived at time \p t, \p lat_s after it was
/// due (open loop) or sent (closed loop).
void Record(PhaseStats* st, const std::vector<Request>& reqs, uint64_t seed,
            uint64_t phase, const serve::RpcResponse& resp, double t,
            double lat_s) {
  if (resp.id >= reqs.size() || resp.status != serve::RpcStatus::kOk) {
    ++st->failed;  // OVERLOADED and friends are failures, never latencies
    return;
  }
  ++st->ok;
  st->lat_ms.push_back(lat_s * 1e3);
  st->lat_id.push_back(resp.id);
  st->done.emplace_back(t, reqs[resp.id].slate.size());
  if (Sampled(seed, phase, resp.id)) {
    st->samples.emplace_back(resp.id, resp.items);
  }
}

/// Open loop over requests [from, to) of a phase: the sender follows the
/// Poisson schedule \p due (seconds from the phase start, here from
/// due[from]) whatever the server does; latency runs from each request's due
/// time to its response, so a stall also charges the requests queued behind
/// it. Request ids are indices into the whole phase.
PhaseStats OpenLoop(uint16_t port, const std::vector<Request>& reqs,
                    const std::vector<double>& due, uint64_t seed,
                    uint64_t phase, size_t from, size_t to) {
  PhaseStats st;
  const size_t n = to - from;
  serve::RpcClient client;
  if (!Connect(&client, port)) {
    st.sent = st.failed = n;
    return st;
  }
  std::vector<serve::RpcRequest> wire(n);
  for (size_t i = 0; i < n; ++i) wire[i] = Encode(reqs[from + i], from + i);
  st.lag_ms.assign(n, 0.0);
  std::atomic<uint64_t> received{0};
  std::atomic<uint64_t> sent{0};
  std::atomic<bool> abort{false};
  const double start = Now() + 0.002 - due[from];
  std::thread sender([&] {
    for (size_t i = 0; i < n && !abort.load(); ++i) {
      const double at = start + due[from + i];
      double now = Now();
      // Sleep until shortly before the due time, then spin: a sleeping
      // thread wakes too late on a busy machine to keep a schedule of
      // sub-millisecond gaps.
      if (now < at - kSpinS) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(at - kSpinS - now));
      }
      while ((now = Now()) < at) {
      }
      st.lag_ms[i] = std::max(0.0, now - at) * 1e3;
      if (!client.Send(wire[i]).ok()) break;
      sent.fetch_add(1);
    }
  });
  while (received.load() < n) {
    serve::RpcResponse resp;
    if (!client.ReadResponse(&resp).ok()) break;
    const double t = Now();
    Record(&st, reqs, seed, phase, resp, t,
           resp.id < due.size() ? t - (start + due[resp.id]) : 0.0);
    received.fetch_add(1);
  }
  abort.store(true);
  ::shutdown(client.fd(), SHUT_RDWR);  // unblocks a sender on a dead link
  sender.join();
  st.wall_s = Now() - (start + due[from]);
  st.drain_ms = 1e3 * (st.done.empty()
                           ? 0.0
                           : st.done.back().first - start - due[to - 1]);
  st.sent = n;
  st.failed += n - received.load();
  return st;
}

/// Adds block \p b of a phase to the phase's figures.
void Append(PhaseStats* st, const PhaseStats& b) {
  st->sent += b.sent;
  st->ok += b.ok;
  st->failed += b.failed;
  st->lat_ms.insert(st->lat_ms.end(), b.lat_ms.begin(), b.lat_ms.end());
  st->lat_id.insert(st->lat_id.end(), b.lat_id.begin(), b.lat_id.end());
  st->done.insert(st->done.end(), b.done.begin(), b.done.end());
  st->lag_ms.insert(st->lag_ms.end(), b.lag_ms.begin(), b.lag_ms.end());
  st->samples.insert(st->samples.end(), b.samples.begin(), b.samples.end());
  st->spans.insert(st->spans.end(), b.spans.begin(), b.spans.end());
  st->wall_s += b.wall_s;
  st->drain_ms = std::max(st->drain_ms, b.drain_ms);
}

/// Closed loop from request \p first on: \p window requests outstanding on
/// one connection; each response releases the next request, until \p seconds
/// have passed. Request ids are indices into the whole phase.
PhaseStats ClosedLoop(uint16_t port, const std::vector<Request>& reqs,
                      size_t first, size_t window, double seconds,
                      uint64_t seed, uint64_t phase) {
  PhaseStats st;
  serve::RpcClient client;
  if (!Connect(&client, port)) {
    st.sent = st.failed = 1;
    return st;
  }
  std::vector<double> sent_at(reqs.size(), 0.0);
  const double start = Now();
  const double deadline = start + seconds;
  st.spans = {{start, deadline}};
  size_t next = first;
  size_t outstanding = 0;
  auto send_one = [&] {
    sent_at[next] = Now();
    if (!client.Send(Encode(reqs[next], next)).ok()) return false;
    ++next;
    ++outstanding;
    return true;
  };
  bool ok = true;
  while (ok && next < std::min(first + window, reqs.size())) ok = send_one();
  while (ok && outstanding > 0) {
    serve::RpcResponse resp;
    if (!client.ReadResponse(&resp).ok()) break;
    const double t = Now();
    --outstanding;
    Record(&st, reqs, seed, phase, resp, t,
           resp.id < sent_at.size() ? t - sent_at[resp.id] : 0.0);
    if (t < deadline && next < reqs.size()) ok = send_one();
  }
  st.wall_s = Now() - start;
  st.sent = next - first;
  st.failed += outstanding;
  return st;
}

/// Verifies the sampled responses of a phase against the oracle.
void Check(PhaseStats* st, const std::vector<Request>& reqs, Oracle* oracle,
           const Fixture& fx) {
  std::vector<int32_t> catalog(fx.num_objects());
  for (size_t i = 0; i < catalog.size(); ++i) {
    catalog[i] = static_cast<int32_t>(i);
  }
  for (const auto& [id, items] : st->samples) {
    const Request& r = reqs[id];
    const auto expect =
        oracle->TopK(r.example(), r.slate.empty() ? catalog : r.slate, kTopK);
    ++st->checked;
    if (!SameBits(expect, items)) {
      ++st->wrong;
      ++st->failed;
    }
  }
  st->samples.clear();
}

// Timings are medians over slices of a phase: consecutive requests, each
// slice with enough samples for its own p99. A stretch of the phase that
// the machine disturbed then moves one slice, not the figure.
constexpr size_t kSliceSamples = 1100;

size_t NumSlices(size_t samples) {
  return std::max<size_t>(1, samples / kSliceSamples);
}

bool SlicedPercentiles(const PhaseStats& st, double* p50, double* p99) {
  std::vector<std::pair<size_t, double>> by_id(st.lat_ms.size());
  for (size_t i = 0; i < by_id.size(); ++i) {
    by_id[i] = {st.lat_id[i], st.lat_ms[i]};
  }
  std::sort(by_id.begin(), by_id.end());
  const size_t k = NumSlices(by_id.size());
  std::vector<double> p50s, p99s;
  for (size_t s = 0; s < k; ++s) {
    std::vector<double> slice;
    for (size_t i = s * by_id.size() / k; i < (s + 1) * by_id.size() / k;
         ++i) {
      slice.push_back(by_id[i].second);
    }
    double a = 0.0, b = 0.0;
    if (!Percentile(slice, 0.5, &a) || !Percentile(slice, 0.99, &b)) {
      return false;
    }
    p50s.push_back(a);
    p99s.push_back(b);
  }
  *p50 = Median(p50s);
  *p99 = Median(p99s);
  return true;
}

/// Scores completed per second in equal time windows of each of the
/// phase's closed-loop spans, median over the windows.
double SlicedScoresPerSecond(const PhaseStats& st) {
  std::vector<double> rates;
  for (const auto& [from, to] : st.spans) {
    size_t in_span = 0;
    for (const auto& d : st.done) in_span += d.first >= from && d.first < to;
    const size_t k = NumSlices(in_span);
    const double width = (to - from) / static_cast<double>(k);
    std::vector<double> per_window(k, 0.0);
    for (const auto& [t, scores] : st.done) {
      if (t < from || t >= to) continue;
      per_window[std::min(k - 1, static_cast<size_t>((t - from) / width))] +=
          static_cast<double>(scores);
    }
    for (double v : per_window) rates.push_back(v / width);
  }
  return Median(rates);
}

// ---------------------------------------------------------------------------
// Warm-up: what a freshly started or reloaded server would have seen.
// ---------------------------------------------------------------------------

constexpr uint64_t kWarmupPhase = 1000;

void WarmUp(Workload w, const Fixture& fx, uint64_t seed, uint16_t port) {
  const RpcPlan plan = PlanFor(w);
  std::vector<Request> reqs;
  if (w == Workload::kRpcHot) {
    // Every returning user once, at the warm-up slate sizes only: the cache
    // holds every user afterwards, and the other sizes stay uncompiled.
    const auto& sizes = HotWarmupSizes();
    reqs.resize(kHotUsers);
    for (size_t u = 0; u < kHotUsers; ++u) {
      reqs[u].user = fx.contexts[u].user;
      reqs[u].history = fx.contexts[u].history;
      reqs[u].slate.resize(sizes[u % sizes.size()]);
      for (size_t j = 0; j < reqs[u].slate.size(); ++j) {
        reqs[u].slate[j] = static_cast<int32_t>((u + 7 * j) % fx.num_objects());
      }
    }
  } else {
    reqs = MakeRequests(w, fx, seed, kWarmupPhase, plan.warmup);
  }
  PhaseStats st =
      ClosedLoop(port, reqs, 0, kWindow, 1e9, seed, kWarmupPhase);
  SEQFM_CHECK_EQ(st.ok, reqs.size()) << "servebench: warm-up failed";
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::vector<double> Geometric(double from, double ratio, size_t n) {
  std::vector<double> v(n, from);
  for (size_t i = 1; i < n; ++i) v[i] = std::round(v[i - 1] * ratio);
  return v;
}

}  // namespace

RpcPlan PlanFor(Workload w) {
  RpcPlan p;
  switch (w) {
    case Workload::kRpcHot:
      p.cache_bytes = 64u << 20;  // every returning user fits
      p.low_qps = 80;
      p.high_qps = 280;
      // Enough outstanding that nearly every request waits behind several
      // large slates: with few, a request's latency turns on whether one is
      // ahead of it, and the p50 falls between those two populations.
      p.window = 32;
      p.ladder = Geometric(200, 1.1, 12);
      p.ladder_start = 400;
      p.p99_limit_ms = 400;
      break;
    case Workload::kRpcCold:
      p.cache_bytes = 2u << 20;  // ~50 contexts: every request evicts
      p.low_qps = 1000;
      p.high_qps = 3500;
      p.window = 4;
      p.ladder = Geometric(2000, 1.08, 24);
      p.ladder_start = 4500;
      p.p99_limit_ms = 100;
      p.warmup = 400;
      break;
    case Workload::kFleetCatalog:
      break;
  }
  return p;
}

namespace {

/// One phase on a freshly started, identically warmed stack, so no phase
/// inherits another's cache contents or compiled bodies. Open loop when
/// \p due is given, else a closed loop for \p closed_s. Fills the phase's
/// counter deltas; samples BatchServer::pending() into \p pending if set.
PhaseStats RunPhase(Workload w, const Fixture& fx, uint64_t seed,
                    uint64_t phase, const std::vector<Request>& reqs,
                    const std::vector<double>* due, double closed_s,
                    std::vector<double>* pending = nullptr) {
  const RpcPlan plan = PlanFor(w);
  Stack stack(fx, plan.cache_bytes);
  WarmUp(w, fx, seed, stack.port());
  const Counters before = ReadCounters(&stack, nullptr);
  std::atomic<bool> done{false};
  std::thread sampler;
  if (pending != nullptr) {
    sampler = std::thread([&] {
      while (!done.load()) {
        pending->push_back(static_cast<double>(stack.batch().pending()));
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  PhaseStats st = due != nullptr
                      ? OpenLoop(stack.port(), reqs, *due, seed, phase, 0,
                                 reqs.size())
                      : ClosedLoop(stack.port(), reqs, 0, plan.window, closed_s,
                                   seed, phase);
  done.store(true);
  if (sampler.joinable()) sampler.join();
  st.after = ReadCounters(&stack, nullptr);
  st.delta = Delta(before, st.after);
  return st;
}

/// An open-loop phase at \p qps with at least one slice of samples.
PhaseStats RunOpenPhase(Workload w, const Fixture& fx, uint64_t seed,
                        uint64_t phase, double qps, double phase_s,
                        std::vector<Request>* reqs,
                        std::vector<double>* pending = nullptr) {
  const size_t n =
      std::max(kSliceSamples, static_cast<size_t>(qps * phase_s));
  *reqs = MakeRequests(w, fx, seed, phase, n);
  const auto due = PoissonSchedule(qps, n, seed, phase);
  return RunPhase(w, fx, seed, phase, *reqs, &due, 0.0, pending);
}

// fleet_catalog: every request ranks the whole catalog through the
// Coordinator, so one request costs ~1k body scores. That rate cannot give
// the open-loop phases their 1000 samples each inside a run, so this
// workload is closed-loop only and reports the closed-loop subset of the
// end-to-end metrics.
constexpr size_t kFleetCallers = 3;
constexpr size_t kFleetRequests = 1100;
constexpr size_t kFleetCacheBytes = 64u << 20;

RunOutput RunFleetTimed(const Fixture& fx, uint64_t seed) {
  RunOutput out;
  Oracle oracle(fx);
  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) {
    const double t0 = Now();
    Fleet fleet(fx, kFleetCacheBytes);
    setups.push_back(Now() - t0);
  }
  Fleet fleet(fx, kFleetCacheBytes);
  const Workload w = Workload::kFleetCatalog;
  for (const Request& r : MakeRequests(w, fx, seed, kWarmupPhase, 6)) {
    serve::CoordinatorResult res;
    SEQFM_CHECK(fleet.coordinator().TopKAll(r.example(), kTopK, &res).ok());
  }
  const Counters before = ReadCounters(nullptr, &fleet);
  const std::vector<Request> reqs =
      MakeRequests(w, fx, seed, 1, kFleetRequests);
  std::vector<serve::CoordinatorResult> results(reqs.size());
  std::vector<double> lat_ms(reqs.size(), -1.0);
  std::atomic<size_t> next{0};
  const double start = Now();
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kFleetCallers; ++c) {
    callers.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < reqs.size();) {
        const double t0 = Now();
        if (fleet.coordinator().TopKAll(reqs[i].example(), kTopK, &results[i])
                .ok() &&
            results[i].status == serve::RpcStatus::kOk) {
          lat_ms[i] = 1e3 * (Now() - t0);
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  const double wall = Now() - start;
  const double rss_mb = PeakRssMb();
  const Counters d = Delta(before, ReadCounters(nullptr, &fleet));

  std::vector<int32_t> catalog(fx.num_objects());
  for (size_t i = 0; i < catalog.size(); ++i) {
    catalog[i] = static_cast<int32_t>(i);
  }
  std::vector<double> ok_lat;
  uint64_t wrong = 0, checked = 0;
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (lat_ms[i] < 0.0) {
      ++out.failed;
      continue;
    }
    ok_lat.push_back(lat_ms[i]);
    if (Sampled(seed, 1, i)) {
      ++checked;
      if (!SameBits(results[i].items,
                    oracle.TopK(reqs[i].example(), catalog, kTopK))) {
        ++wrong;
        ++out.failed;
      }
    }
  }
  out.attempted = reqs.size();
  double p50 = 0.0, p99 = 0.0;
  if (!Percentile(ok_lat, 0.5, &p50) || !Percentile(ok_lat, 0.99, &p99)) {
    std::printf("servebench: too few fleet samples for p99\n");
    out.correct = false;
  }
  const double scores_per_s =
      static_cast<double>(ok_lat.size() * fx.num_objects()) / wall;
  std::printf("  closed   callers=%zu n=%zu p50=%.4gms p99=%.4gms "
              "scores/s=%.6g retries=%g circuit_opens=%g\n",
              kFleetCallers, ok_lat.size(), p50, p99, scores_per_s,
              d.at("coord.retries"), d.at("coord.circuit_opens"));
  std::printf("  correctness: %llu responses checked against the oracle, "
              "%llu wrong\n",
              static_cast<unsigned long long>(checked),
              static_cast<unsigned long long>(wrong));
  if (wrong > 0 || checked == 0 || d.at("coord.retries") != 0.0 ||
      d.at("coord.circuit_opens") != 0.0) {
    out.correct = false;
  }
  out.metrics = {
      {"setup_s", Median(setups), "s"},
      {"scores_per_s", scores_per_s, "1/s"},
      {"p50_ms", p50, "ms"},
      {"p99_ms", p99, "ms"},
      {"rss_peak_mb", rss_mb, "MB"},
  };
  return out;
}

}  // namespace

RunOutput RunTimed(Workload w, const Fixture& fx, uint64_t seed,
                   double seconds) {
  if (w == Workload::kFleetCatalog) return RunFleetTimed(fx, seed);
  const RpcPlan plan = PlanFor(w);
  RunOutput out;
  Oracle oracle(fx);

  std::vector<std::string> report;
  uint64_t wrong = 0;
  uint64_t checked = 0;
  auto account = [&](PhaseStats& st, const std::vector<Request>& reqs) {
    Check(&st, reqs, &oracle, fx);
    out.attempted += st.sent;
    out.failed += st.failed;
    wrong += st.wrong;
    checked += st.checked;
  };
  auto percentiles = [&](const PhaseStats& st, const std::string& label,
                         double* p50, double* p99) {
    if (!SlicedPercentiles(st, p50, p99)) {
      std::printf("servebench: %s has %zu samples, too few for p99\n",
                  label.c_str(), st.lat_ms.size());
      out.correct = false;
      *p50 = *p99 = 0.0;
    }
  };

  // On a shared host the machine's speed drifts over tens of seconds. So the
  // set-ups, the low rate and the closed loop are each spread over kRounds
  // rounds, two before the max_qps ladder and one after it, and each figure
  // samples the whole run rather than one stretch of it. The low rate and
  // the closed loop keep one warmed stack each across their rounds.
  //
  // setup_s: checkpoint on disk -> ready to serve, median of several.
  std::vector<double> setups;
  // The low rate: open loop. The p99s, and the high rate, are traced-run
  // metrics: on a shared virtual machine their spread from run to run is
  // wider than any regression bound would be.
  const size_t low_n = std::max(
      kSliceSamples, static_cast<size_t>(plan.low_qps * 0.4 * seconds));
  const std::vector<Request> low_reqs = MakeRequests(w, fx, seed, 2, low_n);
  const std::vector<double> low_due =
      PoissonSchedule(plan.low_qps, low_n, seed, 2);
  Stack low_stack(fx, plan.cache_bytes);
  WarmUp(w, fx, seed, low_stack.port());
  PhaseStats low;
  // The closed loop: throughput and latency with plan.window outstanding
  // requests.
  const double closed_s = 0.4 * seconds;
  Stack closed_stack(fx, plan.cache_bytes);
  WarmUp(w, fx, seed, closed_stack.port());
  // Peak memory after a fixed amount of work: two stacks set up and warmed,
  // and before the closed loop's request stream, which is the benchmark's
  // own memory. From here on it depends on timing: how many requests the
  // closed loop and the ladder keep in flight; and the oracle's taped
  // forwards depend on which responses the seed samples.
  const double rss_mb = PeakRssMb();
  const auto closed_reqs = MakeRequests(
      w, fx, seed, 1, 1100 + static_cast<size_t>(10000 * closed_s));
  PhaseStats closed;
  size_t rounds = 0;
  auto run_round = [&] {
    for (int i = 0; i < kSetupReps / static_cast<int>(kRounds); ++i) {
      const double t0 = Now();
      Stack stack(fx, plan.cache_bytes);
      setups.push_back(Now() - t0);
    }
    // Counter deltas over the low-rate blocks only: some counters, such as
    // the tensor heap allocations, count the whole process.
    const Counters before = ReadCounters(&low_stack, nullptr);
    Append(&low, OpenLoop(low_stack.port(), low_reqs, low_due, seed, 2,
                          rounds * low_n / kRounds,
                          (rounds + 1) * low_n / kRounds));
    low.after = ReadCounters(&low_stack, nullptr);
    for (const auto& [name, d] : Delta(before, low.after)) low.delta[name] += d;
    Append(&closed, ClosedLoop(closed_stack.port(), closed_reqs, closed.sent,
                               plan.window, closed_s / kRounds, seed, 1));
    ++rounds;
  };
  run_round();
  run_round();

  // max_qps: the highest rung of the fixed ladder that meets the p99 limit
  // with no failure, no growing backlog and a sender on schedule.
  auto rung_passes = [&](size_t i, double* achieved) {
    const double qps = plan.ladder[i];
    std::vector<Request> reqs;
    PhaseStats st = RunOpenPhase(w, fx, seed, 10 + i, qps, 0.03 * seconds,
                                 &reqs);
    account(st, reqs);
    double r99 = 0.0, lag99 = 0.0;
    const bool have = Percentile(st.lat_ms, 0.99, &r99);
    Percentile(st.lag_ms, 0.99, &lag99);
    const bool pass = have && r99 <= plan.p99_limit_ms && st.failed == 0 &&
                      st.drain_ms <= plan.p99_limit_ms &&
                      lag99 <= kMaxLagShare * plan.p99_limit_ms;
    report.push_back("ladder   qps=" + Fmt(qps) + " achieved=" +
                     Fmt(st.achieved_qps()) + " p99=" + Fmt(r99) +
                     "ms drain=" + Fmt(st.drain_ms) +
                     " lag_p99=" + Fmt(lag99) + "ms " +
                     (pass ? "pass" : "miss"));
    *achieved = st.achieved_qps();
    return pass;
  };
  double max_qps = 0.0;
  size_t start = 0;
  while (start + 1 < plan.ladder.size() &&
         plan.ladder[start] < plan.ladder_start) {
    ++start;
  }
  double achieved = 0.0;
  if (rung_passes(start, &achieved)) {
    max_qps = achieved;
    for (size_t i = start + 1; i < plan.ladder.size(); ++i) {
      if (!rung_passes(i, &achieved)) break;
      max_qps = achieved;
    }
  } else {
    for (size_t i = start; i-- > 0;) {
      if (rung_passes(i, &achieved)) {
        max_qps = achieved;
        break;
      }
    }
  }
  if (max_qps == 0.0) {
    std::printf("servebench: no rung of the ladder met the limit\n");
    out.correct = false;
  }

  while (rounds < kRounds) run_round();
  account(low, low_reqs);
  double lo50 = 0, lo99 = 0, lag99 = 0;
  percentiles(low, "low rate", &lo50, &lo99);
  Percentile(low.lag_ms, 0.99, &lag99);
  account(closed, closed_reqs);
  double p50 = 0, p99 = 0;
  percentiles(closed, "closed loop", &p50, &p99);
  const double scores_per_s = SlicedScoresPerSecond(closed);
  const std::string rounds_s = " rounds=" + std::to_string(kRounds);
  report.insert(
      report.begin(),
      {"closed   window=" + std::to_string(plan.window) + rounds_s +
           " n=" + std::to_string(closed.lat_ms.size()) +
           " slices=" + std::to_string(NumSlices(closed.lat_ms.size())) +
           " p50=" + Fmt(p50) + "ms p99=" + Fmt(p99) +
           "ms scores/s=" + Fmt(scores_per_s),
       "low      qps=" + Fmt(plan.low_qps) + rounds_s +
           " achieved=" + Fmt(low.achieved_qps()) +
           " n=" + std::to_string(low.lat_ms.size()) +
           " slices=" + std::to_string(NumSlices(low.lat_ms.size())) +
           " p50=" + Fmt(lo50) + "ms p99=" + Fmt(lo99) +
           "ms lag_p99=" + Fmt(lag99) + "ms"});

  for (const auto& line : report) std::printf("  %s\n", line.c_str());
  // Counters that repeat exactly from run to run, from the low-rate phase.
  const Counters& hd = low.delta;
  const double lookups = hd.at("cache.hits") + hd.at("cache.misses");
  double req_bytes = 0.0;
  for (size_t i = 0; i < 200; ++i) {
    std::string wire;
    serve::AppendRequestFrame(Encode(closed_reqs[i], i), &wire);
    req_bytes += static_cast<double>(wire.size()) / 200.0;
  }
  std::printf("counters: {\"ir.compiles_in_run\": %g, \"ir.body_instrs\": %g, "
              "\"ir.frame_bytes\": %g, \"protocol.request_bytes\": %g, "
              "\"cache.hit_ratio\": %.6f, \"tensor.heap_allocs\": %g}\n",
              hd.at("ir.compiled_counts"), low.after.at("ir.body_instrs"),
              low.after.at("ir.frame_bytes"), req_bytes,
              lookups > 0 ? hd.at("cache.hits") / lookups : 0.0,
              hd.at("tensor.heap_allocs"));
  std::printf("  correctness: %llu responses checked against the oracle, "
              "%llu wrong\n",
              static_cast<unsigned long long>(checked),
              static_cast<unsigned long long>(wrong));
  if (wrong > 0 || checked == 0) out.correct = false;

  out.metrics = {
      {"setup_s", Median(setups), "s"},
      {"scores_per_s", scores_per_s, "1/s"},
      {"p50_ms", p50, "ms"},
      {"p50_ms.low", lo50, "ms"},
      {"max_qps", max_qps, "1/s"},
      {"rss_peak_mb", rss_mb, "MB"},
  };
  return out;
}

namespace {

double MedianTime(size_t reps, const std::function<void()>& fn) {
  std::vector<double> t;
  for (size_t i = 0; i < reps; ++i) {
    const double t0 = Now();
    fn();
    t.push_back(Now() - t0);
  }
  return Median(t);
}

// The BatchBuilder index layout of one request, as Engine::MakeContext
// takes it.
void IndexLayout(const Fixture& fx, const data::SequenceExample& ex,
                 int32_t* user_index, std::vector<int32_t>* dynamic_ids) {
  const data::Batch b = fx.builder->Build({&ex});
  *user_index = b.static_ids[0];
  dynamic_ids->assign(b.dynamic_ids.begin(),
                      b.dynamic_ids.begin() + static_cast<ptrdiff_t>(kSeqLen));
}

double CacheHits(const Stack& s) {
  return s.predictor().context_cache()->stats().hits;
}

}  // namespace

RunOutput RunTraced(Workload w, const Fixture& fx, uint64_t seed,
                    double seconds, const std::string& span_path) {
  const RpcPlan plan = PlanFor(w);
  RunOutput out;
  Oracle oracle(fx);
  SpanRecorder rec;
  auto add = [&](const std::string& name, double value,
                 const std::string& unit) {
    out.metrics.push_back({name, value, unit});
  };
  const size_t chunk = serve::PredictorOptions{}.micro_batch;

  // --- Single calls into checkpoint, ir, util and tensor. -----------------
  {
    auto model = NewModel(fx.space);
    add("checkpoint.load_ms", 1e3 * MedianTime(9, [&] {
          SEQFM_CHECK(serve::Checkpoint::Load(model.get(), fx.checkpoint_path)
                          .ok());
        }), "ms");
    add("ir.compile_ms", 1e3 * MedianTime(5, [&] {
          std::string error;
          SEQFM_CHECK(seqfm::ir::Engine::Compile(model.get(), fx.builder.get(),
                                                 fx.num_objects(), &error) !=
                      nullptr)
              << error;
        }), "ms");
  }
  const size_t nproc = std::thread::hardware_concurrency();
  add("pool.fork_join_us", 1e6 * MedianTime(2001, [&] {
        seqfm::util::ParallelFor(nproc, 1, [](size_t, size_t) {});
      }), "us");
  {
    // The body's projections: [64 candidates x (n + 2) rows, d] x [d, d].
    const size_t rows = 64 * (kSeqLen + 2), k = kDim, n = kDim;
    std::vector<float> a(rows * k, 0.5f), b(k * n, 0.25f), c(rows * n);
    const auto& table = seqfm::tensor::kernels::Active();
    const double t = MedianTime(31, [&] {
      table.gemm_rows_b_normal(a.data(), b.data(), c.data(), rows, k, n,
                               false);
    });
    add("tensor.gemm_gflops", 2.0 * rows * k * n / t * 1e-9, "GFLOP/s");
  }

  // --- The request stream prefix, replayed one request at a time. --------
  const size_t prefix_n = w == Workload::kRpcHot ? 120 : 300;
  const uint64_t phase = 2;  // the prefix of the low-rate phase's stream
  const std::vector<Request> prefix =
      MakeRequests(w, fx, seed, phase, prefix_n);

  {
    std::vector<double> enc, dec;
    double req_bytes = 0.0;
    for (size_t i = 0; i < prefix.size(); ++i) {
      const serve::RpcRequest req = Encode(prefix[i], i);
      std::string wire;
      enc.push_back(MedianTime(21, [&] {
        wire.clear();
        serve::AppendRequestFrame(req, &wire);
      }));
      req_bytes += static_cast<double>(wire.size());
      const std::string payload = wire.substr(8);
      dec.push_back(MedianTime(21, [&] {
        serve::RpcRequest back;
        SEQFM_CHECK(serve::DecodeRequest(payload, &back).ok());
      }));
    }
    add("protocol.encode_us", 1e6 * Median(enc), "us");
    add("protocol.decode_us", 1e6 * Median(dec), "us");
    add("protocol.request_bytes", req_bytes / prefix.size(), "bytes");
  }

  // Depth d runs on stack d; the stacks are warmed alike, so each depth sees
  // the cache state (hit or miss) and compiled bodies the outer call saw.
  // The fifth stack replays depth 1 without spans, for the overhead.
  std::vector<std::unique_ptr<Stack>> stacks;
  for (int d = 0; d < 5; ++d) {
    stacks.push_back(std::make_unique<Stack>(fx, plan.cache_bytes));
    WarmUp(w, fx, seed, stacks.back()->port());
  }
  serve::RpcClient client, plain;
  SEQFM_CHECK(Connect(&client, stacks[0]->port()) &&
              Connect(&plain, stacks[4]->port()));
  uint64_t wrong = 0, checked = 0;
  double resp_bytes = 0.0, cands = 0.0, untraced_s = 0.0;
  for (size_t i = 0; i < prefix.size(); ++i) {
    const Request& r = prefix[i];
    const data::SequenceExample ex = r.example();
    const serve::RpcRequest req = Encode(r, i);
    cands += static_cast<double>(r.slate.size());

    serve::RpcResponse resp;
    const int64_t d1 = rec.Begin("rpc", i, -1);
    const bool called = client.Call(req, &resp).ok();
    rec.End(d1);
    std::string wire;
    serve::AppendResponseFrame(resp, &wire);
    resp_bytes += static_cast<double>(wire.size());

    const int64_t d2 = rec.Begin("server", i, d1, /*replay=*/true);
    const std::vector<serve::ScoredItem> submitted =
        stacks[1]->batch().Submit(ex, r.slate, kTopK).get();
    rec.End(d2);

    const serve::Predictor& p3 = stacks[2]->predictor();
    std::vector<float> scores3(r.slate.size());
    const int64_t d3 = rec.Begin("predictor", i, d2, /*replay=*/true);
    const double hits3 = CacheHits(*stacks[2]);
    const int64_t c3 = rec.Begin("predictor.acquire_context", i, -1);
    const serve::Predictor::ContextPtr ctx3 = p3.AcquireContext(ex);
    rec.End(c3);
    const bool hit = CacheHits(*stacks[2]) > hits3;
    const int64_t s3 = rec.Begin("predictor.score_context_range", i, -1);
    for (size_t b = 0; b < r.slate.size(); b += chunk) {
      const size_t e = std::min(r.slate.size(), b + chunk);
      p3.ScoreContextRange(*ctx3, ex, r.slate, b, e, scores3.data() + b);
    }
    rec.End(s3);
    rec.End(d3);

    // Depth 4 computes the context itself only where depth 3 missed.
    const serve::Predictor& p4 = stacks[3]->predictor();
    const seqfm::ir::Engine& engine = *p4.engine();
    serve::Predictor::ContextPtr cached;
    int32_t user_index = 0;
    std::vector<int32_t> dyn;
    IndexLayout(fx, ex, &user_index, &dyn);
    if (hit) cached = p4.AcquireContext(ex);
    std::vector<float> scores4(r.slate.size());
    const int64_t d4 = rec.Begin("engine", i, d3, /*replay=*/true);
    seqfm::core::SharedContext fresh;
    if (!hit) {
      const int64_t m4 = rec.Begin("engine.make_context", i, -1);
      engine.MakeContext(user_index, dyn, &fresh);
      rec.End(m4);
    }
    const seqfm::core::SharedContext& ctx4 = hit ? *cached : fresh;
    const int64_t s4 = rec.Begin("engine.score_range", i, -1);
    for (size_t b = 0; b < r.slate.size(); b += chunk) {
      const size_t e = std::min(r.slate.size(), b + chunk);
      std::string error;
      SEQFM_CHECK(engine.ScoreRange(ctx4, r.slate, b, e, scores4.data() + b,
                                    &error))
          << error;
    }
    rec.End(s4);
    rec.End(d4);

    // Untraced depth 1, for the tracing overhead.
    serve::RpcResponse plain_resp;
    const double t0 = Now();
    SEQFM_CHECK(plain.Call(req, &plain_resp).ok());
    untraced_s += Now() - t0;

    // Every depth must agree bit for bit; a seeded sample against the oracle.
    bool ok = called && resp.status == serve::RpcStatus::kOk &&
              SameBits(resp.items, submitted) &&
              SameBits(resp.items, plain_resp.items) &&
              std::memcmp(scores3.data(), scores4.data(),
                          scores3.size() * sizeof(float)) == 0;
    if (Sampled(seed, phase, i)) {
      ++checked;
      ok = ok && SameBits(resp.items, oracle.TopK(ex, r.slate, kTopK));
    }
    if (!ok) ++wrong;
  }
  stacks.clear();
  add("protocol.response_bytes", resp_bytes / prefix.size(), "bytes");

  // Context acquisition by outcome, and the prologue on its own.
  {
    Stack probe(fx, plan.cache_bytes);
    const serve::Predictor& p = probe.predictor();
    std::vector<double> hit_s, miss_s, prologue_s;
    for (const Request& r : prefix) {
      const data::SequenceExample ex = r.example();
      for (int rep = 0; rep < 2; ++rep) {
        const double before = CacheHits(probe);
        const double t0 = Now();
        p.AcquireContext(ex);
        const double t = Now() - t0;
        (CacheHits(probe) > before ? hit_s : miss_s).push_back(t);
      }
      int32_t user_index = 0;
      std::vector<int32_t> dyn;
      IndexLayout(fx, ex, &user_index, &dyn);
      prologue_s.push_back(MedianTime(3, [&] {
        seqfm::core::SharedContext ctx;
        p.engine()->MakeContext(user_index, dyn, &ctx);
      }));
    }
    add("ir.prologue_us", 1e6 * Median(prologue_s), "us");
    add("predictor.context_us.hit", 1e6 * Median(hit_s), "us");
    add("predictor.context_us.miss", 1e6 * Median(miss_s), "us");
  }

  // Layer means and self times from the spans.
  const auto layers = SummarizeByName(rec.spans());
  auto mean_of = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.mean_s;
  };
  const double n_req = static_cast<double>(prefix.size());
  add("ir.body_us_per_score",
      1e6 * mean_of("engine.score_range") * n_req / cands, "us");
  add("predictor.score_us_per_score",
      1e6 * mean_of("predictor.score_context_range") * n_req / cands, "us");
  add("rpc.roundtrip_us", 1e6 * mean_of("rpc"), "us");
  add("server.request_us", 1e6 * mean_of("server"), "us");
  for (const char* layer : {"rpc", "server", "predictor", "engine"}) {
    add(std::string("self.") + layer + "_us",
        1e6 * layers.at(layer).self_mean_s, "us");
  }
  add("trace.overhead_us", 1e6 * (mean_of("rpc") - untraced_s / n_req), "us");

  // --- Coordinator fan-out over two replicas, on the prefix's contexts. ----
  {
    Fleet fleet(fx, plan.cache_bytes);
    const Counters before = ReadCounters(nullptr, &fleet);
    serve::LocalShardBackend local(&fleet.replica(0).predictor());
    const size_t shard_end = fleet.info(0).shard_end;
    std::vector<double> local_s;
    const size_t fleet_n = 12;
    for (size_t i = 0; i < fleet_n; ++i) {
      const data::SequenceExample ex = prefix[i].example();
      serve::CoordinatorResult res;
      const int64_t span = rec.Begin("coord.topk", i, -1);
      fleet.TraceShards(&rec, span, i);
      const Status st = fleet.coordinator().TopKAll(ex, kTopK, &res);
      fleet.TraceShards(nullptr, -1, 0);
      rec.End(span);
      bool ok = st.ok() && res.status == serve::RpcStatus::kOk;
      if (i < 2) {  // the full-catalog oracle is costly; check two
        std::vector<int32_t> catalog(fx.num_objects());
        for (size_t c = 0; c < catalog.size(); ++c) {
          catalog[c] = static_cast<int32_t>(c);
        }
        ++checked;
        ok = ok && SameBits(res.items, oracle.TopK(ex, catalog, kTopK));
      }
      if (!ok) ++wrong;
      std::vector<std::vector<serve::RankEntry>> runs;
      const serve::ScoreJob job{&ex, nullptr, 0, shard_end, kTopK};
      const double t0 = Now();
      SEQFM_CHECK(local.ScoreTopK({job}, &runs).ok());
      local_s.push_back(Now() - t0);
    }
    const Counters d = Delta(before, ReadCounters(nullptr, &fleet));
    const auto fleet_layers = SummarizeByName(rec.spans());
    add("coord.topk_ms", 1e3 * fleet_layers.at("coord.topk").mean_s, "ms");
    add("coord.shard_ms",
        1e3 * 0.5 * (fleet_layers.at("coord.shard0").mean_s +
                     fleet_layers.at("coord.shard1").mean_s), "ms");
    add("coord.fanout_self_us",
        1e6 * fleet_layers.at("coord.topk").self_mean_s, "us");
    add("backend.local_topk_ms", 1e3 * Median(local_s), "ms");
    add("coord.retries", d.at("coord.retries"), "count");
    add("coord.circuit_opens", d.at("coord.circuit_opens"), "count");
    // A fault-free fleet must not have used its recovery machinery.
    if (d.at("coord.retries") != 0.0 || d.at("coord.circuit_opens") != 0.0) {
      std::printf("servebench: fault-free fleet retried or opened a circuit\n");
      out.correct = false;
    }
  }

  // --- The latency tails, closed and open loop, and the counters of the
  // high rate. The tails spread too widely from run to run on a shared
  // virtual machine to carry a regression bound, so they are reported here.
  {
    const double closed_s = 0.25 * seconds;
    std::vector<Request> closed_reqs = MakeRequests(
        w, fx, seed, 1, 1100 + static_cast<size_t>(10000 * closed_s));
    PhaseStats closed =
        RunPhase(w, fx, seed, 1, closed_reqs, nullptr, closed_s);
    std::vector<Request> low_reqs, high_reqs;
    PhaseStats low = RunOpenPhase(w, fx, seed, 2, plan.low_qps,
                                  0.2 * seconds, &low_reqs);
    std::vector<double> pending;
    PhaseStats st = RunOpenPhase(w, fx, seed, 3, plan.high_qps,
                                 0.2 * seconds, &high_reqs, &pending);
    double c50 = 0.0, c99 = 0.0, lo50 = 0.0, lo99 = 0.0, hi50 = 0.0;
    double hi99 = 0.0, pend99 = 0.0, lag99 = 0.0;
    if (!SlicedPercentiles(closed, &c50, &c99) ||
        !SlicedPercentiles(low, &lo50, &lo99) ||
        !SlicedPercentiles(st, &hi50, &hi99) ||
        !Percentile(pending, 0.99, &pend99) ||
        !Percentile(st.lag_ms, 0.99, &lag99)) {
      std::printf("servebench: open-loop phase too short for p99\n");
      out.correct = false;
    }
    for (auto [phase, reqs] : {std::pair{&closed, &closed_reqs},
                               std::pair{&low, &low_reqs},
                               std::pair{&st, &high_reqs}}) {
      Check(phase, *reqs, &oracle, fx);
      out.attempted += phase->sent;
      out.failed += phase->failed;
      wrong += phase->wrong;
      checked += phase->checked;
    }
    add("p99_ms", c99, "ms");
    add("p99_ms.low", lo99, "ms");
    add("p50_ms.high", hi50, "ms");
    add("p99_ms.high", hi99, "ms");
    const Counters& d = st.delta;
    const double lookups = d.at("cache.hits") + d.at("cache.misses");
    add("ir.compiles_in_run", d.at("ir.compiled_counts"), "count");
    add("ir.body_instrs", st.after.at("ir.body_instrs"), "count");
    add("ir.frame_bytes", st.after.at("ir.frame_bytes"), "bytes");
    add("cache.hit_ratio", lookups > 0 ? d.at("cache.hits") / lookups : 0.0,
        "ratio");
    add("cache.evictions", d.at("cache.evictions"), "count");
    add("server.wave_requests_mean",
        d.at("server.served") / std::max(1.0, d.at("server.waves")), "count");
    add("server.pending_p99", pend99, "count");
    add("server.shed", d.at("server.shed"), "count");
    add("rpc.backpressure_pauses", d.at("rpc.backpressure_pauses"), "count");
    add("rpc.protocol_errors", d.at("rpc.protocol_errors"), "count");
    add("tensor.heap_allocs", d.at("tensor.heap_allocs"), "count");
    add("gen.lag_p99_ms", lag99, "ms");
    add("gen.achieved_qps", st.achieved_qps(), "1/s");
    add("failed_frac",
        static_cast<double>(closed.failed + low.failed + st.failed) /
            static_cast<double>(closed.sent + low.sent + st.sent),
        "ratio");
  }
  out.attempted += prefix.size();
  out.failed += wrong;

  // The per-layer self-time table.
  std::printf("  per-layer self time, %zu requests replayed one at a time:\n",
              prefix.size());
  std::printf("  %-32s %8s %12s %12s\n", "span", "count", "mean_us",
              "self_us");
  for (const auto& [name, t] : SummarizeByName(rec.spans())) {
    std::printf("  %-32s %8zu %12.2f %12.2f\n", name.c_str(), t.count,
                1e6 * t.mean_s, 1e6 * t.self_mean_s);
  }
  std::printf("  tracing overhead: %.2f us per request (traced %.2f us, "
              "untraced %.2f us)\n",
              1e6 * (mean_of("rpc") - untraced_s / n_req),
              1e6 * mean_of("rpc"), 1e6 * untraced_s / n_req);
  std::printf("  correctness: %llu checked against the oracle, %llu wrong\n",
              static_cast<unsigned long long>(checked),
              static_cast<unsigned long long>(wrong));
  if (wrong > 0) out.correct = false;
  if (!span_path.empty() && !rec.WriteJsonLines(span_path)) {
    std::printf("servebench: cannot write spans to %s\n", span_path.c_str());
    out.correct = false;
  }
  std::printf("  spans: %zu written to %s\n", rec.spans().size(),
              span_path.empty() ? "(none)" : span_path.c_str());
  return out;
}

}  // namespace servebench
