// pvbench driver: load generator, answer oracle and layer tracer for one
// (workload, seed) run. run.py builds this file (see CMakeLists.txt here)
// and is the entry point; README.md defines the workloads and metrics.
//
//   pvbench_driver --workload=NAME --seed=N --seconds=S --trace=0|1
//                  --serve=PATH/pverify_serve --out=DIR [--smoke]
//
// Every input is generated here: the 1-D dataset (fixed, written to the
// file the daemon loads with --dataset) and, from the seed, the request
// pool and stream. Before anything is timed the expected answer of every
// pooled request is computed in-process with the core executors, and a
// sample is checked against Definition 1 with exact (Strategy::kBasic)
// probabilities.
//
// Untraced mode measures the end-to-end metrics. Serving workloads start
// the real pverify_serve as a child process and drive it over loopback:
// setup (repeated) → warm-up → rounds of host-speed sample → rtt → load →
// peak, with idle-priority spinners keeping the vCPUs from halting.
// batch_inproc runs the same phases against an in-process QueryEngine.
// Times are reported scaled to a reference host speed. Traced mode
// replays the workload's request stream one layer at a time through the
// library's public calls and records spans; it reports the per-layer
// metrics.
//
// Writes DIR/driver-NAME-{untraced,traced}.json (traced: also
// DIR/trace_NAME.jsonl). Exit status: 0 when every answer was right, 1 on
// a wrong answer, 2 on a usage or setup error. An invalid load phase
// (achieved < 98% of offered over all its slices, or over a second of
// requests outstanding at the end of a slice) is reported as
// "valid": false, not as an exit status.
#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/basic.h"
#include "core/candidate.h"
#include "core/classifier.h"
#include "core/knn.h"
#include "core/query.h"
#include "core/query2d.h"
#include "core/refine.h"
#include "core/scratch.h"
#include "core/simd.h"
#include "core/subregion.h"
#include "core/verifier.h"
#include "datagen/dataset_io.h"
#include "datagen/partition.h"
#include "datagen/synthetic.h"
#include "engine/caching_engine.h"
#include "engine/query_engine.h"
#include "engine/sharded_engine.h"
#include "net/client.h"
#include "net/codec.h"
#include "net/server.h"
#include "spatial/filter.h"

namespace {

using namespace pverify;

// Fixed configuration shared by the daemon flags and the in-process
// equivalents. Threads are pinned so results do not move with host size.
constexpr size_t kThreads = 4;
constexpr size_t kDim2Objects = 20000;  // pverify_serve --dim2 (seed 13)
constexpr size_t kShards = 4;
constexpr int kKnnK = 3;
constexpr size_t kBatchSize = 1024;
constexpr int kConns = 2;           // load and peak phases
constexpr size_t kPeakWindow = 32;  // requests outstanding per connection

// ------------------------------------------------------------------ time --

// CLOCK_MONOTONIC in ns; SleepUntilNs sleeps on the same clock.
int64_t NowNs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void SleepUntilNs(int64_t t_ns) {
  struct timespec ts;
  ts.tv_sec = static_cast<time_t>(t_ns / 1000000000);
  ts.tv_nsec = static_cast<long>(t_ns % 1000000000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

int64_t SecondsToNs(double s) { return static_cast<int64_t>(s * 1e9); }

// ------------------------------------------------------------ statistics --

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}


// A sample set summarised by nearest-rank percentiles.
class Samples {
 public:
  void Reserve(size_t n) { v_.reserve(n); }
  void Add(double x) {
    v_.push_back(x);
    sorted_ = false;
  }
  void Append(const Samples& other) {
    v_.insert(v_.end(), other.v_.begin(), other.v_.end());
    sorted_ = false;
  }
  size_t size() const { return v_.size(); }
  std::string Json() const {
    std::string out = "[";
    for (size_t i = 0; i < v_.size(); ++i) {
      out += (i > 0 ? ", " : "") + Num(v_[i]);
    }
    return out + "]";
  }
  // The i-th smallest sample.
  double Sorted(size_t i) {
    if (!sorted_) std::sort(v_.begin(), v_.end());
    sorted_ = true;
    return v_[std::min(i, v_.size() - 1)];
  }
  double Percentile(double q) {
    if (v_.empty()) return 0.0;
    return Sorted(static_cast<size_t>(q * static_cast<double>(v_.size())));
  }
  double Median() { return Percentile(0.5); }
  double Mean() const {
    if (v_.empty()) return 0.0;
    double s = 0.0;
    for (double x : v_) s += x;
    return s / static_cast<double>(v_.size());
  }

 private:
  std::vector<double> v_;
  bool sorted_ = false;
};

// ---------------------------------------------------------------- report --

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
  bool has_p999 = false;
  double p999 = 0.0;
};

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

// Metrics plus free-form facts (raw JSON values) of one driver run.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples) {
    metrics_.push_back(Metric{name, value, unit, samples, false, 0.0});
  }
  // Attaches the diagnostic p999 to the metric added last.
  void SetP999(double v) {
    metrics_.back().has_p999 = true;
    metrics_.back().p999 = v;
  }
  // Per-layer percentiles: base.p50 (and base.p99 when asked).
  void AddLayer(const std::string& base, Samples& s, bool p99,
                const std::string& unit = "us") {
    Add(base + ".p50", s.Percentile(0.50), unit, s.size());
    if (p99) Add(base + ".p99", s.Percentile(0.99), unit, s.size());
  }
  void Fact(const std::string& key, const std::string& raw_json) {
    facts_.emplace_back(key, raw_json);
  }
  void Fact(const std::string& key, double v) { Fact(key, Num(v)); }

  void AppendMetrics(const Report& other) {
    metrics_.insert(metrics_.end(), other.metrics_.begin(),
                    other.metrics_.end());
  }

  // {"facts"..., "metrics": {name: {value, unit, samples[, p999]}}}
  std::string Json() const {
    std::string out = "{";
    for (const auto& [k, v] : facts_) out += Quote(k) + ": " + v + ", ";
    return out + "\"metrics\": " + MetricsJson() + "}\n";
  }
  std::string MetricsJson() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      if (i > 0) out += ", ";
      out += Quote(m.name) + ": {\"value\": " + Num(m.value) +
             ", \"unit\": " + Quote(m.unit) +
             ", \"samples\": " + std::to_string(m.samples);
      if (m.has_p999) out += ", \"p999\": " + Num(m.p999);
      out += "}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> facts_;
};

// ------------------------------------------------------------- workloads --

enum class Mix { kUniformPoint, kZipfPoint, kMixed, kBatch };

struct WorkloadSpec {
  const char* name;
  Mix mix;
  size_t pool;         ///< distinct pooled requests
  double nominal_qps;  ///< open-loop rate of the warm-up and load phases
  size_t cache;        ///< pverify_serve --cache (0 = none)
  bool sharded_dual;   ///< --dim2 --shards --policy=range
};

// Nominal rates are 2-12% of each workload's peak throughput on a quiet
// 4-core host: low enough that the load phase stays an unsaturated
// operating point when the shared host slows or stalls the daemon. Each
// connection carries half the rate, and a stall longer than 128 requests
// of it (the daemon's default per-connection in-flight cap) is answered
// kOverloaded: zipf_cached at 8,000 q/s drew up to 4,495 such refusals in
// one slump, at 4,000 q/s 6 in one run of 80, and uniform_point at
// 2,000 q/s 4 in one run of 40. batch_inproc runs its load slices inside
// the engine's own process, where 6,000 q/s already spread the load p50
// over 35% between runs.
const WorkloadSpec kWorkloads[] = {
    {"uniform_point", Mix::kUniformPoint, 16384, 1000.0, 0, false},
    {"zipf_cached", Mix::kZipfPoint, 16384, 1000.0, 4096, false},
    {"mixed_sharded", Mix::kMixed, 4000, 500.0, 0, true},
    {"batch_inproc", Mix::kBatch, 8192, 3000.0, 0, false},
};

struct PoolEntry {
  QueryKind kind = QueryKind::kPoint;
  double q = 0.0;
  Point2 q2;
  int k = 0;
  CpnnParams params{0.3, 0.01};
};

QueryOptions OptionsOf(const PoolEntry& e) {
  QueryOptions o;
  o.params = e.params;
  o.strategy = Strategy::kVR;
  return o;
}

QueryRequest RequestOf(const PoolEntry& e) {
  const QueryOptions o = OptionsOf(e);
  switch (e.kind) {
    case QueryKind::kPoint:
      return PointQuery{e.q, o};
    case QueryKind::kMin:
      return MinQuery{o};
    case QueryKind::kMax:
      return MaxQuery{o};
    case QueryKind::kKnn:
      return KnnQuery{e.q, e.k, o};
    case QueryKind::kPoint2D:
      return Point2DQuery{e.q2, o};
    case QueryKind::kKnn2D:
      return Knn2DQuery{e.q2, e.k, o};
    case QueryKind::kCandidates:
      break;
  }
  throw std::logic_error("pool entry of an unsupported kind");
}

// The request pool and the stream over it: stream position n asks pool
// entry Index(n).
struct Workload {
  const WorkloadSpec* spec = nullptr;
  std::vector<PoolEntry> pool;
  std::vector<uint32_t> zipf_stream;  ///< kZipfPoint only

  uint32_t Index(uint64_t n) const {
    if (!zipf_stream.empty()) {
      return zipf_stream[static_cast<size_t>(n % zipf_stream.size())];
    }
    return static_cast<uint32_t>(n % pool.size());
  }
  const PoolEntry& At(uint64_t n) const { return pool[Index(n)]; }
  uint64_t StreamLength() const {
    return zipf_stream.empty() ? pool.size() : zipf_stream.size();
  }
  bool HasKind(QueryKind kind) const {
    for (const PoolEntry& e : pool) {
      if (e.kind == kind) return true;
    }
    return false;
  }
};

uint64_t NameSalt(const char* s) {
  uint64_t h = 1469598103934665603ULL;
  for (; *s != '\0'; ++s) {
    h = (h ^ static_cast<unsigned char>(*s)) * 1099511628211ULL;
  }
  return h;
}

// Van der Corput radical inverse in base 2: j-th point of a sequence whose
// every prefix covers [0, 1) evenly.
double RadicalInverse(uint32_t j) {
  double v = 0.0, f = 0.5;
  for (; j != 0; j >>= 1, f *= 0.5) {
    if (j & 1) v += f;
  }
  return v;
}

// mixed_sharded's request kinds. Every 50 consecutive pool entries hold
// exactly 70% 1-D point, 10% 2-D point, 4% min, 4% max, 10% 2-D k-NN and
// 2% 1-D k-NN requests in a seeded order, and the j-th 1-D k-NN request
// asks the j-th point of a sequence that covers the domain evenly, the
// same for every seed: the tail metrics sit among the 1-D k-NN requests,
// whose cost depends on where they ask (p50 about 7 ms, p90 21 ms, max
// 58 ms on the interior), so neither their share in a window nor which of
// their costs a run sees may be left to chance.
void AssignMixedKinds(Rng& rng, std::vector<PoolEntry>* pool) {
  std::vector<QueryKind> period;
  const std::pair<QueryKind, int> kMix[] = {
      {QueryKind::kPoint, 35}, {QueryKind::kPoint2D, 5}, {QueryKind::kMin, 2},
      {QueryKind::kMax, 2},    {QueryKind::kKnn2D, 5},   {QueryKind::kKnn, 1}};
  for (const auto& [kind, count] : kMix) {
    period.insert(period.end(), count, kind);
  }
  uint32_t knn = 0;
  for (size_t start = 0; start < pool->size(); start += period.size()) {
    std::shuffle(period.begin(), period.end(), rng.engine());
    for (size_t i = 0; i < period.size() && start + i < pool->size(); ++i) {
      PoolEntry& e = (*pool)[start + i];
      e.kind = period[i];
      if (e.kind == QueryKind::kKnn || e.kind == QueryKind::kKnn2D) {
        e.k = kKnnK;
      }
      if (e.kind == QueryKind::kKnn) {
        // 1-D k-NN cost explodes at the domain edge (0.9-1.4 s at q = 9997
        // on one core), so k-NN points stay in the interior [500, 9500].
        e.q = 500.0 + 9000.0 * RadicalInverse(knn++);
      }
    }
  }
}

Workload MakeWorkload(const WorkloadSpec& spec, uint64_t seed, bool smoke) {
  Workload w;
  w.spec = &spec;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL ^ NameSalt(spec.name));
  w.pool.resize(smoke ? std::min<size_t>(spec.pool, 1024) : spec.pool);
  static const double kThresholds[] = {0.1, 0.2, 0.3, 0.5, 0.7};
  for (PoolEntry& e : w.pool) {
    e.q = rng.Uniform(0.0, 10000.0);
    if (spec.mix == Mix::kBatch) {
      e.params.threshold = kThresholds[rng.UniformInt(0, 4)];
      e.params.tolerance = rng.Bernoulli(0.5) ? 0.01 : 0.0;
    } else if (spec.mix == Mix::kMixed) {
      e.q2 = Point2{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)};
    }
  }
  if (spec.mix == Mix::kMixed) AssignMixedKinds(rng, &w.pool);
  if (spec.mix == Mix::kZipfPoint) {
    // Zipf(s = 1) over pool ranks: P(rank r) ∝ 1 / (r + 1).
    std::vector<double> cdf(w.pool.size());
    double total = 0.0;
    for (size_t r = 0; r < cdf.size(); ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      cdf[r] = total;
    }
    w.zipf_stream.resize(smoke ? (1u << 14) : (1u << 20));
    for (uint32_t& idx : w.zipf_stream) {
      const double u = rng.Uniform(0.0, total);
      idx = static_cast<uint32_t>(
          std::min<size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                               cdf.begin(),
                           cdf.size() - 1));
    }
  }
  return w;
}

// ---------------------------------------------------------------- oracle --

// Runs fn(i) for i in [0, n) on `threads` threads; rethrows the first
// exception after every thread has joined.
void ParallelFor(size_t n, size_t threads,
                 const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::mutex mu;
  std::exception_ptr error;
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) {
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu);
          if (!error) error = std::current_exception();
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

// The answer a request must get: ids, plus the k-NN bounds for k-NN kinds.
struct Expected {
  std::vector<ObjectId> ids;
  bool knn = false;
  std::vector<ProbabilityBound> bounds;
};

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool Matches(const Expected& e, const QueryResult& r) {
  if (r.ids != e.ids || r.knn.has_value() != e.knn) return false;
  if (!e.knn) return true;
  if (r.knn->ids != e.ids || r.knn->bounds.size() != e.bounds.size()) {
    return false;
  }
  for (size_t i = 0; i < e.bounds.size(); ++i) {
    if (!SameBits(r.knn->bounds[i].lower, e.bounds[i].lower) ||
        !SameBits(r.knn->bounds[i].upper, e.bounds[i].upper)) {
      return false;
    }
  }
  return true;
}

// The library's in-process executors over the same datasets the daemon
// serves: the reference every served answer is compared with.
struct Executors {
  const Dataset* data = nullptr;
  const Dataset2D* data2d = nullptr;  ///< null when the workload has no 2-D
  std::unique_ptr<CpnnExecutor> exec;
  std::unique_ptr<CpnnExecutor2D> exec2d;
};

Expected ComputeExpected(const Executors& ex, const PoolEntry& e) {
  Expected out;
  const QueryOptions o = OptionsOf(e);
  switch (e.kind) {
    case QueryKind::kPoint:
      out.ids = ex.exec->Execute(e.q, o).ids;
      break;
    case QueryKind::kMin:
      out.ids = ex.exec->ExecuteMin(o).ids;
      break;
    case QueryKind::kMax:
      out.ids = ex.exec->ExecuteMax(o).ids;
      break;
    case QueryKind::kKnn: {
      CknnAnswer a = ex.exec->ExecuteKnn(e.q, e.k, e.params, o.integration);
      out.ids = a.ids;
      out.knn = true;
      out.bounds = a.bounds;
      break;
    }
    case QueryKind::kPoint2D:
      out.ids = ex.exec2d->Execute(e.q2, o).ids;
      break;
    case QueryKind::kKnn2D: {
      CknnAnswer a = ex.exec2d->ExecuteKnn(e.q2, e.k, e.params, o.integration);
      out.ids = a.ids;
      out.knn = true;
      out.bounds = a.bounds;
      break;
    }
    case QueryKind::kCandidates:
      throw std::logic_error("no oracle for candidate-set requests");
  }
  return out;
}

std::vector<Expected> ComputeAllExpected(const Executors& ex,
                                         const Workload& w) {
  std::vector<Expected> expected(w.pool.size());
  ParallelFor(w.pool.size(), kThreads,
              [&](size_t i) { expected[i] = ComputeExpected(ex, w.pool[i]); });
  return expected;
}

// FNV-1a over every expected id, pool entry by pool entry.
std::string AnswersDigest(const std::vector<Expected>& expected) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h = (h ^ ((v >> (8 * b)) & 0xff)) * 1099511628211ULL;
    }
  };
  for (const Expected& e : expected) {
    mix(e.ids.size());
    for (ObjectId id : e.ids) mix(static_cast<uint64_t>(id));
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// Exact qualification probabilities (id, p) of every candidate, for the
// Definition 1 check: Strategy::kBasic for the PNN kinds, the
// Poisson-binomial integral for k-NN.
std::vector<std::pair<ObjectId, double>> ExactProbabilities(
    const Executors& ex, const PoolEntry& e) {
  std::vector<std::pair<ObjectId, double>> out;
  QueryOptions basic = OptionsOf(e);
  basic.strategy = Strategy::kBasic;
  basic.report_probabilities = true;
  auto from_answer = [&out](const QueryAnswer& a) {
    for (const AnswerEntry& c : a.candidate_probabilities) {
      out.emplace_back(c.id, c.bound.lower);
    }
  };
  auto from_knn = [&](const CandidateSet& cands) {
    if (cands.empty()) return;
    std::vector<double> p = ComputeKnnProbabilities(cands, e.k, {});
    for (size_t i = 0; i < cands.size(); ++i) {
      out.emplace_back(cands[i].id, p[i]);
    }
  };
  switch (e.kind) {
    case QueryKind::kPoint:
      from_answer(ex.exec->Execute(e.q, basic));
      break;
    case QueryKind::kMin:
      from_answer(ex.exec->ExecuteMin(basic));
      break;
    case QueryKind::kMax:
      from_answer(ex.exec->ExecuteMax(basic));
      break;
    case QueryKind::kPoint2D:
      from_answer(ex.exec2d->Execute(e.q2, basic));
      break;
    case QueryKind::kKnn: {
      FilterResult f = FilterKByScan(*ex.data, e.q, e.k);
      from_knn(CandidateSet::Build1D(*ex.data, f.candidates, e.q, e.k));
      break;
    }
    case QueryKind::kKnn2D: {
      FilterResult f = FilterKByScan2D(*ex.data2d, e.q2, e.k);
      from_knn(CandidateSet::Build2D(*ex.data2d, f.candidates, e.q2,
                                     ex.exec2d->radial_pieces(), e.k));
      break;
    }
    case QueryKind::kCandidates:
      break;
  }
  return out;
}

// Definition 1 on an evenly spaced sample of the pool: every object with
// p >= P is in the expected answer and none with p < P − Δ is. Returns the
// number of violating objects.
size_t CheckDefinition1(const Executors& ex, const Workload& w,
                        const std::vector<Expected>& expected, size_t sample) {
  sample = std::min(sample, w.pool.size());
  const size_t stride = w.pool.size() / sample;
  std::atomic<size_t> violations{0};
  ParallelFor(sample, kThreads, [&](size_t s) {
    const size_t i = s * stride;
    const PoolEntry& e = w.pool[i];
    const std::set<ObjectId> answer(expected[i].ids.begin(),
                                    expected[i].ids.end());
    const double slack = 1e-6;
    const double P = e.params.threshold;
    for (const auto& [id, p] : ExactProbabilities(ex, e)) {
      const bool in = answer.count(id) > 0;
      if ((p >= P + slack && !in) ||
          (p < P - e.params.tolerance - slack && in)) {
        ++violations;
        std::fprintf(stderr,
                     "pvbench: Definition 1 violated: pool %zu id %lld p=%.9f "
                     "P=%g tol=%g returned=%d\n",
                     i, static_cast<long long>(id), p, P, e.params.tolerance,
                     in ? 1 : 0);
      }
    }
  });
  return violations;
}

// ----------------------------------------------------------------- tally --

// Every request the run issues, and how each one ended. A refusal (any
// typed error frame), a dropped connection and a wrong answer all fail;
// nothing is retried.
struct Tally {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> refused{0};
  std::atomic<uint64_t> dropped{0};
  std::atomic<uint64_t> wrong{0};
  uint64_t failed() const { return refused + dropped + wrong; }
};

// What a phase needs to issue request n and judge its answer.
struct Ctx {
  const Workload& w;
  const std::vector<Expected>& expected;
  Tally& tally;

  bool Judge(uint64_t n, const QueryResult& r) const {
    if (Matches(expected[w.Index(n)], r)) return true;
    if (tally.wrong++ < 5) {
      std::fprintf(stderr, "pvbench: wrong answer for stream position %llu "
                   "(pool %u)\n",
                   static_cast<unsigned long long>(n), w.Index(n));
    }
    return false;
  }
  bool Judge(uint64_t n, const net::ServeResponse& r) const {
    if (!r.ok) {
      if (tally.refused++ < 5) {
        std::fprintf(stderr, "pvbench: request refused (%s): %s\n",
                     net::ErrorCodeName(r.code), r.error.c_str());
      }
      return false;
    }
    return Judge(n, r.result);
  }
  void Dropped(uint64_t count, const char* why) const {
    if (count == 0) return;
    tally.dropped += count;
    std::fprintf(stderr, "pvbench: %llu requests lost: %s\n",
                 static_cast<unsigned long long>(count), why);
  }
};

// ------------------------------------------------------------ processes --

// User + system CPU time of a process (all its threads, exited ones
// included), in seconds. The process CPU clock reads the same total as
// utime + stime in /proc/<pid>/stat, in ns rather than 10 ms ticks.
double CpuSeconds(pid_t pid) {
  clockid_t clock;
  struct timespec ts;
  if (clock_getcpuclockid(pid, &clock) != 0 ||
      clock_gettime(clock, &ts) != 0) {
    return 0.0;
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// Peak resident set (VmHWM) in MiB.
double VmHwmMiB(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// One pverify_serve child process. The constructor returns once the daemon
// has written its port file (the elapsed time is setup_s); the destructor
// stops it with SIGINT and reaps it. The child gets SIGKILL if this process
// dies first.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::vector<std::string>& args,
         const std::string& port_file, const std::string& log_file) {
    std::vector<std::string> argv_s = {binary};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    argv_s.push_back("--port-file=" + port_file);
    std::vector<char*> argv;
    for (std::string& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    unlink(port_file.c_str());
    const pid_t parent = getpid();

    const int64_t t0 = NowNs();
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // Only async-signal-safe calls between fork and exec.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(126);
      const int fd = open(log_file.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        dup2(fd, 1);
        dup2(fd, 2);
        close(fd);
      }
      execv(argv[0], argv.data());
      _exit(127);
    }
    const int64_t deadline = t0 + SecondsToNs(60.0);
    while (true) {
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("pverify_serve exited during setup; see " +
                                 log_file);
      }
      std::ifstream in(port_file);
      std::string text;
      if (std::getline(in, text) && !in.eof() && !text.empty()) {
        setup_s_ = static_cast<double>(NowNs() - t0) / 1e9;
        port_ = static_cast<uint16_t>(std::strtoul(text.c_str(), nullptr, 10));
        break;
      }
      if (NowNs() > deadline) {
        Stop();
        throw std::runtime_error("pverify_serve did not start within 60 s");
      }
      usleep(200);
    }
  }
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }
  double setup_s() const { return setup_s_; }

  void Stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGINT);
    const int64_t deadline = NowNs() + SecondsToNs(10.0);
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (NowNs() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      usleep(1000);
    }
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
  double setup_s_ = 0.0;
};

// ------------------------------------------------------------ host speed --

// The shared host's speed drifts by 30-100% over seconds to minutes: a
// CpnnExecutor::Execute loop on one thread reads 70 µs per query in one
// minute and 110-140 µs in another, in thread CPU time as in wall time
// (the guest sees no steal), and every time of a run moves with it. A
// fixed kernel of this file, independent of the library, measures that
// speed in every round; the end-to-end times are reported scaled to the
// speed at which the kernel takes kReferenceNs per iteration, about its
// speed on the measured host in a quiet spell (the 1st percentile of
// 1,800 per-round samples).
//
// The kernel sorts 256 pseudo-random doubles and sums exp × log1p over
// them: a mix of branchy and floating-point work that tracked the
// library's slow-downs on the measured host better than either part
// alone. It is timed in thread CPU time, so threads of the system under
// test that compete for the vCPUs do not count as a slower host.
constexpr double kReferenceNs = 14000.0;
constexpr double kHostSampleSeconds = 0.025;  ///< once a round

// Thread CPU ns per kernel iteration on one thread over `seconds`.
double ReferenceNsPerIteration(uint64_t seed, double seconds) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ULL | 1;
  double buf[256];
  volatile double sink = 0.0;
  auto thread_cpu_ns = [] {
    struct timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
  };
  const int64_t end = NowNs() + SecondsToNs(seconds);
  const int64_t cpu0 = thread_cpu_ns();
  size_t n = 0;
  do {
    for (double& v : buf) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = static_cast<double>(x >> 11) * 0x1.0p-53 * 1e4;
    }
    std::sort(std::begin(buf), std::end(buf));
    double acc = 0.0;
    for (double v : buf) acc += std::exp(-v * 1e-4) * std::log1p(v);
    sink = sink + acc;
    ++n;
  } while (NowNs() < end);
  return static_cast<double>(thread_cpu_ns() - cpu0) / static_cast<double>(n);
}

// Busy-loop threads at SCHED_IDLE, one per vCPU, that keep idle vCPUs
// from halting while they live. On the measured VM a halted vCPU took
// 30-50 µs at the median and 1-4 ms at p99 to wake for a timer (8-11 µs
// and mostly under 0.3 ms with these threads running), and every request
// wakes several threads, so that latency -- the host's, not the
// program's -- decided rtt and load latencies. Any runnable thread of the
// system under test preempts them at once.
class IdleSpinners {
 public:
  IdleSpinners() {
    for (size_t t = 0; t < kThreads; ++t) {
      threads_.emplace_back([this] {
        struct sched_param p = {};
        sched_setscheduler(0, SCHED_IDLE, &p);
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        }
      });
    }
  }
  ~IdleSpinners() {
    stop_ = true;
    for (std::thread& t : threads_) t.join();
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

  // CPU seconds the spinners used, to take out of this process's total.
  double CpuSeconds() {
    double sum = 0.0;
    for (std::thread& t : threads_) {
      clockid_t clock;
      struct timespec ts;
      if (pthread_getcpuclockid(t.native_handle(), &clock) == 0 &&
          clock_gettime(clock, &ts) == 0) {
        sum += static_cast<double>(ts.tv_sec) +
               static_cast<double>(ts.tv_nsec) / 1e9;
      }
    }
    return sum;
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// One sample of the host's speed: the kernel on kThreads threads at once
// (every vCPU the system under test uses), mean ns per iteration.
double SampleHostSpeed(double seconds) {
  std::vector<double> ns(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&ns, t, seconds] { ns[t] = ReferenceNsPerIteration(t + 1, seconds); });
  }
  for (std::thread& t : threads) t.join();
  double sum = 0.0;
  for (double v : ns) sum += v;
  return sum / static_cast<double>(kThreads);
}

// ---------------------------------------------------------------- phases --

std::unique_ptr<net::Client> Connect(uint16_t port) {
  net::ClientOptions options;
  options.recv_timeout_ms = 20000;  // a silent server fails the run, no hang
  return net::Client::ConnectUnique("127.0.0.1", port, options);
}

// One answered request: stream position and its [start, end] in ns.
struct Rec {
  uint64_t n = 0;
  int64_t start = 0;
  int64_t end = 0;
};

// Closed loop, one request outstanding, one connection. Latency in µs.
Samples RunRttNet(uint16_t port, const Ctx& ctx, uint64_t* seq,
                  double seconds) {
  std::unique_ptr<net::Client> client = Connect(port);
  Samples lat;
  const int64_t end = NowNs() + SecondsToNs(seconds);
  while (NowNs() < end) {
    const uint64_t n = (*seq)++;
    QueryRequest req = RequestOf(ctx.w.At(n));
    ++ctx.tally.attempted;
    const int64_t t0 = NowNs();
    net::ServeResponse r;
    try {
      client->Send(req);
      r = client->ReadNext();
    } catch (const net::WireError& e) {
      ctx.Dropped(1, e.what());
      break;
    }
    const int64_t t1 = NowNs();
    if (ctx.Judge(n, r)) lat.Add(static_cast<double>(t1 - t0) / 1e3);
  }
  client->Close();
  return lat;
}

// Closed loop through Engine::Execute on the calling thread.
Samples RunRttEngine(Engine& engine, const Ctx& ctx, uint64_t* seq,
                     double seconds) {
  Samples lat;
  const int64_t end = NowNs() + SecondsToNs(seconds);
  while (NowNs() < end) {
    const uint64_t n = (*seq)++;
    QueryRequest req = RequestOf(ctx.w.At(n));
    ++ctx.tally.attempted;
    const int64_t t0 = NowNs();
    QueryResult r = engine.Execute(std::move(req));
    const int64_t t1 = NowNs();
    if (ctx.Judge(n, r)) lat.Add(static_cast<double>(t1 - t0) / 1e3);
  }
  return lat;
}

// Fixed arrival schedule of an open-loop phase: stream `c` (a connection or
// a sender) sends its i-th request at Slot(c, i), staggered so the streams
// do not fire in phase; that request is stream position Seq(c, i).
struct Schedule {
  int64_t start = 0;
  double interval_ns = 0.0;
  int streams = 1;
  size_t per_stream = 0;
  uint64_t base = 0;

  Schedule(double qps, double seconds, int streams_in, uint64_t base_in)
      : interval_ns(1e9 * streams_in / qps),
        streams(streams_in),
        per_stream(std::max<size_t>(
            1, static_cast<size_t>(seconds * qps / streams_in))),
        base(base_in) {
    start = NowNs() + SecondsToNs(0.02);  // time to start the threads
  }
  int64_t Slot(int c, size_t i) const {
    return start + static_cast<int64_t>(
                       interval_ns * (static_cast<double>(c) / streams +
                                      static_cast<double>(i)));
  }
  uint64_t Seq(int c, size_t i) const { return base + i * streams + c; }
  int64_t LastSlot() const { return Slot(streams - 1, per_stream - 1); }
  uint64_t End() const { return base + per_stream * streams; }
};

struct OpenLoopResult {
  Samples latency_us;  ///< answered correctly, timed from the scheduled slot
  Samples late_us;     ///< how late each sender woke for its slot
  uint64_t completed = 0;
  double offered_qps = 0.0;
  double wall_s = 0.0;       ///< schedule start → last correct answer
  uint64_t backlog_end = 0;  ///< sent − answered at the last slot
  uint64_t next_seq = 0;
  std::vector<Rec> recs;  ///< per-request records when asked for
};

// Per-stream state of an open-loop phase.
struct StreamState {
  Samples lat, late;
  std::vector<Rec> recs;
  uint64_t completed = 0;
  int64_t last = 0;
};

// Requests sent and not yet answered. Each counter is read once: a second
// read of `sent` could pass `received` and wrap the difference. A response
// can be counted before its sender counts the send, hence the clamp.
uint64_t Backlog(const std::atomic<uint64_t>& sent,
                 const std::atomic<uint64_t>& received) {
  const uint64_t put = sent.load();
  return put - std::min(put, received.load());
}

// Folds the per-stream states.
OpenLoopResult Finish(const Schedule& s, std::vector<StreamState>& st,
                      uint64_t backlog) {
  OpenLoopResult out;
  int64_t last = s.start;
  for (StreamState& x : st) {
    out.latency_us.Append(x.lat);
    out.late_us.Append(x.late);
    out.recs.insert(out.recs.end(), x.recs.begin(), x.recs.end());
    out.completed += x.completed;
    last = std::max(last, x.last);
  }
  const double total = static_cast<double>(s.per_stream * s.streams);
  out.offered_qps = total / (static_cast<double>(s.LastSlot() - s.start) / 1e9 +
                             s.interval_ns / 1e9);
  out.wall_s = static_cast<double>(last - s.start) / 1e9;
  out.backlog_end = backlog;
  out.next_seq = s.End();
  return out;
}

// Open loop over `conns` connections, each with a sender thread firing on
// the schedule (timer slack 1 ns) and a receiver thread; never waits for a
// response before sending.
OpenLoopResult RunOpenLoopNet(uint16_t port, const Ctx& ctx, uint64_t base,
                              double qps, double seconds, int conns,
                              bool keep_recs) {
  std::vector<std::unique_ptr<net::Client>> clients;
  for (int c = 0; c < conns; ++c) clients.push_back(Connect(port));
  const Schedule s(qps, seconds, conns, base);
  ctx.tally.attempted += s.per_stream * conns;
  std::vector<StreamState> st(conns);
  std::atomic<uint64_t> sent{0}, received{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    st[c].lat.Reserve(s.per_stream);
    st[c].late.Reserve(s.per_stream);
    if (keep_recs) st[c].recs.reserve(s.per_stream);
    threads.emplace_back([&, c] {
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      for (size_t i = 0; i < s.per_stream; ++i) {
        QueryRequest req = RequestOf(ctx.w.At(s.Seq(c, i)));
        const int64_t slot = s.Slot(c, i);
        SleepUntilNs(slot);
        st[c].late.Add(static_cast<double>(NowNs() - slot) / 1e3);
        try {
          clients[c]->Send(req);
        } catch (const net::WireError&) {
          break;  // the receiver sees the dead socket and counts the rest
        }
        ++sent;
      }
    });
    threads.emplace_back([&, c] {
      StreamState& x = st[c];
      for (size_t got = 0; got < s.per_stream; ++got) {
        net::ServeResponse r;
        try {
          r = clients[c]->ReadNext();
        } catch (const net::WireError& e) {
          ctx.Dropped(s.per_stream - got, e.what());
          return;
        }
        const int64_t now = NowNs();
        ++received;
        const size_t i = static_cast<size_t>(r.request_id - 1);
        if (i >= s.per_stream) {
          ++ctx.tally.wrong;
          continue;
        }
        const uint64_t n = s.Seq(c, i);
        if (!ctx.Judge(n, r)) continue;
        x.lat.Add(static_cast<double>(now - s.Slot(c, i)) / 1e3);
        if (keep_recs) x.recs.push_back(Rec{n, s.Slot(c, i), now});
        ++x.completed;
        x.last = now;
      }
    });
  }
  SleepUntilNs(s.LastSlot());
  const uint64_t backlog = Backlog(sent, received);
  for (std::thread& t : threads) t.join();
  for (auto& c : clients) c->Close();
  return Finish(s, st, backlog);
}

// The same open loop through Engine::Submit: `streams` sender threads, each
// handing its futures to a receiver thread that waits for them in order.
OpenLoopResult RunOpenLoopEngine(Engine& engine, const Ctx& ctx, uint64_t base,
                                 double qps, double seconds, int streams,
                                 bool keep_recs) {
  const Schedule s(qps, seconds, streams, base);
  ctx.tally.attempted += s.per_stream * streams;
  struct Pending {
    size_t i;
    std::future<QueryResult> future;
  };
  struct Channel {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Pending> queue;
  };
  std::vector<Channel> channels(streams);
  std::vector<StreamState> st(streams);
  std::atomic<uint64_t> sent{0}, received{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < streams; ++c) {
    st[c].lat.Reserve(s.per_stream);
    st[c].late.Reserve(s.per_stream);
    if (keep_recs) st[c].recs.reserve(s.per_stream);
    threads.emplace_back([&, c] {
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      for (size_t i = 0; i < s.per_stream; ++i) {
        QueryRequest req = RequestOf(ctx.w.At(s.Seq(c, i)));
        const int64_t slot = s.Slot(c, i);
        SleepUntilNs(slot);
        st[c].late.Add(static_cast<double>(NowNs() - slot) / 1e3);
        std::future<QueryResult> f = engine.Submit(std::move(req));
        ++sent;
        {
          std::lock_guard<std::mutex> lock(channels[c].mu);
          channels[c].queue.push_back(Pending{i, std::move(f)});
        }
        channels[c].cv.notify_one();
      }
    });
    threads.emplace_back([&, c] {
      StreamState& x = st[c];
      for (size_t got = 0; got < s.per_stream; ++got) {
        Pending p;
        {
          std::unique_lock<std::mutex> lock(channels[c].mu);
          channels[c].cv.wait(lock, [&] { return !channels[c].queue.empty(); });
          p = std::move(channels[c].queue.front());
          channels[c].queue.pop_front();
        }
        QueryResult r;
        try {
          r = p.future.get();
        } catch (const std::exception& e) {
          ++ctx.tally.refused;
          std::fprintf(stderr, "pvbench: submit failed: %s\n", e.what());
          continue;
        }
        const int64_t now = NowNs();
        ++received;
        const uint64_t n = s.Seq(c, p.i);
        if (!ctx.Judge(n, r)) continue;
        x.lat.Add(static_cast<double>(now - s.Slot(c, p.i)) / 1e3);
        if (keep_recs) x.recs.push_back(Rec{n, s.Slot(c, p.i), now});
        ++x.completed;
        x.last = now;
      }
    });
  }
  SleepUntilNs(s.LastSlot());
  const uint64_t backlog = Backlog(sent, received);
  for (std::thread& t : threads) t.join();
  return Finish(s, st, backlog);
}

struct ClosedLoopResult {
  uint64_t counted = 0;    ///< correct answers inside the measured window
  double measured_s = 0.0;  ///< length of that window
  uint64_t completed = 0;
  uint64_t next_seq = 0;
};

// Closed loop, `conns` connections with `window` requests outstanding on
// each. The measured window runs from the end of the first tenth of the
// phase (ramp-up) to its end.
ClosedLoopResult RunClosedLoopNet(uint16_t port, const Ctx& ctx, uint64_t base,
                                  double seconds, int conns, size_t window) {
  std::vector<std::unique_ptr<net::Client>> clients;
  for (int c = 0; c < conns; ++c) clients.push_back(Connect(port));
  const int64_t start = NowNs() + SecondsToNs(0.02);
  const int64_t ramp_end = start + SecondsToNs(0.1 * seconds);
  const int64_t end = start + SecondsToNs(seconds);
  std::vector<uint64_t> counted(conns, 0), completed(conns, 0),
      sent_per(conns, 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      net::Client& client = *clients[c];
      uint64_t& sent = sent_per[c];
      auto seq = [&](uint64_t i) { return base + i * conns + c; };
      SleepUntilNs(start);
      size_t outstanding = 0;
      try {
        for (; outstanding < window; ++outstanding) {
          client.Send(RequestOf(ctx.w.At(seq(sent++))));
          ++ctx.tally.attempted;
        }
        while (outstanding > 0) {
          net::ServeResponse r = client.ReadNext();
          const int64_t now = NowNs();
          --outstanding;
          if (ctx.Judge(seq(r.request_id - 1), r)) {
            ++completed[c];
            if (now >= ramp_end && now < end) ++counted[c];
          }
          if (now < end) {
            client.Send(RequestOf(ctx.w.At(seq(sent++))));
            ++ctx.tally.attempted;
            ++outstanding;
          }
        }
      } catch (const net::WireError& e) {
        ctx.Dropped(outstanding, e.what());
      }
      client.Close();
    });
  }
  for (std::thread& t : threads) t.join();
  ClosedLoopResult out;
  uint64_t max_sent = 0;
  for (int c = 0; c < conns; ++c) {
    out.counted += counted[c];
    out.completed += completed[c];
    max_sent = std::max(max_sent, sent_per[c]);
  }
  out.measured_s = static_cast<double>(end - ramp_end) / 1e9;
  out.next_seq = base + max_sent * conns;
  return out;
}

// Back-to-back ExecuteBatch(kBatchSize) calls; the measured window is the
// time spent inside them.
ClosedLoopResult RunBatchLoop(Engine& engine, const Ctx& ctx, uint64_t base,
                              double seconds) {
  ClosedLoopResult out;
  const int64_t end = NowNs() + SecondsToNs(seconds);
  uint64_t n = base;
  do {
    std::vector<QueryRequest> batch;
    batch.reserve(kBatchSize);
    for (size_t i = 0; i < kBatchSize; ++i) {
      batch.push_back(RequestOf(ctx.w.At(n + i)));
    }
    ctx.tally.attempted += kBatchSize;
    const int64_t t0 = NowNs();
    std::vector<QueryResult> results = engine.ExecuteBatch(std::move(batch));
    out.measured_s += static_cast<double>(NowNs() - t0) / 1e9;
    for (size_t i = 0; i < results.size(); ++i) {
      if (ctx.Judge(n + i, results[i])) ++out.completed;
    }
    n += kBatchSize;
  } while (NowNs() < end);
  out.counted = out.completed;
  out.next_seq = n;
  return out;
}

// ------------------------------------------------------------ untraced --

struct RunConfig {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 15.0;
  bool smoke = false;
  std::string serve;  ///< pverify_serve binary
  std::string out;    ///< output directory
  std::string dataset_file;
};

// Shares of --seconds; setup is extra. After the warm-up (a tenth), rtt,
// load and peak run as interleaved rounds of about kRoundSeconds (see
// Rounds), each after a sample of the host's speed. The shared host's
// speed swings by 20-60% from one second to the next, and many short
// rounds sample those swings better than a few long ones. Durations below
// are per round.
constexpr double kRoundSeconds = 1.0;

struct Phases {
  size_t rounds;
  double warmup, rtt, load, peak;
  explicit Phases(double s)
      : rounds(std::max<size_t>(
            1, static_cast<size_t>(0.9 * s / kRoundSeconds))),
        warmup(0.1 * s),
        rtt(0.2 * 0.9 * s / rounds),
        load(0.5 * 0.9 * s / rounds),
        peak(0.3 * 0.9 * s / rounds) {}
};

size_t SetupRepeats(const RunConfig& cfg) { return cfg.smoke ? 2 : 9; }

std::vector<std::string> DaemonArgs(const RunConfig& cfg) {
  std::vector<std::string> args = {"--dataset=" + cfg.dataset_file,
                                   "--threads=" + std::to_string(kThreads)};
  if (cfg.spec->cache > 0) {
    args.push_back("--cache=" + std::to_string(cfg.spec->cache));
  }
  if (cfg.spec->sharded_dual) {
    args.push_back("--dim2=" + std::to_string(kDim2Objects));
    args.push_back("--shards=" + std::to_string(kShards));
    args.push_back("--policy=range");
  }
  return args;
}

// Stream positions of the untraced phases. Warm-up, rtt, load and peak
// each walk their own quarter of the stream, continuing across rounds, so
// the load slices ask the same requests in every run with the same seed,
// and the closed-loop phases nearly so, however fast the host ran the
// phases before them.
struct PhaseStreams {
  uint64_t warmup, rtt, load, peak;
  explicit PhaseStreams(const Workload& w)
      : warmup(0),
        rtt(w.StreamLength() / 4),
        load(w.StreamLength() / 2),
        peak(3 * w.StreamLength() / 4) {}
};

std::unique_ptr<Daemon> StartDaemon(const RunConfig& cfg,
                                    const std::string& suffix = "") {
  const std::string tag = cfg.out + "/daemon-" + cfg.spec->name + suffix;
  return std::make_unique<Daemon>(cfg.serve, DaemonArgs(cfg), tag + ".port",
                                  tag + ".log");
}

// The rounds of an untraced run. Latencies, completions and CPU times are
// pooled over the whole run, and every time is scaled to the reference
// speed (see SampleHostSpeed) with the median of the run's per-round
// samples of it.
struct Rounds {
  Samples rtt, load, late;
  Samples host_ns;  ///< reference ns per iteration, per round
  uint64_t peak_counted = 0, load_done = 0, peak_done = 0;
  double peak_s = 0.0, load_cpu_s = 0.0, peak_cpu_s = 0.0;
  size_t rounds = 0;
  double load_wall_s = 0.0;
  double offered_qps = 0.0;
  uint64_t worst_backlog = 0;

  void Add(double host_ref_ns, const Samples& rtt_us, const OpenLoopResult& l,
           double l_cpu_s, const ClosedLoopResult& p, double p_cpu_s) {
    host_ns.Add(host_ref_ns);
    rtt.Append(rtt_us);
    load.Append(l.latency_us);
    late.Append(l.late_us);
    peak_counted += p.counted;
    peak_s += p.measured_s;
    load_done += l.completed;
    peak_done += p.completed;
    load_cpu_s += l_cpu_s;
    peak_cpu_s += p_cpu_s;
    load_wall_s += l.wall_s;
    offered_qps = l.offered_qps;
    worst_backlog = std::max(worst_backlog, l.backlog_end);
    ++rounds;
  }

  // The load-phase validity rule, over all load slices: achieved >= 98% of
  // offered, and at most one second of requests outstanding when any
  // slice's schedule ended. (Per slice, a 10 ms stall at the end of a
  // half-second slice already costs 2%.)
  double AchievedQps() const {
    return load_wall_s > 0 ? static_cast<double>(load.size()) / load_wall_s
                           : 0.0;
  }
  bool Valid() const {
    return AchievedQps() >= 0.98 * offered_qps &&
           static_cast<double>(worst_backlog) <= offered_qps;
  }

  // The end-to-end metrics into `rep`; into `extras` the latencies and the
  // throughput that the host's stalls decide (not gated, see README.md)
  // and the load generator's facts. The unscaled values go to the results
  // file as raw_metrics.
  void Emit(Samples& setup, double rss_mib, Report& rep, Report& extras) {
    const std::string host_rounds = host_ns.Json(), setups = setup.Json();
    const double host = host_ns.Median();
    const double scale = host > 0.0 ? kReferenceNs / host : 1.0;
    Report raw;
    // Adds a metric measured as `v` to `to`, multiplied by `f`.
    auto add = [&raw](Report& to, const std::string& name, double v,
                      const std::string& unit, size_t n, double f,
                      double p999 = -1.0) {
      raw.Add(name, v, unit, n);
      to.Add(name, v * f, unit, n);
      if (p999 >= 0.0) {
        raw.SetP999(p999);
        to.SetP999(p999 * f);
      }
    };
    const double cpu_load = 1e6 * load_cpu_s / std::max<double>(1, load_done);
    const double cpu_peak = 1e6 * peak_cpu_s / std::max<double>(1, peak_done);
    add(rep, "setup_s", setup.Median(), "s", setup.size(), scale);
    rep.Add("peak_rss_mb", rss_mib, "MiB", 1);
    add(rep, "rtt_p50_us", rtt.Percentile(0.50), "us", rtt.size(), scale);
    add(rep, "cpu_us_per_query", cpu_load, "us", load_done, scale);
    add(rep, "peak_cpu_us_per_query", cpu_peak, "us", peak_done, scale);
    add(extras, "serve.rtt_p99_us", rtt.Percentile(0.99), "us", rtt.size(),
        scale, rtt.Percentile(0.999));
    add(extras, "serve.load_p50_us", load.Percentile(0.50), "us", load.size(),
        scale);
    add(extras, "serve.load_p99_us", load.Percentile(0.99), "us", load.size(),
        scale, load.Percentile(0.999));
    add(extras, "serve.peak_qps",
        static_cast<double>(peak_counted) / std::max(peak_s, 1e-9), "q/s",
        peak_done, 1.0 / scale);
    extras.Add("serve.gen_late_us.p50", late.Percentile(0.50), "us",
               late.size());
    extras.Add("serve.gen_late_us.p99", late.Percentile(0.99), "us",
               late.size());
    extras.Add("serve.backlog_end", static_cast<double>(worst_backlog),
               "count", rounds);
    rep.Fact("raw_metrics", raw.MetricsJson());
    rep.Fact("host_speed", "{\"reference_ns\": " + Num(host) +
                               ", \"scale\": " + Num(scale) +
                               ", \"per_round\": " + host_rounds + "}");
    rep.Fact("setup_runs_s", setups);
    rep.Fact("load_phase",
             "{\"rounds\": " + std::to_string(rounds) +
                 ", \"offered_qps\": " + Num(offered_qps) +
                 ", \"achieved_qps\": " + Num(AchievedQps()) +
                 ", \"worst_backlog_end\": " + std::to_string(worst_backlog) +
                 ", \"valid\": " + (Valid() ? "true" : "false") + "}");
  }
};

// Set-ups beyond the first one, spread evenly between the rounds so they
// sample the host as the rounds do: true while fewer than round r's share
// of them have run.
bool SetupDue(size_t done_extra, size_t r, size_t rounds, size_t extra) {
  return done_extra < (r + 1) * extra / rounds;
}

// The serving workloads: the real daemon, driven from outside. Returns the
// load phase's validity.
bool RunServingUntraced(const RunConfig& cfg, const Ctx& ctx, Report& rep,
                        Report& extras) {
  const Phases ph(cfg.seconds);
  const size_t extra_setups = SetupRepeats(cfg) - 1;
  IdleSpinners spinners;
  Samples setup;
  std::unique_ptr<Daemon> daemon = StartDaemon(cfg);
  setup.Add(daemon->setup_s());
  const uint16_t port = daemon->port();
  const pid_t pid = daemon->pid();

  // Warm-up fills the memo and the scratch arenas. A small closed-loop
  // window keeps queues short, so the footprint read after it does not
  // depend on how long the host stalled the daemon.
  PhaseStreams at(ctx.w);
  RunClosedLoopNet(port, ctx, at.warmup, ph.warmup, kConns, 4);
  const double rss = VmHwmMiB(pid);
  Rounds rounds;
  for (size_t r = 0; r < ph.rounds; ++r) {
    while (SetupDue(setup.size() - 1, r, ph.rounds, extra_setups)) {
      setup.Add(StartDaemon(cfg, "-setup")->setup_s());
    }
    const double host_ns = SampleHostSpeed(kHostSampleSeconds);
    Samples rtt = RunRttNet(port, ctx, &at.rtt, ph.rtt);
    const double cpu0 = CpuSeconds(pid);
    OpenLoopResult load = RunOpenLoopNet(port, ctx, at.load,
                                         cfg.spec->nominal_qps, ph.load,
                                         kConns, false);
    const double cpu1 = CpuSeconds(pid);
    ClosedLoopResult peak =
        RunClosedLoopNet(port, ctx, at.peak, ph.peak, kConns, kPeakWindow);
    rounds.Add(host_ns, rtt, load, cpu1 - cpu0, peak, CpuSeconds(pid) - cpu1);
    at.load = load.next_seq;
    at.peak = peak.next_seq;
  }
  daemon.reset();
  rounds.Emit(setup, rss, rep, extras);
  return rounds.Valid();
}

// batch_inproc: the library in this process. rtt is Engine::Execute on one
// thread, load is Engine::Submit at the nominal rate, peak is back-to-back
// ExecuteBatch(1024). CPU per query is this process's, spinners excluded.
bool RunBatchUntraced(const RunConfig& cfg, const Ctx& ctx, Report& rep,
                      Report& extras) {
  const Phases ph(cfg.seconds);
  const size_t extra_setups = SetupRepeats(cfg) - 1;
  IdleSpinners spinners;
  // This process's CPU time without the spinners'.
  auto cpu_seconds = [&spinners] {
    return CpuSeconds(getpid()) - spinners.CpuSeconds();
  };
  Samples setup;
  EngineOptions options;
  options.num_threads = kThreads;
  auto set_up = [&] {
    const int64_t t0 = NowNs();
    auto e = std::make_unique<QueryEngine>(
        datagen::LoadDataset(cfg.dataset_file), options);
    setup.Add(static_cast<double>(NowNs() - t0) / 1e9);
    return e;
  };
  std::unique_ptr<QueryEngine> engine = set_up();

  PhaseStreams at(ctx.w);
  RunBatchLoop(*engine, ctx, at.warmup, ph.warmup);
  const double rss = VmHwmMiB(getpid());
  Rounds rounds;
  for (size_t r = 0; r < ph.rounds; ++r) {
    while (SetupDue(setup.size() - 1, r, ph.rounds, extra_setups)) set_up();
    const double host_ns = SampleHostSpeed(kHostSampleSeconds);
    Samples rtt = RunRttEngine(*engine, ctx, &at.rtt, ph.rtt);
    const double cpu0 = cpu_seconds();
    OpenLoopResult load = RunOpenLoopEngine(
        *engine, ctx, at.load, cfg.spec->nominal_qps, ph.load, kConns, false);
    const double cpu1 = cpu_seconds();
    ClosedLoopResult peak = RunBatchLoop(*engine, ctx, at.peak, ph.peak);
    rounds.Add(host_ns, rtt, load, cpu1 - cpu0, peak, cpu_seconds() - cpu1);
    at.load = load.next_seq;
    at.peak = peak.next_seq;
  }
  rounds.Emit(setup, rss, rep, extras);
  return rounds.Valid();
}

// --------------------------------------------------------------- tracing --

// Spans are recorded around public calls made from this file. A child's
// `parent` names the span it is subtracted from for self time; parent and
// child share the request id (the stream position) even when the layer
// replays ran one after the other.
enum SpanKind : uint16_t {
  kNoSpan,
  kFilter,
  kBuild,
  kSubregion,
  kVerifyRs,
  kVerifyLsr,
  kVerifyUsr,
  kRefine,
  kCoreExecute,
  kKnn,
  kPoint2D,
  kKnn2D,
  kKnnEdge,
  kEngineExecute,
  kSubmit,
  kCacheExecute,
  kShardedExecute,
  kRoundtrip,
  kSpanKinds,
};

struct SpanInfo {
  const char* name;
  SpanKind parent;
};

constexpr SpanInfo kSpanInfo[kSpanKinds] = {
    {"", kNoSpan},
    {"spatial.filter", kCoreExecute},
    {"core.build_candidates", kCoreExecute},
    {"core.subregion_table", kCoreExecute},
    {"core.verify_rs", kCoreExecute},
    {"core.verify_lsr", kCoreExecute},
    {"core.verify_usr", kCoreExecute},
    {"core.refine", kCoreExecute},
    {"core.execute", kEngineExecute},
    {"core.knn", kNoSpan},
    {"core.point2d", kNoSpan},
    {"core.knn2d", kNoSpan},
    {"core.knn_edge", kNoSpan},
    {"engine.execute", kNoSpan},
    {"engine.submit", kRoundtrip},
    {"engine.cache_execute", kNoSpan},
    {"engine.sharded_execute", kNoSpan},
    {"net.roundtrip", kNoSpan},
};

struct Span {
  uint64_t request_id;
  int64_t start_ns;
  int64_t end_ns;
  SpanKind name;
  SpanKind parent;
};

// Span buffer preallocated up front; recording never allocates (spans past
// the capacity are counted as dropped).
class Tracer {
 public:
  explicit Tracer(size_t capacity) { spans_.reserve(capacity); }

  void Record(SpanKind name, uint64_t id, int64_t start, int64_t end) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return;
    }
    spans_.push_back(Span{id, start, end, name, kSpanInfo[name].parent});
  }
  void Clear() { spans_.clear(); }
  size_t size() const { return spans_.size(); }
  size_t dropped() const { return dropped_; }

  Samples Durations(SpanKind name) const {
    Samples out;
    for (const Span& s : spans_) {
      if (s.name == name) {
        out.Add(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      }
    }
    return out;
  }
  std::unordered_map<uint64_t, int64_t> DurationById(SpanKind name) const {
    std::unordered_map<uint64_t, int64_t> out;
    for (const Span& s : spans_) {
      if (s.name == name) out[s.request_id] += s.end_ns - s.start_ns;
    }
    return out;
  }
  // Each `name` span's duration minus those of `other` spans with the same
  // request id; spans with no such partner are skipped. With other = the
  // children (spans whose parent is `name`) this is self time.
  Samples Minus(SpanKind name, const std::unordered_map<uint64_t, int64_t>&
                                   other) const {
    Samples out;
    for (const Span& s : spans_) {
      if (s.name != name) continue;
      auto it = other.find(s.request_id);
      if (it == other.end()) continue;
      out.Add(static_cast<double>(s.end_ns - s.start_ns - it->second) / 1e3);
    }
    return out;
  }
  Samples SelfTimes(SpanKind name) const {
    std::unordered_map<uint64_t, int64_t> children;
    for (const Span& s : spans_) {
      if (s.parent == name) children[s.request_id] += s.end_ns - s.start_ns;
    }
    return Minus(name, children);
  }

  bool WriteJsonl(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\": \"%s\", \"request_id\": %llu, \"start_ns\": "
                   "%lld, \"end_ns\": %lld, \"parent\": %s%s%s}\n",
                   kSpanInfo[s.name].name,
                   static_cast<unsigned long long>(s.request_id),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   s.parent == kNoSpan ? "" : "\"",
                   s.parent == kNoSpan ? "null" : kSpanInfo[s.parent].name,
                   s.parent == kNoSpan ? "" : "\"");
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  size_t dropped_ = 0;
};

// Work counts of the decomposed verifier chain.
struct CoreCounters {
  size_t queries = 0;
  size_t candidates = 0;
  size_t subregions = 0;
  size_t entering[3] = {0, 0, 0};  ///< unknown candidates entering a stage
  size_t decided[3] = {0, 0, 0};   ///< of those, decided by the stage
  size_t integrations = 0;
  size_t finished_after_verify = 0;
  size_t fidelity_failures = 0;
};

// One 1-D point request through the public calls CpnnExecutor::Execute is
// made of (filter → candidates → subregion table → RS / L-SR / U-SR with
// classification → refinement), each timed; returns the answer ids.
std::vector<ObjectId> DecomposedExecute(const CpnnExecutor& exec,
                                        const PoolEntry& e, uint64_t n,
                                        QueryScratch& scratch, Tracer& tr,
                                        CoreCounters& cc) {
  static const SpanKind kStageSpan[3] = {kVerifyRs, kVerifyLsr, kVerifyUsr};
  RsVerifier rs;
  LsrVerifier lsr;
  UsrVerifier usr;
  Verifier* chain[3] = {&rs, &lsr, &usr};
  const QueryOptions opt = OptionsOf(e);

  const int64_t t0 = NowNs();
  FilterResult fr = exec.Filter(e.q);
  const int64_t t1 = NowNs();
  tr.Record(kFilter, n, t0, t1);
  CandidateSet cands = CandidateSet::Build1D(exec.dataset(), fr.candidates,
                                             e.q, 1, &scratch.candidates);
  const int64_t t2 = NowNs();
  tr.Record(kBuild, n, t1, t2);
  cc.candidates += cands.size();
  std::vector<ObjectId> ids;
  if (!cands.empty()) {
    SubregionTable::BuildInto(cands, &scratch.table);
    scratch.context.Reset(&cands, &scratch.table);
    int64_t ts = NowNs();
    tr.Record(kSubregion, n, t2, ts);
    cc.subregions += scratch.table.num_subregions();
    size_t unknown = ClassifyAll(cands, opt.params);
    for (int s = 0; s < 3 && unknown > 0; ++s) {
      cc.entering[s] += unknown;
      chain[s]->Apply(scratch.context);
      const size_t after = ClassifyAll(cands, opt.params);
      cc.decided[s] += unknown - after;
      unknown = after;
      const int64_t te = NowNs();
      tr.Record(kStageSpan[s], n, ts, te);
      ts = te;
    }
    if (unknown == 0) {
      ++cc.finished_after_verify;
    } else {
      RefineStats rst = IncrementalRefine(scratch.context, opt.params,
                                          opt.integration, opt.refine_order,
                                          &scratch);
      tr.Record(kRefine, n, ts, NowNs());
      cc.integrations += rst.subregion_integrations;
    }
    ids = cands.SatisfyingIds();
    std::sort(ids.begin(), ids.end());
  }
  scratch.candidates.Recycle(std::move(cands));
  return ids;
}

QueryResult KnnResult(CknnAnswer&& a) {
  QueryResult r;
  r.ids = a.ids;
  r.knn = std::move(a);
  return r;
}

// A request of a kind the engines serve outside the 1-D point path; taken
// from the workload's stream when its pool has the kind, else drawn from
// the seed (then there is no expected answer to check against).
struct Probe {
  uint64_t n;
  PoolEntry e;
  bool checked;
};

std::vector<Probe> ProbesOf(const Workload& w, QueryKind kind, size_t cap,
                            Rng& rng) {
  std::vector<Probe> out;
  if (w.HasKind(kind)) {
    for (uint64_t n = 0; out.size() < cap; ++n) {
      if (w.At(n).kind == kind) out.push_back(Probe{n, w.At(n), true});
    }
    return out;
  }
  for (size_t i = 0; i < cap; ++i) {
    PoolEntry e;
    e.kind = kind;
    e.q = rng.Uniform(0.0, 10000.0);
    e.q2 = Point2{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)};
    e.k = kKnnK;
    out.push_back(Probe{(1ULL << 40) + i, e, false});
  }
  return out;
}

void RunProbes(const Executors& ex, const Ctx& ctx,
               const std::vector<Probe>& probes, SpanKind span,
               double budget_s, Tracer& tr) {
  const int64_t deadline = NowNs() + SecondsToNs(budget_s);
  for (const Probe& p : probes) {
    if (NowNs() > deadline) break;
    const QueryOptions o = OptionsOf(p.e);
    const int64_t t0 = NowNs();
    QueryResult r;
    if (span == kKnn) {
      r = KnnResult(
          ex.exec->ExecuteKnn(p.e.q, p.e.k, p.e.params, o.integration));
    } else if (span == kPoint2D) {
      r.ids = ex.exec2d->Execute(p.e.q2, o).ids;
    } else {
      r = KnnResult(
          ex.exec2d->ExecuteKnn(p.e.q2, p.e.k, p.e.params, o.integration));
    }
    tr.Record(span, p.n, t0, NowNs());
    if (p.checked) {
      ++ctx.tally.attempted;
      ctx.Judge(p.n, r);
    }
  }
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// The daemon's engine stack below the cache: dual-mode when the workload
// serves 2-D kinds.
std::unique_ptr<QueryEngine> MakeQueryEngine(const Executors& ex, bool dual) {
  EngineOptions eo;
  eo.num_threads = kThreads;
  if (dual) {
    return std::make_unique<QueryEngine>(Dataset(*ex.data),
                                         Dataset2D(*ex.data2d), eo);
  }
  return std::make_unique<QueryEngine>(Dataset(*ex.data), eo);
}

// The traced run: each layer's public call replayed on the workload's
// request stream, then the serving path measured from outside. Sections
// share --seconds by the fixed budgets below. Returns false when the
// decomposed chain disagrees with CpnnExecutor::Execute or the trace file
// cannot be written; *load_valid receives the serving load phase's
// validity.
bool RunTraced(const RunConfig& cfg, const Ctx& ctx, const Executors& ex,
               Report& rep, bool* load_valid) {
  const double budget = cfg.seconds;
  const Workload& w = ctx.w;
  const bool dual = cfg.spec->sharded_dual;
  const double qps = cfg.spec->nominal_qps;
  Tracer tr(cfg.smoke ? 50000 : 400000);
  Rng probe_rng(cfg.seed * 0x2545F4914F6CDD1DULL + 17);
  auto deadline = [&](double share) {
    return NowNs() + SecondsToNs(share * budget);
  };

  // Set-up layers: dataset parse and R-tree bulk load.
  Samples load_s, rtree_s;
  for (int k = 0; k < 3; ++k) {
    int64_t t0 = NowNs();
    Dataset d = datagen::LoadDataset(cfg.dataset_file);
    load_s.Add(static_cast<double>(NowNs() - t0) / 1e9);
    t0 = NowNs();
    CpnnExecutor built(std::move(d));
    rtree_s.Add(static_cast<double>(NowNs() - t0) / 1e9);
  }

  // Core and engine: the decomposed chain, CpnnExecutor::Execute and
  // Engine::Execute on the same 1-D point requests. An untimed pass first
  // brings both dataset copies into cache, so the three timed passes are
  // compared warm; their order rotates.
  const size_t core_cap = cfg.smoke ? 256 : 4096;
  std::vector<uint64_t> point_ids;
  for (uint64_t n = 0; point_ids.size() < core_cap; ++n) {
    if (w.At(n).kind == QueryKind::kPoint) point_ids.push_back(n);
  }
  std::unique_ptr<QueryEngine> engine = MakeQueryEngine(ex, dual);
  CoreCounters cc;
  {
    QueryScratch scratch;
    const int64_t end = deadline(0.3);
    for (uint64_t n : point_ids) {
      if (NowNs() > end) break;
      const PoolEntry& e = w.At(n);
      std::vector<ObjectId> decomposed;
      QueryAnswer answer;
      QueryResult served;
      ex.exec->Execute(e.q, OptionsOf(e), &scratch);
      engine->Execute(RequestOf(e));
      for (size_t pass = 0; pass < 3; ++pass) {
        const int64_t t0 = NowNs();
        switch ((pass + cc.queries) % 3) {
          case 0:
            decomposed = DecomposedExecute(*ex.exec, e, n, scratch, tr, cc);
            break;
          case 1: {
            QueryAnswer a = ex.exec->Execute(e.q, OptionsOf(e), &scratch);
            tr.Record(kCoreExecute, n, t0, NowNs());
            answer = std::move(a);
            break;
          }
          default: {
            QueryResult r = engine->Execute(RequestOf(e));
            tr.Record(kEngineExecute, n, t0, NowNs());
            served = std::move(r);
            break;
          }
        }
      }
      ++cc.queries;
      ++ctx.tally.attempted;
      if (decomposed != answer.ids) ++cc.fidelity_failures;
      ctx.Judge(n, served);
    }
  }

  // Other kinds, on their own executors.
  const size_t knn_cap = cfg.smoke ? 8 : 64;
  RunProbes(ex, ctx, ProbesOf(w, QueryKind::kKnn, knn_cap, probe_rng), kKnn,
            0.03 * budget, tr);
  RunProbes(ex, ctx, ProbesOf(w, QueryKind::kPoint2D, 512, probe_rng),
            kPoint2D, 0.025 * budget, tr);
  RunProbes(ex, ctx, ProbesOf(w, QueryKind::kKnn2D, 256, probe_rng), kKnn2D,
            0.025 * budget, tr);

  // 1-D k-NN at the edges of the domain, which mixed_sharded's stream
  // leaves out: at q = 9997 one such request takes 100-200x the interior
  // median, so this probe keeps that cost visible.
  {
    const double kEdges[] = {0.0, 50.0, 9950.0, 9997.0};
    const QueryOptions o = OptionsOf(PoolEntry{});
    for (size_t i = 0; i < std::size(kEdges); ++i) {
      const int64_t t0 = NowNs();
      ex.exec->ExecuteKnn(kEdges[i], kKnnK, o.params, o.integration);
      tr.Record(kKnnEdge, (1ULL << 41) + i, t0, NowNs());
    }
  }

  // Batch efficiency: Σ core.execute time of a batch's requests over
  // threads × the ExecuteBatch wall time.
  Samples efficiency;
  {
    const auto core_ns = tr.DurationById(kCoreExecute);
    std::vector<uint64_t> ids;
    double core_sum = 0.0;
    for (uint64_t n : point_ids) {
      auto it = core_ns.find(n);
      if (it == core_ns.end() || ids.size() == kBatchSize) continue;
      ids.push_back(n);
      core_sum += static_cast<double>(it->second);
    }
    for (int k = 0; k < 3 && !ids.empty(); ++k) {
      std::vector<QueryRequest> batch;
      for (uint64_t n : ids) batch.push_back(RequestOf(w.At(n)));
      ctx.tally.attempted += ids.size();
      const int64_t t0 = NowNs();
      std::vector<QueryResult> results = engine->ExecuteBatch(std::move(batch));
      const double wall = static_cast<double>(NowNs() - t0);
      for (size_t i = 0; i < ids.size(); ++i) ctx.Judge(ids[i], results[i]);
      efficiency.Add(core_sum / (static_cast<double>(kThreads) * wall));
    }
  }

  // Engine::Submit at the nominal rate: scheduled slot → future ready.
  OpenLoopResult submit =
      RunOpenLoopEngine(*engine, ctx, 0, qps, 0.08 * budget, 1, true);
  for (const Rec& r : submit.recs) tr.Record(kSubmit, r.n, r.start, r.end);
  const SubmitQueueStats sq = engine->SubmitStats();

  // Cache tier: the stream through a CachingEngine as the daemon's
  // --cache=4096 would build it, then probes that re-ask a just-answered
  // request (a guaranteed hit).
  Samples cache_hit_us, cache_miss_us;
  CacheStats cs;
  size_t cache_requests = 0;
  {
    CachingEngineOptions co;
    co.capacity = 4096;
    CachingEngine cache(MakeQueryEngine(ex, dual), co);
    const int64_t end = deadline(0.1);
    const size_t cap = cfg.smoke ? 2048 : 16384;
    for (uint64_t n = 0; n < cap && NowNs() < end; ++n) {
      QueryRequest req = RequestOf(w.At(n));
      ++ctx.tally.attempted;
      const int64_t t0 = NowNs();
      QueryResult r = cache.Execute(std::move(req));
      const int64_t t1 = NowNs();
      tr.Record(kCacheExecute, n, t0, t1);
      if (!r.stats.served_from_cache) {
        cache_miss_us.Add(static_cast<double>(t1 - t0) / 1e3);
      }
      ctx.Judge(n, r);
      ++cache_requests;
    }
    cs = cache.GetCacheStats();
    const size_t probes = std::min<size_t>(256, cache_requests);
    for (size_t i = 0; i < probes; ++i) {
      const uint64_t n = i * (cache_requests / probes);
      cache.Execute(RequestOf(w.At(n)));
      ctx.tally.attempted += 2;
      const int64_t t0 = NowNs();
      QueryResult r = cache.Execute(RequestOf(w.At(n)));
      cache_hit_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
      ctx.Judge(n, r);
    }
  }

  // Scatter/gather: the daemon's --shards=4 --policy=range composition.
  std::vector<std::pair<uint64_t, QueryResult>> kept;
  double prune_ratio = 0.0;
  {
    ShardedEngineOptions so;
    so.num_shards = kShards;
    so.num_threads = kThreads;
    so.policy = std::make_shared<const RangeShardingPolicy>(
        RangeShardingPolicy::ForDataset(*ex.data));
    std::unique_ptr<ShardedQueryEngine> sharded =
        dual ? std::make_unique<ShardedQueryEngine>(
                   Dataset(*ex.data), Dataset2D(*ex.data2d), so)
             : std::make_unique<ShardedQueryEngine>(Dataset(*ex.data), so);
    const int64_t end = deadline(0.1);
    const size_t cap = cfg.smoke ? 1024 : 8192;
    for (uint64_t n = 0; n < cap && NowNs() < end; ++n) {
      QueryRequest req = RequestOf(w.At(n));
      ++ctx.tally.attempted;
      const int64_t t0 = NowNs();
      QueryResult r = sharded->Execute(std::move(req));
      tr.Record(kShardedExecute, n, t0, NowNs());
      ctx.Judge(n, r);
      if (kept.size() < 4096) kept.emplace_back(n, std::move(r));
    }
    prune_ratio = Ratio(static_cast<double>(sharded->ShardsPruned()),
                        static_cast<double>(sharded->ShardVisits() +
                                            sharded->ShardsPruned()));
  }

  // Wire codecs on those requests and results.
  Samples enc_req, dec_req, enc_res, dec_res, req_bytes, res_bytes;
  {
    const int64_t end = deadline(0.03);
    for (const auto& [n, result] : kept) {
      if (NowNs() > end) break;
      QueryRequest req = RequestOf(w.At(n));
      int64_t t0 = NowNs();
      net::WireWriter wr;
      net::EncodeRequest(req, wr);
      int64_t t1 = NowNs();
      net::WireReader rd(wr.bytes().data(), wr.size());
      QueryRequest back = net::DecodeRequest(rd);
      rd.ExpectEnd();
      int64_t t2 = NowNs();
      enc_req.Add(static_cast<double>(t1 - t0) / 1e3);
      dec_req.Add(static_cast<double>(t2 - t1) / 1e3);
      req_bytes.Add(static_cast<double>(wr.size()));
      t0 = NowNs();
      net::WireWriter wres;
      net::EncodeResult(result, wres);
      t1 = NowNs();
      net::WireReader rres(wres.bytes().data(), wres.size());
      QueryResult decoded = net::DecodeResult(rres);
      rres.ExpectEnd();
      t2 = NowNs();
      enc_res.Add(static_cast<double>(t1 - t0) / 1e3);
      dec_res.Add(static_cast<double>(t2 - t1) / 1e3);
      res_bytes.Add(static_cast<double>(wres.size()));
      ++ctx.tally.attempted;
      ctx.Judge(n, decoded);
    }
  }

  // In-process net::Server + Client at the nominal rate, the same stream
  // positions as the Submit replay: roundtrip minus engine.submit.
  net::ServerStats server_stats;
  {
    net::Server server(*engine);
    server.Start();
    OpenLoopResult rt =
        RunOpenLoopNet(server.port(), ctx, 0, qps, 0.08 * budget, 1, true);
    for (const Rec& r : rt.recs) tr.Record(kRoundtrip, r.n, r.start, r.end);
    server_stats = server.stats();
    server.Stop();
  }

  // The serving path from outside (the daemon; batch_inproc: this process).
  Report serve_rep, serve_extras;
  RunConfig serve_cfg = cfg;
  serve_cfg.seconds = 0.15 * budget;
  serve_cfg.smoke = true;  // two set-ups are enough here
  const bool serve_valid =
      cfg.spec->mix == Mix::kBatch
          ? RunBatchUntraced(serve_cfg, ctx, serve_rep, serve_extras)
          : RunServingUntraced(serve_cfg, ctx, serve_rep, serve_extras);

  // Span-recording overhead: the cost of one Record between two clock
  // reads, over a loop long enough to be measured. (Against a timed loop of
  // CpnnExecutor::Execute the same ~tens of ns are far below run-to-run
  // noise, so that comparison cannot resolve it.)
  double overhead_ns = 0.0;
  {
    const size_t m = 100000;
    Tracer probe(m);
    Samples rounds;
    for (int round = 0; round < 5; ++round) {
      probe.Clear();
      const int64_t t0 = NowNs();
      for (size_t i = 0; i < m; ++i) {
        const int64_t s = NowNs();
        probe.Record(kCoreExecute, i, s, NowNs());
      }
      rounds.Add(static_cast<double>(NowNs() - t0) / static_cast<double>(m));
    }
    overhead_ns = rounds.Median();
  }

  // ---- per-layer metrics
  const double q = static_cast<double>(std::max<size_t>(1, cc.queries));
  rep.Add("datagen.load_dataset_s", load_s.Median(), "s", load_s.size());
  rep.Add("spatial.rtree_build_s", rtree_s.Median(), "s", rtree_s.size());
  Samples filter = tr.Durations(kFilter);
  rep.AddLayer("spatial.filter_us", filter, true);
  rep.Add("spatial.candidates_mean", static_cast<double>(cc.candidates) / q,
          "count", cc.queries);
  Samples build = tr.Durations(kBuild);
  rep.AddLayer("core.build_candidates_us", build, true);
  Samples subregion = tr.Durations(kSubregion);
  rep.AddLayer("core.subregion_table_us", subregion, true);
  rep.Add("core.subregions_mean", static_cast<double>(cc.subregions) / q,
          "count", cc.queries);
  const char* stage_names[3] = {"rs", "lsr", "usr"};
  const SpanKind stage_spans[3] = {kVerifyRs, kVerifyLsr, kVerifyUsr};
  for (int s = 0; s < 3; ++s) {
    Samples d = tr.Durations(stage_spans[s]);
    rep.AddLayer(std::string("core.verify_") + stage_names[s] + "_us", d,
                 false);
  }
  for (int s = 0; s < 3; ++s) {
    rep.Add(std::string("core.decided_") + stage_names[s] + "_ratio",
            Ratio(static_cast<double>(cc.decided[s]),
                  static_cast<double>(cc.entering[s])),
            "ratio", cc.entering[s]);
  }
  Samples refine = tr.Durations(kRefine);
  rep.AddLayer("core.refine_us", refine, true);
  rep.Add("core.refine_integrations_mean",
          static_cast<double>(cc.integrations) / q, "count", cc.queries);
  rep.Add("core.finished_after_verify_ratio",
          static_cast<double>(cc.finished_after_verify) / q, "ratio",
          cc.queries);
  Samples core_exec = tr.Durations(kCoreExecute);
  rep.AddLayer("core.execute_us", core_exec, true);
  Samples core_self = tr.SelfTimes(kCoreExecute);
  rep.AddLayer("core.self_us", core_self, false);
  Samples knn = tr.Durations(kKnn), p2d = tr.Durations(kPoint2D),
          knn2d = tr.Durations(kKnn2D);
  rep.AddLayer("core.knn_us", knn, false);
  rep.AddLayer("core.point2d_us", p2d, false);
  rep.AddLayer("core.knn2d_us", knn2d, false);
  Samples knn_edge = tr.Durations(kKnnEdge);
  rep.Add("core.knn_edge_us.max", knn_edge.Percentile(1.0), "us",
          knn_edge.size());
  Samples eng_exec = tr.Durations(kEngineExecute);
  rep.AddLayer("engine.execute_us", eng_exec, true);
  Samples eng_self = tr.SelfTimes(kEngineExecute);
  rep.AddLayer("engine.self_us", eng_self, false);
  rep.Add("engine.batch_efficiency", efficiency.Median(), "ratio",
          efficiency.size());
  Samples submit_us = tr.Durations(kSubmit);
  rep.AddLayer("engine.submit_us", submit_us, true);
  Samples queue_wait = tr.Minus(kSubmit, tr.DurationById(kCoreExecute));
  rep.AddLayer("engine.queue_wait_us", queue_wait, false);
  rep.Add("engine.coalesced_mean",
          Ratio(static_cast<double>(sq.requests),
                static_cast<double>(sq.batches)),
          "count", sq.batches);
  rep.Add("engine.coalesced_max", static_cast<double>(sq.max_coalesced),
          "count", sq.batches);
  const double lookups = static_cast<double>(cs.hits + cs.misses + cs.rechecks);
  rep.Add("engine.cache_hit_ratio",
          Ratio(static_cast<double>(cs.hits), lookups), "ratio",
          cache_requests);
  rep.Add("engine.cache_recheck_ratio",
          Ratio(static_cast<double>(cs.rechecks), lookups), "ratio",
          cache_requests);
  rep.Add("engine.cache_evictions_per_kreq",
          1000.0 * Ratio(static_cast<double>(cs.evictions),
                         static_cast<double>(cache_requests)),
          "count", cache_requests);
  rep.Add("engine.cache_bytes", static_cast<double>(cs.bytes), "bytes", 1);
  rep.AddLayer("engine.cache_hit_us", cache_hit_us, false);
  rep.AddLayer("engine.cache_miss_us", cache_miss_us, false);
  rep.Add("engine.shard_prune_ratio", prune_ratio, "ratio", kept.size());
  Samples sharded_us = tr.Durations(kShardedExecute);
  rep.AddLayer("engine.sharded_execute_us", sharded_us, false);
  rep.AddLayer("net.encode_request_us", enc_req, false);
  rep.AddLayer("net.decode_request_us", dec_req, false);
  rep.AddLayer("net.encode_result_us", enc_res, false);
  rep.AddLayer("net.decode_result_us", dec_res, false);
  rep.Add("net.request_bytes_mean", req_bytes.Mean(), "bytes",
          req_bytes.size());
  rep.Add("net.response_bytes_mean", res_bytes.Mean(), "bytes",
          res_bytes.size());
  Samples roundtrip = tr.Durations(kRoundtrip);
  rep.AddLayer("net.roundtrip_us", roundtrip, true);
  Samples net_self = tr.SelfTimes(kRoundtrip);
  rep.AddLayer("net.self_us", net_self, false);
  rep.Add("net.overload_rejections",
          static_cast<double>(server_stats.overload_rejections), "count", 1);
  rep.Add("net.deadline_expirations",
          static_cast<double>(server_stats.deadline_expirations), "count", 1);
  rep.Add("net.request_errors",
          static_cast<double>(server_stats.request_errors), "count", 1);
  rep.AppendMetrics(serve_extras);
  rep.Add("trace.overhead_ns_per_span", overhead_ns, "ns", 5);

  const std::string trace_file =
      cfg.out + "/trace_" + std::string(cfg.spec->name) + ".jsonl";
  const bool written = tr.WriteJsonl(trace_file);
  rep.Fact("trace", "{\"file\": " + Quote(trace_file) +
                        ", \"spans\": " + std::to_string(tr.size()) +
                        ", \"dropped\": " + std::to_string(tr.dropped()) +
                        ", \"fidelity_checked\": " +
                        std::to_string(cc.queries) +
                        ", \"fidelity_failures\": " +
                        std::to_string(cc.fidelity_failures) + "}");
  if (cc.fidelity_failures > 0) {
    std::fprintf(stderr, "pvbench: decomposed chain disagreed with "
                 "CpnnExecutor::Execute on %zu of %zu requests\n",
                 cc.fidelity_failures, cc.queries);
  }
  *load_valid = serve_valid;
  return written && cc.fidelity_failures == 0;
}

// ------------------------------------------------------------------ main --

struct Args {
  std::string workload;
  std::string serve;
  std::string out;
  uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  bool smoke = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--serve") {
      a->serve = val;
    } else if (key == "--out") {
      a->out = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      a->trace = val == "1";
    } else if (arg == "--smoke") {
      a->smoke = true;
    } else {
      std::fprintf(stderr, "pvbench: bad argument %s\n", arg.c_str());
      return false;
    }
  }
  return !a->workload.empty() && !a->serve.empty() && !a->out.empty() &&
         a->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pvbench_driver --workload=NAME --seed=N --seconds=S "
                 "--trace=0|1 --serve=PATH --out=DIR [--smoke]\n");
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& s : kWorkloads) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "pvbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  try {
    RunConfig cfg;
    cfg.spec = spec;
    cfg.seed = args.seed;
    cfg.seconds = args.seconds;
    cfg.smoke = args.smoke;
    cfg.serve = args.serve;
    cfg.out = args.out;
    cfg.dataset_file = args.out + "/dataset.txt";

    // Inputs. The dataset is the one Long Beach stand-in (MakeSynthetic's
    // default seed), as the paper evaluates one dataset; a seeded dataset
    // makes whole runs cheaper or dearer by where its clusters fall. The
    // request pool and stream come from --seed. The oracle reads the
    // dataset back from the file the daemon loads, so both sides see
    // identical objects.
    const Workload w = MakeWorkload(*spec, args.seed, args.smoke);
    datagen::SaveDataset(datagen::MakeSynthetic(datagen::SyntheticConfig{}),
                         cfg.dataset_file);
    const Dataset data = datagen::LoadDataset(cfg.dataset_file);
    Dataset2D data2d;
    Executors ex;
    ex.data = &data;
    ex.exec = std::make_unique<CpnnExecutor>(data);
    if (spec->sharded_dual || args.trace) {
      // pverify_serve --dim2=N generates exactly this (fixed seed 13).
      datagen::Synthetic2DConfig c2;
      c2.count = kDim2Objects;
      data2d = datagen::MakeSynthetic2D(c2);
      ex.data2d = &data2d;
      ex.exec2d = std::make_unique<CpnnExecutor2D>(data2d);
    }

    const int64_t t0 = NowNs();
    const std::vector<Expected> expected = ComputeAllExpected(ex, w);
    const size_t def1_checked = std::min<size_t>(args.smoke ? 64 : 256,
                                                 w.pool.size());
    const size_t violations =
        CheckDefinition1(ex, w, expected, def1_checked);
    const double oracle_s = static_cast<double>(NowNs() - t0) / 1e9;

    Tally tally;
    const Ctx ctx{w, expected, tally};
    Report rep, extras;
    bool valid = false;
    bool traced_ok = true;
    if (args.trace) {
      traced_ok = RunTraced(cfg, ctx, ex, rep, &valid);
    } else if (spec->mix == Mix::kBatch) {
      valid = RunBatchUntraced(cfg, ctx, rep, extras);
    } else {
      valid = RunServingUntraced(cfg, ctx, rep, extras);
    }

    const bool correct = tally.wrong == 0 && violations == 0 && traced_ok;
    const uint64_t attempted = tally.attempted;
    const Phases ph(cfg.seconds);
    rep.Fact("workload", Quote(spec->name));
    rep.Fact("seed", static_cast<double>(args.seed));
    rep.Fact("mode", Quote(args.trace ? "traced" : "untraced"));
    rep.Fact("smoke", args.smoke ? "true" : "false");
    rep.Fact("correct", correct ? "true" : "false");
    rep.Fact("valid", valid ? "true" : "false");
    rep.Fact("attempted", static_cast<double>(attempted));
    rep.Fact("failed", static_cast<double>(tally.failed()));
    rep.Fact("refused", static_cast<double>(tally.refused));
    rep.Fact("dropped", static_cast<double>(tally.dropped));
    rep.Fact("wrong", static_cast<double>(tally.wrong));
    rep.Fact("error_rate", Ratio(static_cast<double>(tally.failed()),
                                 static_cast<double>(attempted)));
    rep.Fact("answers_digest", Quote(AnswersDigest(expected)));
    rep.Fact("pool_size", static_cast<double>(w.pool.size()));
    rep.Fact("definition1", "{\"checked\": " + std::to_string(def1_checked) +
                                ", \"violations\": " +
                                std::to_string(violations) + "}");
    rep.Fact("kernel_flavor", Quote(ActiveKernelFlavorName()));
    rep.Fact("oracle_s", oracle_s);
    rep.Fact("phases_s",
             "{\"setup_runs\": " + std::to_string(SetupRepeats(cfg)) +
                 ", \"rounds\": " + std::to_string(ph.rounds) +
                 ", \"warmup\": " + Num(ph.warmup) + ", \"rtt\": " +
                 Num(ph.rtt) + ", \"load\": " + Num(ph.load) +
                 ", \"peak\": " + Num(ph.peak) + "}");
    if (!args.trace) rep.Fact("extras", extras.MetricsJson());

    const std::string path = args.out + "/driver-" + spec->name + "-" +
                             (args.trace ? "traced" : "untraced") + ".json";
    std::ofstream(path) << rep.Json();
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pvbench: %s\n", e.what());
    return 2;
  }
}
