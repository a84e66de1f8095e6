// Google-benchmark micro-benchmarks for the core operations: distance-pdf
// folding, subregion-table construction, verifier passes, exact
// integration, R-tree filtering and Monte-Carlo sampling.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/basic.h"
#include "core/framework.h"
#include "core/monte_carlo.h"
#include "core/query.h"
#include "core/refine.h"
#include "datagen/synthetic.h"
#include "spatial/filter.h"

namespace pverify {
namespace {

Dataset MakeOverlapping(size_t n, uint64_t seed) {
  Dataset data;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    double lo = rng.Uniform(0.0, 10.0);
    data.emplace_back(static_cast<ObjectId>(i),
                      MakeUniformPdf(lo, lo + rng.Uniform(30.0, 60.0)));
  }
  return data;
}

CandidateSet MakeCandidates(size_t n, uint64_t seed) {
  Dataset data = MakeOverlapping(n, seed);
  std::vector<uint32_t> idx(n);
  for (uint32_t i = 0; i < n; ++i) idx[i] = i;
  return CandidateSet::Build1D(data, idx, 0.0);
}

void BM_DistanceFoldUniform(benchmark::State& state) {
  Pdf pdf = MakeUniformPdf(0.0, 50.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DistanceDistribution::From1D(pdf, 20.0));
  }
}
BENCHMARK(BM_DistanceFoldUniform);

void BM_DistanceFoldGaussian300(benchmark::State& state) {
  Pdf pdf = MakeGaussianPdf(0.0, 50.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DistanceDistribution::From1D(pdf, 20.0));
  }
}
BENCHMARK(BM_DistanceFoldGaussian300);

void BM_SubregionBuild(benchmark::State& state) {
  CandidateSet cands = MakeCandidates(state.range(0), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SubregionTable::Build(cands));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SubregionBuild)->Range(8, 512)->Complexity();

void BM_VerifierRS(benchmark::State& state) {
  CandidateSet cands = MakeCandidates(state.range(0), 5);
  SubregionTable tbl = SubregionTable::Build(cands);
  for (auto _ : state) {
    CandidateSet fresh = cands;
    VerificationContext ctx(&fresh, &tbl);
    RsVerifier().Apply(ctx);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_VerifierRS)->Range(8, 512)->Complexity();

void BM_VerifierLSR(benchmark::State& state) {
  CandidateSet cands = MakeCandidates(state.range(0), 7);
  SubregionTable tbl = SubregionTable::Build(cands);
  for (auto _ : state) {
    CandidateSet fresh = cands;
    VerificationContext ctx(&fresh, &tbl);
    LsrVerifier().Apply(ctx);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_VerifierLSR)->Range(8, 512)->Complexity();

void BM_VerifierUSR(benchmark::State& state) {
  CandidateSet cands = MakeCandidates(state.range(0), 9);
  SubregionTable tbl = SubregionTable::Build(cands);
  for (auto _ : state) {
    CandidateSet fresh = cands;
    VerificationContext ctx(&fresh, &tbl);
    UsrVerifier().Apply(ctx);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_VerifierUSR)->Range(8, 512)->Complexity();

void BM_BasicExactProbabilities(benchmark::State& state) {
  CandidateSet cands = MakeCandidates(state.range(0), 11);
  IntegrationOptions opts;
  opts.gauss_points = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeExactProbabilities(cands, opts));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BasicExactProbabilities)->Range(8, 128)->Complexity();

void BM_MonteCarlo1000(benchmark::State& state) {
  CandidateSet cands = MakeCandidates(64, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MonteCarloProbabilities(cands, {1000, 17}));
  }
}
BENCHMARK(BM_MonteCarlo1000);

void BM_RTreeFilter(benchmark::State& state) {
  Dataset data = datagen::MakeUniformScatter(state.range(0), 10000.0, 16.5,
                                             19);
  PnnFilter filter(data);
  Rng rng(21);
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.Filter(rng.Uniform(0.0, 10000.0)));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RTreeFilter)->Range(1000, 64000)->Complexity();

void BM_FilterByScan(benchmark::State& state) {
  Dataset data = datagen::MakeUniformScatter(state.range(0), 10000.0, 16.5,
                                             19);
  Rng rng(23);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        FilterKByScan(data, rng.Uniform(0.0, 10000.0), 1));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FilterByScan)->Range(1000, 64000)->Complexity();

void BM_EndToEndVR(benchmark::State& state) {
  Dataset data = datagen::MakeLongBeachLike();
  CpnnExecutor exec(data);
  Rng rng(25);
  QueryOptions opt;
  opt.params = {0.3, 0.01};
  opt.strategy = Strategy::kVR;
  opt.integration.gauss_points = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec.Execute(rng.Uniform(0.0, 10000.0), opt));
  }
}
BENCHMARK(BM_EndToEndVR);

}  // namespace
}  // namespace pverify

BENCHMARK_MAIN();
