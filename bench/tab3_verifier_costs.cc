// Table III — verifier complexities: RS is O(|C|), L-SR and U-SR are
// O(|C|·M). We measure per-verifier apply time on candidate sets of growing
// size, plus the batched RefreshAllBounds pass on its own — the Eq. 4 bound
// refresh is the verifier chain's shared inner loop.
//
// Every timed region repeats until it crosses the measurement floor
// (PVERIFY_MIN_WALL_MS, default 100 ms); per-rep setup (candidate-set
// copies, label resets) stays outside the timed region. Results land in
// tab3.csv and tab3_cdf_fill.csv.
#include <cstdio>
#include <vector>

#include "bench_util/harness.h"
#include "common/timer.h"
#include "core/framework.h"

using namespace pverify;

namespace {

/// Overlapping intervals around a query at 0 so all n survive filtering.
/// `gaussian` swaps the 1-piece uniform pdfs for 300-bar Gaussian
/// histograms — the many-piece regime where the merge-scan cdf fill beats
/// per-point binary search.
Dataset MakeOverlappingDataset(size_t n, bool gaussian = false) {
  Dataset data;
  Rng rng(n);
  for (size_t i = 0; i < n; ++i) {
    double lo = rng.Uniform(0.0, 10.0);
    double hi = lo + rng.Uniform(30.0, 60.0);
    data.emplace_back(static_cast<ObjectId>(i),
                      gaussian ? MakeGaussianPdf(lo, hi)
                               : MakeUniformPdf(lo, hi));
  }
  return data;
}

/// Average time (µs) to fill all n cdf rows of the subregion table's SoA
/// layout at the M+1 sorted end-points: the seed's per-point Cdf loop vs.
/// the batched merge scan the build now uses (one pass over each distance
/// pdf's pieces; bit-identical results).
void TimedCdfFillUs(const CandidateSet& cands, const SubregionTable& tbl,
                    double min_wall_ms, double* pointwise_us,
                    double* merge_us) {
  const size_t m1 = tbl.num_subregions() + 1;
  const double* endpoints = tbl.EndpointData();
  std::vector<double> row(m1);
  for (int mode = 0; mode < 2; ++mode) {
    double ms = 0.0;
    size_t reps = 0;
    do {
      Timer t;
      for (size_t i = 0; i < cands.size(); ++i) {
        const DistanceDistribution& dist = cands[i].dist;
        if (mode == 0) {
          for (size_t j = 0; j < m1; ++j) row[j] = dist.Cdf(endpoints[j]);
        } else {
          dist.CdfSorted(endpoints, m1, row.data());
        }
      }
      ms += t.ElapsedMs();
      ++reps;
    } while (ms < min_wall_ms);
    *(mode == 0 ? pointwise_us : merge_us) =
        1000.0 * ms / static_cast<double>(reps);
  }
}

/// Average per-apply time (µs), repeated to the floor. Each rep gets an
/// unlabeled candidate-set copy and a fresh context (untimed) so every
/// Apply sees identical work.
double TimedApplyUs(Verifier& verifier, const CandidateSet& cands,
                    const SubregionTable& tbl, double min_wall_ms) {
  double ms = 0.0;
  size_t reps = 0;
  do {
    CandidateSet fresh = cands;
    VerificationContext ctx(&fresh, &tbl);
    Timer t;
    verifier.Apply(ctx);
    ms += t.ElapsedMs();
    ++reps;
  } while (ms < min_wall_ms);
  return 1000.0 * ms / static_cast<double>(reps);
}

/// Average time (µs) of one batched RefreshAllBounds pass over the whole
/// candidate set. The qlow/qup rows are populated once by the L-SR and
/// U-SR verifiers so the Eq. 4 sums run over realistic slot values; labels
/// are reset (untimed) before every rep so the pass always visits every
/// candidate.
double TimedRefreshUs(const CandidateSet& cands, const SubregionTable& tbl,
                      double min_wall_ms) {
  CandidateSet fresh = cands;
  VerificationContext ctx(&fresh, &tbl);
  LsrVerifier().Apply(ctx);
  UsrVerifier().Apply(ctx);
  double ms = 0.0;
  size_t reps = 0;
  do {
    for (size_t i = 0; i < fresh.size(); ++i) {
      fresh[i].label = Label::kUnknown;
    }
    Timer t;
    ctx.RefreshAllBounds();
    ms += t.ElapsedMs();
    ++reps;
  } while (ms < min_wall_ms);
  return 1000.0 * ms / static_cast<double>(reps);
}

std::string SpeedupCell(double before_us, double after_us) {
  if (after_us <= 0.0) return "-";
  return FormatDouble(before_us / after_us, 2) + "x";
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Table III — Verifier costs",
      "Apply time (µs) of each verifier and of the batched Eq. 4 bound\n"
      "refresh vs. candidate-set size. RS should scale with |C|; L-SR,\n"
      "U-SR and the refresh with |C|·M.");

  const double min_wall_ms = bench::MinWallMsFromEnv();
  std::printf("floor: %.0f ms per timed region\n\n", min_wall_ms);

  ResultTable table(
      {"candidates", "M", "rs_us", "lsr_us", "usr_us", "refresh_us"},
      "tab3.csv");
  ResultTable fill_table(
      {"pdf", "candidates", "M", "pdf_pieces", "pointwise_us", "merge_us",
       "fill_x"},
      "tab3_cdf_fill.csv");

  for (size_t n : {8u, 16u, 32u, 64u, 128u, 256u, 512u}) {
    Dataset data = MakeOverlappingDataset(n);
    std::vector<uint32_t> idx(n);
    for (uint32_t i = 0; i < n; ++i) idx[i] = i;
    CandidateSet cands = CandidateSet::Build1D(data, idx, 0.0);
    SubregionTable tbl = SubregionTable::Build(cands);

    // Slots 0..2 are the verifiers by StageId, 3 is RefreshAllBounds.
    double us[kNumStages + 1] = {};
    for (Verifier* v : kDefaultVerifierChain) {
      us[static_cast<size_t>(v->id())] =
          TimedApplyUs(*v, cands, tbl, min_wall_ms);
    }
    us[kNumStages] = TimedRefreshUs(cands, tbl, min_wall_ms);

    table.AddRow({FormatDouble(cands.size(), 0),
                  FormatDouble(tbl.num_subregions(), 0),
                  FormatDouble(us[0], 2), FormatDouble(us[1], 2),
                  FormatDouble(us[2], 2), FormatDouble(us[3], 2)});
  }
  table.Print();

  // Subregion-table cdf fill: the merge scan (bit-identical to the
  // pointwise loop, always on) gets its own stage rows. The
  // uniform pdfs are the 1-piece floor; the 300-bar Gaussian histograms
  // are the many-piece regime the merge scan targets.
  std::printf("\nSubregion cdf fill — per-point binary search vs. merge "
              "scan\n\n");
  for (bool gaussian : {false, true}) {
    for (size_t n : {64u, 256u}) {
      Dataset data = MakeOverlappingDataset(n, gaussian);
      std::vector<uint32_t> idx(n);
      for (uint32_t i = 0; i < n; ++i) idx[i] = i;
      CandidateSet cands = CandidateSet::Build1D(data, idx, 0.0);
      SubregionTable tbl = SubregionTable::Build(cands);
      const size_t pieces = cands[0].dist.pdf().num_pieces();
      double pointwise_us = 0.0, merge_us = 0.0;
      TimedCdfFillUs(cands, tbl, min_wall_ms, &pointwise_us, &merge_us);
      fill_table.AddRow(
          {gaussian ? "gaussian" : "uniform", FormatDouble(cands.size(), 0),
           FormatDouble(tbl.num_subregions(), 0), FormatDouble(pieces, 0),
           FormatDouble(pointwise_us, 2), FormatDouble(merge_us, 2),
           SpeedupCell(pointwise_us, merge_us)});
    }
  }
  fill_table.Print();
  return 0;
}
