// Reproduces Figures 5 & 6: a query projected onto participants' data
// spaces. Fig. 5 — supporting vs non-supporting clusters of one node.
// Fig. 6 — the data a query actually needs from 3 nodes versus the whole
// data the nodes hold (6a: query over whole node spaces; 6b: the actual
// per-node rows required).

#include <cstdio>

#include "bench_util.h"
#include "qens/common/string_util.h"
#include "qens/data/air_quality_generator.h"
#include "qens/query/selectivity_estimator.h"
#include "qens/selection/ranking.h"

using namespace qens;

int main(int argc, char** argv) {
  bench::BenchJson bjson("bench_fig56_query_projection", &argc, argv);
  bench::PrintHeader(
      "Figures 5 & 6 — query projected onto node data spaces (K = 5)");

  data::AirQualityOptions options;
  options.num_stations = 3;  // Fig. 6 uses 3 nodes.
  options.samples_per_station = 1200;
  options.heterogeneity = data::Heterogeneity::kHeterogeneous;
  options.single_feature = true;
  options.seed = 21;
  data::AirQualityGenerator generator(options);

  clustering::KMeansOptions km;
  km.k = 5;

  std::vector<selection::QuantizedNode> nodes;
  std::vector<data::Dataset> datasets;
  for (size_t s = 0; s < 3; ++s) {
    data::Dataset d =
        bench::ValueOrDie(generator.GenerateStation(s), "generate");
    km.seed = 100 + s;
    nodes.push_back(bench::ValueOrDie(
        selection::QuantizeNode(s, StrFormat("node-%zu", s), d, km),
        "quantize"));
    datasets.push_back(std::move(d));
  }

  // A query spanning the middle of the global TEMP space.
  query::HyperRectangle space =
      bench::ValueOrDie(datasets[0].FeatureSpace(), "space");
  for (size_t s = 1; s < 3; ++s) {
    space = bench::ValueOrDie(
        space.Hull(bench::ValueOrDie(datasets[s].FeatureSpace(), "fs")),
        "hull");
  }
  const double mid = 0.5 * (space.dim(0).lo + space.dim(0).hi);
  const double half = 0.22 * space.dim(0).length();
  query::RangeQuery q;
  q.id = 0;
  q.region = query::HyperRectangle(
      std::vector<query::Interval>{{mid - half, mid + half}});
  std::printf("\nquery region: %s over global TEMP space %s\n",
              q.region.ToString().c_str(), space.ToString().c_str());

  selection::RankingOptions ranking;
  ranking.epsilon = 0.15;

  std::printf(
      "\nFig. 5 — per-cluster projection (cluster bounds, overlap h, "
      "supporting?)\n");
  size_t total_all = 0, total_needed = 0;
  std::vector<size_t> node_needed(3, 0);
  for (size_t s = 0; s < 3; ++s) {
    const selection::NodeRank rank = bench::ValueOrDie(
        selection::RankNode(nodes[s].profile, q, ranking), "rank");
    std::printf("node %zu (%zu samples): ranking r = %.3f, K' = %zu / %zu\n",
                s, nodes[s].profile.total_samples, rank.ranking,
                rank.supporting_clusters, rank.total_clusters);
    for (const auto& score : rank.cluster_scores) {
      const auto& cluster = nodes[s].profile.clusters[score.cluster_id];
      std::printf("  cluster %zu: bounds %-22s size %4zu h = %.3f %s\n",
                  score.cluster_id, cluster.bounds.ToString().c_str(),
                  cluster.size, score.overlap,
                  score.supporting ? "SUPPORTING" : "-");
      if (score.supporting) node_needed[s] += cluster.size;
    }
    total_all += nodes[s].profile.total_samples;
    total_needed += node_needed[s];
  }

  std::printf("\nFig. 6a — whole data per node vs 6b — data the query needs\n");
  std::printf("%-8s %16s %18s %10s\n", "node", "whole data (6a)",
              "needed by query (6b)", "fraction");
  for (size_t s = 0; s < 3; ++s) {
    std::printf("%-8zu %16zu %18zu %9.1f%%\n", s,
                nodes[s].profile.total_samples, node_needed[s],
                100.0 * static_cast<double>(node_needed[s]) /
                    static_cast<double>(nodes[s].profile.total_samples));
  }
  std::printf("%-8s %16zu %18zu %9.1f%%\n", "total", total_all, total_needed,
              100.0 * static_cast<double>(total_needed) /
                  static_cast<double>(total_all));
  std::printf(
      "\nshape check: the query needs a strict subset of the data "
      "(%s)\n",
      bench::ShapeCheck("fig6: the query needs a strict subset",
                        total_needed < total_all));

  // Leader-side row estimates from cluster digests alone (uniform-density
  // assumption) vs the true per-node matching-row counts — what Fig. 6b
  // looks like when the leader must predict it without seeing raw data.
  std::printf(
      "\ndigest-only row estimate vs actual rows inside the query:\n");
  std::printf("%-8s %14s %12s %10s\n", "node", "estimated", "actual",
              "rel err");
  for (size_t s = 0; s < 3; ++s) {
    const query::NodeSelectivityEstimate estimate = bench::ValueOrDie(
        query::EstimateNodeSelectivity(nodes[s].profile.clusters, q),
        "estimate");
    const std::vector<size_t> actual_rows = bench::ValueOrDie(
        q.MatchingRows(datasets[s].features()), "actual rows");
    const double actual = static_cast<double>(actual_rows.size());
    const double rel =
        actual > 0 ? std::abs(estimate.estimated_rows - actual) / actual
                   : estimate.estimated_rows;
    std::printf("%-8zu %14.0f %12.0f %9.1f%%\n", s, estimate.estimated_rows,
                actual, 100.0 * rel);

    bench::BenchRecord record;
    record.name = StrFormat("node_%zu", s);
    record.values["whole_samples"] =
        static_cast<double>(nodes[s].profile.total_samples);
    record.values["needed_samples"] = static_cast<double>(node_needed[s]);
    record.values["estimated_rows"] = estimate.estimated_rows;
    record.values["actual_rows"] = actual;
    bjson.Add(std::move(record));
  }

  bench::BenchRecord totals;
  totals.name = "totals";
  totals.values["whole_samples"] = static_cast<double>(total_all);
  totals.values["needed_samples"] = static_cast<double>(total_needed);
  totals.values["needed_fraction"] =
      static_cast<double>(total_needed) / static_cast<double>(total_all);
  bjson.Add(std::move(totals));
  bjson.WriteOrDie();
  return bench::ShapeCheckExitCode();
}
