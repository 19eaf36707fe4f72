#include "reference.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

namespace perfbench {

double RefRmse(const std::vector<double>& predictions,
               const std::vector<double>& targets) {
  if (predictions.empty() || predictions.size() != targets.size()) return 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < predictions.size(); ++i) {
    const double d = predictions[i] - targets[i];
    sum += d * d;
  }
  return std::sqrt(sum / static_cast<double>(predictions.size()));
}

namespace {

struct TopK {
  double dcg = 0.0;
  double hits = 0.0;
  int relevant = 0;
};

TopK ExpectedTopK(const std::vector<double>& predictions,
                  const std::vector<double>& truths, int k, int top_n) {
  TopK out;
  const size_t n = truths.size();
  if (n == 0 || predictions.size() != n) return out;
  std::vector<double> sorted_truths = truths;
  std::sort(sorted_truths.rbegin(), sorted_truths.rend());
  const double threshold =
      sorted_truths[std::min<size_t>(static_cast<size_t>(top_n), n) - 1];
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return predictions[a] > predictions[b];
  });
  for (double t : truths) out.relevant += t >= threshold ? 1 : 0;
  // Walk groups of equal prediction; every position of a group gets the
  // group's share of relevant items.
  for (size_t start = 0; start < n && start < static_cast<size_t>(k);) {
    size_t end = start;
    int relevant = 0;
    while (end < n && predictions[order[end]] == predictions[order[start]]) {
      relevant += truths[order[end]] >= threshold ? 1 : 0;
      ++end;
    }
    const double share = static_cast<double>(relevant) / (end - start);
    for (size_t pos = start; pos < end && pos < static_cast<size_t>(k);
         ++pos) {
      out.dcg += share / std::log2(static_cast<double>(pos) + 2.0);
      out.hits += share;
    }
    start = end;
  }
  return out;
}

}  // namespace

double RefNdcg(const std::vector<double>& predictions,
               const std::vector<double>& truths, int k, int top_n) {
  const TopK got = ExpectedTopK(predictions, truths, k, top_n);
  const int ideal = std::min({k, got.relevant, static_cast<int>(truths.size())});
  double idcg = 0.0;
  for (int i = 0; i < ideal; ++i) idcg += 1.0 / std::log2(i + 2.0);
  return idcg > 0.0 ? got.dcg / idcg : 0.0;
}

double RefPrecision(const std::vector<double>& predictions,
                    const std::vector<double>& truths, int k, int top_n) {
  if (k <= 0) return 0.0;
  return ExpectedTopK(predictions, truths, k, top_n).hits / k;
}

std::vector<Site> RefTopK(const std::vector<int>& candidates,
                          const std::vector<double>& scores, int k) {
  const std::set<int> distinct(candidates.begin(), candidates.end());
  std::vector<Site> sites;
  for (int region : distinct) sites.push_back({region, scores[region]});
  std::sort(sites.begin(), sites.end(), [](const Site& a, const Site& b) {
    return a.score != b.score ? a.score > b.score : a.region < b.region;
  });
  if (sites.size() > static_cast<size_t>(std::max(k, 0))) sites.resize(k);
  return sites;
}

std::string CheckServedRanking(const std::vector<int>& candidates,
                               const std::vector<double>& scores, int k,
                               const std::vector<Site>& served) {
  for (size_t i = 1; i < served.size(); ++i) {
    if (served[i].score > served[i - 1].score) {
      return "scores increase at rank " + std::to_string(i + 1);
    }
  }
  const std::vector<Site> expected = RefTopK(candidates, scores, k);
  if (expected.size() != served.size()) {
    return "served " + std::to_string(served.size()) + " sites, expected " +
           std::to_string(expected.size());
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (served[i].region != expected[i].region) {
      return "rank " + std::to_string(i + 1) + " is region " +
             std::to_string(served[i].region) + ", expected " +
             std::to_string(expected[i].region);
    }
    if (served[i].score != expected[i].score) {
      return "rank " + std::to_string(i + 1) + " score differs from Predict";
    }
  }
  return "";
}

}  // namespace perfbench
