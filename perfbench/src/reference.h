// Reference computations the benchmark checks the program against. They
// are written from the definitions (DESIGN.md §9, paper §IV-A4), not from
// the program's code, and share none of it.
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <string>
#include <vector>

namespace perfbench {

// sqrt(mean((p - t)^2)); 0 for empty input.
double RefRmse(const std::vector<double>& predictions,
               const std::vector<double>& targets);

// NDCG@k with binary relevance: an item is relevant iff its truth is at
// least the top_n-th largest truth. Items with tied predictions form a
// group whose positions share the group's mean relevance (the expectation
// over the group's orderings). IDCG counts min(k, relevant, n) hits.
double RefNdcg(const std::vector<double>& predictions,
               const std::vector<double>& truths, int k, int top_n);
// Expected |top-k by prediction ∩ relevant| / k, same tie rule.
double RefPrecision(const std::vector<double>& predictions,
                    const std::vector<double>& truths, int k, int top_n);

struct Site {
  int region = -1;
  double score = 0.0;
};

// Top-k of the distinct `candidates` by `scores[region]`, best first,
// ties by ascending region id.
std::vector<Site> RefTopK(const std::vector<int>& candidates,
                          const std::vector<double>& scores, int k);

// Compares a served ranking with RefTopK: region order and scores must
// match exactly, and the served scores must not increase down the list.
// Returns "" when they agree, else what differs.
std::string CheckServedRanking(const std::vector<int>& candidates,
                               const std::vector<double>& scores, int k,
                               const std::vector<Site>& served);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
