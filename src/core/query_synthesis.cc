#include "core/query_synthesis.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "common/math_util.h"

namespace lte::core {
namespace {

// Formats a bound with enough precision for a usable SQL literal.
std::string FormatBound(double v) {
  std::ostringstream os;
  os.precision(6);
  os << v;
  return os.str();
}

}  // namespace

bool SynthesizedQuery::Matches(const std::vector<double>& row) const {
  for (const SubspaceClause& clause : clauses) {
    if (clause.always_true) continue;
    bool any_box = false;
    for (const BoxPredicate& box : clause.boxes) {
      bool in = true;
      for (size_t i = 0; i < clause.attributes.size(); ++i) {
        const double v =
            row[static_cast<size_t>(clause.attributes[i])];
        if (v < box.lower[i] || v > box.upper[i]) {
          in = false;
          break;
        }
      }
      if (in) {
        any_box = true;
        break;
      }
    }
    if (!any_box) return false;
  }
  return true;
}

std::string SynthesizedQuery::ToSql(
    const std::string& table_name,
    const std::vector<std::string>& attribute_names,
    const preprocess::MinMaxNormalizer* denormalizer) const {
  std::ostringstream sql;
  sql << "SELECT * FROM " << table_name;
  std::vector<std::string> clause_strings;
  for (const SubspaceClause& clause : clauses) {
    if (clause.always_true) continue;
    if (clause.boxes.empty()) {
      clause_strings.push_back("FALSE");
      continue;
    }
    std::vector<std::string> box_strings;
    for (const BoxPredicate& box : clause.boxes) {
      std::vector<std::string> conds;
      for (size_t i = 0; i < clause.attributes.size(); ++i) {
        const int64_t attr = clause.attributes[i];
        LTE_CHECK_LT(static_cast<size_t>(attr), attribute_names.size());
        double lo = box.lower[i];
        double hi = box.upper[i];
        if (denormalizer != nullptr) {
          lo = denormalizer->Inverse(attr, lo);
          hi = denormalizer->Inverse(attr, hi);
        }
        conds.push_back(attribute_names[static_cast<size_t>(attr)] +
                        " BETWEEN " + FormatBound(lo) + " AND " +
                        FormatBound(hi));
      }
      std::string joined = conds.front();
      for (size_t i = 1; i < conds.size(); ++i) joined += " AND " + conds[i];
      box_strings.push_back("(" + joined + ")");
    }
    std::string disjunction = box_strings.front();
    for (size_t i = 1; i < box_strings.size(); ++i) {
      disjunction += " OR " + box_strings[i];
    }
    clause_strings.push_back("(" + disjunction + ")");
  }
  if (clause_strings.empty()) return sql.str();
  sql << " WHERE " << clause_strings.front();
  for (size_t i = 1; i < clause_strings.size(); ++i) {
    sql << " AND " << clause_strings[i];
  }
  return sql.str();
}

Status SynthesizeQuery(const ExplorationSession& session,
                       const QuerySynthesisOptions& options,
                       SynthesizedQuery* query) {
  if (session.active_subspaces() == 0) {
    return Status::FailedPrecondition(
        "query synthesis: StartExploration has not run");
  }
  const ExplorationModel& model = session.model();
  SynthesizedQuery out;
  for (int64_t s = 0; s < session.active_subspaces(); ++s) {
    const data::Subspace* subspace = model.subspace(s);
    const MetaTaskGenerator* generator = model.generator(s);
    if (subspace == nullptr || generator == nullptr) {
      return Status::Internal("query synthesis: active subspace " +
                              std::to_string(s) + " has no state");
    }
    SubspaceClause clause;
    clause.attributes = subspace->attribute_indices;
    const auto dim = clause.attributes.size();

    // Label the clustering sample with the adapted classifier.
    const std::vector<std::vector<double>>& points =
        generator->context().sample_points;
    std::vector<double> labels;
    labels.reserve(points.size());
    int64_t positives = 0;
    for (const auto& p : points) {
      const std::optional<double> pred = session.PredictSubspace(s, p);
      if (!pred.has_value()) {
        return Status::Internal("query synthesis: prediction unavailable in "
                                "active subspace " + std::to_string(s));
      }
      const double y = *pred;
      positives += y > 0.5 ? 1 : 0;
      labels.push_back(y);
    }
    if (positives == 0) {
      // Clause stays with zero boxes: matches nothing.
      out.clauses.push_back(std::move(clause));
      continue;
    }
    if (positives == static_cast<int64_t>(points.size())) {
      clause.always_true = true;
      out.clauses.push_back(std::move(clause));
      continue;
    }

    // Distill into boxes via CART positive leaves.
    tree::DecisionTree cart(options.tree);
    LTE_RETURN_IF_ERROR(cart.Train(points, labels));
    std::vector<tree::DecisionTree::PositivePath> paths =
        cart.ExtractPositivePaths();
    std::sort(paths.begin(), paths.end(),
              [](const auto& a, const auto& b) { return a.support > b.support; });
    if (static_cast<int64_t>(paths.size()) > options.max_boxes_per_subspace) {
      paths.resize(static_cast<size_t>(options.max_boxes_per_subspace));
    }

    // Data range per dimension, to clip the trees' infinite bounds.
    std::vector<double> data_lo(dim, std::numeric_limits<double>::max());
    std::vector<double> data_hi(dim, std::numeric_limits<double>::lowest());
    for (const auto& p : points) {
      for (size_t i = 0; i < dim; ++i) {
        data_lo[i] = std::min(data_lo[i], p[i]);
        data_hi[i] = std::max(data_hi[i], p[i]);
      }
    }
    for (const auto& path : paths) {
      BoxPredicate box;
      for (size_t i = 0; i < dim; ++i) {
        box.lower.push_back(std::isinf(path.lower[i]) ? data_lo[i]
                                                      : path.lower[i]);
        box.upper.push_back(std::isinf(path.upper[i]) ? data_hi[i]
                                                      : path.upper[i]);
      }
      clause.boxes.push_back(std::move(box));
    }
    out.clauses.push_back(std::move(clause));
  }
  *query = std::move(out);
  return Status::OK();
}

}  // namespace lte::core
