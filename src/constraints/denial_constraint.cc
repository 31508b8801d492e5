#include "constraints/denial_constraint.h"

#include <optional>

#include "common/check.h"
#include "table/group_by.h"

namespace scoded {

namespace {

// Three-way comparison of two cells; nullopt when either cell is null or
// the columns are type-incompatible for ordering.
std::optional<int> CompareCells(const Column& left, size_t left_row, const Column& right,
                                size_t right_row) {
  if (left.IsNull(left_row) || right.IsNull(right_row)) {
    return std::nullopt;
  }
  if (left.type() == ColumnType::kNumeric && right.type() == ColumnType::kNumeric) {
    double a = left.NumericAt(left_row);
    double b = right.NumericAt(right_row);
    if (a < b) {
      return -1;
    }
    if (a > b) {
      return 1;
    }
    return 0;
  }
  if (left.type() == ColumnType::kCategorical && right.type() == ColumnType::kCategorical) {
    const std::string& a = left.CategoryAt(left_row);
    const std::string& b = right.CategoryAt(right_row);
    return a.compare(b) < 0 ? -1 : (a == b ? 0 : 1);
  }
  return std::nullopt;
}

bool OpHolds(CompareOp op, int cmp) {
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNeq:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
  }
  return false;
}

struct ResolvedPredicate {
  int left_col;
  int left_tuple;
  CompareOp op;
  int right_col;
  int right_tuple;
};

// Recognises the FD shape ¬(t0.X = t1.X ∧ t0.Y != t1.Y) for the fast path.
bool IsFdShape(const DenialConstraint& dc, std::string* lhs, std::string* rhs) {
  if (dc.predicates.size() != 2) {
    return false;
  }
  const DcPredicate& p0 = dc.predicates[0];
  const DcPredicate& p1 = dc.predicates[1];
  if (p0.op == CompareOp::kEq && p1.op == CompareOp::kNeq &&
      p0.left_column == p0.right_column && p1.left_column == p1.right_column &&
      p0.left_tuple != p0.right_tuple && p1.left_tuple != p1.right_tuple) {
    *lhs = p0.left_column;
    *rhs = p1.left_column;
    return true;
  }
  return false;
}

}  // namespace

std::string_view CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNeq:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

std::string DenialConstraint::ToString() const {
  std::string out = "not(";
  for (size_t i = 0; i < predicates.size(); ++i) {
    if (i > 0) {
      out += " and ";
    }
    const DcPredicate& p = predicates[i];
    out.append("t")
        .append(std::to_string(p.left_tuple))
        .append(".")
        .append(p.left_column)
        .append(" ")
        .append(CompareOpToString(p.op))
        .append(" t")
        .append(std::to_string(p.right_tuple))
        .append(".")
        .append(p.right_column);
  }
  out += ")";
  return out;
}

DenialConstraint MakeOrderDc(const std::string& a, const std::string& b) {
  DenialConstraint dc;
  dc.predicates.push_back({0, a, CompareOp::kGt, 1, a});
  dc.predicates.push_back({0, b, CompareOp::kLe, 1, b});
  return dc;
}

DenialConstraint MakeConditionalOrderDc(const std::string& cond, const std::string& a,
                                        const std::string& b) {
  DenialConstraint dc;
  dc.predicates.push_back({0, cond, CompareOp::kEq, 1, cond});
  dc.predicates.push_back({0, a, CompareOp::kGt, 1, a});
  dc.predicates.push_back({0, b, CompareOp::kLe, 1, b});
  return dc;
}

DenialConstraint MakeFdDc(const std::string& lhs, const std::string& rhs) {
  DenialConstraint dc;
  dc.predicates.push_back({0, lhs, CompareOp::kEq, 1, lhs});
  dc.predicates.push_back({0, rhs, CompareOp::kNeq, 1, rhs});
  return dc;
}

Result<bool> PairViolatesDc(const Table& table, const DenialConstraint& dc, size_t r0,
                            size_t r1) {
  if (r0 >= table.NumRows() || r1 >= table.NumRows()) {
    return OutOfRangeError("PairViolatesDc: row index out of range");
  }
  for (const DcPredicate& p : dc.predicates) {
    SCODED_ASSIGN_OR_RETURN(int left_col, table.ColumnIndex(p.left_column));
    SCODED_ASSIGN_OR_RETURN(int right_col, table.ColumnIndex(p.right_column));
    size_t left_row = p.left_tuple == 0 ? r0 : r1;
    size_t right_row = p.right_tuple == 0 ? r0 : r1;
    std::optional<int> cmp = CompareCells(table.column(static_cast<size_t>(left_col)), left_row,
                                          table.column(static_cast<size_t>(right_col)), right_row);
    if (!cmp.has_value() || !OpHolds(p.op, *cmp)) {
      return false;
    }
  }
  return true;
}

Result<std::vector<int64_t>> CountDcViolationsPerRecord(const Table& table,
                                                        const DenialConstraint& dc) {
  size_t n = table.NumRows();
  std::vector<int64_t> violations(n, 0);

  // Fast path: FD-shaped DCs count violations by group sizes.
  std::string lhs;
  std::string rhs;
  if (IsFdShape(dc, &lhs, &rhs)) {
    SCODED_ASSIGN_OR_RETURN(int lhs_col, table.ColumnIndex(lhs));
    SCODED_ASSIGN_OR_RETURN(int rhs_col, table.ColumnIndex(rhs));
    GroupByResult lhs_groups = GroupRows(table, {lhs_col});
    for (const std::vector<size_t>& group : lhs_groups.groups) {
      GroupByResult sub = GroupRows(table, {rhs_col}, group);
      for (const std::vector<size_t>& same : sub.groups) {
        int64_t disagree = static_cast<int64_t>(group.size() - same.size());
        for (size_t row : same) {
          violations[row] = disagree;
        }
      }
    }
    return violations;
  }

  // Pre-resolve column indices once; the generic path is O(n²) pairs.
  std::vector<ResolvedPredicate> preds;
  for (const DcPredicate& p : dc.predicates) {
    SCODED_ASSIGN_OR_RETURN(int left_col, table.ColumnIndex(p.left_column));
    SCODED_ASSIGN_OR_RETURN(int right_col, table.ColumnIndex(p.right_column));
    preds.push_back({left_col, p.left_tuple, p.op, right_col, p.right_tuple});
  }
  auto violates = [&](size_t r0, size_t r1) {
    for (const ResolvedPredicate& p : preds) {
      size_t left_row = p.left_tuple == 0 ? r0 : r1;
      size_t right_row = p.right_tuple == 0 ? r0 : r1;
      std::optional<int> cmp =
          CompareCells(table.column(static_cast<size_t>(p.left_col)), left_row,
                       table.column(static_cast<size_t>(p.right_col)), right_row);
      if (!cmp.has_value() || !OpHolds(p.op, *cmp)) {
        return false;
      }
    }
    return true;
  };
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (violates(i, j) || violates(j, i)) {
        ++violations[i];
        ++violations[j];
      }
    }
  }
  return violations;
}

Result<int64_t> CountDcViolatingPairs(const Table& table, const DenialConstraint& dc) {
  SCODED_ASSIGN_OR_RETURN(std::vector<int64_t> per_record, CountDcViolationsPerRecord(table, dc));
  int64_t total = 0;
  for (int64_t v : per_record) {
    total += v;
  }
  return total / 2;
}

Result<std::vector<double>> AttributeDcViolations(const Table& table,
                                                  const DenialConstraint& dc) {
  size_t n = table.NumRows();
  SCODED_ASSIGN_OR_RETURN(std::vector<int64_t> counts, CountDcViolationsPerRecord(table, dc));
  std::vector<double> blame(n, 0.0);
  auto share = [&](size_t r, size_t s) {
    double cr = static_cast<double>(counts[r]);
    double cs = static_cast<double>(counts[s]);
    if (cr + cs <= 0.0) {
      return 0.5;
    }
    return cr / (cr + cs);
  };

  // FD fast path: blame flows between RHS-disagreeing subgroups of each
  // LHS group; all members of a subgroup share the same count.
  std::string lhs;
  std::string rhs;
  if (IsFdShape(dc, &lhs, &rhs)) {
    SCODED_ASSIGN_OR_RETURN(int lhs_col, table.ColumnIndex(lhs));
    SCODED_ASSIGN_OR_RETURN(int rhs_col, table.ColumnIndex(rhs));
    GroupByResult lhs_groups = GroupRows(table, {lhs_col});
    for (const std::vector<size_t>& group : lhs_groups.groups) {
      if (group.size() < 2) {
        continue;
      }
      GroupByResult sub = GroupRows(table, {rhs_col}, group);
      for (size_t a = 0; a < sub.groups.size(); ++a) {
        for (size_t b = 0; b < sub.groups.size(); ++b) {
          if (a == b || sub.groups[b].empty()) {
            continue;
          }
          size_t rep_a = sub.groups[a][0];
          size_t rep_b = sub.groups[b][0];
          double per_pair = share(rep_a, rep_b);
          for (size_t row : sub.groups[a]) {
            blame[row] += per_pair * static_cast<double>(sub.groups[b].size());
          }
        }
      }
    }
    return blame;
  }

  // Generic O(n²) attribution pass.
  std::vector<ResolvedPredicate> preds;
  for (const DcPredicate& p : dc.predicates) {
    SCODED_ASSIGN_OR_RETURN(int left_col, table.ColumnIndex(p.left_column));
    SCODED_ASSIGN_OR_RETURN(int right_col, table.ColumnIndex(p.right_column));
    preds.push_back({left_col, p.left_tuple, p.op, right_col, p.right_tuple});
  }
  auto violates = [&](size_t r0, size_t r1) {
    for (const ResolvedPredicate& p : preds) {
      size_t left_row = p.left_tuple == 0 ? r0 : r1;
      size_t right_row = p.right_tuple == 0 ? r0 : r1;
      std::optional<int> cmp =
          CompareCells(table.column(static_cast<size_t>(p.left_col)), left_row,
                       table.column(static_cast<size_t>(p.right_col)), right_row);
      if (!cmp.has_value() || !OpHolds(p.op, *cmp)) {
        return false;
      }
    }
    return true;
  };
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (violates(i, j) || violates(j, i)) {
        double si = share(i, j);
        blame[i] += si;
        blame[j] += 1.0 - si;
      }
    }
  }
  return blame;
}

}  // namespace scoded
