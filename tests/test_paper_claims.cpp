// The paper's reproduced claims as checks over the committed golden CSVs
// (tests/golden/, located through the MRTS_GOLDEN_DIR compile definition).
// Regenerating a golden must not silently break a claim that EXPERIMENTS.md
// marks as reproduced.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

/// One CSV row, keyed by the header's column names.
using Row = std::map<std::string, std::string>;

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::stringstream ss(line);
  std::string cell;
  while (std::getline(ss, cell, ',')) cells.push_back(cell);
  return cells;
}

/// Reads tests/golden/<name> (plain comma-separated, no quoting).
std::vector<Row> read_golden(const std::string& name) {
  const std::string path = std::string(MRTS_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::string line;
  std::getline(in, line);
  const std::vector<std::string> header = split_csv_line(line);
  std::vector<Row> rows;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> cells = split_csv_line(line);
    EXPECT_EQ(cells.size(), header.size()) << path << ": " << line;
    Row row;
    for (std::size_t i = 0; i < header.size() && i < cells.size(); ++i) {
      row[header[i]] = cells[i];
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

double num(const Row& row, const std::string& column) {
  const auto it = row.find(column);
  if (it == row.end()) {
    ADD_FAILURE() << "missing column " << column;
    return 0.0;
  }
  return std::stod(it->second);
}

TEST(PaperClaims, Fig9HeuristicWithinThreePercentOfOptimalWithCgFabric) {
  // Section 5.2: with at least one CG fabric the Fig. 6 heuristic stays
  // within 3% of the run-time optimal on average. The mean of |difference|
  // bounds the signed mean too.
  const std::vector<Row> rows = read_golden("fig9_heuristic_vs_optimal.csv");
  ASSERT_EQ(rows.size(), 7u * 4u - 1u);  // PRC 0..6 x CG 0..3 minus RISC-only
  double sum_abs = 0.0;
  std::size_t cells = 0;
  for (const Row& row : rows) {
    if (num(row, "cg") < 1) continue;
    sum_abs += std::fabs(num(row, "percent_difference"));
    ++cells;
  }
  ASSERT_EQ(cells, 7u * 3u);
  EXPECT_LE(sum_abs / static_cast<double>(cells), 3.0);
}

TEST(PaperClaims, Fig9LargeGapsOnlyWithoutCgFabric) {
  // The heuristic's known weakness (Fig. 9 analysis): every cell more than
  // 10% away from the optimal is a PRC-only (CG = 0) combination.
  const std::vector<Row> rows = read_golden("fig9_heuristic_vs_optimal.csv");
  ASSERT_FALSE(rows.empty());
  for (const Row& row : rows) {
    if (std::fabs(num(row, "percent_difference")) > 10.0) {
      EXPECT_EQ(num(row, "cg"), 0.0)
          << "PRC=" << row.at("prcs") << " CG=" << row.at("cg") << " differs "
          << row.at("percent_difference") << "%";
    }
  }
}

TEST(PaperClaims, Fig8MrtsFastestAtEveryCombinationWithCgFabric) {
  // Fig. 8: with at least one CG fabric, mRTS needs strictly fewer cycles
  // than RISPP-like, offline-optimal and Morpheus+4S at every combination.
  // Without a CG fabric mRTS ties the RISPP-like baseline by design.
  const std::vector<Row> rows = read_golden("fig8_state_of_the_art.csv");
  std::size_t points = 0;
  for (const Row& row : rows) {
    if (num(row, "cg") < 1) continue;
    const double mrts = num(row, "mrts_cycles");
    const std::string where = "PRC=" + row.at("prcs") + " CG=" + row.at("cg");
    EXPECT_LT(mrts, num(row, "rispp_cycles")) << where;
    EXPECT_LT(mrts, num(row, "offline_cycles")) << where;
    EXPECT_LT(mrts, num(row, "morpheus_cycles")) << where;
    ++points;
  }
  EXPECT_EQ(points, 5u * 3u);  // PRC 0..4 x CG 1..3
}

}  // namespace
