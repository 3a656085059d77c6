#include "csg/testing/bijection.hpp"

#include <sstream>
#include <vector>

#include "csg/core/grid_point.hpp"
#include "csg/core/level_enumeration.hpp"

namespace csg::testing {

namespace {

std::string format_point(const LevelVector& l, const IndexVector& i) {
  std::ostringstream os;
  os << "l=" << l << " i=" << i;
  return os.str();
}

}  // namespace

BijectionReport verify_bijection_exhaustive(const RegularSparseGrid& grid) {
  BijectionReport report;
  const dim_t d = grid.dim();
  const flat_index_t total = grid.num_points();
  std::vector<bool> seen(static_cast<std::size_t>(total), false);

  auto fail = [&](const std::string& what) {
    report.ok = false;
    report.detail = what;
  };

  // Forward sweep in canonical enumeration order: range, collisions,
  // consecutive layout, and idx2gp o gp2idx == id.
  for (level_t j = 0; j < grid.level() && report.ok; ++j) {
    flat_index_t expected = grid.group_offset(j);
    for (const LevelVector& l : LevelRange(d, j)) {
      IndexVector i(d, 1);
      do {
        const flat_index_t idx = grid.gp2idx(l, i);
        if (idx >= total) {
          fail("gp2idx out of range: " + format_point(l, i) + " -> " +
               std::to_string(idx) + " >= N=" + std::to_string(total));
          break;
        }
        if (idx != expected) {
          fail("layout not consecutive: " + format_point(l, i) + " -> " +
               std::to_string(idx) + ", expected " +
               std::to_string(expected));
          break;
        }
        if (seen[static_cast<std::size_t>(idx)]) {
          fail("collision: " + format_point(l, i) + " -> " +
               std::to_string(idx) + " already taken");
          break;
        }
        seen[static_cast<std::size_t>(idx)] = true;
        const GridPoint back = grid.idx2gp(idx);
        if (back.level != l || back.index != i) {
          fail("idx2gp(gp2idx(" + format_point(l, i) + ")) = " +
               format_point(back.level, back.index));
          break;
        }
        ++report.points_checked;
        ++expected;
      } while (advance_index(l, i));
      if (!report.ok) break;
    }
  }
  if (!report.ok) return report;

  // The enumeration visited exactly N distinct in-range indices, so gp2idx
  // is onto; sweep the reverse direction independently.
  if (report.points_checked != total) {
    fail("enumeration visited " + std::to_string(report.points_checked) +
         " points, grid claims " + std::to_string(total));
    return report;
  }
  for (flat_index_t idx = 0; idx < total; ++idx) {
    const GridPoint gp = grid.idx2gp(idx);
    if (!grid.contains(gp)) {
      fail("idx2gp(" + std::to_string(idx) + ") = " +
           format_point(gp.level, gp.index) + " not contained in grid");
      return report;
    }
    const flat_index_t back = grid.gp2idx(gp);
    if (back != idx) {
      fail("gp2idx(idx2gp(" + std::to_string(idx) + ")) = " +
           std::to_string(back));
      return report;
    }
  }
  return report;
}

BijectionReport verify_bijection_sampled(const RegularSparseGrid& grid,
                                         std::mt19937_64& rng,
                                         std::uint64_t trials) {
  BijectionReport report;
  std::uniform_int_distribution<flat_index_t> dist(0, grid.num_points() - 1);
  for (std::uint64_t k = 0; k < trials; ++k) {
    const flat_index_t idx = dist(rng);
    const GridPoint gp = grid.idx2gp(idx);
    if (!grid.contains(gp)) {
      report.ok = false;
      report.detail = "idx2gp(" + std::to_string(idx) + ") = " +
                      format_point(gp.level, gp.index) +
                      " not contained in grid";
      return report;
    }
    const flat_index_t back = grid.gp2idx(gp);
    if (back != idx) {
      report.ok = false;
      report.detail = "gp2idx(idx2gp(" + std::to_string(idx) +
                      ")) = " + std::to_string(back);
      return report;
    }
    ++report.points_checked;
  }
  return report;
}

}  // namespace csg::testing
