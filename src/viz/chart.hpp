// Chart rendering: ASCII (terminal dashboards, bench output) and SVG
// (downloadable plot images, Fig 5's "ability to download the image").
#pragma once

#include <string>
#include <vector>

#include "core/time.hpp"

namespace hpcmon::viz {

struct ChartSeries {
  std::string label;
  std::vector<core::TimedValue> points;
};

struct ChartOptions {
  int width = 72;    // plot columns (ASCII) / 10px units (SVG)
  int height = 16;   // plot rows
  std::string title;
  std::string y_label;
  bool y_from_zero = true;
};

/// Render series as an ASCII line chart; multiple series use distinct glyphs
/// ('*', '+', 'o', 'x'). Includes y-axis labels and a time footer.
std::string render_ascii(const std::vector<ChartSeries>& series,
                         const ChartOptions& options);

/// Render series as a standalone SVG document (polylines + axes).
std::string render_svg(const std::vector<ChartSeries>& series,
                       const ChartOptions& options);

}  // namespace hpcmon::viz
