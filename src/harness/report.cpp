#include "harness/report.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>

namespace str::harness {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void Table::print(std::FILE* out) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      std::fprintf(out, "%-*s", static_cast<int>(widths[c] + 2), cell.c_str());
    }
    std::fputc('\n', out);
  };
  print_row(headers_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  for (std::size_t i = 0; i < total; ++i) std::fputc('-', out);
  std::fputc('\n', out);
  for (const auto& row : rows_) print_row(row);
}

std::string Table::fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Table::fmt_ms(std::uint64_t usecs) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1fms", static_cast<double>(usecs) / 1000.0);
  return buf;
}

std::string Table::fmt_pct(double frac) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f%%", frac * 100.0);
  return buf;
}

void print_phase_table(const std::string& label,
                       const std::vector<PhaseStat>& phases, std::FILE* out,
                       bool percentiles) {
  if (phases.empty()) return;
  // Lifecycle order, so the table reads top-to-bottom like a transaction;
  // phases not listed here land at the end in name order.
  static const char* kOrder[] = {
      "time_to_first_read", "read_block",  "gate_stall",
      "local_cert",         "wan_prepare", "dep_wait",
      "decision_durable",   "lock_hold",   "lock_hold_total",
      "commit_snapshot_distance",
  };
  auto rank = [](const std::string& name) {
    for (std::size_t i = 0; i < std::size(kOrder); ++i) {
      if (name == kOrder[i]) return i;
    }
    return std::size(kOrder);
  };
  std::vector<PhaseStat> sorted = phases;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [&](const PhaseStat& a, const PhaseStat& b) {
                     const std::size_t ra = rank(a.name), rb = rank(b.name);
                     return ra != rb ? ra < rb : a.name < b.name;
                   });

  std::fprintf(out, "per-phase latency breakdown: %s\n", label.c_str());
  std::vector<std::string> headers = {"phase", "count", "mean", "p50"};
  if (percentiles) headers.push_back("p95");
  headers.insert(headers.end(), {"p99", "max"});
  Table t(std::move(headers));
  for (const PhaseStat& p : sorted) {
    if (p.count == 0) continue;
    std::vector<std::string> row = {p.name, std::to_string(p.count),
                                    Table::fmt(p.mean_us / 1000.0, 2) + "ms",
                                    Table::fmt_ms(p.p50_us)};
    if (percentiles) row.push_back(Table::fmt_ms(p.p95_us));
    row.insert(row.end(), {Table::fmt_ms(p.p99_us), Table::fmt_ms(p.max_us)});
    t.add_row(std::move(row));
  }
  t.print(out);
}

void print_result_row(const std::string& label, const ExperimentResult& r) {
  std::printf(
      "%-28s thr=%8.1f tps  abort=%5.1f%%  misspec=%5.1f%%  "
      "lat(mean/p50/p99)=%7.1f/%7.1f/%7.1f ms\n",
      label.c_str(), r.throughput, r.abort_rate * 100.0,
      r.misspeculation_rate * 100.0, r.final_latency_mean / 1000.0,
      static_cast<double>(r.final_latency_p50) / 1000.0,
      static_cast<double>(r.final_latency_p99) / 1000.0);
}

}  // namespace str::harness
