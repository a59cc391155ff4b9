#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "support/json.hpp"

namespace perfbench {

void RunResult::gate(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  std::cout << "FAIL " << what << "\n";
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(std::floor(pos));
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double tail_latency(const std::vector<double>& v, double* pct) {
  for (double p : {99.9, 99.0, 95.0, 90.0}) {
    double beyond = static_cast<double>(v.size()) * (1.0 - p / 100.0);
    if (beyond >= 10.0) {
      *pct = p;
      return quantile(v, p / 100.0);
    }
  }
  *pct = 75;
  return quantile(v, 0.75);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double children_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string exact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

Fingerprint load_section(const std::string& path, const std::string& section) {
  Fingerprint out;
  std::ifstream in(path);
  if (!in) return out;
  std::stringstream text;
  text << in.rdbuf();
  auto doc = cudanp::json::parse(text.str());
  if (!doc) return out;
  const cudanp::json::Value* sec = doc->find(section);
  if (!sec) return out;
  for (const auto& [k, v] : sec->obj()) out[k] = v.as_str();
  return out;
}

int report_fingerprint(const std::string& path, const std::string& section,
                       const Fingerprint& seen) {
  Fingerprint want = load_section(path, section);
  int changed = 0;
  for (const auto& [k, v] : seen) {
    auto it = want.find(k);
    if (it != want.end() && it->second == v) continue;
    ++changed;
    std::cout << "workload changed: " << section << " " << k << " = " << v
              << " (recorded "
              << (it == want.end() ? std::string("nothing") : it->second)
              << ")\n";
  }
  std::cout << "fingerprint " << section << " {";
  bool first = true;
  for (const auto& [k, v] : seen) {
    std::cout << (first ? "" : ", ") << "\"" << cudanp::json::escape(k)
              << "\": \"" << cudanp::json::escape(v) << "\"";
    first = false;
  }
  std::cout << "}\n";
  if (changed == 0)
    std::cout << "fingerprint " << section << ": " << seen.size()
              << " values identical to the recorded ones\n";
  return changed;
}

}  // namespace perfbench
