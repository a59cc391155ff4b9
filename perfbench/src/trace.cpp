#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <thread>
#include <utility>

#include "support/json.hpp"

namespace perfbench {

namespace {

int thread_index() {
  static std::mutex mu;
  static std::map<std::thread::id, int> ids;
  std::lock_guard<std::mutex> lk(mu);
  auto [it, inserted] =
      ids.emplace(std::this_thread::get_id(), static_cast<int>(ids.size()));
  return it->second;
}

std::string layer_of(const std::string& name) {
  auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

}  // namespace

Tracer::Tracer(bool on, std::string workload)
    : on_(on), workload_(std::move(workload)),
      epoch_(std::chrono::steady_clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int Tracer::begin(const std::string& name, std::uint64_t op, int parent,
                  const std::string& detail) {
  if (!on_) return kNone;
  Span s;
  s.name = name;
  s.detail = detail;
  s.parent = parent;
  s.op = op;
  s.thread = thread_index();
  std::lock_guard<std::mutex> lk(mu_);
  s.start_us = now_us();
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) {
  if (id == kNone) return;
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(id)].end_us = now_us();
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

std::map<std::string, double> Tracer::layer_self_ms(
    std::uint64_t op_limit) const {
  std::lock_guard<std::mutex> lk(mu_);
  // Children of one span run inside it and one after another on the
  // span's thread, so the part they cover is the union of their
  // (clipped) intervals.
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_us,
                                                            s.end_us);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.op >= op_limit) continue;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0, hi = s.start_us;
    for (auto [a, b] : iv) {
      a = std::max(a, hi);
      b = std::min(b, s.end_us);
      if (b > a) {
        covered += b - a;
        hi = b;
      }
    }
    out[layer_of(s.name)] += (s.end_us - s.start_us - covered) / 1e3;
  }
  return out;
}

double Tracer::total_ms(const std::string& name,
                        const std::string& detail) const {
  std::lock_guard<std::mutex> lk(mu_);
  double total = 0;
  for (const Span& s : spans_)
    if (s.name == name && (detail.empty() || s.detail == detail))
      total += s.end_us - s.start_us;
  return total / 1e3;
}

bool Tracer::write_chrome(
    const std::string& path,
    const std::map<std::string, std::string>& meta) const {
  std::ofstream os(path);
  if (!os) return false;
  std::lock_guard<std::mutex> lk(mu_);
  os.precision(15);
  os << "{\"displayTimeUnit\":\"ms\",\"metadata\":{";
  bool first = true;
  for (const auto& [k, v] : meta) {
    os << (first ? "" : ",") << "\"" << cudanp::json::escape(k) << "\":\""
       << cudanp::json::escape(v) << "\"";
    first = false;
  }
  os << "},\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"name\":\""
       << cudanp::json::escape(s.name) << "\",\"cat\":\""
       << cudanp::json::escape(layer_of(s.name))
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
       << ",\"ts\":" << s.start_us << ",\"dur\":" << (s.end_us - s.start_us)
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
       << ",\"workload\":\"" << cudanp::json::escape(workload_)
       << "\",\"op\":" << s.op << ",\"detail\":\""
       << cudanp::json::escape(s.detail) << "\"}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
