// Golden execution records: a canonical text form of everything one
// simulator launch observably produces, for tests that pin a launch's
// results against a checked-in reference (tests/golden/).
//
// A record covers KernelStats (doubles as exact hex floats), the
// modelled seconds, an FNV-1a hash of every device buffer's raw bytes,
// the sanitizer's hazard stream and, for unsanitized watchdog trips, the
// trip text and source location. Output *values* are checked by other
// oracles (the all-concrete symbolic run, the CPU references); the hash
// only pins that they did not move.
//
// Golden file format: a record starts with a line "== <key>" and runs
// until the next such line; lines before the first record are a
// free-form header.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/cost_model.hpp"
#include "sim/interpreter.hpp"
#include "sim/memory.hpp"
#include "sim/sanitizer.hpp"

namespace cudanp::golden {

/// Exact, locale-independent spelling of a double.
inline std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// FNV-1a over every buffer's index, type, size and raw element bytes.
inline std::uint64_t hash_buffers(const sim::DeviceMemory& mem) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (std::size_t i = 0; i < mem.buffer_count(); ++i) {
    const auto& buf = mem.buffer(static_cast<sim::BufferId>(i));
    const std::uint64_t head[3] = {
        i, static_cast<std::uint64_t>(buf.type()),
        static_cast<std::uint64_t>(buf.size())};
    mix(head, sizeof head);
    if (buf.type() == ir::ScalarType::kFloat) {
      auto f = buf.f32();
      mix(f.data(), f.size() * sizeof(float));
    } else {
      auto v = buf.i32();
      mix(v.data(), v.size() * sizeof(std::int32_t));
    }
  }
  return h;
}

/// One line, with embedded newlines escaped.
inline std::string one_line(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '\n')
      out += "\\n";
    else
      out += c;
  }
  return out;
}

inline std::string stats_line(const sim::KernelStats& s) {
  std::ostringstream os;
  os << "stats blocks=" << s.blocks << " warps=" << s.warps
     << " issue_slots=" << hex(s.issue_slots)
     << " dram=" << s.dram_transactions
     << " global=" << s.global_transactions
     << " local=" << s.local_transactions
     << " local_l1_misses=" << s.local_l1_misses
     << " smem=" << s.smem_accesses << " smem_replays=" << s.smem_replays
     << " shfl=" << s.shfl_ops << " sync=" << s.sync_ops
     << " divergent=" << s.divergent_branches
     << " crit_path=" << hex(s.crit_path_cycles) << "\n";
  return os.str();
}

inline std::string hazard_lines(const std::vector<sim::HazardReport>& rs) {
  std::ostringstream os;
  os << "hazards " << rs.size() << "\n";
  for (const auto& r : rs)
    os << "hazard " << sim::to_string(r.kind) << " kernel=" << r.kernel
       << " block=" << r.block.x << "," << r.block.y << "," << r.block.z
       << " thread=" << r.thread << " loc=" << r.loc.str() << " "
       << one_line(r.message) << "\n";
  return os.str();
}

/// A completed launch: stats, modelled seconds, buffer hash, hazards.
inline std::string launch_record(const sim::RunResult& run, bool ran,
                                 const std::vector<sim::HazardReport>& hazards,
                                 const sim::DeviceMemory& mem) {
  std::ostringstream os;
  os << "ran " << (ran ? 1 : 0) << "\n"
     << stats_line(run.stats) << "seconds " << hex(run.timing.seconds)
     << "\n";
  char h[32];
  std::snprintf(h, sizeof h, "%016llx",
                static_cast<unsigned long long>(hash_buffers(mem)));
  os << "buffers " << h << "\n" << hazard_lines(hazards);
  return os.str();
}

/// An unsanitized launch aborted by the watchdog.
inline std::string trip_record(const sim::WatchdogError& e) {
  return "trip " + one_line(e.what()) + " @" + e.loc().str() + "\n";
}

/// key -> record text, parsed from a golden file. Empty when the file
/// cannot be read.
inline std::map<std::string, std::string> load(const std::string& path) {
  std::map<std::string, std::string> out;
  std::ifstream in(path);
  std::string line;
  std::string* cur = nullptr;
  while (std::getline(in, line)) {
    if (line.rfind("== ", 0) == 0) {
      cur = &out[line.substr(3)];
      continue;
    }
    if (cur)
      *cur += line + "\n";
  }
  return out;
}

/// The golden-file spelling of one record.
inline std::string entry(const std::string& key, const std::string& record) {
  return "== " + key + "\n" + record;
}

}  // namespace cudanp::golden
