#include "net/fault.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

namespace str::net {

namespace {

/// Seconds (fractional) of virtual time -> Timestamp microseconds.
Timestamp from_seconds(double s) { return static_cast<Timestamp>(s * 1e6); }

/// A whole token read as a finite number.
bool number(const std::string& tok, double& out) {
  char* end = nullptr;
  out = std::strtod(tok.c_str(), &end);
  return !tok.empty() && *end == '\0' && std::isfinite(out);
}

bool probability(const std::string& tok, double& out) {
  return number(tok, out) && out >= 0.0 && out <= 1.0;
}

bool seconds(const std::string& tok, double& out) {
  return number(tok, out) && out >= 0.0 && out <= kMaxSeconds;
}

/// A node or region id: decimal digits only, within 32 bits.
bool id(const std::string& tok, std::uint32_t& out) {
  if (tok.empty() || tok.size() > 10 ||
      tok.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  const unsigned long long v = std::stoull(tok);
  out = static_cast<std::uint32_t>(v);
  return v <= std::numeric_limits<std::uint32_t>::max();
}

bool fail(std::string& error, const std::string& what) {
  error = what;
  return false;
}

}  // namespace

bool FaultPlan::apply(const std::string& directive, std::string& error) {
  std::istringstream in(directive);
  std::string cmd;
  if (!(in >> cmd)) return true;  // blank
  // The fields as written, kept whole for error messages. A wrong field
  // count is malformed like a bad field: 'crash 3 5.0 oops' must not
  // silently become a permanent crash.
  std::string given;
  std::vector<std::string> args;
  for (std::string tok; in >> tok;) {
    given += given.empty() ? tok : " " + tok;
    args.push_back(tok);
  }
  if (args.size() == 1 && given.find(':') != std::string::npos) {
    // Colon spelling, the one str_sim's flags use: "crash 3:5.0:8.0".
    args.clear();
    std::size_t pos = 0;
    for (std::size_t colon; (colon = given.find(':', pos)) != std::string::npos;
         pos = colon + 1) {
      args.push_back(given.substr(pos, colon - pos));
    }
    args.push_back(given.substr(pos));
  }
  const auto usage = [&](const std::string& shape) {
    return fail(error, cmd + " needs " + shape + ", got '" + given + "'");
  };

  if (cmd == "drop" || cmd == "dup" || cmd == "corrupt" ||
      cmd == "torn-write") {
    double p = 0;
    if (args.size() != 1 || !probability(args[0], p)) {
      return usage("a probability in [0, 1]");
    }
    (cmd == "drop"      ? link.drop_prob
     : cmd == "dup"     ? link.dup_prob
     : cmd == "corrupt" ? link.corrupt_prob
                        : storage.torn_write_prob) = p;
  } else if (cmd == "heal") {
    double at = 0;
    if (args.size() != 1 || !seconds(args[0], at)) {
      return usage("a time in [0, 1e9] seconds");
    }
    link.heal_at = from_seconds(at);
  } else if (cmd == "partition" || cmd == "partition-oneway") {
    RegionId a = 0, b = 0;
    double start = 0, end = 0;
    if (args.size() != 4 || !id(args[0], a) || !id(args[1], b) ||
        !seconds(args[2], start) || !seconds(args[3], end)) {
      return usage("<regionA> <regionB> <start_s> <end_s>");
    }
    if (end < start) return fail(error, cmd + " ends before it starts");
    if (cmd == "partition") {
      add_partition(a, b, from_seconds(start), from_seconds(end));
    } else {
      partitions.push_back({a, b, from_seconds(start), from_seconds(end)});
    }
  } else if (cmd == "crash") {
    NodeId node = 0;
    double at = 0, restart = 0;
    if (args.size() < 2 || args.size() > 3 || !id(args[0], node) ||
        !seconds(args[1], at) ||
        (args.size() == 3 && !seconds(args[2], restart))) {
      return usage("<node> <at_s> [<restart_s>]");
    }
    if (args.size() == 3 && restart <= at) {
      return fail(error, "crash restart precedes the crash");
    }
    add_crash(node, from_seconds(at),
              args.size() == 3 ? from_seconds(restart) : kTsInfinity);
  } else {
    return fail(error, "unknown directive '" + cmd + "'");
  }
  return true;
}

bool FaultPlan::fits(std::uint32_t num_nodes, std::uint32_t num_regions,
                     std::string& error) const {
  for (const CrashEvent& c : crashes) {
    if (c.node >= num_nodes) {
      return fail(error, "crash names node " + std::to_string(c.node) +
                             " in a " + std::to_string(num_nodes) +
                             "-node cluster");
    }
  }
  for (const PartitionWindow& w : partitions) {
    for (const RegionId r : {w.from, w.to}) {
      if (r >= num_regions) {
        return fail(error, "partition names region " + std::to_string(r) +
                               " in a " + std::to_string(num_regions) +
                               "-region topology");
      }
    }
  }
  return true;
}

bool FaultPlan::parse(const std::string& text, FaultPlan& out,
                      std::string& error) {
  out = FaultPlan{};
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    if (!out.apply(line, error)) {
      error = "fault plan line " + std::to_string(line_no) + ": " + error;
      return false;
    }
  }
  return true;
}

bool FaultPlan::load(const std::string& path, FaultPlan& out,
                     std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot open fault plan file: " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str(), out, error);
}

std::string FaultPlan::describe() const {
  if (empty()) return "none";
  char buf[160];
  // partitions are stored per direction; report undirected windows as one.
  std::size_t crash_restarts = 0;
  for (const CrashEvent& c : crashes) {
    if (c.restart_at != kTsInfinity) ++crash_restarts;
  }
  std::snprintf(buf, sizeof buf,
                "drop=%.1f%% dup=%.1f%% corrupt=%.1f%% partition-windows=%zu "
                "crashes=%zu (restarting=%zu)",
                link.drop_prob * 100.0, link.dup_prob * 100.0,
                link.corrupt_prob * 100.0, partitions.size(), crashes.size(),
                crash_restarts);
  std::string out = buf;
  if (link.any() && link.heal_at != kTsInfinity) {
    std::snprintf(buf, sizeof buf, " heal=%.1fs", link.heal_at / 1e6);
    out += buf;
  }
  if (storage.any()) {
    std::snprintf(buf, sizeof buf, " torn-write=%.1f%%",
                  storage.torn_write_prob * 100.0);
    out += buf;
  }
  return out;
}

}  // namespace str::net
