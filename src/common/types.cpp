#include "common/types.hpp"

#include <cerrno>
#include <cstdlib>

namespace str {

bool parse_count(const char* text, std::uint64_t lo, std::uint64_t hi,
                 std::uint64_t& out) {
  // strtoull alone accepts leading space and a sign ("-1" wraps to 2^64-1).
  if (text == nullptr || *text < '0' || *text > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(text, &end, 10);
  if (errno == ERANGE || *end != '\0' || n < lo || n > hi) return false;
  out = n;
  return true;
}

const char* to_string(VersionState s) {
  switch (s) {
    case VersionState::PreCommitted: return "pre-committed";
    case VersionState::LocalCommitted: return "local-committed";
    case VersionState::Committed: return "committed";
  }
  return "?";
}

const char* to_string(AbortReason r) {
  switch (r) {
    case AbortReason::None: return "none";
    case AbortReason::LocalCertification: return "local-certification";
    case AbortReason::GlobalCertification: return "global-certification";
    case AbortReason::RemoteReplication: return "remote-replication";
    case AbortReason::Misspeculation: return "misspeculation";
    case AbortReason::CascadingAbort: return "cascading-abort";
    case AbortReason::UserAbort: return "user-abort";
    case AbortReason::Timeout: return "timeout";
    case AbortReason::NodeCrash: return "node-crash";
  }
  return "?";
}

}  // namespace str
