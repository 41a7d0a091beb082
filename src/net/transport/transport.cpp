#include "net/transport/transport.hpp"

namespace str::net {

const char* to_string(TransportKind kind) {
  switch (kind) {
    case TransportKind::kDes:
      return "des";
    case TransportKind::kTcp:
      return "tcp";
  }
  return "unknown";
}

bool parse_transport(const std::string& name, TransportKind& out) {
  if (name == "des") {
    out = TransportKind::kDes;
    return true;
  }
  if (name == "tcp") {
    out = TransportKind::kTcp;
    return true;
  }
  return false;
}

void TransportStats::add(const TransportStats& o) {
  frames_sent += o.frames_sent;
  bytes_sent += o.bytes_sent;
  frames_received += o.frames_received;
  bytes_received += o.bytes_received;
  frames_resent += o.frames_resent;
  bytes_resent += o.bytes_resent;
  frames_dropped += o.frames_dropped;
  connects += o.connects;
  reconnects += o.reconnects;
  disconnects += o.disconnects;
  partial_frames_discarded += o.partial_frames_discarded;
  for (std::size_t i = 0; i < resent_by_tag.size(); ++i) {
    resent_by_tag[i] += o.resent_by_tag[i];
  }
}

}  // namespace str::net
