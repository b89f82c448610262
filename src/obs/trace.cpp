#include "obs/trace.h"

#include <cstdio>
#include <cstdlib>

namespace mead::obs {

std::string_view to_string(EventKind k) {
  switch (k) {
    case EventKind::kReplicaLaunched: return "replica_launched";
    case EventKind::kReplicaRegistered: return "replica_registered";
    case EventKind::kThresholdCrossed: return "threshold_crossed";
    case EventKind::kLaunchRequested: return "launch_requested";
    case EventKind::kMigrateBegin: return "migrate_begin";
    case EventKind::kRejuvenate: return "rejuvenate";
    case EventKind::kFailoverBegin: return "failover_begin";
    case EventKind::kFailoverEnd: return "failover_end";
    case EventKind::kRedirect: return "redirect";
    case EventKind::kForward: return "forward";
    case EventKind::kMaskedFailure: return "masked_failure";
    case EventKind::kQueryTimeout: return "query_timeout";
    case EventKind::kGcBroadcast: return "gc_broadcast";
    case EventKind::kCrash: return "crash";
    case EventKind::kExit: return "exit";
    case EventKind::kClientException: return "client_exception";
    case EventKind::kNamingRefresh: return "naming_refresh";
    case EventKind::kWorldUp: return "world_up";
    case EventKind::kFaultInjected: return "fault_injected";
    case EventKind::kDaemonRejoin: return "daemon_rejoin";
    case EventKind::kPlacement: return "placement";
    case EventKind::kReadSetUpdate: return "read_set_update";
    case EventKind::kRouteSwitch: return "route_switch";
    case EventKind::kRmFailover: return "rm_failover";
    case EventKind::kGcBatchFlush: return "gc_batch_flush";
    case EventKind::kCkptTaken: return "ckpt_taken";
    case EventKind::kRestoreBegin: return "restore_begin";
    case EventKind::kRestoreEnd: return "restore_end";
    case EventKind::kMigrationPlanned: return "migration_planned";
    case EventKind::kHandoff: return "handoff";
  }
  return "?";
}

namespace {

EventKind kind_from_string(std::string_view s) {
  for (int i = 0; i <= static_cast<int>(EventKind::kHandoff); ++i) {
    const auto k = static_cast<EventKind>(i);
    if (to_string(k) == s) return k;
  }
  return EventKind::kWorldUp;
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// Extracts the raw text of `"key":<...>` up to the next unquoted ',' or
/// '}'. Returns empty if absent.
std::string_view raw_field(std::string_view line, std::string_view key) {
  // `"key":`, built by appends: GCC 12 reports a false -Wrestrict on the
  // operator+ chain.
  std::string probe;
  probe.reserve(key.size() + 3);
  probe += '"';
  probe += key;
  probe += "\":";
  const auto pos = line.find(probe);
  if (pos == std::string_view::npos) return {};
  std::size_t i = pos + probe.size();
  const std::size_t begin = i;
  bool in_string = false;
  for (; i < line.size(); ++i) {
    const char c = line[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == ',' || c == '}') {
      break;
    }
  }
  return line.substr(begin, i - begin);
}

std::string unescape_json_string(std::string_view raw) {
  // raw includes the surrounding quotes.
  std::string out;
  if (raw.size() < 2) return out;
  for (std::size_t i = 1; i + 1 < raw.size(); ++i) {
    char c = raw[i];
    if (c == '\\' && i + 2 < raw.size()) {
      ++i;
      switch (raw[i]) {
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (i + 4 < raw.size()) {
            const std::string hex(raw.substr(i + 1, 4));
            out += static_cast<char>(std::strtol(hex.c_str(), nullptr, 16));
            i += 4;
          }
          break;
        }
        default: out += raw[i];
      }
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

EventTrace::EventTrace(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  // No upfront reserve: the ring grows on first emissions instead. An eager
  // ~100 KB reservation per trace made every short-lived Simulator allocate
  // and free a large top-of-heap block, which glibc answers with a brk trim —
  // so sweeps constructing many simulators re-faulted those pages each run.
}

void EventTrace::emit(TimePoint at, EventKind kind, std::string actor,
                      std::string detail, double value) {
  Event e(next_seq_++, at, kind, std::move(actor), std::move(detail), value);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(e));
  } else {
    ring_[head_] = std::move(e);
    head_ = (head_ + 1) % capacity_;
  }
}

std::vector<Event> EventTrace::events() const {
  std::vector<Event> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::string EventTrace::to_jsonl() const {
  std::string out;
  for (const auto& e : events()) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "{\"seq\":%llu,\"t_ns\":%lld,\"kind\":",
                  static_cast<unsigned long long>(e.seq),
                  static_cast<long long>(e.at.ns()));
    out += buf;
    append_json_string(out, to_string(e.kind));
    out += ",\"actor\":";
    append_json_string(out, e.actor);
    out += ",\"detail\":";
    append_json_string(out, e.detail);
    std::snprintf(buf, sizeof buf, ",\"value\":%.17g}\n", e.value);
    out += buf;
  }
  return out;
}

std::string EventTrace::to_csv() const {
  std::string out = "seq,t_ns,kind,actor,detail,value\n";
  for (const auto& e : events()) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%llu,%lld,",
                  static_cast<unsigned long long>(e.seq),
                  static_cast<long long>(e.at.ns()));
    out += buf;
    out += to_string(e.kind);
    out += ',';
    out += e.actor;
    out += ',';
    out += e.detail;
    std::snprintf(buf, sizeof buf, ",%.17g\n", e.value);
    out += buf;
  }
  return out;
}

bool EventTrace::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string text = to_jsonl();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

std::vector<Event> EventTrace::parse_jsonl(std::string_view text) {
  std::vector<Event> out;
  std::size_t start = 0;
  while (start < text.size()) {
    auto end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    Event e;
    e.seq = std::strtoull(std::string(raw_field(line, "seq")).c_str(),
                          nullptr, 10);
    e.at = TimePoint{std::strtoll(std::string(raw_field(line, "t_ns")).c_str(),
                                  nullptr, 10)};
    e.kind = kind_from_string(unescape_json_string(raw_field(line, "kind")));
    e.actor = unescape_json_string(raw_field(line, "actor"));
    e.detail = unescape_json_string(raw_field(line, "detail"));
    e.value = std::strtod(std::string(raw_field(line, "value")).c_str(),
                          nullptr);
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace mead::obs
