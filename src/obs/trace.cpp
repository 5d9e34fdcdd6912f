#include "obs/trace.h"

#include <algorithm>

namespace sjoin::obs {

void TraceSink::Emit(char ph, std::string name, std::string cat, Time ts,
                     Duration dur, std::uint64_t id, TraceArgs args) {
  TraceEvent ev;
  ev.name = std::move(name);
  ev.cat = std::move(cat);
  ev.ph = ph;
  ev.ts = ts;
  ev.dur = dur;
  ev.pid = rank_;
  ev.id = id;
  ev.args = std::move(args);
  std::lock_guard<std::mutex> lock(mu_);
  ev.seq = next_seq_++;
  if (enabled_) events_.push_back(ev);
  if (ring_.size() < kRingEvents) {
    ring_.push_back(std::move(ev));
  } else {
    ring_[head_] = std::move(ev);
    head_ = (head_ + 1) % kRingEvents;
  }
}

std::uint64_t TraceSink::NextSpanId() {
  std::lock_guard<std::mutex> lock(mu_);
  return (static_cast<std::uint64_t>(rank_) << 32) | ++next_span_;
}

std::vector<TraceEvent> TraceSink::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::size_t TraceSink::EventCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<TraceEvent> TraceSink::Recent() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::string TraceSink::Dump() const {
  // One lock for the events and the count, so a concurrent emit cannot skew
  // the dropped figure against the lines.
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "flight_recorder: ";
  out += std::to_string(ring_.size());
  out += " events retained, ";
  out += std::to_string(next_seq_ - ring_.size());
  out += " dropped\n";
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const TraceEvent& ev = ring_[(head_ + i) % ring_.size()];
    out += "vt=";
    out += std::to_string(ev.ts);
    out += " seq=";
    out += std::to_string(ev.seq);
    out += ' ';
    out += ev.name;
    for (const auto& [k, v] : ev.args) {
      out += ' ';
      out += k;
      out += '=';
      out += std::to_string(v);
    }
    out += '\n';
  }
  return out;
}

std::vector<TraceEvent> MergeTraces(std::span<const TraceSink* const> sinks) {
  std::vector<TraceEvent> all;
  for (const TraceSink* s : sinks) {
    if (!s) continue;
    auto evs = s->Events();
    all.insert(all.end(), std::make_move_iterator(evs.begin()),
               std::make_move_iterator(evs.end()));
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.ts != b.ts) return a.ts < b.ts;
                     if (a.pid != b.pid) return a.pid < b.pid;
                     return a.seq < b.seq;
                   });
  return all;
}

namespace {

void AppendJsonString(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xf];
          out += hex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

std::string ExportChromeJson(std::span<const TraceEvent> events) {
  std::string out = "[\n";
  bool first = true;
  for (const TraceEvent& ev : events) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":";
    AppendJsonString(out, ev.name);
    out += ",\"cat\":";
    AppendJsonString(out, ev.cat);
    out += ",\"ph\":\"";
    out += ev.ph;
    out += "\",\"ts\":";
    out += std::to_string(ev.ts);
    if (ev.ph == 'X') {
      out += ",\"dur\":";
      out += std::to_string(ev.dur);
    }
    out += ",\"pid\":";
    out += std::to_string(ev.pid);
    out += ",\"tid\":";
    out += std::to_string(ev.tid);
    if (ev.ph == 'i') {
      // Instant scope: per-process (shows as a vertical tick on the rank row).
      out += ",\"s\":\"p\"";
    }
    if (ev.ph == 's' || ev.ph == 'f') {
      out += ",\"id\":";
      out += std::to_string(ev.id);
      if (ev.ph == 'f') {
        // Bind the flow finish to the *enclosing* slice (the child span the
        // receiver opened), not the next one -- Perfetto then draws the
        // arrow sender-span -> receiver-span.
        out += ",\"bp\":\"e\"";
      }
    }
    if (!ev.args.empty()) {
      out += ",\"args\":{";
      bool afirst = true;
      for (const auto& [k, v] : ev.args) {
        if (!afirst) out += ',';
        afirst = false;
        AppendJsonString(out, k);
        out += ':';
        out += std::to_string(v);
      }
      out += '}';
    }
    out += '}';
  }
  out += "\n]\n";
  return out;
}

}  // namespace sjoin::obs
