#include "spans.h"

#include <algorithm>
#include <utility>

#include "common/fileio.h"
#include "common/json.h"

namespace scoded::e2e {

void SpanLog::NameLane(int lane, const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  lanes_[lane] = name;
}

int SpanLog::Begin(const std::string& name, int lane, int parent) {
  int64_t now = Ns(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(SpanRecord{name, lane, parent, now, -1});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int id) {
  int64_t now = Ns(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

int SpanLog::Add(const std::string& name, int lane, int parent, Clock::time_point start,
                 Clock::time_point end) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(SpanRecord{name, lane, parent, Ns(start), Ns(end)});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::Seconds(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const SpanRecord& span = spans_[static_cast<size_t>(id)];
  return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
}

double SpanLog::Coverage(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const SpanRecord& parent = spans_[static_cast<size_t>(id)];
  std::vector<std::pair<int64_t, int64_t>> intervals;
  for (const SpanRecord& span : spans_) {
    if (span.parent == id && span.end_ns >= 0) {
      intervals.emplace_back(std::max(span.start_ns, parent.start_ns),
                             std::min(span.end_ns, parent.end_ns));
    }
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = parent.start_ns;
  for (const auto& [lo, hi] : intervals) {
    int64_t from = std::max(lo, reach);
    if (hi > from) {
      covered += hi - from;
      reach = hi;
    }
  }
  int64_t wall = parent.end_ns - parent.start_ns;
  return wall > 0 ? static_cast<double>(covered) / static_cast<double>(wall) : 0.0;
}

double SpanLog::ChildSeconds(int parent, const std::string& name) const {
  double total = 0.0;
  for (double seconds : ChildDurations(parent, name)) {
    total += seconds;
  }
  return total;
}

std::vector<double> SpanLog::ChildDurations(int parent, const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const SpanRecord& span : spans_) {
    if (span.parent == parent && span.name == name && span.end_ns >= 0) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-9);
    }
  }
  return out;
}

Status SpanLog::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter json;
  json.BeginArray();
  for (const auto& [lane, name] : lanes_) {
    json.BeginObject();
    json.Key("name").String("thread_name");
    json.Key("ph").String("M");
    json.Key("pid").Int(1);
    json.Key("tid").Int(lane);
    json.Key("args").BeginObject().Key("name").String(name).EndObject();
    json.EndObject();
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    if (span.end_ns < 0) {
      continue;
    }
    json.BeginObject();
    json.Key("name").String(span.name);
    json.Key("ph").String("X");
    json.Key("pid").Int(1);
    json.Key("tid").Int(span.lane);
    json.Key("ts").Double(static_cast<double>(span.start_ns) / 1000.0);
    json.Key("dur").Double(static_cast<double>(span.end_ns - span.start_ns) / 1000.0);
    json.Key("args").BeginObject();
    json.Key("id").Int(static_cast<int64_t>(i));
    json.Key("parent").Int(span.parent);
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  return WriteTextFile(path, json.str());
}

}  // namespace scoded::e2e
