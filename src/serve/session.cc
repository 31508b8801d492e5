#include "serve/session.h"

#include <utility>

#include "obs/metrics.h"
#include "serve/wire.h"

namespace scoded::serve {

namespace {

obs::Gauge* SessionsGauge() {
  static obs::Gauge* const gauge =
      obs::Metrics::Global().FindOrCreateGauge("serve.sessions");
  return gauge;
}

obs::Counter* EvictionsCounter() {
  static obs::Counter* const counter =
      obs::Metrics::Global().FindOrCreateCounter("serve.sessions_evicted");
  return counter;
}

}  // namespace

Result<std::string> SessionTable::Open(const Schema& schema,
                                       const std::vector<ApproximateSc>& constraints,
                                       StreamMonitorOptions options) {
  // Build the monitor outside the table lock: constraint validation is
  // cheap but not free, and Open must not stall queries on live sessions.
  SCODED_ASSIGN_OR_RETURN(Table prototype, EmptyTableForSchema(schema));
  SCODED_ASSIGN_OR_RETURN(StreamMonitor monitor,
                          StreamMonitor::Create(prototype, constraints, options));
  std::lock_guard<std::mutex> lock(mu_);
  if (sessions_.size() >= limits_.max_sessions) {
    return ResourceExhaustedError("session table full (" +
                                  std::to_string(limits_.max_sessions) +
                                  " open sessions); close one or retry later");
  }
  std::string id = "s";
  id += std::to_string(next_id_++);
  sessions_.emplace(id, std::make_shared<Session>(std::move(monitor)));
  PublishGauges();
  return id;
}

Status SessionTable::With(const std::string& id,
                          const std::function<Status(StreamMonitor&)>& fn) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return NotFoundError("unknown session '" + id + "'");
    }
    session = it->second;
    // Pin before running the handler: stamping last_used here and nothing
    // else would let EvictIdle() reap a session whose single request runs
    // longer than the idle limit (the append would succeed into an
    // already-evicted monitor and the next request would get NotFound).
    ++session->inflight;
  }
  Status status;
  {
    std::lock_guard<std::mutex> session_lock(session->mu);
    status = fn(session->monitor);
  }
  {
    // Unpin and only now bump the idle clock, so idleness is measured from
    // the end of the last request, not its start.
    std::lock_guard<std::mutex> lock(mu_);
    --session->inflight;
    session->last_used = std::chrono::steady_clock::now();
  }
  return status;
}

Status SessionTable::Close(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return NotFoundError("unknown session '" + id + "'");
  }
  sessions_.erase(it);
  PublishGauges();
  return OkStatus();
}

size_t SessionTable::EvictIdle() {
  if (limits_.idle_evict_millis <= 0) {
    return 0;
  }
  auto cutoff = std::chrono::steady_clock::now() -
                std::chrono::milliseconds(limits_.idle_evict_millis);
  std::lock_guard<std::mutex> lock(mu_);
  size_t evicted = 0;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->second->inflight == 0 && it->second->last_used < cutoff) {
      it = sessions_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  if (evicted > 0) {
    EvictionsCounter()->Add(static_cast<int64_t>(evicted));
    PublishGauges();
  }
  return evicted;
}

void SessionTable::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  sessions_.clear();
  PublishGauges();
}

size_t SessionTable::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

void SessionTable::PublishGauges() const {
  SessionsGauge()->Set(static_cast<double>(sessions_.size()));
}

}  // namespace scoded::serve
