#include "serve/server.h"

#include <sys/socket.h>

#include <chrono>
#include <utility>

#include "constraints/sc.h"
#include "core/scoded.h"
#include "obs/flightrec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/render.h"
#include "table/csv.h"

namespace scoded::serve {

namespace {

obs::Gauge* ConnectionsGauge() {
  static obs::Gauge* const gauge =
      obs::Metrics::Global().FindOrCreateGauge("serve.connections");
  return gauge;
}

std::string ErrorJson(const Status& status) {
  JsonWriter json;
  json.BeginObject();
  json.Key("ok").Bool(false);
  json.Key("code").String(StatusCodeToString(status.code()));
  json.Key("message").String(status.message());
  json.EndObject();
  return json.str();
}

Result<std::string> GetString(const JsonValue& request, const char* key) {
  const JsonValue* member = request.Find(key);
  if (member == nullptr || !member->is_string()) {
    return InvalidArgumentError(std::string("request needs a string '") + key + "' member");
  }
  return member->string_value;
}

Result<double> GetNumberOr(const JsonValue& request, const char* key, double fallback) {
  const JsonValue* member = request.Find(key);
  if (member == nullptr) {
    return fallback;
  }
  if (!member->is_number()) {
    return InvalidArgumentError(std::string("request member '") + key + "' must be a number");
  }
  return member->number;
}

obs::Histogram* LatencyHistogram(const char* op) {
  std::string name = "serve.request_us.";
  return obs::Metrics::Global().FindOrCreateHistogram(name.append(op));
}

// An op the router knows: the span its handler runs under (span names must
// outlive the span, hence literals) and its request latency histogram.
struct OpEntry {
  const char* name;
  const char* span;
  obs::Histogram* latency;
};

// Unknown ops are rejected before any timing is recorded.
const OpEntry* FindOp(const std::string& op) {
  static const OpEntry kOps[] = {
      {"ping", "serve/ping", LatencyHistogram("ping")},
      {"check", "serve/check", LatencyHistogram("check")},
      {"open_session", "serve/open_session", LatencyHistogram("open_session")},
      {"append_batch", "serve/append_batch", LatencyHistogram("append_batch")},
      {"query", "serve/query", LatencyHistogram("query")},
      {"close_session", "serve/close_session", LatencyHistogram("close_session")},
  };
  for (const OpEntry& entry : kOps) {
    if (op == entry.name) {
      return &entry;
    }
  }
  return nullptr;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(options), sessions_(options.sessions) {
  if (options_.handler_threads == 0) {
    options_.handler_threads = 1;
  }
}

Server::~Server() { Stop(); }

Status Server::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) {
    return FailedPreconditionError("serve daemon already running on port " +
                                   std::to_string(listener_.port()));
  }
  SCODED_ASSIGN_OR_RETURN(listener_, net::TcpListener::Bind(options_.port));
  running_ = true;
  stop_ = false;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  handlers_.reserve(options_.handler_threads);
  for (size_t i = 0; i < options_.handler_threads; ++i) {
    handlers_.emplace_back([this] { HandlerLoop(); });
  }
  return OkStatus();
}

void Server::Stop() {
  uint16_t wake_port = 0;
  std::thread accept_to_join;
  std::vector<std::thread> handlers_to_join;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) {
      return;
    }
    stop_ = true;
    wake_port = listener_.port();
    // Pop handlers out of blocking reads on live connections immediately;
    // a graceful drain would otherwise wait out the connection deadline.
    for (int fd : live_fds_) {
      ::shutdown(fd, SHUT_RDWR);
    }
    accept_to_join = std::move(accept_thread_);
    handlers_to_join = std::move(handlers_);
  }
  queue_cv_.notify_all();
  // Self-connect to pop the accept loop out of its blocking accept.
  if (Result<net::TcpConn> wake = net::DialLoopback(wake_port); wake.ok()) {
    wake->Close();
  }
  if (accept_to_join.joinable()) {
    accept_to_join.join();
  }
  for (std::thread& handler : handlers_to_join) {
    if (handler.joinable()) {
      handler.join();
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    listener_.Close();
    pending_.clear();
    live_fds_.clear();
    running_ = false;
    stop_ = false;
  }
  sessions_.Clear();
  ConnectionsGauge()->Set(0.0);
}

bool Server::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

uint16_t Server::port() const {
  std::lock_guard<std::mutex> lock(mu_);
  return listener_.port();
}

void Server::AcceptLoop() {
  for (;;) {
    Result<net::TcpConn> conn = listener_.Accept();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) {
        return;
      }
      if (!conn.ok()) {
        return;  // listener closed out from under us
      }
      pending_.push_back(std::move(conn).value());
    }
    queue_cv_.notify_one();
  }
}

void Server::HandlerLoop() {
  for (;;) {
    net::TcpConn conn;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] { return stop_ || !pending_.empty(); });
      if (stop_) {
        return;
      }
      conn = std::move(pending_.front());
      pending_.pop_front();
      live_fds_.insert(conn.fd());
      ConnectionsGauge()->Set(static_cast<double>(live_fds_.size()));
    }
    int fd = conn.fd();
    HandleConnection(std::move(conn));
    {
      std::lock_guard<std::mutex> lock(mu_);
      live_fds_.erase(fd);
      ConnectionsGauge()->Set(static_cast<double>(live_fds_.size()));
    }
  }
}

void Server::HandleConnection(net::TcpConn conn) {
  (void)conn.SetRecvTimeout(options_.conn_deadline_millis);
  (void)conn.SetSendTimeout(options_.conn_deadline_millis);
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) {
        return;
      }
    }
    Result<std::string> payload = ReadFrame(conn, options_.max_frame_bytes);
    if (!payload.ok()) {
      // kUnavailable is the client departing cleanly. An oversized frame or
      // an expired deadline gets a final error frame — best effort, the
      // stream is desynchronised either way — and the connection closes.
      StatusCode code = payload.status().code();
      if (code == StatusCode::kInvalidArgument || code == StatusCode::kDeadlineExceeded) {
        (void)WriteFrame(conn, ErrorJson(payload.status()));
      }
      return;
    }
    std::string response = HandleRequest(*payload);
    if (!WriteFrame(conn, response).ok()) {
      return;
    }
  }
}

std::string Server::HandleRequest(const std::string& payload) {
  static obs::Counter* const requests =
      obs::Metrics::Global().FindOrCreateCounter("serve.requests");
  static obs::Counter* const request_errors =
      obs::Metrics::Global().FindOrCreateCounter("serve.request_errors");
  requests->Add();
  obs::Heartbeat("serve.request");
  sessions_.EvictIdle();
  const auto start = std::chrono::steady_clock::now();
  Result<RequestJson> request = [&] {
    obs::ScopedSpan span("serve/decode");
    return ReadRequestJson(payload);
  }();
  if (!request.ok()) {
    request_errors->Add();
    return ErrorJson(InvalidArgumentError("malformed request JSON: " +
                                          std::string(request.status().message())));
  }
  Result<std::string> op = GetString(request->envelope, "op");
  if (!op.ok()) {
    request_errors->Add();
    return ErrorJson(op.status());
  }
  const OpEntry* entry = FindOp(*op);
  if (entry == nullptr) {
    request_errors->Add();
    return ErrorJson(InvalidArgumentError(
        "unknown op '" + *op +
        "' (ops: ping check open_session append_batch query close_session)"));
  }
  std::string response;
  {
    obs::ScopedSpan span(entry->span);
    response = DispatchOp(*op, *request);
  }
  entry->latency->Observe(std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count());
  // A handled-but-failed request still counts as an error for the gauge
  // wall (the envelope starts {"ok":false,...}).
  if (response.rfind("{\"ok\":false", 0) == 0) {
    request_errors->Add();
  }
  return response;
}

std::string Server::DispatchOp(const std::string& op, const RequestJson& request) {
  const JsonValue& envelope = request.envelope;
  if (op == "ping") return HandlePing();
  if (op == "check") return HandleCheck(envelope);
  if (op == "open_session") return HandleOpenSession(envelope);
  if (op == "append_batch") return HandleAppendBatch(envelope, request.batch);
  if (op == "query") return HandleQuery(envelope);
  return HandleCloseSession(envelope);
}

std::string Server::HandlePing() {
  JsonWriter json;
  json.BeginObject();
  json.Key("ok").Bool(true);
  json.Key("protocol").Int(1);
  json.Key("server").String("scoded");
  json.Key("sessions").Uint(sessions_.size());
  json.EndObject();
  return json.str();
}

std::string Server::HandleCheck(const JsonValue& request) {
  Result<std::string> csv_text = GetString(request, "csv");
  Result<std::string> sc_text = GetString(request, "sc");
  Result<double> alpha = GetNumberOr(request, "alpha", 0.05);
  if (!csv_text.ok() || !sc_text.ok() || !alpha.ok()) {
    return ErrorJson(!csv_text.ok() ? csv_text.status()
                                    : !sc_text.ok() ? sc_text.status() : alpha.status());
  }
  // Parse the raw CSV with the same reader the CLI uses so type inference,
  // null handling, and therefore the verdict are identical to a local
  // `scoded check` of the same bytes.
  Result<Table> table = csv::ReadString(*csv_text);
  if (!table.ok()) {
    return ErrorJson(table.status());
  }
  Result<StatisticalConstraint> sc = ParseConstraint(*sc_text);
  if (!sc.ok()) {
    return ErrorJson(sc.status());
  }
  ApproximateSc asc{std::move(sc).value(), *alpha};
  Scoded system(std::move(table).value());
  Result<ViolationReport> report = system.CheckViolation(asc);
  if (!report.ok()) {
    return ErrorJson(report.status());
  }
  JsonWriter json;
  json.BeginObject();
  json.Key("ok").Bool(true);
  json.Key("violated").Bool(report->violated);
  json.Key("p_value").DoubleFull(report->p_value);
  json.Key("statistic").DoubleFull(report->test.statistic);
  json.Key("method").String(TestMethodToString(report->test.method));
  json.Key("n").Int(report->test.n);
  json.Key("line").String(CheckResultLine(asc, *report));
  json.EndObject();
  return json.str();
}

std::string Server::HandleOpenSession(const JsonValue& request) {
  const JsonValue* schema_json = request.Find("schema");
  if (schema_json == nullptr) {
    return ErrorJson(InvalidArgumentError("open_session needs a schema array"));
  }
  Result<Schema> schema = ParseSchemaJson(*schema_json);
  if (!schema.ok()) {
    return ErrorJson(schema.status());
  }
  const JsonValue* constraints_json = request.Find("constraints");
  if (constraints_json == nullptr || !constraints_json->is_array() ||
      constraints_json->array.empty()) {
    return ErrorJson(
        InvalidArgumentError("open_session needs a non-empty constraints array"));
  }
  std::vector<ApproximateSc> constraints;
  constraints.reserve(constraints_json->array.size());
  for (const JsonValue& entry : constraints_json->array) {
    Result<std::string> sc_text = GetString(entry, "sc");
    Result<double> alpha = GetNumberOr(entry, "alpha", 0.05);
    if (!sc_text.ok() || !alpha.ok()) {
      return ErrorJson(!sc_text.ok() ? sc_text.status() : alpha.status());
    }
    Result<StatisticalConstraint> sc = ParseConstraint(*sc_text);
    if (!sc.ok()) {
      return ErrorJson(sc.status());
    }
    constraints.push_back({std::move(sc).value(), *alpha});
  }
  StreamMonitorOptions options;
  if (const JsonValue* window = request.Find("window"); window != nullptr) {
    Result<int64_t> rows = JsonInteger(*window, 0, INT64_MAX, "window (0 = unbounded)");
    if (!rows.ok()) {
      return ErrorJson(rows.status());
    }
    options.monitor.window = static_cast<size_t>(*rows);
  }
  Result<std::string> id = sessions_.Open(*schema, constraints, options);
  if (!id.ok()) {
    return ErrorJson(id.status());
  }
  JsonWriter json;
  json.BeginObject();
  json.Key("ok").Bool(true);
  json.Key("session").String(*id);
  json.EndObject();
  return json.str();
}

std::string Server::HandleAppendBatch(const JsonValue& request, const Result<Table>& batch) {
  Result<std::string> id = GetString(request, "session");
  if (!id.ok()) {
    return ErrorJson(id.status());
  }
  if (!batch.ok()) {
    return ErrorJson(batch.status());
  }
  size_t records = 0;
  Status status = sessions_.With(*id, [&](StreamMonitor& monitor) {
    SCODED_RETURN_IF_ERROR(monitor.Append(*batch));
    records = monitor.NumRecords();
    return OkStatus();
  });
  if (!status.ok()) {
    return ErrorJson(status);
  }
  JsonWriter json;
  json.BeginObject();
  json.Key("ok").Bool(true);
  json.Key("records").Uint(records);
  json.EndObject();
  return json.str();
}

std::string Server::HandleQuery(const JsonValue& request) {
  Result<std::string> id = GetString(request, "session");
  if (!id.ok()) {
    return ErrorJson(id.status());
  }
  std::vector<StreamMonitor::ConstraintState> states;
  bool any_violated = false;
  size_t records = 0;
  Status status = sessions_.With(*id, [&](StreamMonitor& monitor) {
    states = monitor.States();
    any_violated = monitor.AnyViolated();
    records = monitor.NumRecords();
    return OkStatus();
  });
  if (!status.ok()) {
    return ErrorJson(status);
  }
  JsonWriter json;
  json.BeginObject();
  json.Key("ok").Bool(true);
  json.Key("records").Uint(records);
  json.Key("any_violated").Bool(any_violated);
  json.Key("states").BeginArray();
  for (const StreamMonitor::ConstraintState& state : states) {
    json.BeginObject();
    json.Key("constraint").String(state.constraint);
    json.Key("statistic").DoubleFull(state.statistic);
    json.Key("p_value").DoubleFull(state.p_value);
    json.Key("violated").Bool(state.violated);
    json.Key("records").Uint(state.records);
    json.Key("line").String(MonitorStateLine(state));
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

std::string Server::HandleCloseSession(const JsonValue& request) {
  Result<std::string> id = GetString(request, "session");
  if (!id.ok()) {
    return ErrorJson(id.status());
  }
  if (Status status = sessions_.Close(*id); !status.ok()) {
    return ErrorJson(status);
  }
  JsonWriter json;
  json.BeginObject();
  json.Key("ok").Bool(true);
  json.EndObject();
  return json.str();
}

}  // namespace scoded::serve
