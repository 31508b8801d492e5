#include "serve/client.h"

#include <cstdint>
#include <utility>

#include "serve/framing.h"
#include "serve/wire.h"

namespace scoded::serve {

Result<Client> Client::Connect(uint16_t port, int deadline_millis) {
  SCODED_ASSIGN_OR_RETURN(net::TcpConn conn, net::DialLoopback(port));
  SCODED_RETURN_IF_ERROR(conn.SetRecvTimeout(deadline_millis));
  SCODED_RETURN_IF_ERROR(conn.SetSendTimeout(deadline_millis));
  return Client(std::move(conn));
}

Result<JsonValue> Client::Call(std::string_view payload) {
  SCODED_RETURN_IF_ERROR(WriteFrame(conn_, payload));
  SCODED_ASSIGN_OR_RETURN(std::string response, ReadFrame(conn_));
  SCODED_ASSIGN_OR_RETURN(JsonValue envelope, ParseJson(response));
  const JsonValue* ok = envelope.Find("ok");
  if (ok == nullptr || !ok->is_bool()) {
    return InternalError("malformed response envelope (missing ok member)");
  }
  if (!ok->bool_value) {
    const JsonValue* code = envelope.Find("code");
    const JsonValue* message = envelope.Find("message");
    return Status(code != nullptr && code->is_string()
                      ? StatusCodeFromString(code->string_value)
                      : StatusCode::kInternal,
                  message != nullptr && message->is_string() ? message->string_value
                                                             : "server error");
  }
  return envelope;
}

Result<JsonValue> Client::Ping() { return Call(R"({"op":"ping"})"); }

Result<JsonValue> Client::Check(std::string_view csv_text, const std::string& constraint,
                                double alpha) {
  JsonWriter json;
  json.BeginObject();
  json.Key("op").String("check");
  json.Key("sc").String(constraint);
  json.Key("alpha").DoubleFull(alpha);
  json.Key("csv").String(csv_text);
  json.EndObject();
  return Call(json.str());
}

Result<std::string> Client::OpenSession(const Schema& schema,
                                        const std::vector<ApproximateSc>& constraints,
                                        size_t window) {
  JsonWriter json;
  json.BeginObject();
  json.Key("op").String("open_session");
  json.Key("schema");
  WriteSchemaJson(schema, json);
  json.Key("constraints").BeginArray();
  for (const ApproximateSc& asc : constraints) {
    json.BeginObject();
    json.Key("sc").String(asc.sc.ToString());
    json.Key("alpha").DoubleFull(asc.alpha);
    json.EndObject();
  }
  json.EndArray();
  json.Key("window").Uint(window);
  json.EndObject();
  SCODED_ASSIGN_OR_RETURN(JsonValue response, Call(json.str()));
  const JsonValue* id = response.Find("session");
  if (id == nullptr || !id->is_string()) {
    return InternalError("open_session response lacks a session id");
  }
  return id->string_value;
}

Result<size_t> Client::AppendBatch(const std::string& session, const Table& batch) {
  JsonWriter json;
  json.BeginObject();
  json.Key("op").String("append_batch");
  json.Key("session").String(session);
  json.Key("batch");
  WriteBatchJson(batch, json);
  json.EndObject();
  SCODED_ASSIGN_OR_RETURN(JsonValue response, Call(json.str()));
  const JsonValue* records = response.Find("records");
  if (records == nullptr || !records->is_number()) {
    return InternalError("append_batch response lacks a records count");
  }
  SCODED_ASSIGN_OR_RETURN(int64_t count, JsonInteger(*records, 0, INT64_MAX, "records"));
  return static_cast<size_t>(count);
}

Result<JsonValue> Client::Query(const std::string& session) {
  JsonWriter json;
  json.BeginObject();
  json.Key("op").String("query");
  json.Key("session").String(session);
  json.EndObject();
  return Call(json.str());
}

Status Client::CloseSession(const std::string& session) {
  JsonWriter json;
  json.BeginObject();
  json.Key("op").String("close_session");
  json.Key("session").String(session);
  json.EndObject();
  return Call(json.str()).status();
}

}  // namespace scoded::serve
