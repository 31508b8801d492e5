#ifndef SCODED_SERVE_CLIENT_H_
#define SCODED_SERVE_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/net.h"
#include "common/result.h"
#include "core/approximate_sc.h"
#include "table/table.h"

namespace scoded::serve {

/// Client side of the serve protocol: one connection, blocking
/// request/response calls. Error responses come back as the Status the
/// server produced (code and message reconstructed from the envelope), so
/// `client.Check(...)` fails exactly like the in-process call would.
class Client {
 public:
  /// Connects to a daemon on 127.0.0.1:`port` and arms both socket
  /// deadlines so a dead server cannot hang the caller.
  static Result<Client> Connect(uint16_t port, int deadline_millis = 60000);

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  /// Sends one raw request payload and returns the parsed response
  /// envelope, converting {"ok":false} responses into their Status.
  Result<JsonValue> Call(std::string_view payload);

  /// {"op":"ping"} round-trip.
  Result<JsonValue> Ping();

  /// One-shot remote check of raw CSV bytes. The response's "line" member
  /// is the byte-exact `scoded check` verdict line.
  Result<JsonValue> Check(std::string_view csv_text, const std::string& constraint,
                          double alpha);

  /// Opens a monitor session; returns the session id.
  Result<std::string> OpenSession(const Schema& schema,
                                  const std::vector<ApproximateSc>& constraints,
                                  size_t window);

  /// Streams one batch into a session; returns total ingested records. A
  /// response whose count is not an integer in [0, INT64_MAX] fails with
  /// kInvalidArgument rather than being cast.
  Result<size_t> AppendBatch(const std::string& session, const Table& batch);

  /// Current per-constraint states ("states" array; each carries the
  /// byte-exact `scoded monitor` row in "line").
  Result<JsonValue> Query(const std::string& session);

  Status CloseSession(const std::string& session);

 private:
  explicit Client(net::TcpConn conn) : conn_(std::move(conn)) {}

  net::TcpConn conn_;
};

}  // namespace scoded::serve

#endif  // SCODED_SERVE_CLIENT_H_
