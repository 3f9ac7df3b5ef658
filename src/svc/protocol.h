#pragma once

#include <string>
#include <string_view>

#include "svc/json.h"
#include "util/result.h"

namespace infoleak::svc {

/// \brief Wire protocol of the leakage query service: newline-delimited
/// JSON, one request object per line, one response object per line, in
/// order. Requests name a verb and carry verb-specific string fields (see
/// docs/service.md for the full grammar):
///
///   {"verb":"set-leak","id":7,"reference":"{<N, Alice>}","weights":"N=2"}
///
/// Responses echo the client's `id` (when present) and carry either the
/// result fields or an error:
///
///   {"id":7,"ok":true,"leakage":0.5,"argmax":3,"records":100}
///   {"id":7,"ok":false,"code":"invalid_argument","error":"..."}
///
/// Error codes are a closed vocabulary: `invalid_argument`, `not_found`,
/// `failed_precondition` (the server cannot do this in its current mode or
/// state, e.g. `compact` without a data dir, or a WAL that refuses
/// appends), `resource_exhausted` (the request itself exceeds a limit, e.g.
/// a naive evaluation past its record-size cap; retrying cannot help),
/// `overloaded` (request shed by admission control; retry later),
/// `deadline_exceeded`, `frame_too_large`, `shutting_down`, and `internal`.

/// One parsed request line. `id` is the client's correlation value echoed
/// back verbatim (rendered JSON, so both numbers and strings round-trip);
/// empty when the request carried none.
struct Request {
  std::string verb;
  std::string id;
  JsonValue body;
};

/// Parses one request line: must be a JSON object with a string `verb`.
Result<Request> ParseRequest(std::string_view line);

/// Starts a success response for `id`: {"id":...,"ok":true, ...}. Callers
/// add result fields via JsonValue::Set and render with Render().
JsonValue OkResponse(const std::string& id);

/// Renders a complete error response line (no trailing newline).
std::string ErrorResponse(const std::string& id, std::string_view code,
                          std::string_view message);

/// Maps a Status to the wire error code vocabulary.
std::string_view WireCode(const Status& status);

/// Renders the error response for a failed Status.
std::string StatusResponse(const std::string& id, const Status& status);

}  // namespace infoleak::svc
