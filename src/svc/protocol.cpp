#include "svc/protocol.h"

namespace infoleak::svc {

Result<Request> ParseRequest(std::string_view line) {
  auto parsed = ParseJson(line);
  if (!parsed.ok()) return parsed.status();
  if (!parsed->is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  Request req;
  const JsonValue* verb = parsed->Find("verb");
  if (verb == nullptr || !verb->is_string() || verb->as_string().empty()) {
    return Status::InvalidArgument("request is missing a string \"verb\"");
  }
  req.verb = verb->as_string();
  if (const JsonValue* id = parsed->Find("id"); id != nullptr) {
    req.id = id->Render();
  }
  req.body = std::move(parsed).value();
  return req;
}

JsonValue OkResponse(const std::string& id) {
  JsonValue obj = JsonValue::Object();
  if (!id.empty()) {
    // The id was captured as rendered JSON; re-parse so it nests as a value
    // rather than a quoted blob. It came out of our own renderer, so the
    // parse cannot fail.
    auto echoed = ParseJson(id);
    obj.Set("id", echoed.ok() ? std::move(echoed).value()
                              : JsonValue::Str(id));
  }
  obj.Set("ok", JsonValue::Bool(true));
  return obj;
}

std::string ErrorResponse(const std::string& id, std::string_view code,
                          std::string_view message) {
  std::string out = "{";
  if (!id.empty()) {
    out += "\"id\":";
    out += id;
    out += ',';
  }
  out += "\"ok\":false,\"code\":";
  out += JsonQuote(code);
  out += ",\"error\":";
  out += JsonQuote(message);
  out += '}';
  return out;
}

std::string_view WireCode(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
      return "invalid_argument";
    case StatusCode::kNotFound:
    case StatusCode::kOutOfRange:
      return "not_found";
    case StatusCode::kFailedPrecondition:
      return "failed_precondition";
    case StatusCode::kResourceExhausted:
      return "resource_exhausted";
    case StatusCode::kDeadlineExceeded:
      return "deadline_exceeded";
    default:
      return "internal";
  }
}

std::string StatusResponse(const std::string& id, const Status& status) {
  return ErrorResponse(id, WireCode(status), status.message());
}

}  // namespace infoleak::svc
