#include "jepod/protocol.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>

#include "rapl/quality.hpp"
#include "support/json_reader.hpp"
#include "support/json_writer.hpp"

namespace jepo::jepod {

std::string_view errorCodeName(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kBadJson: return "bad-json";
    case ErrorCode::kBadRequest: return "bad-request";
    case ErrorCode::kUnknownCommand: return "unknown-command";
    case ErrorCode::kParseError: return "parse-error";
    case ErrorCode::kRuntimeError: return "runtime-error";
    case ErrorCode::kQueueFull: return "queue-full";
    case ErrorCode::kShuttingDown: return "shutting-down";
    case ErrorCode::kDeadlineExceeded: return "deadline-exceeded";
    case ErrorCode::kCancelled: return "cancelled";
    case ErrorCode::kInternal: return "internal";
  }
  return "?";
}

namespace {

/// Moves the string field `key` out of `obj`.
std::string requireString(json::Value& obj, std::string_view key) {
  json::Value* v = obj.find(key);
  if (v == nullptr || !v->isString()) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        "missing or non-string field '" + std::string(key) +
                            "'");
  }
  return v->takeString();
}

std::uint64_t optionalU64(const json::Value& obj, std::string_view key,
                          std::uint64_t def) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) return def;
  if (!v->isNumber()) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        "field '" + std::string(key) +
                            "' must be a non-negative integer");
  }
  try {
    return v->asUint64();
  } catch (const Error&) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        "field '" + std::string(key) +
                            "' must be a non-negative integer");
  }
}

}  // namespace

JobRequest parseRequest(std::string_view line) {
  json::Value doc;
  try {
    doc = json::parseJson(line);
  } catch (const Error& e) {
    throw ProtocolError(ErrorCode::kBadJson, e.what());
  }
  if (!doc.isObject()) {
    throw ProtocolError(ErrorCode::kBadRequest, "request is not an object");
  }
  const std::uint64_t v = optionalU64(doc, "v", 0);
  if (v != static_cast<std::uint64_t>(kProtocolVersion)) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        "unsupported protocol version " + std::to_string(v) +
                            " (this daemon speaks v" +
                            std::to_string(kProtocolVersion) + ")");
  }
  JobRequest req;
  req.id = requireString(doc, "id");
  req.command = requireString(doc, "command");
  req.source = requireString(doc, "source");
  req.tenant = doc.stringOr("tenant", "default");
  if (req.tenant.empty()) req.tenant = "default";
  req.mainClass = doc.stringOr("mainClass", "");
  req.seed = optionalU64(doc, "seed", 0);
  req.heapLimit = optionalU64(doc, "heapLimit", 0);
  req.maxSteps = optionalU64(doc, "maxSteps", kDefaultMaxSteps);
  req.faultPlan = doc.stringOr("faultPlan", "");
  req.deadlineMs = optionalU64(doc, "deadlineMs", 0);
  if (req.deadlineMs > kMaxDeadlineMs) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        "field 'deadlineMs' must be at most " +
                            std::to_string(kMaxDeadlineMs));
  }
  req.tier = doc.stringOr("tier", "");
  if (!req.tier.empty()) {
    try {
      jvm::parseTierSpec(req.tier);
    } catch (const Error& e) {
      throw ProtocolError(ErrorCode::kBadRequest,
                          std::string("tier: ") + e.what());
    }
  }
  if (req.command != "profile" && req.command != "suggest" &&
      req.command != "optimize") {
    throw ProtocolError(ErrorCode::kUnknownCommand,
                        "unknown command '" + req.command +
                            "' (expected profile|suggest|optimize)");
  }
  return req;
}

namespace {

void beginResponse(JsonWriter& w, const std::string& id, bool ok) {
  w.beginObject();
  w.kv("v", kProtocolVersion);
  w.kv("id", id);
  w.kv("ok", ok);
}

/// Copy a string literal (without its terminator) to `p`; returns the end.
template <std::size_t N>
char* put(char* p, const char (&literal)[N]) {
  std::memcpy(p, literal, N - 1);
  return p + N - 1;
}

/// One record in one pass. Its keys never change, so it is literal
/// fragments around one escaped name and five numbers: everything after
/// the name is formatted into a stack buffer and appended at once. A
/// sampled record appends its tier keys, which full-tier records omit
/// (keeping their pre-tier bytes).
void appendRecord(std::string& out, const jvm::MethodRecord& r) {
  out += R"({"method":")";
  appendJsonEscaped(out, r.method);
  // Room for the literals (131 bytes), five numbers, an int (11 bytes)
  // and the two short names.
  char buf[160 + 5 * kMaxJsonNumberChars];
  char* p = put(buf, R"(","seconds":)");
  p = writeJsonNumber(p, r.seconds);
  p = put(p, R"(,"packageJoules":)");
  p = writeJsonNumber(p, r.packageJoules);
  p = put(p, R"(,"coreJoules":)");
  p = writeJsonNumber(p, r.coreJoules);
  p = put(p, R"(,"dramJoules":)");
  p = writeJsonNumber(p, r.dramJoules);
  p = r.truncated ? put(p, R"(,"truncated":true,"quality":")")
                  : put(p, R"(,"truncated":false,"quality":")");
  const std::string_view quality = rapl::qualityName(r.quality);
  p = std::copy(quality.begin(), quality.end(), p);
  p = put(p, R"(","readRetries":)");
  p = std::to_chars(p, p + 16, r.readRetries).ptr;
  if (r.tier != jvm::InstrTier::kFull) {
    p = put(p, R"(,"tier":")");
    const std::string_view tier = jvm::tierName(r.tier);
    p = std::copy(tier.begin(), tier.end(), p);
    p = put(p, R"(","samplingRate":)");
    p = writeJsonNumber(p, r.samplingRate);
  }
  *p++ = '}';
  out.append(buf, p);
}

void writeRecords(JsonWriter& w, const std::vector<jvm::MethodRecord>& rs) {
  w.key("records");
  w.rawValue([&rs](std::string& out) {
    out += '[';
    for (std::size_t i = 0; i < rs.size(); ++i) {
      if (i != 0) out += ',';
      appendRecord(out, rs[i]);
    }
    out += ']';
  });
}

}  // namespace

std::string renderProfileResponse(const JobRequest& req, bool cached,
                                  const ProfileResult& result) {
  JsonWriter w;
  // One allocation for the whole document (and the daemon's framing
  // newline) in the common case: the fixed keys of a record plus its four
  // shortest-form doubles come to ~180 bytes; an underestimate only costs
  // one regrowth.
  std::size_t methodBytes = 0;
  for (const auto& r : result.records) methodBytes += r.method.size();
  w.reserve(128 + req.id.size() + result.stdoutText.size() + methodBytes +
            180 * result.records.size());
  beginResponse(w, req.id, /*ok=*/true);
  w.kv("cached", cached);
  w.key("result");
  w.beginObject();
  w.kv("stdout", result.stdoutText);
  writeRecords(w, result.records);
  w.endObject();
  w.endObject();
  return w.take();
}

std::string renderSuggestResponse(const JobRequest& req, bool cached,
                                  const std::string& view) {
  JsonWriter w;
  beginResponse(w, req.id, /*ok=*/true);
  w.kv("cached", cached);
  w.key("result");
  w.beginObject();
  w.kv("view", view);
  w.endObject();
  w.endObject();
  return w.take();
}

std::string renderOptimizeResponse(const JobRequest& req, bool cached,
                                   const std::vector<OptimizeChange>& changes,
                                   const std::string& rewrittenSource) {
  JsonWriter w;
  beginResponse(w, req.id, /*ok=*/true);
  w.kv("cached", cached);
  w.key("result");
  w.beginObject();
  w.key("changes");
  w.beginArray();
  for (const auto& c : changes) {
    w.beginObject();
    w.kv("className", c.className);
    w.kv("line", c.line);
    w.kv("description", c.description);
    w.endObject();
  }
  w.endArray();
  w.kv("source", rewrittenSource);
  w.endObject();
  w.endObject();
  return w.take();
}

std::string renderErrorResponse(const std::string& id, ErrorCode code,
                                const std::string& message,
                                int retryAfterMs) {
  JsonWriter w;
  beginResponse(w, id, /*ok=*/false);
  w.key("error");
  w.beginObject();
  w.kv("code", errorCodeName(code));
  w.kv("message", message);
  w.endObject();
  if (retryAfterMs >= 0) w.kv("retryAfterMs", retryAfterMs);
  w.endObject();
  return w.take();
}

std::string renderRequest(const JobRequest& req) {
  JsonWriter w;
  w.beginObject();
  w.kv("v", kProtocolVersion);
  w.kv("id", req.id);
  w.kv("tenant", req.tenant);
  w.kv("command", req.command);
  w.kv("source", req.source);
  if (!req.mainClass.empty()) w.kv("mainClass", req.mainClass);
  w.kv("seed", req.seed);
  w.kv("heapLimit", req.heapLimit);
  w.kv("maxSteps", req.maxSteps);
  if (!req.faultPlan.empty()) w.kv("faultPlan", req.faultPlan);
  if (req.deadlineMs != 0) w.kv("deadlineMs", req.deadlineMs);
  // Omitted-when-default so pre-tier clients' request bytes are unchanged.
  if (!req.tier.empty() && req.tier != "full") w.kv("tier", req.tier);
  w.endObject();
  return w.take();
}

Response parseResponse(const std::string& line) {
  const json::Value doc = json::parseJson(line);
  JEPO_REQUIRE(doc.isObject(), "response is not an object");
  JEPO_REQUIRE(doc.uint64Or("v", 0) ==
                   static_cast<std::uint64_t>(kProtocolVersion),
               "response has an unsupported protocol version");
  Response resp;
  resp.raw = line;
  resp.id = doc.stringOr("id", "");
  resp.ok = doc.boolOr("ok", false);
  resp.cached = doc.boolOr("cached", false);
  if (!resp.ok) {
    if (const json::Value* err = doc.find("error")) {
      resp.errorCode = err->stringOr("code", "");
      resp.errorMessage = err->stringOr("message", "");
    }
    const json::Value* retry = doc.find("retryAfterMs");
    if (retry != nullptr && retry->isNumber()) {
      resp.retryAfterMs = static_cast<int>(retry->asUint64());
    }
    return resp;
  }
  const json::Value* result = doc.find("result");
  JEPO_REQUIRE(result != nullptr && result->isObject(),
               "ok response without a result object");
  resp.profile.stdoutText = result->stringOr("stdout", "");
  resp.view = result->stringOr("view", "");
  resp.rewrittenSource = result->stringOr("source", "");
  if (const json::Value* records = result->find("records")) {
    for (const json::Value& item : records->asArray()) {
      jvm::MethodRecord r;
      r.method = item.stringOr("method", "");
      r.seconds = item.doubleOr("seconds", 0.0);
      r.packageJoules = item.doubleOr("packageJoules", 0.0);
      r.coreJoules = item.doubleOr("coreJoules", 0.0);
      r.dramJoules = item.doubleOr("dramJoules", 0.0);
      r.truncated = item.boolOr("truncated", false);
      const std::string quality = item.stringOr("quality", "ok");
      for (int q = 0; q <= 3; ++q) {
        if (quality == rapl::qualityName(rapl::qualityFromIndex(q))) {
          r.quality = rapl::qualityFromIndex(q);
        }
      }
      r.readRetries =
          static_cast<int>(item.uint64Or("readRetries", 0));
      if (item.stringOr("tier", "full") == "sampled") {
        r.tier = jvm::InstrTier::kSampled;
      }
      r.samplingRate = item.doubleOr("samplingRate", 1.0);
      resp.profile.records.push_back(std::move(r));
    }
  }
  return resp;
}

}  // namespace jepo::jepod
