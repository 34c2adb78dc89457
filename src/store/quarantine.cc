#include "store/quarantine.h"

#include <utility>

#include "store/io.h"
#include "store/json.h"

namespace enld {
namespace store {

Status WriteQuarantineJson(const QuarantineLog& log, const std::string& path) {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", JsonValue::String("enld-quarantine-v1"));
  doc.Set("total", JsonValue::Number(static_cast<double>(log.total())));
  doc.Set("recorded",
          JsonValue::Number(static_cast<double>(log.records().size())));
  doc.Set("capacity",
          JsonValue::Number(static_cast<double>(log.capacity())));
  doc.Set("truncated", JsonValue::Bool(log.truncated()));

  JsonValue records = JsonValue::Array();
  for (const QuarantineRecord& record : log.records()) {
    JsonValue entry = JsonValue::Object();
    entry.Set("request",
              JsonValue::Number(static_cast<double>(record.request)));
    entry.Set("request_id",
              JsonValue::Number(static_cast<double>(record.request_id)));
    entry.Set("row", JsonValue::Number(static_cast<double>(record.row)));
    entry.Set("sample_id",
              JsonValue::Number(static_cast<double>(record.sample_id)));
    entry.Set("reason",
              JsonValue::String(RejectionReasonName(record.reason)));
    entry.Set("column",
              JsonValue::Number(static_cast<double>(record.column)));
    // NaN is not representable in JSON; the non-finite offender values are
    // exactly what lands here, so serialize the value as a string.
    entry.Set("value", JsonValue::String(std::to_string(record.value)));
    entry.Set("detail", JsonValue::String(record.detail));
    records.items().push_back(std::move(entry));
  }
  doc.Set("records", std::move(records));
  return WriteFileDurable(path, doc.ToString());
}

StatusOr<QuarantineFile> ReadQuarantineJson(const std::string& path) {
  StatusOr<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  StatusOr<JsonValue> parsed = JsonValue::Parse(text.value());
  if (!parsed.ok()) return parsed.status();
  const JsonValue& doc = parsed.value();
  if (!doc.is_object()) {
    return Status::InvalidArgument("quarantine log is not a JSON object");
  }
  const JsonValue* schema = doc.Find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->AsString() != "enld-quarantine-v1") {
    return Status::InvalidArgument(
        "missing or unsupported quarantine log schema");
  }

  QuarantineFile file;
  ENLD_RETURN_IF_ERROR(GetUInt(doc, "total", &file.total));
  ENLD_RETURN_IF_ERROR(GetUInt(doc, "capacity", &file.capacity));
  const JsonValue* records = doc.Find("records");
  if (records == nullptr || !records->is_array()) {
    return Status::InvalidArgument("quarantine log has no 'records' array");
  }
  for (const JsonValue& item : records->items()) {
    if (!item.is_object()) {
      return Status::InvalidArgument("malformed quarantine record");
    }
    QuarantineFileRecord record;
    ENLD_RETURN_IF_ERROR(GetUInt(item, "request", &record.request));
    ENLD_RETURN_IF_ERROR(GetUInt(item, "row", &record.row));
    ENLD_RETURN_IF_ERROR(GetUInt(item, "sample_id", &record.sample_id));
    const JsonValue* reason = item.Find("reason");
    if (reason == nullptr || !reason->is_string() ||
        reason->AsString().empty()) {
      return Status::InvalidArgument(
          "quarantine record has no 'reason' string");
    }
    record.reason = reason->AsString();
    // request_id, column, value and detail are optional: files from
    // builds before each field existed still replay.
    // An optional number that is not an integer in range is ignored.
    (void)GetUInt(item, "request_id", &record.request_id);
    (void)GetUInt(item, "column", &record.column);
    const JsonValue* value = item.Find("value");
    if (value != nullptr && value->is_string()) {
      record.value = value->AsString();
    }
    const JsonValue* detail = item.Find("detail");
    if (detail != nullptr && detail->is_string()) {
      record.detail = detail->AsString();
    }
    file.records.push_back(std::move(record));
  }
  const JsonValue* truncated = doc.Find("truncated");
  file.truncated =
      truncated != nullptr && truncated->kind() == JsonValue::Kind::kBool
          ? truncated->AsBool()
          : file.total > file.records.size();
  return file;
}

}  // namespace store
}  // namespace enld
