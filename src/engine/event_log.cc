#include "src/engine/event_log.h"

#include "src/common/error.h"
#include "src/common/wire.h"

namespace rush {

namespace {

/// One record: u32 body length | body | u64 FNV-1a(body).
void append_record(WireWriter& out, const EngineEvent& event) {
  // rushlint-pair-reader: parse_records
  // rushlint-schema-owner: kProtocolVersion
  WireWriter body;
  // rushlint: wire-asym(the body is staged in a scratch writer before the length prefix)
  serialize_event(event, body);
  out.put_u32(static_cast<std::uint32_t>(body.buffer().size()));
  const std::uint64_t checksum = wire_fnv1a(body.buffer());
  out.put_raw(body.buffer());
  out.put_u64(checksum);
}

}  // namespace

EventLogWriter::EventLogWriter(const std::string& path, bool truncate)
    : out_(path, std::ios::binary | (truncate ? std::ios::trunc : std::ios::app)),
      path_(path) {
  require(out_.good(), "EventLogWriter: cannot open " + path);
}

void EventLogWriter::append(const EngineEvent& event) {
  WireWriter record;
  append_record(record, event);
  out_.write(record.buffer().data(), static_cast<std::streamsize>(record.buffer().size()));
  out_.flush();
  if (!out_.good()) throw InvalidInput("EventLogWriter: write to " + path_ + " failed");
  ++records_;
}

std::string serialize_events(const std::vector<EngineEvent>& events) {
  // rushlint-schema-owner: kProtocolVersion
  WireWriter out;
  for (const EngineEvent& event : events) append_record(out, event);
  return out.take();
}

namespace {

std::vector<EngineEvent> parse_records(std::string_view bytes, bool allow_torn_tail,
                                       const std::string& context) {
  std::vector<EngineEvent> events;
  WireReader in(bytes);
  while (!in.at_end()) {
    EngineEvent event;
    try {
      const std::uint32_t length = in.get_u32();
      const std::string body = in.get_bytes(length);
      const std::uint64_t want = in.get_u64();
      require(wire_fnv1a(body) == want, context + ": record checksum mismatch");
      WireReader record(body);
      // rushlint: wire-asym(the body is re-read from the checksummed record, after the tail)
      event = deserialize_event(record);
      record.expect_end(context.c_str());
    } catch (const InvalidInput&) {
      // A torn final record is the expected crash artifact; anything that
      // leaves bytes after the failure point is real corruption.
      if (allow_torn_tail) return events;
      throw;
    }
    events.push_back(std::move(event));
  }
  return events;
}

}  // namespace

std::vector<EngineEvent> deserialize_events(std::string_view bytes) {
  return parse_records(bytes, /*allow_torn_tail=*/false, "deserialize_events");
}

std::vector<EngineEvent> read_event_log(const std::string& path, bool allow_torn_tail) {
  std::ifstream in(path, std::ios::binary);
  require(in.good(), "read_event_log: cannot open " + path);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return parse_records(bytes, allow_torn_tail, "read_event_log");
}

}  // namespace rush
