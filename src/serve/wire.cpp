#include "serve/wire.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <algorithm>
#include <cstring>
#include <optional>
#include <sstream>
#include <type_traits>

#include "netlist/bench_io.hpp"
#include "support/crc32.hpp"
#include "support/error.hpp"
#include "support/parse.hpp"

namespace cfpm::serve::wire {

namespace {

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint16_t get_u16(std::string_view in, std::size_t at) {
  return static_cast<std::uint16_t>(
      static_cast<unsigned char>(in[at]) |
      (static_cast<unsigned char>(in[at + 1]) << 8));
}

std::uint32_t get_u32(std::string_view in, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(in[at + i]);
  }
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

std::string encode_frame(MsgType type, std::string_view payload) {
  if (payload.size() > kMaxPayload) {
    throw ContractError("wire: payload exceeds kMaxPayload");
  }
  std::string out;
  out.reserve(kHeaderSize + payload.size());
  out.append(kMagic, sizeof(kMagic));
  put_u16(out, kProtocolVersion);
  put_u16(out, static_cast<std::uint16_t>(type));
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, Crc32::of(payload));
  out.append(payload);
  return out;
}

MsgType decode_header(std::string_view header, std::uint32_t& payload_length,
                      std::uint32_t& payload_crc) {
  if (header.size() < kHeaderSize) {
    throw ParseError("wire: short frame header");
  }
  if (std::memcmp(header.data(), kMagic, sizeof(kMagic)) != 0) {
    throw ParseError("wire: bad frame magic");
  }
  const std::uint16_t version = get_u16(header, 4);
  if (version != kProtocolVersion) {
    throw Error("wire: protocol version mismatch (peer " +
                std::to_string(version) + ", this build " +
                std::to_string(kProtocolVersion) + ")");
  }
  const std::uint16_t type = get_u16(header, 6);
  if (type < static_cast<std::uint16_t>(MsgType::kBuildRequest) ||
      type > static_cast<std::uint16_t>(MsgType::kChipReply)) {
    throw ParseError("wire: unknown message type " + std::to_string(type));
  }
  payload_length = get_u32(header, 8);
  if (payload_length > kMaxPayload) {
    throw ParseError("wire: declared payload length " +
                     std::to_string(payload_length) + " exceeds limit");
  }
  payload_crc = get_u32(header, 12);
  return static_cast<MsgType>(type);
}

void check_payload(std::string_view payload, std::uint32_t expected_crc) {
  if (Crc32::of(payload) != expected_crc) {
    throw ParseError("wire: payload crc mismatch (torn or corrupt frame)");
  }
}

void write_frame(int fd, MsgType type, std::string_view payload) {
  const std::string frame = encode_frame(type, payload);
  std::size_t off = 0;
  while (off < frame.size()) {
    // MSG_NOSIGNAL: a peer that hung up is an IoError for this connection,
    // not a SIGPIPE that kills the whole process (daemon or client).
    ssize_t n = ::send(fd, frame.data() + off, frame.size() - off,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) {
      n = ::write(fd, frame.data() + off, frame.size() - off);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError(std::string("wire: write failed: ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

namespace {

/// Reads exactly `n` bytes. Returns false on EOF before the first byte when
/// `eof_ok`; throws IoError on errors or mid-buffer EOF.
bool read_exact(int fd, char* buf, std::size_t n, bool eof_ok) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t r = ::read(fd, buf + off, n - off);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw IoError(std::string("wire: read failed: ") + std::strerror(errno));
    }
    if (r == 0) {
      if (off == 0 && eof_ok) return false;
      throw IoError("wire: unexpected EOF mid-frame");
    }
    off += static_cast<std::size_t>(r);
  }
  return true;
}

}  // namespace

bool read_frame(int fd, Frame& out) {
  char header[kHeaderSize];
  if (!read_exact(fd, header, kHeaderSize, /*eof_ok=*/true)) return false;
  std::uint32_t length = 0;
  std::uint32_t crc = 0;
  out.type = decode_header({header, kHeaderSize}, length, crc);
  out.payload.resize(length);
  if (length > 0) {
    read_exact(fd, out.payload.data(), length, /*eof_ok=*/false);
  }
  check_payload(out.payload, crc);
  return true;
}

// ---------------------------------------------------------------------------
// Message payloads
// ---------------------------------------------------------------------------
//
// A payload is a sequence of `key value` lines; a field may be followed by
// a counted byte block or by one line per element of a list. Each
// message's sequence is written once, as a fields(io, msg) overload: Writer
// walks it to encode and Reader walks it to decode, so field order, value
// checks and row layouts cannot drift between the two directions.

namespace {

/// Largest valid value of an enum that crosses the wire, and the noun a
/// decode error names it by.
struct EnumRange {
  unsigned max;
  const char* noun;
};
constexpr EnumRange range_of(power::ModelKind) {
  return {static_cast<unsigned>(power::ModelKind::kLinear), "model kind"};
}
constexpr EnumRange range_of(power::VariableOrder) {
  return {static_cast<unsigned>(power::VariableOrder::kBlocked),
          "variable order"};
}
constexpr EnumRange range_of(power::BuildOutcome) {
  return {static_cast<unsigned>(power::BuildOutcome::kFallback), "outcome"};
}
constexpr EnumRange range_of(service::StatusCode) {
  return {static_cast<unsigned>(service::StatusCode::kInternal), "status"};
}
constexpr EnumRange range_of(service::ErrorKind) {
  return {static_cast<unsigned>(service::ErrorKind::kInternal), "error kind"};
}

// ----- value spellings: put() appends a value, get() parses one -----------

void put(std::string& out, bool v) { out += v ? '1' : '0'; }
void put(std::string& out, double v) { out += format_double(v); }
/// Every integer and enum on the wire is unsigned.
template <typename T>
  requires std::is_integral_v<T> || std::is_enum_v<T>
void put(std::string& out, T v) {
  out += std::to_string(static_cast<std::uint64_t>(v));
}
void put(std::string& out, const std::string& v) { out += v; }
/// Optionals (deadlines) spell their empty state "none".
void put(std::string& out, const std::optional<std::size_t>& v) {
  out += v ? std::to_string(*v) : std::string("none");
}
void put(std::string& out, const service::ModelId& v) { out += v.to_hex(); }

[[noreturn]] void bad_value(std::string_view key, std::string_view v) {
  throw ParseError("wire: bad value for '" + std::string(key) + "': '" +
                   std::string(v) + "'");
}

void get(std::string_view v, std::string_view key, bool& out) {
  if (v != "0" && v != "1") bad_value(key, v);
  out = v == "1";
}
template <typename T>
  requires std::is_arithmetic_v<T>
void get(std::string_view v, std::string_view key, T& out) {
  const auto parsed = parse_number<T>(v);
  if (!parsed) bad_value(key, v);
  out = *parsed;
}
template <typename E>
  requires std::is_enum_v<E>
void get(std::string_view v, std::string_view key, E& out) {
  unsigned raw = 0;
  get(v, key, raw);
  const EnumRange range = range_of(E{});
  if (raw > range.max) {
    throw ParseError("wire: unknown " + std::string(range.noun) + " " +
                     std::to_string(raw));
  }
  out = static_cast<E>(raw);
}
void get(std::string_view v, std::string_view, std::string& out) {
  out = std::string(v);
}
void get(std::string_view v, std::string_view key,
         std::optional<std::size_t>& out) {
  out.reset();
  if (v != "none") get(v, key, out.emplace());
}
void get(std::string_view v, std::string_view, service::ModelId& out) {
  const auto id = service::ModelId::from_hex(v);
  if (!id) throw ParseError("wire: bad model id: '" + std::string(v) + "'");
  out = *id;
}

// ----- the two directions ---------------------------------------------------
//
// field() is one `key value` line. rows() writes one `key item item ...`
// line per list element, whose items row_fields() names through item();
// rest() is an item that runs to the end of the line, spaces included.

class Writer {
 public:
  template <typename T>
  void field(std::string_view key, const T& v) {
    out_ += key;
    item(v);
    out_ += '\n';
  }

  template <typename T>
  void item(const T& v) {
    out_ += ' ';
    put(out_, v);
  }
  void rest(const std::string& v) { item(v); }

  template <typename T>
  void rows(std::string_view key, std::vector<T>& items,
            std::uint64_t /*count*/) {
    for (T& element : items) {
      out_ += key;
      row_fields(*this, element);
      out_ += '\n';
    }
  }

  /// `key <size>`, then the bytes verbatim with no trailing newline.
  void block(std::string_view key, const std::string& bytes) {
    field(key, bytes.size());
    out_ += bytes;
  }

  /// The netlist as a block of canonical .bench text.
  void netlist(std::string_view key, const std::string& /*circuit*/,
               const netlist::Netlist& n) {
    std::ostringstream text;
    netlist::write_bench(text, n);
    block(key, text.str());
  }

  /// The trace as a block of inputs x length '0'/'1' bytes, step-major.
  void bits(std::string_view key, std::size_t /*inputs*/,
            std::size_t /*length*/, const sim::InputSequence& t) {
    std::string bits;
    bits.reserve(t.length() * t.num_inputs());
    for (std::size_t step = 0; step < t.length(); ++step) {
      for (std::size_t i = 0; i < t.num_inputs(); ++i) {
        bits.push_back(t.bit(i, step) ? '1' : '0');
      }
    }
    block(key, bits);
  }

  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Sequential reader over a payload; every shortfall is a ParseError.
class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  template <typename T>
  void field(std::string_view key, T& v) {
    get(value(key), key, v);
  }

  /// Items are space-separated. Chip component names are generated
  /// ("b2.m1.add5") and never contain spaces, so this is unambiguous.
  template <typename T>
  void item(T& v) {
    if (row_pos_ > row_.size()) {
      throw ParseError("wire: too few items in '" + std::string(row_key_) +
                       "' line");
    }
    const std::size_t end = std::min(row_.find(' ', row_pos_), row_.size());
    get(row_.substr(row_pos_, end - row_pos_), row_key_, v);
    row_pos_ = end + 1;
  }
  void rest(std::string& v) {
    v = std::string(row_.substr(row_pos_));
    row_pos_ = row_.size() + 1;
  }

  /// Exactly `count` rows, appended one line at a time so that a huge
  /// declared count runs out of payload, not memory.
  template <typename T>
  void rows(std::string_view key, std::vector<T>& items, std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      row_ = value(key);
      row_key_ = key;
      row_pos_ = 0;
      T element;
      row_fields(*this, element);
      if (row_pos_ <= row_.size()) {
        throw ParseError("wire: too many items in '" + std::string(key) +
                         "' line");
      }
      items.push_back(std::move(element));
    }
  }

  void block(std::string_view key, std::string& bytes) {
    std::size_t n = 0;
    field(key, n);
    bytes = std::string(take(n));
  }

  void netlist(std::string_view key, const std::string& circuit,
               netlist::Netlist& n) {
    std::string bench;
    block(key, bench);
    std::istringstream text(std::move(bench));
    n = netlist::read_bench(text, circuit);
  }

  void bits(std::string_view key, std::size_t inputs, std::size_t length,
            sim::InputSequence& t) {
    if (inputs == 0) throw ParseError("wire: trace with zero inputs");
    std::size_t declared = 0;
    field(key, declared);
    // Bounded by the bytes left before multiplying, so the product can
    // neither wrap nor size an allocation the payload cannot fill.
    if (length > (text_.size() - pos_) / inputs) {
      throw ParseError("wire: trace larger than its payload");
    }
    if (declared != inputs * length) {
      throw ParseError("wire: trace bit count mismatch");
    }
    const std::string_view bits = take(declared);
    t = sim::InputSequence(inputs, length);
    for (std::size_t step = 0; step < length; ++step) {
      for (std::size_t i = 0; i < inputs; ++i) {
        const char c = bits[step * inputs + i];
        if (c != '0' && c != '1') {
          throw ParseError("wire: trace bit is not 0/1");
        }
        t.set_bit(i, step, c == '1');
      }
    }
  }

 private:
  /// Next line must be `key value`; returns `value` (may contain spaces).
  std::string_view value(std::string_view key) {
    if (pos_ >= text_.size()) {
      throw ParseError("wire: truncated payload (expected another line)");
    }
    const auto nl = text_.find('\n', pos_);
    if (nl == std::string_view::npos) {
      throw ParseError("wire: unterminated line in payload");
    }
    const std::string_view l = text_.substr(pos_, nl - pos_);
    pos_ = nl + 1;
    if (l.size() <= key.size() || l.substr(0, key.size()) != key ||
        l[key.size()] != ' ') {
      throw ParseError("wire: expected field '" + std::string(key) +
                       "', got '" + std::string(l) + "'");
    }
    return l.substr(key.size() + 1);
  }

  /// Raw counted block (no trailing newline is consumed).
  std::string_view take(std::size_t n) {
    if (text_.size() - pos_ < n) {
      throw ParseError("wire: truncated payload (counted block)");
    }
    const std::string_view out = text_.substr(pos_, n);
    pos_ += n;
    return out;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string_view row_;  // the value of the row rows() is reading
  std::string_view row_key_;
  std::size_t row_pos_ = 0;
};

// ----- one field list per message -------------------------------------------

template <class Io>
void row_fields(Io& io, service::ChipMacroSummary& m) {
  io.item(m.name);
  io.item(m.instances);
  io.item(m.inputs);
  io.item(m.avg_nodes);
  io.item(m.bound_nodes);
  io.item(m.avg_outcome);
  io.item(m.bound_outcome);
  io.item(m.cache_hit);
}

template <class Io>
void row_fields(Io& io, service::ChipComponentTotal& c) {
  io.item(c.name);
  io.item(c.total_ff);
}

/// A registry stats entry is opaque text ("<hex-id> <nodes> <circuit>").
template <class Io>
void row_fields(Io& io, std::string& line) {
  io.rest(line);
}

/// `count_key <n>`, then n `row_key ...` lines.
template <class Io, typename T>
void counted_rows(Io& io, std::string_view count_key, std::string_view row_key,
                  std::vector<T>& items) {
  std::size_t count = items.size();
  io.field(count_key, count);
  io.rows(row_key, items, count);
}

template <class Io>
void fields(Io& io, service::BuildRequest& req) {
  io.field("version", req.api_version);
  std::string circuit = req.netlist.name();
  io.field("circuit", circuit);
  service::BuildOptions& o = req.options;
  io.field("kind", o.kind);
  io.field("max-nodes", o.max_nodes);
  io.field("order", o.order);
  io.field("reorder-passes", o.reorder_passes);
  io.field("approx", o.approximate_during_construction);
  io.field("degrade", o.degrade);
  io.field("deadline-ms", o.deadline_ms);
  io.field("char-vectors", o.characterization_vectors);
  io.field("char-seed", o.characterization_seed);
  io.netlist("netlist", circuit, req.netlist);
}

/// The reply carries no model object (the daemon keeps it).
template <class Io>
void fields(Io& io, service::BuildReply& reply) {
  io.field("id", reply.id);
  io.field("status", reply.status);
  io.field("nodes", reply.model_nodes);
  io.field("cache-hit", reply.cache_hit);
  io.field("outcome", reply.build_info.outcome);
  io.field("attempts", reply.build_info.attempts);
}

template <class Io>
void fields(Io& io, EvalQuery& q) {
  io.field("version", q.request.api_version);
  io.field("id", q.id);
  io.field("sp", q.request.statistics.sp);
  io.field("st", q.request.statistics.st);
  io.field("vectors", q.request.vectors);
  io.field("seed", q.request.seed);
}

template <class Io>
void fields(Io& io, service::EvalReply& reply) {
  io.field("status", reply.status);
  io.field("cache-hit", reply.cache_hit);
  io.field("total", reply.total_ff);
  io.field("average", reply.average_ff);
  io.field("peak", reply.peak_ff);
  io.field("transitions", reply.transitions);
}

template <class Io>
void fields(Io& io, TraceQuery& q) {
  // A TraceQuery has no version member: it is always sent at, and only
  // accepted at, this build's API version.
  std::uint32_t version = service::kApiVersion;
  io.field("version", version);
  if (version != service::kApiVersion) {
    throw service::UsageError("wire: unsupported api version " +
                              std::to_string(version));
  }
  io.field("id", q.id);
  std::size_t inputs = q.trace.num_inputs();
  std::size_t length = q.trace.length();
  io.field("inputs", inputs);
  io.field("length", length);
  io.bits("bits", inputs, length, q.trace);
}

template <class Io>
void fields(Io& io, StatsReply& reply) {
  io.field("models", reply.models);
  io.field("hits", reply.hits);
  io.field("misses", reply.misses);
  io.field("builds", reply.builds);
  io.rows("entry", reply.model_lines, reply.models);  // one per model
}

template <class Io>
void fields(Io& io, service::ErrorPayload& error) {
  io.field("code", error.code);
  io.field("kind", error.kind);
  io.block("message", error.message);
}

template <class Io>
void fields(Io& io, service::ChipRequest& req) {
  io.field("version", req.api_version);
  io.field("spec", req.spec);
  io.field("max-nodes", req.max_nodes);
  io.field("degrade", req.degrade);
  io.field("deadline-ms", req.deadline_ms);
  io.field("sp", req.statistics.sp);
  io.field("st", req.statistics.st);
  io.field("vectors", req.vectors);
  io.field("seed", req.seed);
}

template <class Io>
void fields(Io& io, service::ChipReply& reply) {
  io.field("status", reply.status);
  io.field("spec", reply.spec);
  io.field("macros", reply.macros);
  io.field("components", reply.components);
  io.field("bus-bits", reply.bus_bits);
  io.field("transitions", reply.transitions);
  io.field("total", reply.total_ff);
  io.field("average", reply.average_ff);
  io.field("peak", reply.peak_ff);
  io.field("bound-total", reply.bound_total_ff);
  io.field("bound-peak", reply.bound_peak_ff);
  io.field("worst-sum", reply.worst_case_sum_ff);
  io.field("cache-hits", reply.cache_hits);
  counted_rows(io, "library", "macro", reply.library);
  counted_rows(io, "blocks", "block", reply.blocks);
  counted_rows(io, "instances", "instance", reply.instances);
}

template <class Msg>
std::string encode(const Msg& msg) {
  Writer w;
  fields(w, const_cast<Msg&>(msg));  // Writer only reads through it
  return w.take();
}

template <class Msg>
Msg decode(std::string_view payload) {
  Reader r(payload);
  Msg msg;
  fields(r, msg);
  return msg;
}

}  // namespace

std::string encode_build_request(const service::BuildRequest& req) {
  return encode(req);
}
service::BuildRequest decode_build_request(std::string_view payload) {
  return decode<service::BuildRequest>(payload);
}

std::string encode_build_reply(const service::BuildReply& reply) {
  return encode(reply);
}
service::BuildReply decode_build_reply(std::string_view payload) {
  return decode<service::BuildReply>(payload);
}

std::string encode_eval_query(const EvalQuery& query) { return encode(query); }
EvalQuery decode_eval_query(std::string_view payload) {
  return decode<EvalQuery>(payload);
}

std::string encode_eval_reply(const service::EvalReply& reply) {
  return encode(reply);
}
service::EvalReply decode_eval_reply(std::string_view payload) {
  return decode<service::EvalReply>(payload);
}

std::string encode_trace_query(const TraceQuery& query) {
  return encode(query);
}
TraceQuery decode_trace_query(std::string_view payload) {
  return decode<TraceQuery>(payload);
}

std::string encode_stats_reply(const StatsReply& reply) {
  return encode(reply);
}
StatsReply decode_stats_reply(std::string_view payload) {
  return decode<StatsReply>(payload);
}

std::string encode_error(const service::ErrorPayload& error) {
  return encode(error);
}
service::ErrorPayload decode_error(std::string_view payload) {
  return decode<service::ErrorPayload>(payload);
}

std::string encode_chip_request(const service::ChipRequest& req) {
  return encode(req);
}
service::ChipRequest decode_chip_request(std::string_view payload) {
  return decode<service::ChipRequest>(payload);
}

std::string encode_chip_reply(const service::ChipReply& reply) {
  return encode(reply);
}
service::ChipReply decode_chip_reply(std::string_view payload) {
  return decode<service::ChipReply>(payload);
}

}  // namespace cfpm::serve::wire
