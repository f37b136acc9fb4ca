#include "net/wire.h"

#include <bit>
#include <cstring>
#include <utility>

#include "common/string_util.h"
#include "minidb/schema.h"

namespace orpheus::net {

using storage::Decoder;
using storage::Encoder;

namespace {

/// Statuses reconstructed from the wire reuse the StatusCode numbering; a
/// peer sending an out-of-range byte gets mapped to Internal.
// Smallest encodings of the repeated message elements, for GetCount.
constexpr size_t kMinConflictBytes = 5 * 4;           // five strings
constexpr size_t kMinColumnBytes = 4 + 1;             // name, type
constexpr size_t kMinCvdSummaryBytes = 4 + 3 * 4 + 1;  // name, 3 x i32, u8

// Byte offset of Request::deadline_ms in an EncodeRequest payload: op,
// request_seq, acked_seq, sid precede it.
constexpr size_t kDeadlineOffset = 1 + 8 + 8 + 8;

Status MakeStatus(uint8_t code, const std::string& message) {
  if (code == 0) return Status::OK();
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(message);
    case StatusCode::kNotFound:
      return Status::NotFound(message);
    case StatusCode::kAlreadyExists:
      return Status::AlreadyExists(message);
    case StatusCode::kConstraintViolation:
      return Status::ConstraintViolation(message);
    case StatusCode::kCorruption:
      return Status::Corruption(message);
    case StatusCode::kNotSupported:
      return Status::NotSupported(message);
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(message);
    case StatusCode::kDataLoss:
      return Status::DataLoss(message);
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(message);
    case StatusCode::kUnavailable:
      return Status::Unavailable(message);
    default:
      return Status::Internal(message);
  }
}

void EncodeConflict(const session::MergeConflict& c, Encoder* enc) {
  enc->PutString(c.key);
  enc->PutString(c.attribute);
  enc->PutString(c.base);
  enc->PutString(c.ours);
  enc->PutString(c.theirs);
}

Result<session::MergeConflict> DecodeConflict(Decoder* dec) {
  session::MergeConflict c;
  ORPHEUS_ASSIGN_OR_RETURN(c.key, dec->GetString());
  ORPHEUS_ASSIGN_OR_RETURN(c.attribute, dec->GetString());
  ORPHEUS_ASSIGN_OR_RETURN(c.base, dec->GetString());
  ORPHEUS_ASSIGN_OR_RETURN(c.ours, dec->GetString());
  ORPHEUS_ASSIGN_OR_RETURN(c.theirs, dec->GetString());
  return c;
}

void EncodeOutcome(const session::CommitOutcome& out, Encoder* enc) {
  enc->PutI32(out.vid);
  enc->PutI32(out.merged_vid);
  enc->PutI32(out.reconciled_with);
  enc->PutU8(out.reconciled ? 1 : 0);
  enc->PutU32(static_cast<uint32_t>(out.conflicts.size()));
  for (const session::MergeConflict& c : out.conflicts) {
    EncodeConflict(c, enc);
  }
}

Result<session::CommitOutcome> DecodeOutcome(Decoder* dec) {
  session::CommitOutcome out;
  ORPHEUS_ASSIGN_OR_RETURN(out.vid, dec->GetI32());
  ORPHEUS_ASSIGN_OR_RETURN(out.merged_vid, dec->GetI32());
  ORPHEUS_ASSIGN_OR_RETURN(out.reconciled_with, dec->GetI32());
  ORPHEUS_ASSIGN_OR_RETURN(uint8_t reconciled, dec->GetU8());
  out.reconciled = reconciled != 0;
  ORPHEUS_ASSIGN_OR_RETURN(uint32_t n,
                           dec->GetCount(kMinConflictBytes, "conflict"));
  out.conflicts.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ORPHEUS_ASSIGN_OR_RETURN(session::MergeConflict c, DecodeConflict(dec));
    out.conflicts.push_back(std::move(c));
  }
  return out;
}

}  // namespace

const char* OpName(Op op) {
  switch (op) {
    case Op::kOpen: return "open";
    case Op::kCheckout: return "checkout";
    case Op::kCommit: return "commit";
    case Op::kRefresh: return "refresh";
    case Op::kLs: return "ls";
    case Op::kClose: return "close";
    case Op::kHeartbeat: return "heartbeat";
  }
  return "unknown";
}

Status Response::ToStatus() const {
  return MakeStatus(code, message);
}

void Response::SetStatus(const Status& s, bool transient) {
  code = static_cast<uint8_t>(s.code());
  message = std::string(s.message());
  retryable = transient;
}

// ---------------------------------------------------------------------------
// Hello / HelloAck
// ---------------------------------------------------------------------------

std::string EncodeHello(const Hello& hello) {
  Encoder enc;
  enc.PutString(hello.magic);
  enc.PutU32(hello.protocol_version);
  enc.PutString(hello.client_uuid);
  return enc.Take();
}

Result<Hello> DecodeHello(std::string_view payload) {
  Decoder dec(payload);
  Hello hello;
  ORPHEUS_ASSIGN_OR_RETURN(hello.magic, dec.GetString());
  ORPHEUS_ASSIGN_OR_RETURN(hello.protocol_version, dec.GetU32());
  ORPHEUS_ASSIGN_OR_RETURN(hello.client_uuid, dec.GetString());
  return hello;
}

std::string EncodeHelloAck(const HelloAck& ack) {
  Encoder enc;
  enc.PutU32(ack.protocol_version);
  enc.PutString(ack.server_id);
  enc.PutU8(ack.degraded ? 1 : 0);
  enc.PutU8(ack.code);
  enc.PutString(ack.message);
  return enc.Take();
}

Result<HelloAck> DecodeHelloAck(std::string_view payload) {
  Decoder dec(payload);
  HelloAck ack;
  ORPHEUS_ASSIGN_OR_RETURN(ack.protocol_version, dec.GetU32());
  ORPHEUS_ASSIGN_OR_RETURN(ack.server_id, dec.GetString());
  ORPHEUS_ASSIGN_OR_RETURN(uint8_t degraded, dec.GetU8());
  ack.degraded = degraded != 0;
  ORPHEUS_ASSIGN_OR_RETURN(ack.code, dec.GetU8());
  ORPHEUS_ASSIGN_OR_RETURN(ack.message, dec.GetString());
  return ack;
}

// ---------------------------------------------------------------------------
// Table codec
// ---------------------------------------------------------------------------

const minidb::Table* WireTable::get() const {
  if (const auto* owned = std::get_if<std::unique_ptr<minidb::Table>>(&table_)) {
    return owned->get();
  }
  return std::get<const minidb::Table*>(table_);
}

std::unique_ptr<minidb::Table> WireTable::Take() {
  auto* owned = std::get_if<std::unique_ptr<minidb::Table>>(&table_);
  return owned != nullptr ? std::move(*owned) : nullptr;
}

namespace {

/// The fixed-width payload of a kInt64/kDouble column as little-endian
/// bytes: a view of the column's own storage on little-endian hosts.
template <typename T>
void PutFixedWidth(const std::vector<T>& values, size_t nrows,
                   Encoder* enc) {
  if (nrows == 0) return;  // an empty vector's data() may be null
  if constexpr (std::endian::native == std::endian::little) {
    enc->PutBytes(std::string_view(
        reinterpret_cast<const char*>(values.data()), nrows * sizeof(T)));
  } else {
    for (size_t r = 0; r < nrows; ++r) {
      uint64_t bits;
      std::memcpy(&bits, &values[r], sizeof(bits));
      enc->PutU64(bits);
    }
  }
}

void EncodeColumn(const minidb::Column& col, size_t nrows, Encoder* enc) {
  using minidb::ValueType;
  std::string nulls;
  for (size_t r = 0; r < nrows; ++r) {
    if (col.type() == ValueType::kNull || col.IsNull(r)) {
      if (nulls.empty()) nulls.assign((nrows + 7) / 8, '\0');
      nulls[r / 8] = static_cast<char>(nulls[r / 8] | (1 << (r % 8)));
    }
  }
  enc->PutU8(nulls.empty() ? 0 : 1);
  enc->PutBytes(nulls);
  switch (col.type()) {
    case ValueType::kInt64:
      PutFixedWidth(col.int_data(), nrows, enc);
      break;
    case ValueType::kDouble:
      PutFixedWidth(col.double_data(), nrows, enc);
      break;
    case ValueType::kString:
      for (size_t r = 0; r < nrows; ++r) {
        if (!col.IsNull(r)) enc->PutString(col.GetString(r));
      }
      break;
    case ValueType::kIntArray:
      for (size_t r = 0; r < nrows; ++r) {
        if (!col.IsNull(r)) storage::EncodeIntArrayCell(col, r, enc);
      }
      break;
    case ValueType::kNull:
      break;
  }
}

/// Decodes one column into `col`, appending exactly `nrows` cells. Cells
/// under a NULL bit go through AppendNull, as a row append of a NULL would.
Status DecodeColumn(Decoder* dec, size_t nrows, minidb::Column* col) {
  using minidb::ValueType;
  ORPHEUS_ASSIGN_OR_RETURN(uint8_t has_nulls, dec->GetU8());
  if (has_nulls > 1) {
    return Status::DataLoss(StrFormat("bad null-bitmap flag %u", has_nulls));
  }
  std::string_view nulls;
  if (has_nulls == 1) {
    ORPHEUS_ASSIGN_OR_RETURN(nulls, dec->GetBytes((nrows + 7) / 8));
  }
  auto is_null = [&nulls](size_t r) {
    return !nulls.empty() &&
           ((static_cast<unsigned char>(nulls[r / 8]) >> (r % 8)) & 1) != 0;
  };
  switch (col->type()) {
    case ValueType::kInt64:
    case ValueType::kDouble: {
      ORPHEUS_ASSIGN_OR_RETURN(std::string_view cells,
                               dec->GetBytes(nrows * 8));
      if (nulls.find_first_not_of('\0') == std::string_view::npos) {
        col->AppendFixedWidth(cells);
        break;
      }
      for (size_t r = 0; r < nrows; ++r) {
        if (is_null(r)) {
          col->AppendNull();
        } else {
          col->AppendFixedWidth(cells.substr(r * 8, 8));
        }
      }
      break;
    }
    case ValueType::kString:
      for (size_t r = 0; r < nrows; ++r) {
        if (is_null(r)) {
          col->AppendNull();
          continue;
        }
        ORPHEUS_ASSIGN_OR_RETURN(std::string v, dec->GetString());
        col->AppendString(std::move(v));
      }
      break;
    case ValueType::kIntArray:
      for (size_t r = 0; r < nrows; ++r) {
        if (is_null(r)) {
          col->AppendNull();
          continue;
        }
        ORPHEUS_ASSIGN_OR_RETURN(minidb::Value v, storage::DecodeIntArray(dec));
        col->AppendValue(v);
      }
      break;
    case ValueType::kNull:
      // The bitmap is the only thing a null column ships, so requiring it
      // keeps the cells appended here bounded by the bytes received.
      if (nrows > 0 && nulls.empty()) {
        return Status::DataLoss("null-typed column without a null bitmap");
      }
      for (size_t r = 0; r < nrows; ++r) col->AppendNull();
      break;
  }
  return Status::OK();
}

}  // namespace

void EncodeTable(const minidb::Table& table, Encoder* enc) {
  enc->PutString(table.name());
  const minidb::Schema& schema = table.schema();
  enc->PutU32(static_cast<uint32_t>(schema.num_columns()));
  for (const minidb::ColumnDef& col : schema.columns()) {
    enc->PutString(col.name);
    enc->PutU8(static_cast<uint8_t>(col.type));
  }
  const size_t nrows = table.num_rows();
  enc->PutU32(static_cast<uint32_t>(nrows));
  // Sized for 8-byte cells, so a fixed-width table is written without
  // regrowing the buffer.
  enc->Reserve(table.num_columns() * (1 + 8 * nrows));
  for (size_t c = 0; c < table.num_columns(); ++c) {
    EncodeColumn(table.column(c), nrows, enc);
  }
}

Result<minidb::Table> DecodeTable(Decoder* dec) {
  ORPHEUS_ASSIGN_OR_RETURN(std::string name, dec->GetString());
  ORPHEUS_ASSIGN_OR_RETURN(uint32_t ncols,
                           dec->GetCount(kMinColumnBytes, "column"));
  std::vector<minidb::ColumnDef> cols;
  cols.reserve(ncols);
  for (uint32_t c = 0; c < ncols; ++c) {
    minidb::ColumnDef col;
    ORPHEUS_ASSIGN_OR_RETURN(col.name, dec->GetString());
    ORPHEUS_ASSIGN_OR_RETURN(uint8_t type, dec->GetU8());
    if (type > static_cast<uint8_t>(minidb::ValueType::kIntArray)) {
      return Status::DataLoss(
          StrFormat("bad column type %u on the wire", type));
    }
    col.type = static_cast<minidb::ValueType>(type);
    cols.push_back(std::move(col));
  }
  ORPHEUS_ASSIGN_OR_RETURN(uint32_t nrows, dec->GetU32());
  minidb::Table table(std::move(name), minidb::Schema(std::move(cols)));
  for (size_t c = 0; c < table.num_columns(); ++c) {
    ORPHEUS_RETURN_NOT_OK(DecodeColumn(dec, nrows, &table.mutable_column(c)));
  }
  table.CountAppendedRows(nrows);
  return table;
}

// ---------------------------------------------------------------------------
// Request / Response
// ---------------------------------------------------------------------------

std::string EncodeRequest(const Request& req) {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(req.op));
  enc.PutU64(req.request_seq);
  enc.PutU64(req.acked_seq);
  enc.PutU64(req.sid);
  enc.PutI64(req.deadline_ms);
  enc.PutString(req.cvd);
  enc.PutString(req.table_name);
  enc.PutU32(static_cast<uint32_t>(req.vids.size()));
  for (core::VersionId vid : req.vids) enc.PutI32(vid);
  enc.PutString(req.message);
  enc.PutString(req.author);
  const minidb::Table* table = req.table.get();
  enc.PutU8(table != nullptr ? 1 : 0);
  if (table != nullptr) EncodeTable(*table, &enc);
  return enc.Take();
}

Result<Request> DecodeRequest(std::string_view payload) {
  Decoder dec(payload);
  Request req;
  ORPHEUS_ASSIGN_OR_RETURN(uint8_t op, dec.GetU8());
  if (op < static_cast<uint8_t>(Op::kOpen) ||
      op > static_cast<uint8_t>(Op::kHeartbeat)) {
    return Status::DataLoss(StrFormat("bad request op %u", op));
  }
  req.op = static_cast<Op>(op);
  ORPHEUS_ASSIGN_OR_RETURN(req.request_seq, dec.GetU64());
  ORPHEUS_ASSIGN_OR_RETURN(req.acked_seq, dec.GetU64());
  ORPHEUS_ASSIGN_OR_RETURN(req.sid, dec.GetU64());
  ORPHEUS_ASSIGN_OR_RETURN(req.deadline_ms, dec.GetI64());
  ORPHEUS_ASSIGN_OR_RETURN(req.cvd, dec.GetString());
  ORPHEUS_ASSIGN_OR_RETURN(req.table_name, dec.GetString());
  ORPHEUS_ASSIGN_OR_RETURN(uint32_t nvids, dec.GetCount(4, "vid"));
  req.vids.reserve(nvids);
  for (uint32_t i = 0; i < nvids; ++i) {
    ORPHEUS_ASSIGN_OR_RETURN(core::VersionId vid, dec.GetI32());
    req.vids.push_back(vid);
  }
  ORPHEUS_ASSIGN_OR_RETURN(req.message, dec.GetString());
  ORPHEUS_ASSIGN_OR_RETURN(req.author, dec.GetString());
  ORPHEUS_ASSIGN_OR_RETURN(uint8_t has_table, dec.GetU8());
  if (has_table != 0) {
    ORPHEUS_ASSIGN_OR_RETURN(minidb::Table table, DecodeTable(&dec));
    req.table.Own(std::move(table));
  }
  return req;
}

void SetEncodedDeadline(std::string* request_payload, int64_t deadline_ms) {
  Encoder field;
  field.PutI64(deadline_ms);
  request_payload->replace(kDeadlineOffset, field.data().size(),
                           field.data());
}

std::string EncodeResponse(const Response& resp) {
  Encoder enc;
  enc.PutU64(resp.request_seq);
  enc.PutU8(resp.code);
  enc.PutU8(resp.retryable ? 1 : 0);
  enc.PutString(resp.message);
  enc.PutU8(static_cast<uint8_t>(resp.op));
  if (!resp.ok()) return enc.Take();
  switch (resp.op) {
    case Op::kOpen:
      enc.PutU64(resp.sid);
      enc.PutI32(resp.watermark);
      break;
    case Op::kCheckout:
      EncodeTable(*resp.table.get(), &enc);
      break;
    case Op::kCommit:
      EncodeOutcome(resp.outcome, &enc);
      break;
    case Op::kRefresh:
      enc.PutI32(resp.watermark);
      break;
    case Op::kLs:
      enc.PutU32(static_cast<uint32_t>(resp.cvds.size()));
      for (const CvdSummary& c : resp.cvds) {
        enc.PutString(c.name);
        enc.PutI32(c.num_versions);
        enc.PutI32(c.watermark);
        enc.PutI32(c.open_sessions);
        enc.PutU8(c.failed ? 1 : 0);
      }
      break;
    case Op::kClose:
      break;
    case Op::kHeartbeat:
      enc.PutI64(resp.lease_ms);
      break;
  }
  return enc.Take();
}

Result<Response> DecodeResponse(std::string_view payload) {
  Decoder dec(payload);
  Response resp;
  ORPHEUS_ASSIGN_OR_RETURN(resp.request_seq, dec.GetU64());
  ORPHEUS_ASSIGN_OR_RETURN(resp.code, dec.GetU8());
  ORPHEUS_ASSIGN_OR_RETURN(uint8_t retryable, dec.GetU8());
  resp.retryable = retryable != 0;
  ORPHEUS_ASSIGN_OR_RETURN(resp.message, dec.GetString());
  ORPHEUS_ASSIGN_OR_RETURN(uint8_t op, dec.GetU8());
  if (op < static_cast<uint8_t>(Op::kOpen) ||
      op > static_cast<uint8_t>(Op::kHeartbeat)) {
    return Status::DataLoss(StrFormat("bad response op %u", op));
  }
  resp.op = static_cast<Op>(op);
  if (!resp.ok()) return resp;
  switch (resp.op) {
    case Op::kOpen: {
      ORPHEUS_ASSIGN_OR_RETURN(resp.sid, dec.GetU64());
      ORPHEUS_ASSIGN_OR_RETURN(resp.watermark, dec.GetI32());
      break;
    }
    case Op::kCheckout: {
      ORPHEUS_ASSIGN_OR_RETURN(minidb::Table table, DecodeTable(&dec));
      resp.table.Own(std::move(table));
      break;
    }
    case Op::kCommit: {
      ORPHEUS_ASSIGN_OR_RETURN(resp.outcome, DecodeOutcome(&dec));
      break;
    }
    case Op::kRefresh: {
      ORPHEUS_ASSIGN_OR_RETURN(resp.watermark, dec.GetI32());
      break;
    }
    case Op::kLs: {
      ORPHEUS_ASSIGN_OR_RETURN(uint32_t n,
                               dec.GetCount(kMinCvdSummaryBytes, "cvd"));
      resp.cvds.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        CvdSummary c;
        ORPHEUS_ASSIGN_OR_RETURN(c.name, dec.GetString());
        ORPHEUS_ASSIGN_OR_RETURN(c.num_versions, dec.GetI32());
        ORPHEUS_ASSIGN_OR_RETURN(c.watermark, dec.GetI32());
        ORPHEUS_ASSIGN_OR_RETURN(c.open_sessions, dec.GetI32());
        ORPHEUS_ASSIGN_OR_RETURN(uint8_t failed, dec.GetU8());
        c.failed = failed != 0;
        resp.cvds.push_back(std::move(c));
      }
      break;
    }
    case Op::kClose:
      break;
    case Op::kHeartbeat: {
      ORPHEUS_ASSIGN_OR_RETURN(resp.lease_ms, dec.GetI64());
      break;
    }
  }
  return resp;
}

// ---------------------------------------------------------------------------
// Framed I/O
// ---------------------------------------------------------------------------

Status SendMessage(Socket* sock, MsgType type, std::string_view payload,
                   const Deadline& deadline) {
  const std::string header = storage::EncodeFrameHeader(
      static_cast<storage::FrameType>(static_cast<uint8_t>(type)), payload);
  return sock->SendAll({header, payload}, deadline);
}

Status RecvMessage(Socket* sock, MsgType* type, std::string* payload,
                   const Deadline& idle_deadline) {
  // The frame header, read under the idle deadline. A timeout with ZERO
  // bytes consumed leaves the stream frame-aligned (retryable); any
  // partial read means we are desynced mid-frame.
  char head[storage::kFrameHeaderSize];
  size_t received = 0;
  Status s = sock->RecvAll(head, sizeof(head), idle_deadline, &received);
  if (!s.ok()) {
    if (s.IsDeadlineExceeded() && received > 0) {
      return Status::Unavailable(StrFormat(
          "frame torn: %zu of %zu header bytes before the deadline",
          received, sizeof(head)));
    }
    return s;
  }
  const storage::FrameHeader header =
      storage::DecodeFrameHeader(std::string_view(head, sizeof(head)));
  if (header.payload_size > kMaxFramePayload) {
    return Status::Unavailable(StrFormat(
        "frame claims %u payload bytes (cap %u) — corrupt stream",
        header.payload_size, kMaxFramePayload));
  }
  // Once a frame has started, finish it under a generous fixed bound so a
  // stalled peer cannot park us forever, while a briefly-slow large frame
  // still completes. The payload lands in the caller's buffer directly.
  const Deadline body_deadline = Deadline::AfterMillis(10000);
  payload->resize(header.payload_size);
  s = sock->RecvAll(payload->data(), payload->size(), body_deadline,
                    &received);
  if (!s.ok()) {
    if (s.IsDeadlineExceeded()) {
      return Status::Unavailable(StrFormat(
          "frame torn: %zu of %zu payload bytes before the deadline",
          received, payload->size()));
    }
    return s;
  }
  // The storage frame check — the torn/corrupt classification the WAL
  // uses. A frame read off a stream is the last thing in hand, so a
  // checksum failure classifies as a torn tail; on a stream that means
  // mangled bytes, a transport fault a fresh connection may not repeat.
  bool torn = false;
  s = storage::CheckFrame(header, *payload, 0, 0, &torn);
  if (!s.ok() || torn) {
    return Status::Unavailable(StrFormat(
        "corrupt frame on the wire: %s",
        s.ok() ? "checksum mismatch" : std::string(s.message()).c_str()));
  }
  if (header.type < static_cast<uint8_t>(MsgType::kHello) ||
      header.type > static_cast<uint8_t>(MsgType::kResponse)) {
    return Status::Unavailable(StrFormat(
        "unexpected frame type %u on the wire (not a net message)",
        header.type));
  }
  *type = static_cast<MsgType>(header.type);
  return Status::OK();
}

}  // namespace orpheus::net
