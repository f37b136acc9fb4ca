// Tests for the orpheusd network layer (DESIGN.md §14): wire codecs,
// handshake, the remote Session API, exactly-once commit retry, leases,
// graceful degradation, and the network chaos matrix — every protocol
// state killed at least once, with full version accounting afterwards.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/result.h"
#include "common/ridset.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/validation.h"
#include "core/cvd.h"
#include "core/types.h"
#include "core/validate.h"
#include "minidb/schema.h"
#include "minidb/table.h"
#include "minidb/value.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "session/session.h"
#include "storage/format.h"
#include "storage/repository.h"

namespace orpheus::net {
namespace {

using core::VersionId;
using minidb::Schema;
using minidb::Table;
using minidb::Value;
using minidb::ValueType;

std::string MakeTempDir() {
  std::string tmpl = ::testing::TempDir() + "orpheus_net_XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) {
    ADD_FAILURE() << "mkdtemp failed for " << tmpl;
  }
  return tmpl;
}

Table MakeSeedTable(const std::vector<std::pair<int64_t, std::string>>& rows) {
  Table t("seed",
          Schema({{"id", ValueType::kInt64}, {"name", ValueType::kString}}));
  for (const auto& [id, name] : rows) {
    ORPHEUS_CHECK_OK(t.InsertRow({Value(id), Value(name)}));
  }
  return t;
}

std::unique_ptr<core::Cvd> MakeCvd() {
  core::Cvd::Options opts;
  opts.primary_key = {"id"};
  return core::Cvd::Init("t",
                         MakeSeedTable({{1, "alpha"}, {2, "beta"}}), opts)
      .MoveValueOrDie();
}

/// Checked-out staging tables carry (_rid, id, name).
void AddRow(Table* t, int64_t id, const std::string& name) {
  t->AppendRowUnchecked({Value::Null(), Value(id), Value(name)});
}

/// An in-memory server (no repository) over one seed CVD.
std::unique_ptr<SessionServer> StartMemoryServer(ServerOptions options) {
  std::vector<std::unique_ptr<core::Cvd>> cvds;
  cvds.push_back(MakeCvd());
  auto server = SessionServer::Start(nullptr, std::move(cvds), options);
  ORPHEUS_CHECK_OK(server.status());
  return server.MoveValueOrDie();
}

ClientOptions FastClientOptions(uint64_t seed) {
  ClientOptions opts;
  opts.call_deadline_ms = 5000;
  opts.max_attempts = 10;
  opts.backoff_base_ms = 2;
  opts.backoff_cap_ms = 50;
  opts.jitter_seed = seed;
  return opts;
}

int NumVersions(Client* client) {
  auto cvds = client->Ls();
  ORPHEUS_CHECK_OK(cvds.status());
  EXPECT_EQ(cvds.ValueOrDie().size(), 1u);
  return cvds.ValueOrDie()[0].num_versions;
}

class NetTest : public ::testing::Test {
 protected:
  void SetUp() override { log::SetLevelForTest(log::Level::kError); }
  void TearDown() override { failpoint::DisarmAll(); }
};

// ---------------------------------------------------------------------------
// Wire codecs
// ---------------------------------------------------------------------------

TEST_F(NetTest, HelloRoundtrip) {
  Hello hello;
  hello.magic = kNetMagic;
  hello.protocol_version = 7;
  hello.client_uuid = "client-42";
  auto decoded = DecodeHello(EncodeHello(hello));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.ValueOrDie().magic, kNetMagic);
  EXPECT_EQ(decoded.ValueOrDie().protocol_version, 7u);
  EXPECT_EQ(decoded.ValueOrDie().client_uuid, "client-42");
}

TEST_F(NetTest, HelloAckRoundtrip) {
  HelloAck ack;
  ack.protocol_version = 3;
  ack.server_id = "srv";
  ack.degraded = true;
  ack.code = static_cast<uint8_t>(StatusCode::kNotSupported);
  ack.message = "nope";
  auto decoded = DecodeHelloAck(EncodeHelloAck(ack));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.ValueOrDie().protocol_version, 3u);
  EXPECT_EQ(decoded.ValueOrDie().server_id, "srv");
  EXPECT_TRUE(decoded.ValueOrDie().degraded);
  EXPECT_EQ(decoded.ValueOrDie().code,
            static_cast<uint8_t>(StatusCode::kNotSupported));
  EXPECT_EQ(decoded.ValueOrDie().message, "nope");
}

TEST_F(NetTest, RequestRoundtripWithTable) {
  Request req;
  req.op = Op::kCommit;
  req.request_seq = 99;
  req.acked_seq = 42;
  req.sid = 7;
  req.deadline_ms = 1234;
  req.table_name = "w";
  req.message = "msg";
  req.author = "alice";
  Table staged("w", Schema({{"id", ValueType::kInt64},
                            {"name", ValueType::kString}}));
  ORPHEUS_CHECK_OK(staged.InsertRow({Value(int64_t{5}), Value("five")}));
  req.table.Lend(staged);

  auto decoded = DecodeRequest(EncodeRequest(req));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const Request& out = decoded.ValueOrDie();
  EXPECT_EQ(out.op, Op::kCommit);
  EXPECT_EQ(out.request_seq, 99u);
  EXPECT_EQ(out.acked_seq, 42u);
  EXPECT_EQ(out.sid, 7u);
  EXPECT_EQ(out.deadline_ms, 1234);
  EXPECT_EQ(out.table_name, "w");
  EXPECT_EQ(out.message, "msg");
  EXPECT_EQ(out.author, "alice");
  ASSERT_NE(out.table.get(), nullptr);
  EXPECT_EQ(out.table.get()->num_rows(), 1u);
  EXPECT_EQ(out.table.get()->GetValue(0, 1).ToString(), "five");
}

TEST_F(NetTest, SetEncodedDeadlineRewritesOnlyTheDeadline) {
  Request req;
  req.op = Op::kCommit;
  req.request_seq = 5;
  req.sid = 2;
  req.deadline_ms = 1;
  req.table_name = "w";
  req.message = "m";
  std::string encoded = EncodeRequest(req);
  SetEncodedDeadline(&encoded, 987654321);
  req.deadline_ms = 987654321;
  EXPECT_EQ(encoded, EncodeRequest(req));
}

TEST_F(NetTest, RequestRoundtripCheckout) {
  Request req;
  req.op = Op::kCheckout;
  req.request_seq = 3;
  req.sid = 1;
  req.vids = {1, 4, 9};
  req.table_name = "w";
  auto decoded = DecodeRequest(EncodeRequest(req));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.ValueOrDie().vids, (std::vector<VersionId>{1, 4, 9}));
}

TEST_F(NetTest, ResponseRoundtripCommitOutcome) {
  Response resp;
  resp.request_seq = 8;
  resp.op = Op::kCommit;
  resp.outcome.vid = 12;
  resp.outcome.merged_vid = 13;
  resp.outcome.reconciled_with = 11;
  resp.outcome.reconciled = true;
  session::MergeConflict conflict;
  conflict.key = "k";
  conflict.attribute = "name";
  conflict.base = "a";
  conflict.ours = "b";
  conflict.theirs = "c";
  resp.outcome.conflicts.push_back(conflict);

  auto decoded = DecodeResponse(EncodeResponse(resp));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const Response& out = decoded.ValueOrDie();
  EXPECT_EQ(out.request_seq, 8u);
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(out.outcome.vid, 12);
  EXPECT_EQ(out.outcome.merged_vid, 13);
  EXPECT_EQ(out.outcome.reconciled_with, 11);
  EXPECT_TRUE(out.outcome.reconciled);
  ASSERT_EQ(out.outcome.conflicts.size(), 1u);
  EXPECT_EQ(out.outcome.conflicts[0].attribute, "name");
  EXPECT_EQ(out.outcome.conflicts[0].theirs, "c");
}

TEST_F(NetTest, ResponseRoundtripError) {
  Response resp;
  resp.request_seq = 4;
  resp.op = Op::kCommit;
  resp.SetStatus(Status::Unavailable("busy"), /*transient=*/true);
  auto decoded = DecodeResponse(EncodeResponse(resp));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_FALSE(decoded.ValueOrDie().ok());
  EXPECT_TRUE(decoded.ValueOrDie().retryable);
  Status s = decoded.ValueOrDie().ToStatus();
  EXPECT_TRUE(s.IsUnavailable());
  EXPECT_EQ(s.message(), "busy");
}

TEST_F(NetTest, ResponseRoundtripLs) {
  Response resp;
  resp.op = Op::kLs;
  CvdSummary summary;
  summary.name = "t";
  summary.num_versions = 4;
  summary.watermark = 4;
  summary.open_sessions = 2;
  summary.failed = true;
  resp.cvds.push_back(summary);
  auto decoded = DecodeResponse(EncodeResponse(resp));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.ValueOrDie().cvds.size(), 1u);
  EXPECT_EQ(decoded.ValueOrDie().cvds[0].name, "t");
  EXPECT_EQ(decoded.ValueOrDie().cvds[0].num_versions, 4);
  EXPECT_TRUE(decoded.ValueOrDie().cvds[0].failed);
}

TEST_F(NetTest, DecodeRejectsTruncatedPayload) {
  Request req;
  req.op = Op::kCommit;
  req.request_seq = 1;
  req.table_name = "w";
  std::string encoded = EncodeRequest(req);
  for (size_t cut : {size_t{0}, size_t{1}, encoded.size() / 2,
                     encoded.size() - 1}) {
    EXPECT_FALSE(DecodeRequest(encoded.substr(0, cut)).ok())
        << "decoded a request truncated to " << cut << " bytes";
  }
}

// ---------------------------------------------------------------------------
// Table codec
// ---------------------------------------------------------------------------

std::vector<int64_t> Iota(int64_t from, int64_t n) {
  std::vector<int64_t> v(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) v[static_cast<size_t>(i)] = from + i;
  return v;
}

/// Every ValueType, a NULL in each column, and int-array cells that are
/// compressed (appended as a set, and as a long sorted vector), short and
/// unsorted (kept plain).
Table MakeEveryTypeTable() {
  Table t("every", Schema({{"i", ValueType::kInt64},
                           {"d", ValueType::kDouble},
                           {"s", ValueType::kString},
                           {"a", ValueType::kIntArray},
                           {"n", ValueType::kNull}}));
  auto set = RidSet::TryFromVector(Iota(100, 40));
  const std::vector<Value> arrays = {
      Value(set), Value(Iota(7, 30)), Value(std::vector<int64_t>{3, 1, 2}),
      Value(std::vector<int64_t>{}), Value::Null()};
  for (int r = 0; r < 11; ++r) {
    const bool null_row = r % 5 == 4;
    t.AppendRowUnchecked(
        {null_row ? Value::Null() : Value(int64_t{r * 1000 - 7}),
         r == 2 ? Value::Null() : Value(r * 0.25),
         r == 3 ? Value::Null() : Value(std::to_string(r * 7)),
         arrays[static_cast<size_t>(r) % arrays.size()], Value::Null()});
  }
  // A NULL written over a value must decode as a clean NULL too.
  t.mutable_column(0).SetValue(1, Value::Null());
  return t;
}

/// The table N row appends give: each value through the storage row codec
/// (the pre-columnar wire format), appended one row at a time.
Table RowAppendOracle(const Table& src) {
  Table out(src.name(), src.schema());
  for (uint32_t r = 0; r < src.num_rows(); ++r) {
    minidb::Row row;
    for (size_t c = 0; c < src.num_columns(); ++c) {
      storage::Encoder enc;
      storage::EncodeValue(src.GetValue(r, c), &enc);
      storage::Decoder dec(enc.data());
      row.push_back(storage::DecodeValue(&dec).MoveValueOrDie());
    }
    out.AppendRowUnchecked(row);
  }
  return out;
}

void ExpectIdenticalTables(const Table& got, const Table& want) {
  ASSERT_EQ(got.name(), want.name());
  ASSERT_EQ(got.num_columns(), want.num_columns());
  ASSERT_EQ(got.num_rows(), want.num_rows());
  for (size_t c = 0; c < want.num_columns(); ++c) {
    const minidb::Column& g = got.column(c);
    const minidb::Column& w = want.column(c);
    EXPECT_EQ(got.schema().columns()[c].name, want.schema().columns()[c].name);
    ASSERT_EQ(g.type(), w.type()) << "column " << c;
    ASSERT_EQ(g.size(), w.size()) << "column " << c;
    // Equal storage bytes also means equal validity-bitmap allocation.
    EXPECT_EQ(g.StorageBytes(), w.StorageBytes()) << "column " << c;
    for (uint32_t r = 0; r < want.num_rows(); ++r) {
      EXPECT_EQ(g.IsNull(r), w.IsNull(r)) << "cell " << r << "," << c;
      EXPECT_EQ(g.GetValue(r), w.GetValue(r)) << "cell " << r << "," << c;
      if (w.type() == ValueType::kInt64) {
        EXPECT_EQ(g.int_data()[r], w.int_data()[r]) << "slot " << r;
      }
      if (w.type() == ValueType::kIntArray && !w.IsNull(r)) {
        EXPECT_EQ(g.GetRidSet(r) != nullptr, w.GetRidSet(r) != nullptr)
            << "array representation at row " << r;
      }
    }
  }
}

Result<Table> TableRoundTrip(const Table& table) {
  storage::Encoder enc;
  EncodeTable(table, &enc);
  storage::Decoder dec(enc.data());
  ORPHEUS_ASSIGN_OR_RETURN(Table out, DecodeTable(&dec));
  if (!dec.AtEnd()) return Status::Internal("trailing bytes after a table");
  return out;
}

TEST_F(NetTest, TableCodecMatchesRowAppendsForEveryType) {
  Table src = MakeEveryTypeTable();
  auto decoded = TableRoundTrip(src);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectIdenticalTables(decoded.ValueOrDie(), RowAppendOracle(src));
}

TEST_F(NetTest, TableCodecRoundTripsEmptyTables) {
  Table no_rows = MakeEveryTypeTable().CopyRows({}, "no_rows");
  auto decoded = TableRoundTrip(no_rows);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectIdenticalTables(decoded.ValueOrDie(), RowAppendOracle(no_rows));

  Table no_cols("no_cols", Schema(std::vector<minidb::ColumnDef>{}));
  decoded = TableRoundTrip(no_cols);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.ValueOrDie().num_columns(), 0u);
}

TEST_F(NetTest, TableCodecDropsTheCellTypeTag) {
  Table t("ints", Schema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}}));
  for (int64_t r = 0; r < 100; ++r) t.AppendIntRowUnchecked({r, -r});
  storage::Encoder enc;
  EncodeTable(t, &enc);
  // name, 2 column defs, row count, then per column a flag + 8 B/cell.
  EXPECT_EQ(enc.data().size(),
            (4 + 4) + 4 + 2 * (4 + 1 + 1) + 4 + 2 * (1 + 100 * 8));
}

TEST_F(NetTest, TableCodecSendsNoValueUnderANulledCell) {
  // A cell nulled in a staged table encodes exactly as one appended NULL:
  // the value it held does not travel in the commit.
  const Schema schema({{"i", ValueType::kInt64},
                       {"d", ValueType::kDouble},
                       {"s", ValueType::kString},
                       {"a", ValueType::kIntArray}});
  const minidb::Row values = {Value(int64_t{41}), Value(2.5), Value("secret"),
                              Value(Iota(5, 20))};
  const minidb::Row nulls(values.size(), Value::Null());
  Table appended("t", schema);
  Table nulled("t", schema);
  for (int r = 0; r < 3; ++r) {
    appended.AppendRowUnchecked(r == 1 ? nulls : values);
    nulled.AppendRowUnchecked(values);
  }
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    nulled.mutable_column(c).SetValue(1, Value::Null());
  }
  EXPECT_EQ(nulled.column(0).int_data()[1], 0);
  storage::Encoder want;
  storage::Encoder got;
  EncodeTable(appended, &want);
  EncodeTable(nulled, &got);
  EXPECT_EQ(got.data(), want.data());
}

/// A kCommit request and a kCheckout response, both carrying the
/// every-type table.
std::vector<std::pair<std::string, std::string>> TableBearingMessages(
    const Table& table) {
  Request req;
  req.op = Op::kCommit;
  req.request_seq = 17;
  req.sid = 3;
  req.table_name = table.name();
  req.message = "m";
  req.table.Lend(table);
  Response resp;
  resp.request_seq = 17;
  resp.op = Op::kCheckout;
  resp.table.Lend(table);
  return {{"request", EncodeRequest(req)}, {"response", EncodeResponse(resp)}};
}

Status DecodeMessage(const std::string& kind, std::string_view bytes) {
  if (kind == "request") return DecodeRequest(bytes).status();
  return DecodeResponse(bytes).status();
}

TEST_F(NetTest, TableBearingMessagesRejectEveryTruncation) {
  Table table = MakeEveryTypeTable();
  for (const auto& [kind, encoded] : TableBearingMessages(table)) {
    ASSERT_TRUE(DecodeMessage(kind, encoded).ok()) << kind;
    for (size_t cut = 0; cut < encoded.size(); ++cut) {
      EXPECT_FALSE(DecodeMessage(kind, encoded.substr(0, cut)).ok())
          << kind << " truncated to " << cut << " bytes decoded";
    }
  }
}

TEST_F(NetTest, TableBearingMessagesSurviveBitFlips) {
  Table table = MakeEveryTypeTable();
  Xorshift rng(20240611);
  for (const auto& [kind, encoded] : TableBearingMessages(table)) {
    int decoded_ok = 0;
    for (int trial = 0; trial < 8000; ++trial) {
      std::string mutated = encoded;
      const int flips = 1 + static_cast<int>(rng.Uniform(3));
      for (int f = 0; f < flips; ++f) {
        const size_t bit = rng.Uniform(mutated.size() * 8);
        mutated[bit / 8] = static_cast<char>(mutated[bit / 8] ^
                                             (1 << (bit % 8)));
      }
      // Decode or refuse: never throw, crash or over-allocate.
      if (DecodeMessage(kind, mutated).ok()) ++decoded_ok;
    }
    // Most flips land in cell bytes, which any value decodes from.
    EXPECT_GT(decoded_ok, 0) << kind;
  }
}

// A count read off the wire sizes an allocation only once the bytes for
// that many elements are known to be there.
TEST_F(NetTest, DecodeRejectsImpossibleVidCount) {
  storage::Encoder enc;
  enc.PutU8(static_cast<uint8_t>(Op::kCheckout));
  enc.PutU64(1);  // request_seq
  enc.PutU64(0);  // acked_seq
  enc.PutU64(1);  // sid
  enc.PutI64(0);  // deadline_ms
  enc.PutString("");
  enc.PutString("w");
  enc.PutU32(0xFFFFFFFFu);  // vids
  enc.PutU32(0);
  auto decoded = DecodeRequest(enc.data());
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsDataLoss()) << decoded.status().ToString();
}

storage::Encoder OkResponseHeader(Op op) {
  storage::Encoder enc;
  enc.PutU64(1);   // request_seq
  enc.PutU8(0);    // code
  enc.PutU8(0);    // retryable
  enc.PutString("");
  enc.PutU8(static_cast<uint8_t>(op));
  return enc;
}

TEST_F(NetTest, DecodeRejectsImpossibleConflictCount) {
  storage::Encoder enc = OkResponseHeader(Op::kCommit);
  enc.PutI32(1);
  enc.PutI32(0);
  enc.PutI32(0);
  enc.PutU8(0);
  enc.PutU32(0xFFFFFFFFu);  // conflicts
  auto decoded = DecodeResponse(enc.data());
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsDataLoss()) << decoded.status().ToString();
}

TEST_F(NetTest, DecodeRejectsImpossibleColumnCount) {
  storage::Encoder enc = OkResponseHeader(Op::kCheckout);
  enc.PutString("t");
  enc.PutU32(0xFFFFFFFFu);  // columns
  auto decoded = DecodeResponse(enc.data());
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsDataLoss()) << decoded.status().ToString();
}

TEST_F(NetTest, DecodeRejectsImpossibleCvdCount) {
  storage::Encoder enc = OkResponseHeader(Op::kLs);
  enc.PutU32(0xFFFFFFFFu);  // cvds
  auto decoded = DecodeResponse(enc.data());
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsDataLoss()) << decoded.status().ToString();
}

TEST_F(NetTest, DecodeRejectsImpossibleRowCount) {
  for (ValueType type : {ValueType::kInt64, ValueType::kDouble,
                         ValueType::kString, ValueType::kIntArray,
                         ValueType::kNull}) {
    storage::Encoder enc = OkResponseHeader(Op::kCheckout);
    enc.PutString("t");
    enc.PutU32(1);
    enc.PutString("c");
    enc.PutU8(static_cast<uint8_t>(type));
    enc.PutU32(0xFFFFFFFFu);  // rows
    enc.PutU8(0);             // no null bitmap
    enc.PutU32(0);
    auto decoded = DecodeResponse(enc.data());
    ASSERT_FALSE(decoded.ok()) << minidb::ValueTypeName(type);
    EXPECT_TRUE(decoded.status().IsDataLoss())
        << minidb::ValueTypeName(type) << ": "
        << decoded.status().ToString();
  }
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

TEST_F(NetTest, HandshakeRejectsVersionMismatch) {
  ServerOptions options;
  options.listen = "unix:" + MakeTempDir() + "/sock";
  auto server = StartMemoryServer(options);

  // v1 clients speak the row-major table codec; 99 is from the future.
  for (uint32_t version : {1u, 99u}) {
    auto connected =
        Socket::Connect(server->address(), Deadline::AfterMillis(2000));
    ASSERT_TRUE(connected.ok()) << connected.status().ToString();
    Socket sock = connected.MoveValueOrDie();
    Hello hello;
    hello.magic = kNetMagic;
    hello.protocol_version = version;
    hello.client_uuid = "other-version-client";
    ORPHEUS_CHECK_OK(SendMessage(&sock, MsgType::kHello, EncodeHello(hello),
                                 Deadline::AfterMillis(2000)));
    MsgType type;
    std::string payload;
    ORPHEUS_CHECK_OK(
        RecvMessage(&sock, &type, &payload, Deadline::AfterMillis(2000)));
    ASSERT_EQ(type, MsgType::kHelloAck);
    auto ack = DecodeHelloAck(payload);
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    EXPECT_EQ(ack.ValueOrDie().code,
              static_cast<uint8_t>(StatusCode::kNotSupported))
        << "v" << version;
    EXPECT_NE(ack.ValueOrDie().message.find("version"), std::string::npos);
  }
}

TEST_F(NetTest, HandshakeRejectsBadMagic) {
  ServerOptions options;
  options.listen = "unix:" + MakeTempDir() + "/sock";
  auto server = StartMemoryServer(options);

  auto connected =
      Socket::Connect(server->address(), Deadline::AfterMillis(2000));
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  Socket sock = connected.MoveValueOrDie();
  Hello hello;
  hello.magic = "NOTORPH1";
  hello.client_uuid = "x";
  ORPHEUS_CHECK_OK(SendMessage(&sock, MsgType::kHello, EncodeHello(hello),
                               Deadline::AfterMillis(2000)));
  MsgType type;
  std::string payload;
  ORPHEUS_CHECK_OK(
      RecvMessage(&sock, &type, &payload, Deadline::AfterMillis(2000)));
  auto ack = DecodeHelloAck(payload);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack.ValueOrDie().code,
            static_cast<uint8_t>(StatusCode::kInvalidArgument));
}

// ---------------------------------------------------------------------------
// Basic remote session lifecycle
// ---------------------------------------------------------------------------

void RunLifecycle(const std::string& listen) {
  ServerOptions options;
  options.listen = listen;
  auto server = StartMemoryServer(options);

  auto client = Client::Connect(server->address(), FastClientOptions(1));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Client* c = client.ValueOrDie().get();
  EXPECT_FALSE(c->server_degraded());

  auto opened = c->Open("t");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.ValueOrDie().watermark, 1);

  auto missing = c->Open("nope");
  EXPECT_TRUE(missing.status().IsNotFound());

  const uint64_t sid = opened.ValueOrDie().sid;
  auto checked = c->Checkout(sid, {1}, "w");
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  Table table = checked.MoveValueOrDie();
  EXPECT_EQ(table.num_rows(), 2u);

  AddRow(&table, 3, "gamma");
  auto outcome = c->Commit(sid, table, "add gamma", "tester");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_NE(outcome.ValueOrDie().vid, core::kInvalidVersion);
  EXPECT_TRUE(outcome.ValueOrDie().conflicts.empty());

  auto refreshed = c->Refresh(sid);
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(refreshed.ValueOrDie(), outcome.ValueOrDie().vid);

  // The committed version materializes with the new row.
  auto again = c->Checkout(sid, {outcome.ValueOrDie().vid}, "w2");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.ValueOrDie().num_rows(), 3u);

  auto lease = c->Heartbeat(sid);
  ASSERT_TRUE(lease.ok()) << lease.status().ToString();
  EXPECT_GT(lease.ValueOrDie(), 0);

  EXPECT_EQ(NumVersions(c), 2);
  ORPHEUS_CHECK_OK(c->CloseSession(sid));
  ORPHEUS_CHECK_OK(c->CloseSession(sid));  // idempotent
  EXPECT_EQ(server->stats().sessions_open, 0u);
}

TEST_F(NetTest, LifecycleOverUnixSocket) {
  RunLifecycle("unix:" + MakeTempDir() + "/sock");
}

TEST_F(NetTest, LifecycleOverLoopbackTcp) { RunLifecycle("tcp:0"); }

// Both ends of a call record their wire stages as named children, so a
// remote checkout's cost beyond the session splits by stage.
TEST_F(NetTest, WireStagesAreSpanned) {
  if (!MetricsEnabled()) GTEST_SKIP() << "metrics disabled via env/build";
  ServerOptions options;
  options.listen = "unix:" + MakeTempDir() + "/sock";
  auto server = StartMemoryServer(options);
  auto client = Client::Connect(server->address(), FastClientOptions(3));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto opened = client.ValueOrDie()->Open("t");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_TRUE(client.ValueOrDie()->Checkout(opened.ValueOrDie().sid, {1}, "w")
                  .ok());
  server->Stop();  // joins the handler, closing its spans

  std::set<std::string> paths;
  for (const auto& span : MetricsRegistry::Global().TakeSnapshot().spans) {
    paths.insert(span.path);
  }
  for (const char* path :
       {"net.client.rpc/encode", "net.client.rpc/send", "net.client.rpc/recv",
        "net.client.rpc/decode", "net.server.request/decode",
        "net.server.request/dispatch", "net.server.request/encode",
        "net.server.request/send"}) {
    EXPECT_EQ(paths.count(path), 1u) << path;
  }
}

TEST_F(NetTest, ListenerRejectsNonLoopbackTcp) {
  EXPECT_FALSE(Listener::Listen("tcp:8.8.8.8:1234").ok());
}

// ---------------------------------------------------------------------------
// Exactly-once commit retry
// ---------------------------------------------------------------------------

// Requests dispatch in order open(1), checkout(2), commit(3): the drop
// sites below use those hit ordinals to kill the commit exchange exactly.

TEST_F(NetTest, LostCommitAckReplaysOriginalResult) {
  ServerOptions options;
  options.listen = "unix:" + MakeTempDir() + "/sock";
  auto server = StartMemoryServer(options);
  auto client = Client::Connect(server->address(), FastClientOptions(2));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Client* c = client.ValueOrDie().get();

  // Hit ordinals count from arming: open=1, checkout=2, commit=3. The
  // commit EXECUTES, then its ACK is lost: the retry must replay the
  // recorded verdict, not commit a second time.
  failpoint::Arm("net.server.drop_before_send", failpoint::Action::kError,
                 /*trigger_at=*/3, /*once=*/true);

  auto opened = c->Open("t");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const uint64_t sid = opened.ValueOrDie().sid;
  auto checked = c->Checkout(sid, {1}, "w");
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  Table table = checked.MoveValueOrDie();
  AddRow(&table, 3, "gamma");

  auto outcome = c->Commit(sid, table, "add gamma", "tester");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_NE(outcome.ValueOrDie().vid, core::kInvalidVersion);
  EXPECT_GE(c->stats().retries, 1u);

  SessionServer::Stats stats = server->stats();
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_GE(stats.commits_replayed, 1u);
  EXPECT_EQ(NumVersions(c), 2);  // exactly one new version — no duplicate
}

TEST_F(NetTest, DroppedCommitRequestExecutesOnce) {
  ServerOptions options;
  options.listen = "unix:" + MakeTempDir() + "/sock";
  auto server = StartMemoryServer(options);
  auto client = Client::Connect(server->address(), FastClientOptions(3));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Client* c = client.ValueOrDie().get();

  // The commit request (hit 3: open=1, checkout=2) is read, then the
  // connection dies BEFORE dispatch: nothing executed, so the retry
  // performs the one and only commit.
  failpoint::Arm("net.server.drop_after_read", failpoint::Action::kError,
                 /*trigger_at=*/3, /*once=*/true);

  auto opened = c->Open("t");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const uint64_t sid = opened.ValueOrDie().sid;
  auto checked = c->Checkout(sid, {1}, "w");
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  Table table = checked.MoveValueOrDie();
  AddRow(&table, 4, "delta");

  auto outcome = c->Commit(sid, table, "add delta", "tester");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  SessionServer::Stats stats = server->stats();
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_EQ(NumVersions(c), 2);
}

TEST_F(NetTest, RetriedOpenReturnsOriginalSid) {
  ServerOptions options;
  options.listen = "unix:" + MakeTempDir() + "/sock";
  auto server = StartMemoryServer(options);
  auto client = Client::Connect(server->address(), FastClientOptions(4));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Client* c = client.ValueOrDie().get();

  // Open's ACK is lost: the retry must get the SAME sid back rather than
  // leak a second server-side session.
  failpoint::Arm("net.server.drop_before_send", failpoint::Action::kError,
                 /*trigger_at=*/1, /*once=*/true);
  auto opened = c->Open("t");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(server->stats().sessions_open, 1u);
  // The replayed sid really works.
  auto checked = c->Checkout(opened.ValueOrDie().sid, {1}, "w");
  EXPECT_TRUE(checked.ok()) << checked.status().ToString();
}

// ---------------------------------------------------------------------------
// Leases
// ---------------------------------------------------------------------------

TEST_F(NetTest, LeaseExpiryReleasesSession) {
  ServerOptions options;
  options.listen = "unix:" + MakeTempDir() + "/sock";
  options.lease_ms = 150;
  auto server = StartMemoryServer(options);
  auto client = Client::Connect(server->address(), FastClientOptions(5));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Client* c = client.ValueOrDie().get();

  auto opened = c->Open("t");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const uint64_t sid = opened.ValueOrDie().sid;

  // Go silent past the lease: the reaper must release the session.
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  auto checked = c->Checkout(sid, {1}, "w");
  EXPECT_TRUE(checked.status().IsNotFound())
      << checked.status().ToString();
  SessionServer::Stats stats = server->stats();
  EXPECT_GE(stats.leases_expired, 1u);
  EXPECT_EQ(stats.sessions_open, 0u);

  // A fresh open starts over.
  auto reopened = c->Open("t");
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_NE(reopened.ValueOrDie().sid, sid);
}

TEST_F(NetTest, HeartbeatKeepsLeaseAlive) {
  ServerOptions options;
  options.listen = "unix:" + MakeTempDir() + "/sock";
  options.lease_ms = 400;
  auto server = StartMemoryServer(options);
  auto client = Client::Connect(server->address(), FastClientOptions(6));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Client* c = client.ValueOrDie().get();

  auto opened = c->Open("t");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const uint64_t sid = opened.ValueOrDie().sid;
  // 5 x 150ms > lease, but each heartbeat renews it.
  for (int i = 0; i < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    auto lease = c->Heartbeat(sid);
    ASSERT_TRUE(lease.ok()) << lease.status().ToString();
  }
  auto checked = c->Checkout(sid, {1}, "w");
  EXPECT_TRUE(checked.ok()) << checked.status().ToString();
  EXPECT_EQ(server->stats().leases_expired, 0u);
}

// ---------------------------------------------------------------------------
// Graceful degradation
// ---------------------------------------------------------------------------

TEST_F(NetTest, DegradedRepositoryServesReadOnly) {
  const std::string dir = MakeTempDir();
  auto repo = storage::Repository::Open(dir + "/repo");
  ASSERT_TRUE(repo.ok()) << repo.status().ToString();
  std::vector<std::unique_ptr<core::Cvd>> cvds;
  cvds.push_back(MakeCvd());
  ORPHEUS_CHECK_OK(repo.ValueOrDie()->LogCreate(*cvds[0]));

  ServerOptions options;
  options.listen = "unix:" + dir + "/sock";
  auto started = SessionServer::Start(repo.ValueOrDie().get(),
                                      std::move(cvds), options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  SessionServer* server = started.ValueOrDie().get();

  auto client = Client::Connect(server->address(), FastClientOptions(7));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Client* c = client.ValueOrDie().get();
  auto opened = c->Open("t");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const uint64_t sid = opened.ValueOrDie().sid;

  // A healthy commit works end to end (durable through the repository).
  auto checked = c->Checkout(sid, {1}, "w");
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  Table t1 = checked.MoveValueOrDie();
  AddRow(&t1, 3, "gamma");
  auto ok_outcome = c->Commit(sid, t1, "healthy", "tester");
  ASSERT_TRUE(ok_outcome.ok()) << ok_outcome.status().ToString();

  // Break the WAL: the in-flight commit fails and degrades the repository.
  failpoint::Arm("storage.wal.append.frame", failpoint::Action::kError);
  auto checked2 = c->Checkout(sid, {1}, "w2");
  ASSERT_TRUE(checked2.ok()) << checked2.status().ToString();
  Table t2 = checked2.MoveValueOrDie();
  AddRow(&t2, 4, "delta");
  auto failed = c->Commit(sid, t2, "doomed", "tester");
  EXPECT_FALSE(failed.ok());
  failpoint::DisarmAll();
  EXPECT_TRUE(repo.ValueOrDie()->degraded());

  // Commits are now refused with a DEFINITIVE (non-retryable) verdict …
  const uint64_t retries_before = c->stats().retries;
  auto checked3 = c->Checkout(sid, {1}, "w3");
  ASSERT_TRUE(checked3.ok()) << checked3.status().ToString();
  Table t3 = checked3.MoveValueOrDie();
  AddRow(&t3, 5, "epsilon");
  auto refused = c->Commit(sid, t3, "refused", "tester");
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsUnavailable());
  EXPECT_NE(refused.status().message().find("degraded"), std::string::npos)
      << refused.status().ToString();
  EXPECT_EQ(c->stats().retries, retries_before)
      << "client retried a non-retryable degraded verdict";

  // … while read-only checkouts keep being served,
  auto checked4 = c->Checkout(sid, {1}, "w4");
  EXPECT_TRUE(checked4.ok()) << checked4.status().ToString();
  // ls reports the failure,
  auto cvd_list = c->Ls();
  ASSERT_TRUE(cvd_list.ok()) << cvd_list.status().ToString();
  ASSERT_EQ(cvd_list.ValueOrDie().size(), 1u);
  EXPECT_TRUE(cvd_list.ValueOrDie()[0].failed);
  // and new connections learn of the degradation in the handshake.
  auto fresh = Client::Connect(server->address(), FastClientOptions(8));
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_TRUE(fresh.ValueOrDie()->server_degraded());

  started.ValueOrDie()->Stop();
}

// A commit whose durability wait outlives the caller's deadline is PARKED,
// not lost: the client's retry under the original stamp resumes the wait
// and collects the one-and-only verdict. Slow disk simulated by delaying
// the WAL fsync 1500ms while client B calls with a 500ms budget.
TEST_F(NetTest, DurabilityTimeoutResumesNotRepeats) {
  const std::string dir = MakeTempDir();
  auto repo = storage::Repository::Open(dir + "/repo");
  ASSERT_TRUE(repo.ok()) << repo.status().ToString();
  std::vector<std::unique_ptr<core::Cvd>> cvds;
  cvds.push_back(MakeCvd());
  ORPHEUS_CHECK_OK(repo.ValueOrDie()->LogCreate(*cvds[0]));

  ServerOptions options;
  options.listen = "unix:" + dir + "/sock";
  auto started = SessionServer::Start(repo.ValueOrDie().get(),
                                      std::move(cvds), options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  SessionServer* server = started.ValueOrDie().get();

  // Client A: patient (5s). Client B: a 500ms budget that cannot cover
  // the stalled flush.
  auto client_a = Client::Connect(server->address(), FastClientOptions(20));
  ASSERT_TRUE(client_a.ok()) << client_a.status().ToString();
  ClientOptions bopts = FastClientOptions(21);
  bopts.call_deadline_ms = 500;
  auto client_b = Client::Connect(server->address(), bopts);
  ASSERT_TRUE(client_b.ok()) << client_b.status().ToString();
  Client* a = client_a.ValueOrDie().get();
  Client* b = client_b.ValueOrDie().get();

  auto opened_a = a->Open("t");
  ASSERT_TRUE(opened_a.ok()) << opened_a.status().ToString();
  auto opened_b = b->Open("t");
  ASSERT_TRUE(opened_b.ok()) << opened_b.status().ToString();
  const uint64_t sid_a = opened_a.ValueOrDie().sid;
  const uint64_t sid_b = opened_b.ValueOrDie().sid;

  auto checked_a = a->Checkout(sid_a, {1}, "w");
  ASSERT_TRUE(checked_a.ok()) << checked_a.status().ToString();
  Table ta = checked_a.MoveValueOrDie();
  AddRow(&ta, 10, "a-row");
  auto checked_b = b->Checkout(sid_b, {1}, "w");
  ASSERT_TRUE(checked_b.ok()) << checked_b.status().ToString();
  Table tb = checked_b.MoveValueOrDie();
  AddRow(&tb, 11, "b-row");

  // First WAL fsync after arming = A's group-commit leader flush.
  failpoint::Arm("storage.wal.append.sync", failpoint::Action::kDelay,
                 /*trigger_at=*/1, /*once=*/true, /*probability=*/1.0,
                 /*delay_ms=*/1500);
  Result<session::CommitOutcome> outcome_a =
      Status::Unavailable("commit A never ran");
  DedicatedThread committer_a("test-committer-a", [&] {
    outcome_a = a->Commit(sid_a, ta, "slow but durable", "alice");
  });
  // Let A become the leader and stall inside the delayed fsync, then
  // commit from B: its durability wait parks behind the leader and the
  // 500ms call budget expires first.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  auto unknown = b->Commit(sid_b, tb, "parked", "bob");
  ASSERT_FALSE(unknown.ok());
  EXPECT_TRUE(unknown.status().IsDeadlineExceeded() ||
              unknown.status().IsUnavailable())
      << unknown.status().ToString();

  committer_a.Join();
  ASSERT_TRUE(outcome_a.ok()) << outcome_a.status().ToString();

  // B retries with the same staged table: the client reuses the original
  // stamp, the server resumes the PARKED wait (now instantly resolvable),
  // and exactly one new version exists for B — no duplicate commit.
  auto resumed = b->Commit(sid_b, tb, "parked", "bob");
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();

  const auto& stats = server->stats();
  EXPECT_EQ(stats.commits, 2u);
  EXPECT_GE(stats.commits_resumed, 1u);
  const int expected_versions =
      1 + (1 + (outcome_a.ValueOrDie().reconciled ? 1 : 0)) +
      (1 + (resumed.ValueOrDie().reconciled ? 1 : 0));
  EXPECT_EQ(NumVersions(a), expected_versions);

  started.ValueOrDie()->Stop();
}

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

TEST_F(NetTest, CallsNeverHangPastDeadline) {
  ServerOptions options;
  options.listen = "unix:" + MakeTempDir() + "/sock";
  auto server = StartMemoryServer(options);

  ClientOptions copts = FastClientOptions(9);
  copts.call_deadline_ms = 300;
  copts.max_attempts = 100;  // the deadline, not the cap, must stop us
  auto client = Client::Connect(server->address(), copts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Client* c = client.ValueOrDie().get();

  // Every server read now fails: no response will ever arrive.
  failpoint::Arm("net.server.recv", failpoint::Action::kError);
  Timer timer;
  auto opened = c->Open("t");
  const double elapsed_ms = timer.ElapsedMillis();
  EXPECT_FALSE(opened.ok());
  EXPECT_LT(elapsed_ms, 5000.0)
      << "call ran far past its 300ms deadline: " << elapsed_ms << "ms";
}

// ---------------------------------------------------------------------------
// The network chaos matrix
// ---------------------------------------------------------------------------

// Deterministic kill matrix: for every net.* failpoint site, inject one
// fault and drive a full open/checkout/commit cycle. Every cycle must
// converge to exactly one new version — transient faults are the client's
// problem, never the caller's.
TEST_F(NetTest, KillMatrixEverySiteOnce) {
  const struct {
    const char* site;
    bool fires_on_connect;  // arm BEFORE Client::Connect
  } kMatrix[] = {
      {"net.client.connect", true},
      {"net.server.accept", true},
      {"net.client.send", false},
      {"net.client.send.partial", false},
      {"net.client.recv", false},
      {"net.server.send", false},
      {"net.server.send.partial", false},
      {"net.server.recv", false},
      {"net.server.drop_after_read", false},
      {"net.server.drop_before_send", false},
  };

  int round = 0;
  for (const auto& entry : kMatrix) {
    SCOPED_TRACE(entry.site);
    ServerOptions options;
    options.listen = "unix:" + MakeTempDir() + "/sock";
    auto server = StartMemoryServer(options);
    ClientOptions copts = FastClientOptions(100 + round);

    std::unique_ptr<Client> client;
    if (entry.fires_on_connect) {
      failpoint::Arm(entry.site, failpoint::Action::kError,
                     /*trigger_at=*/1, /*once=*/true);
      auto c = Client::Connect(server->address(), copts);
      if (!c.ok()) c = Client::Connect(server->address(), copts);
      ASSERT_TRUE(c.ok()) << c.status().ToString();
      client = c.MoveValueOrDie();
    } else {
      auto c = Client::Connect(server->address(), copts);
      ASSERT_TRUE(c.ok()) << c.status().ToString();
      client = c.MoveValueOrDie();
      failpoint::Arm(entry.site, failpoint::Action::kError,
                     /*trigger_at=*/1, /*once=*/true);
    }

    auto opened = client->Open("t");
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const uint64_t sid = opened.ValueOrDie().sid;
    auto checked = client->Checkout(sid, {1}, "w");
    ASSERT_TRUE(checked.ok()) << checked.status().ToString();
    Table table = checked.MoveValueOrDie();
    AddRow(&table, 100 + round, "chaos");
    auto outcome = client->Commit(sid, table, "chaos commit", "tester");
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_NE(outcome.ValueOrDie().vid, core::kInvalidVersion);

    EXPECT_GE(failpoint::HitCount(entry.site), 1u)
        << "site never fired — the matrix entry tested nothing";
    EXPECT_EQ(NumVersions(client.get()), 2)
        << "fault produced a phantom or duplicate version";
    ORPHEUS_CHECK_OK(client->CloseSession(sid));
    failpoint::DisarmAll();
    server->Stop();
    ++round;
  }
}

// Probabilistic chaos hammer: 8 clients commit concurrently while every
// net.* site misbehaves at random (deterministically seeded). Afterwards:
// every client got a definitive result for every round, version accounting
// matches commits exactly (no phantoms, no duplicates), and the CVD passes
// the full invariant validator.
TEST_F(NetTest, ChaosHammerEightClients) {
  ServerOptions options;
  options.listen = "unix:" + MakeTempDir() + "/sock";
  auto server = StartMemoryServer(options);

  failpoint::Reseed(12345);
  ORPHEUS_CHECK_OK(failpoint::ArmFromSpec(
      "net.server.recv=error:p0.05;net.server.send=error:p0.05;"
      "net.client.send=error:p0.05;net.client.recv=error:p0.05;"
      "net.server.drop_before_send=error:p0.03;"
      "net.server.drop_after_read=error:p0.03;"
      "net.server.send.partial=error:p0.02;"
      "net.client.send.partial=error:p0.02"));

  constexpr int kClients = 8;
  constexpr int kRounds = 3;
  struct ClientResult {
    std::vector<session::CommitOutcome> outcomes;
    std::vector<Status> definitive_errors;
    int unresolved = 0;
    Status fatal = Status::OK();
  };
  std::vector<ClientResult> results(kClients);

  ThreadPool pool(kClients);
  {
    ThreadPool::TaskGroup group(&pool);
    for (int i = 0; i < kClients; ++i) {
      group.Submit([&, i] {
        ClientResult& r = results[i];
        ClientOptions copts;
        copts.client_uuid = "chaos-" + std::to_string(i);
        copts.jitter_seed = 1000 + i;
        copts.call_deadline_ms = 8000;
        copts.max_attempts = 12;
        copts.backoff_base_ms = 2;
        copts.backoff_cap_ms = 100;
        auto connected = Client::Connect(server->address(), copts);
        for (int tries = 0; !connected.ok() && tries < 10; ++tries) {
          connected = Client::Connect(server->address(), copts);
        }
        if (!connected.ok()) {
          r.fatal = connected.status();
          return;
        }
        Client* c = connected.ValueOrDie().get();
        auto opened = c->Open("t");
        if (!opened.ok()) {
          r.fatal = opened.status();
          return;
        }
        const uint64_t sid = opened.ValueOrDie().sid;
        // DeadlineExceeded and Unavailable are "try again" answers (the
        // client keeps a timed-out commit's stamp, so retrying RESOLVES
        // it); anything else is a definitive verdict.
        auto unknown = [](const Status& s) {
          return s.IsDeadlineExceeded() || s.IsUnavailable();
        };
        for (int round = 0; round < kRounds; ++round) {
          const std::string table_name = "w" + std::to_string(round);
          Result<Table> checked = Status::Unavailable("not tried");
          for (int tries = 0; tries < 8; ++tries) {
            checked = c->Checkout(sid, {1}, table_name);
            if (checked.ok() || !unknown(checked.status())) break;
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
          }
          if (!checked.ok()) {
            r.definitive_errors.push_back(checked.status());
            continue;
          }
          Table table = checked.MoveValueOrDie();
          // Disjoint key ranges: concurrent commits reconcile cleanly.
          AddRow(&table, 10000 + i * 100 + round, "c" + std::to_string(i));
          bool resolved = false;
          for (int tries = 0; tries < 8; ++tries) {
            auto outcome = c->Commit(sid, table, "chaos", "tester");
            if (outcome.ok()) {
              r.outcomes.push_back(outcome.MoveValueOrDie());
              resolved = true;
              break;
            }
            if (unknown(outcome.status())) {
              std::this_thread::sleep_for(std::chrono::milliseconds(100));
              continue;
            }
            r.definitive_errors.push_back(outcome.status());
            resolved = true;
            break;
          }
          if (!resolved) ++r.unresolved;
        }
        ORPHEUS_IGNORE_ERROR(c->CloseSession(sid));
      });
    }
    group.Wait();
  }
  failpoint::DisarmAll();

  // Every client connected and resolved every round — confirmed result or
  // definitive error, never a dangling unknown.
  int total_commits = 0;
  int expected_versions = 1;  // the seed version
  std::set<VersionId> all_vids;
  for (int i = 0; i < kClients; ++i) {
    const ClientResult& r = results[i];
    ASSERT_TRUE(r.fatal.ok())
        << "client " << i << " never got going: " << r.fatal.ToString();
    EXPECT_EQ(r.unresolved, 0) << "client " << i
                               << " left a commit outcome unresolved";
    // With this fault mix every op resolves to success under retry;
    // a definitive error here would be a protocol-level bug.
    for (const Status& s : r.definitive_errors) {
      ADD_FAILURE() << "client " << i
                    << " got a definitive error: " << s.ToString();
    }
    for (const session::CommitOutcome& outcome : r.outcomes) {
      ++total_commits;
      ++expected_versions;
      EXPECT_TRUE(all_vids.insert(outcome.vid).second)
          << "duplicate version " << outcome.vid << " from client " << i;
      if (outcome.merged_vid != core::kInvalidVersion) {
        ++expected_versions;
        EXPECT_TRUE(all_vids.insert(outcome.merged_vid).second)
            << "duplicate merge version " << outcome.merged_vid;
      }
    }
  }
  EXPECT_GT(total_commits, 0) << "chaos swallowed every commit";

  // Version accounting: the CVD holds exactly the versions the confirmed
  // outcomes claim — no phantom from a killed connection, no duplicate
  // from a retried commit.
  auto audit = Client::Connect(server->address(), FastClientOptions(77));
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  EXPECT_EQ(NumVersions(audit.ValueOrDie().get()), expected_versions);

  // And the structure is fsck-clean.
  ValidationReport report;
  ORPHEUS_CHECK_OK(server->manager("t")->ReadCvd(
      [&report](const core::Cvd& cvd) {
        core::ValidateCvd(cvd, &report);
        return Status::OK();
      }));
  EXPECT_TRUE(report.ok()) << report.ToString();

  SessionServer::Stats stats = server->stats();
  EXPECT_EQ(stats.commits, static_cast<uint64_t>(total_commits));
}

}  // namespace
}  // namespace orpheus::net
