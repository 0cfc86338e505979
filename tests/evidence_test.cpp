// Evidence recorder tests: format round-trips, golden byte-identity,
// schema-evolution rules, tamper/truncation fuzz (this file runs under the
// ASan job), and campaign-evidence thread invariance.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/checkpoint.hpp"
#include "campaign/engine.hpp"
#include "evidence/hash.hpp"
#include "evidence/reader.hpp"
#include "evidence/schema.hpp"
#include "evidence/sink.hpp"
#include "evidence/verify.hpp"
#include "evidence/writer.hpp"
#include "fault/campaign.hpp"
#include "fault/rng.hpp"
#include "obs/health_report.hpp"
#include "trace/export.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/build_info.hpp"

namespace iecd::evidence {
namespace {

namespace fs = std::filesystem;

std::vector<std::uint8_t> read_file_bytes(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(is),
                                   std::istreambuf_iterator<char>());
}

/// Fresh scratch directory under the test working dir.
fs::path scratch_dir(const std::string& name) {
  fs::path dir = fs::path("evidence_test_tmp") / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A registry-of-everything workload: every metric kind plus a small
/// trace, deterministic so the byte-identity tests can hold exact.
void fill_workload(trace::TraceRecorder& rec, trace::MetricsRegistry& m) {
  for (int i = 0; i < 64; ++i) {
    const auto t = static_cast<sim::SimTime>(1000 + i * 250);
    switch (i % 3) {
      case 0:
        rec.span_complete("sim", "step", "cpu", t, t + 120, i * 0.5);
        break;
      case 1:
        rec.counter("sim", "queue", "bus", t, static_cast<double>(i % 7));
        break;
      default:
        rec.instant("sim", "mark", "pil", t);
        break;
    }
  }
  m.counter("steps").value = 64;
  m.gauge("iae") = 6.375;
  auto& s = m.stats("exec_us");
  for (int i = 0; i < 32; ++i) s.add(10.0 + (i % 5));
  auto& series = m.series("rtt_us");
  for (int i = 0; i < 16; ++i) series.add(800.0 + i);
  auto& h = m.histogram("lat_us", 0.0, 100.0, 8);
  for (int i = 0; i < 40; ++i) h.add(static_cast<double>((i * 13) % 100));
}

/// One fully loaded sealed artifact (build info, run meta, metrics,
/// health, trace).
std::vector<std::uint8_t> build_full_artifact() {
  trace::TraceRecorder rec(128);
  trace::MetricsRegistry m;
  fill_workload(rec, m);
  obs::HealthReport health;
  health.source = "evidence_test";
  EvidenceWriter w;
  w.record_build_info();
  w.record_run_meta("evidence_test", 3, 42);
  w.record_metrics(m);
  w.record_health(health);
  w.record_trace(rec);
  w.finish();
  return w.bytes();
}

// ---------------------------------------------------------------- hashing

TEST(EvidenceHash, Sha256FipsVectors) {
  // FIPS 180-4 known answers.
  const std::uint8_t abc[] = {'a', 'b', 'c'};
  EXPECT_EQ(hex(Sha256::of(abc, 3)),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hex(Sha256::of(abc, 0)),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  const std::vector<std::uint8_t> million(1000000, 'a');
  EXPECT_EQ(hex(Sha256::of(million.data(), million.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(EvidenceHash, Sha256StreamingMatchesOneShot) {
  std::vector<std::uint8_t> data(4099);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  const auto oneshot = Sha256::of(data.data(), data.size());
  // Awkward chunk sizes straddle the 64-byte block boundary.
  for (std::size_t chunk : {1u, 7u, 63u, 64u, 65u, 1000u}) {
    Sha256 h;
    for (std::size_t pos = 0; pos < data.size(); pos += chunk) {
      h.update(data.data() + pos, std::min(chunk, data.size() - pos));
    }
    EXPECT_EQ(h.digest(), oneshot) << "chunk=" << chunk;
  }
  // The dispatch decision is stable within one process.
  EXPECT_EQ(Sha256::hardware_accelerated(), Sha256::hardware_accelerated());
}

TEST(EvidenceHash, CellHashDeterministicAndSensitive) {
  const std::uint8_t a[] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const std::uint8_t b[] = {1, 2, 3, 4, 5, 6, 7, 8, 10};
  EXPECT_EQ(cell_hash64(a, sizeof a), cell_hash64(a, sizeof a));
  EXPECT_NE(cell_hash64(a, sizeof a), cell_hash64(b, sizeof b));
  // Length is part of the hash: a zero-padded tail must not collide with
  // explicit zero bytes.
  const std::uint8_t c[] = {1, 2, 3, 0};
  EXPECT_NE(cell_hash64(c, 3), cell_hash64(c, 4));
  // The chain is order-sensitive even over identical cell sets.
  const std::uint64_t ab =
      chain_update(chain_update(kChainSeed, a, sizeof a), b, sizeof b);
  const std::uint64_t ba =
      chain_update(chain_update(kChainSeed, b, sizeof b), a, sizeof a);
  EXPECT_NE(ab, ba);
}

// ----------------------------------------------------------------- schema

TEST(EvidenceSchema, BuiltinEncodeDecodeRoundTrip) {
  const auto& reg = SchemaRegistry::builtin();
  EXPECT_EQ(reg.size(), 12u);  // + kSchemaCampaignCheckpoint
  for (const auto& [id, schema] : reg.schemas()) {
    std::vector<std::uint8_t> cell;
    SchemaRegistry::encode(schema, cell);
    // Cell = u32 length + payload.
    ASSERT_GE(cell.size(), 4u);
    const auto len = load_le<std::uint32_t>(cell.data());
    ASSERT_EQ(cell.size(), 4u + len);
    Schema out;
    ASSERT_TRUE(SchemaRegistry::decode(cell.data() + 4, len, out));
    EXPECT_EQ(out.id, schema.id);
    EXPECT_EQ(out.version, schema.version);
    EXPECT_EQ(out.name, schema.name);
    EXPECT_EQ(out.fields, schema.fields);
  }
}

TEST(EvidenceSchema, CompatibilityRules) {
  Schema reader;
  reader.id = 3;
  reader.version = 2;
  reader.name = "metric_counter";
  reader.fields = {{FieldType::kString, "name"},
                   {FieldType::kU64, "value"},
                   {FieldType::kU64, "added_later"}};

  Schema artifact = reader;
  EXPECT_TRUE(SchemaRegistry::compatible(artifact, reader));

  // Old writer: lower version, field prefix — accepted.
  artifact.version = 1;
  artifact.fields.pop_back();
  EXPECT_TRUE(SchemaRegistry::compatible(artifact, reader));

  // Newer artifact than reader — rejected.
  Schema newer = reader;
  newer.version = 3;
  newer.fields.push_back({FieldType::kF64, "from_the_future"});
  std::string why;
  EXPECT_FALSE(SchemaRegistry::compatible(newer, reader, &why));
  EXPECT_FALSE(why.empty());

  // A renamed field breaks the prefix rule.
  Schema renamed = reader;
  renamed.fields[1].name = "count";
  EXPECT_FALSE(SchemaRegistry::compatible(renamed, reader));

  // A changed field type breaks it too.
  Schema retyped = reader;
  retyped.fields[1].type = FieldType::kF64;
  EXPECT_FALSE(SchemaRegistry::compatible(retyped, reader));

  // Same id but different record name is a different schema.
  Schema othername = reader;
  othername.name = "metric_gauge";
  EXPECT_FALSE(SchemaRegistry::compatible(othername, reader));
}

// ------------------------------------------------------------- round-trip

TEST(EvidenceRoundTrip, EverythingDecodesExactly) {
  trace::TraceRecorder rec(128);
  trace::MetricsRegistry m;
  fill_workload(rec, m);
  obs::HealthReport health;
  health.source = "evidence_test";
  health.runs = 3;

  EvidenceWriter w;
  w.record_build_info();
  w.record_run_meta("evidence_test", 3, 42);
  w.record_metrics(m);
  w.record_health(health);
  w.record_trace(rec);
  w.finish();

  EvidenceReader r;
  ASSERT_EQ(r.parse(w.bytes()), Status::kOk) << r.error();
  EXPECT_EQ(r.record_count(), w.record_count());
  EXPECT_EQ(r.chain_hash(), w.chain_hash());
  EXPECT_EQ(r.sha256_hex(), w.sha256_hex());
  EXPECT_EQ(r.unknown_records(), 0u);

  // Run meta + build info.
  ASSERT_EQ(r.run_metas().size(), 1u);
  EXPECT_EQ(r.run_metas()[0].name, "evidence_test");
  EXPECT_EQ(r.run_metas()[0].index, 3u);
  EXPECT_EQ(r.run_metas()[0].seed, 42u);
  ASSERT_EQ(r.build_infos().size(), 1u);
  EXPECT_EQ(r.build_infos()[0].git_sha, util::build_info().git_sha);
  EXPECT_EQ(r.build_infos()[0].compiler, util::build_info().compiler);

  // Metrics: doubles travel as bit patterns, so equality is exact.
  const auto& rm = r.metrics();
  ASSERT_NE(rm.find_counter("steps"), nullptr);
  EXPECT_EQ(rm.find_counter("steps")->value, 64u);
  ASSERT_NE(rm.find_gauge("iae"), nullptr);
  EXPECT_EQ(*rm.find_gauge("iae"), 6.375);
  const auto* stats = rm.find_stats("exec_us");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->count(), m.stats("exec_us").count());
  EXPECT_EQ(stats->mean(), m.stats("exec_us").mean());
  EXPECT_EQ(stats->min(), m.stats("exec_us").min());
  EXPECT_EQ(stats->max(), m.stats("exec_us").max());
  const auto* series = rm.find_series("rtt_us");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->samples(), m.series("rtt_us").samples());
  const auto* hist = rm.find_histogram("lat_us");
  ASSERT_NE(hist, nullptr);
  ASSERT_EQ(hist->bins(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(hist->bin_count(i),
              m.histogram("lat_us", 0.0, 100.0, 8).bin_count(i));
  }

  // Health summary headline.
  ASSERT_EQ(r.health_summaries().size(), 1u);
  EXPECT_EQ(r.health_summaries()[0].source, "evidence_test");
  EXPECT_EQ(r.health_summaries()[0].runs, 3u);
  EXPECT_TRUE(r.health_summaries()[0].healthy);
  EXPECT_EQ(r.health_summaries()[0].json, health.to_json());

  // Trace: every event decoded, in order, its names resolved on use.
  ASSERT_EQ(r.events().size(), rec.size());
  EXPECT_EQ(r.string_of(r.events()[0].category), "sim");
  EXPECT_EQ(r.string_of(r.events()[0].name), "step");
  EXPECT_EQ(r.string_of(r.events()[0].track), "cpu");
  EXPECT_EQ(r.events()[0].time, 1000);
  EXPECT_EQ(r.events()[0].duration, 120);
  EXPECT_EQ(r.events()[0].value, 0.0);
}

TEST(EvidenceRoundTrip, GoldenByteIdentity) {
  // Recording the same run twice — different writer objects, same input —
  // must produce the same bytes and digests.  This is the rebuild half of
  // the golden-file guarantee; the sweep half is CampaignThreadInvariance.
  const auto a = build_full_artifact();
  const auto b = build_full_artifact();
  EXPECT_EQ(a, b);

  EvidenceReader ra, rb;
  ASSERT_EQ(ra.parse(a), Status::kOk);
  ASSERT_EQ(rb.parse(b), Status::kOk);
  EXPECT_EQ(ra.sha256_hex(), rb.sha256_hex());
  EXPECT_EQ(ra.chain_hash(), rb.chain_hash());
}

TEST(EvidenceRoundTrip, RebuildTraceReexportsIdentically) {
  trace::TraceRecorder rec(128);
  trace::MetricsRegistry m;
  fill_workload(rec, m);
  EvidenceWriter w;
  w.record_trace(rec);
  w.finish();

  EvidenceReader r;
  ASSERT_EQ(r.parse(w.bytes()), Status::kOk) << r.error();
  const trace::TraceRecorder rebuilt = r.rebuild_trace();
  // Nothing dropped, so the Chrome-trace and CSV exports of the rebuilt
  // recorder are byte-identical to exporting the live one.
  EXPECT_EQ(trace::to_chrome_trace(rebuilt), trace::to_chrome_trace(rec));
  EXPECT_EQ(trace::to_csv(rebuilt), trace::to_csv(rec));
}

TEST(EvidenceRoundTrip, EventWithoutInternRecordResolvesToEmptyName) {
  trace::TraceRecorder rec(16);
  rec.instant("sim", "mark", "cpu", 100);
  EvidenceWriter w;
  w.record_trace(rec);
  // A hand-written event whose name id 99 no intern record defines.
  std::vector<std::uint8_t> p;
  store_le<std::uint8_t>(
      p, static_cast<std::uint8_t>(trace::EventType::kInstant));
  store_le<std::uint32_t>(p, rec.intern("sim"));  // category
  store_le<std::uint32_t>(p, 99);                 // name: not interned
  store_le<std::uint32_t>(p, rec.intern("cpu"));  // track
  store_le<std::int64_t>(p, 200);
  store_le<std::int64_t>(p, 0);
  store_le<std::uint64_t>(p, 1);
  store_f64(p, 0.0);
  w.append_record(kSchemaTraceEvent, 1, p);
  w.finish();

  EvidenceReader r;
  ASSERT_EQ(r.parse(w.bytes()), Status::kOk) << r.error();
  ASSERT_EQ(r.events().size(), 2u);
  const DecodedEvent& ev = r.events()[1];
  EXPECT_EQ(ev.name, 99u);
  EXPECT_EQ(r.string_of(ev.name), "");
  EXPECT_EQ(r.string_of(ev.category), "sim");
  EXPECT_EQ(r.string_of(ev.track), "cpu");

  // The rebuilt trace carries the same empty name.
  const trace::TraceRecorder rebuilt = r.rebuild_trace();
  const auto events = rebuilt.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(rebuilt.string_at(events[1].name), "");
  EXPECT_EQ(rebuilt.string_at(events[1].category), "sim");
  EXPECT_EQ(rebuilt.string_at(events[1].track), "cpu");
}

// ------------------------------------------------------- schema evolution

TEST(EvidenceEvolution, UnknownSchemaRecordsAreSkippedAndCounted) {
  // A future writer with a record kind this reader has never heard of.
  SchemaRegistry future;
  for (const auto& [id, schema] : SchemaRegistry::builtin().schemas()) {
    future.add(schema);
  }
  Schema extra;
  extra.id = 42;
  extra.version = 1;
  extra.name = "from_the_future";
  extra.fields = {{FieldType::kU64, "value"}};
  future.add(extra);

  EvidenceWriter w(future);
  w.record_run_meta("future", 0, 1);
  std::vector<std::uint8_t> payload;
  store_le<std::uint64_t>(payload, 7);
  w.append_record(42, 1, payload);
  w.record_run_meta("future", 1, 2);
  w.finish();

  EvidenceReader r;  // built-in registry: knows nothing about id 42
  ASSERT_EQ(r.parse(w.bytes()), Status::kOk) << r.error();
  EXPECT_EQ(r.unknown_records(), 1u);
  ASSERT_EQ(r.run_metas().size(), 2u);  // records around it still decode
  EXPECT_EQ(r.run_metas()[1].seed, 2u);
}

TEST(EvidenceEvolution, OldArtifactNewReaderAndViceVersa) {
  const auto bytes = build_full_artifact();

  // Reader whose run_meta schema grew a field (version bump): the old
  // artifact's field list is a prefix — accepted.
  SchemaRegistry grown;
  for (const auto& [id, schema] : SchemaRegistry::builtin().schemas()) {
    Schema s = schema;
    if (id == kSchemaRunMeta) {
      s.version = 2;
      s.fields.push_back({FieldType::kU64, "added_in_v2"});
    }
    grown.add(s);
  }
  EvidenceReader newer(grown);
  EXPECT_EQ(newer.parse(bytes), Status::kOk) << newer.error();

  // Reader whose run_meta schema is OLDER than the artifact's — rejected
  // at the schema section (the artifact version exceeds the reader's).
  SchemaRegistry shrunk;
  for (const auto& [id, schema] : SchemaRegistry::builtin().schemas()) {
    Schema s = schema;
    if (id == kSchemaRunMeta) {
      s.version = 0;
    }
    shrunk.add(s);
  }
  EvidenceReader older(shrunk);
  EXPECT_EQ(older.parse(bytes), Status::kBadSchema);
}

// --------------------------------------------------------- tamper / fuzz

TEST(EvidenceTamper, SpecificCorruptionsReportSpecificStatus) {
  const auto clean = build_full_artifact();

  {  // Header magic.
    auto bytes = clean;
    bytes[0] ^= 0xFF;
    EvidenceReader r;
    EXPECT_EQ(r.parse(bytes), Status::kBadMagic);
  }
  {  // Format version beyond this reader.
    auto bytes = clean;
    bytes[8] = 0xEE;
    bytes[9] = 0xEE;
    EvidenceReader r;
    EXPECT_EQ(r.parse(bytes), Status::kBadVersion);
  }
  {  // A flipped bit mid-record trips the chain (or the record decode).
    auto bytes = clean;
    bytes[bytes.size() / 2] ^= 0x01;
    EvidenceReader r;
    const Status s = r.parse(bytes);
    EXPECT_NE(s, Status::kOk);
  }
  {  // A flipped digest byte is a digest mismatch.
    auto bytes = clean;
    bytes[bytes.size() - 4 - 1] ^= 0x01;  // inside the 32-byte SHA-256
    EvidenceReader r;
    EXPECT_EQ(r.parse(bytes), Status::kDigestMismatch);
  }
  {  // A flipped chain-hash byte is a chain mismatch.
    auto bytes = clean;
    bytes[bytes.size() - 4 - 32 - 1] ^= 0x01;
    EvidenceReader r;
    EXPECT_EQ(r.parse(bytes), Status::kChainMismatch);
  }
  {  // End magic.  (Pointer form: gcc 12 misreads back() on the copied
     // vector as an out-of-bounds subscript.)
    auto bytes = clean;
    ASSERT_FALSE(bytes.empty());
    *(bytes.data() + bytes.size() - 1) ^= 0xFF;
    EvidenceReader r;
    EXPECT_EQ(r.parse(bytes), Status::kBadFooter);
  }
}

TEST(EvidenceTamper, EveryTruncationFailsGracefully) {
  // Small artifact so every prefix length is affordable; ASan watches the
  // reader for out-of-bounds access on all of them.
  trace::TraceRecorder rec(16);
  trace::MetricsRegistry m;
  m.counter("c").value = 1;
  rec.instant("sim", "mark", "cpu", 100);
  EvidenceWriter w;
  w.record_run_meta("trunc", 0, 1);
  w.record_metrics(m);
  w.record_trace(rec);
  w.finish();
  const auto& bytes = w.bytes();

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EvidenceReader r;
    EXPECT_NE(r.parse(bytes.data(), len), Status::kOk) << "prefix " << len;
  }
  EvidenceReader whole;
  EXPECT_EQ(whole.parse(bytes), Status::kOk);
}

TEST(EvidenceTamper, EveryByteFlipIsDetected) {
  // The footer self-checks and everything before it is under the SHA-256,
  // so no single corrupted byte may verify.
  trace::TraceRecorder rec(16);
  trace::MetricsRegistry m;
  m.gauge("g") = 1.5;
  rec.instant("sim", "mark", "cpu", 100);
  EvidenceWriter w;
  w.record_run_meta("flip", 0, 1);
  w.record_metrics(m);
  w.record_trace(rec);
  w.finish();

  auto bytes = w.bytes();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] ^= 0xFF;
    EvidenceReader r;
    EXPECT_NE(r.parse(bytes), Status::kOk) << "byte " << i;
    bytes[i] ^= 0xFF;
  }
  EvidenceReader clean;
  EXPECT_EQ(clean.parse(bytes), Status::kOk);
}

// ----------------------------------------------------------- verification

TEST(EvidenceVerify, ResultSummaryAndJson) {
  const auto bytes = build_full_artifact();
  const VerifyResult pass = verify_artifact(bytes, "mem.evd");
  EXPECT_TRUE(pass.ok);
  EXPECT_EQ(pass.status, Status::kOk);
  EXPECT_EQ(pass.summary().rfind("PASS mem.evd", 0), 0u) << pass.summary();
  EXPECT_NE(pass.to_json().find("\"ok\":true"), std::string::npos);
  EXPECT_NE(pass.to_json().find(pass.sha256_hex), std::string::npos);
  EXPECT_EQ(pass.schema_names.size(), SchemaRegistry::builtin().size());

  auto tampered = bytes;
  tampered[tampered.size() / 2] ^= 0x01;
  const VerifyResult fail = verify_artifact(tampered, "mem.evd");
  EXPECT_FALSE(fail.ok);
  EXPECT_EQ(fail.summary().rfind("FAIL mem.evd", 0), 0u) << fail.summary();
  EXPECT_NE(fail.to_json().find("\"ok\":false"), std::string::npos);
}

TEST(EvidenceVerify, FileAndMemoryAgree) {
  const fs::path dir = scratch_dir("file_and_memory");
  const auto bytes = build_full_artifact();
  const std::string path = (dir / "full.evd").string();
  std::ofstream(path, std::ios::binary)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));

  const VerifyResult file = verify_artifact_file(path);
  const VerifyResult memory = verify_artifact(bytes, path);
  ASSERT_TRUE(file.ok) << file.summary();
  EXPECT_EQ(file.status, memory.status);
  EXPECT_EQ(file.error, memory.error);
  EXPECT_EQ(file.bytes, bytes.size());
  EXPECT_EQ(file.bytes, memory.bytes);
  EXPECT_EQ(file.records, memory.records);
  EXPECT_EQ(file.events, memory.events);
  EXPECT_GT(file.events, 0u);
  EXPECT_EQ(file.unknown_records, memory.unknown_records);
  EXPECT_EQ(file.chain_hash_hex, memory.chain_hash_hex);
  EXPECT_EQ(file.sha256_hex, memory.sha256_hex);
  EXPECT_EQ(file.schema_names, memory.schema_names);
  EXPECT_EQ(file.to_json(), memory.to_json());
}

TEST(EvidenceVerify, UnreadablePathsFailWithoutThrowing) {
  const fs::path dir = scratch_dir("unreadable");
  const std::string missing = (dir / "missing.evd").string();
  const std::string empty = (dir / "empty.evd").string();
  std::ofstream(empty, std::ios::binary).flush();
  const std::string directory = (dir / "directory.evd").string();
  fs::create_directories(directory);
  std::vector<std::string> paths = {missing, empty, directory};
  // sysfs reports each attribute file as 4096 bytes, but reading one
  // yields only its few bytes of text: a genuine short read.  Covered
  // where the host has sysfs.
  const std::string sysfs = "/sys/devices/system/cpu/online";
  std::error_code ec;
  if (fs::is_regular_file(sysfs, ec)) paths.push_back(sysfs);

  for (const std::string& path : paths) {
    std::vector<std::uint8_t> bytes;
    std::string error;
    EXPECT_FALSE(read_whole_file(path, bytes, error)) << path;
    EXPECT_FALSE(error.empty()) << path;
    EXPECT_TRUE(bytes.empty()) << path;

    VerifyResult v;
    EXPECT_NO_THROW(v = verify_artifact_file(path)) << path;
    EXPECT_FALSE(v.ok) << path;
    EXPECT_EQ(v.status, Status::kTruncated) << path;
    EXPECT_EQ(v.summary().rfind("FAIL " + path + ": ", 0), 0u)
        << v.summary();

    EvidenceReader r;
    Status s = Status::kOk;
    EXPECT_NO_THROW(s = r.parse_file(path)) << path;
    EXPECT_EQ(s, Status::kTruncated) << path;
    EXPECT_EQ(r.error(), error) << path;
  }

  // A directory where the checkpoint should be is corrupt, not missing.
  const fs::path ckpt = dir / "CHECKPOINT.evd";
  fs::create_directories(ckpt);
  campaign::CheckpointState state;
  campaign::CheckpointStatus status = campaign::CheckpointStatus::kOk;
  EXPECT_NO_THROW(status = campaign::load_checkpoint(ckpt.string(), state));
  EXPECT_EQ(status, campaign::CheckpointStatus::kCorrupt);
}

// ------------------------------------------------------- campaign evidence

/// Cheap deterministic campaign scenario: no shared state, everything
/// derived from the run seed.
bool synthetic_scenario(fault::RunContext& ctx) {
  ctx.metrics.counter("runs").increment();
  auto& iae = ctx.metrics.stats("campaign.iae");
  fault::SplitMix64 rng(ctx.run_seed);
  for (int i = 0; i < 16; ++i) {
    iae.add(static_cast<double>(rng.next() % 1000) / 8.0);
  }
  ctx.health.source = "evidence_campaign";
  return true;
}

fault::CampaignOptions campaign_options(std::size_t threads) {
  fault::CampaignOptions opts;
  opts.name = "evidence_campaign";
  opts.seed = 42;
  opts.runs = 6;
  opts.threads = threads;
  return opts;
}

/// Runs the synthetic campaign through the engine, evidence into \p dir.
CampaignEvidence record_campaign(const fs::path& dir, std::size_t threads) {
  campaign::EngineOptions eo;
  eo.campaign = campaign_options(threads);
  eo.evidence_dir = dir.string();
  return campaign::CampaignEngine(eo).run(synthetic_scenario).evidence;
}

TEST(EvidenceCampaign, ThreadInvarianceAndManifestVerify) {
  // The acceptance bar: artifacts and manifest byte-identical across
  // 1/2/8 sweep threads, and evidence_verify passes on all of them.
  const fs::path base = scratch_dir("campaign");
  struct Out {
    CampaignEvidence ev;
    fs::path dir;
  };
  std::vector<Out> outs;
  for (std::size_t threads : {1u, 2u, 8u}) {
    const fs::path dir = base / ("t" + std::to_string(threads));
    outs.push_back({record_campaign(dir, threads), dir});
  }

  const Out& ref = outs[0];
  ASSERT_EQ(ref.ev.runs.size(), 6u);
  for (std::size_t i = 1; i < outs.size(); ++i) {
    EXPECT_EQ(outs[i].ev.manifest, ref.ev.manifest) << "threads variant " << i;
    ASSERT_EQ(outs[i].ev.runs.size(), ref.ev.runs.size());
    for (std::size_t run = 0; run < ref.ev.runs.size(); ++run) {
      EXPECT_EQ(outs[i].ev.runs[run].sha256_hex, ref.ev.runs[run].sha256_hex);
      EXPECT_EQ(read_file_bytes(outs[i].dir / outs[i].ev.runs[run].filename),
                read_file_bytes(ref.dir / ref.ev.runs[run].filename));
    }
    EXPECT_EQ(outs[i].ev.merged.sha256_hex, ref.ev.merged.sha256_hex);
    EXPECT_EQ(read_file_bytes(outs[i].dir / outs[i].ev.merged.filename),
              read_file_bytes(ref.dir / ref.ev.merged.filename));
  }

  // Every artifact verifies, one by one and through the manifest.
  for (const auto& run : ref.ev.runs) {
    const auto vr = verify_artifact_file((ref.dir / run.filename).string());
    EXPECT_TRUE(vr.ok) << vr.summary();
    EXPECT_EQ(vr.sha256_hex, run.sha256_hex);
  }
  const auto mv = verify_manifest(ref.ev.manifest_path);
  EXPECT_TRUE(mv.ok) << mv.error;
  EXPECT_EQ(mv.passed, mv.entries.size());
  EXPECT_GE(mv.passed, 7u);  // 6 runs + merged

  // The merged artifact carries the campaign summary.
  EvidenceReader merged;
  ASSERT_EQ(merged.parse_file((ref.dir / ref.ev.merged.filename).string()),
            Status::kOk);
  ASSERT_EQ(merged.campaign_summaries().size(), 1u);
  EXPECT_EQ(merged.campaign_summaries()[0].name, "evidence_campaign");
  EXPECT_EQ(merged.campaign_summaries()[0].runs, 6u);
  EXPECT_EQ(merged.campaign_summaries()[0].unrecovered, 0u);
}

TEST(EvidenceCampaign, ManifestDetectsTamperedArtifact) {
  const fs::path dir = scratch_dir("tampered");
  const auto ev = record_campaign(dir, 1);

  // Flip one byte of the first run artifact on disk.
  const fs::path victim = dir / ev.runs[0].filename;
  auto bytes = read_file_bytes(victim);
  bytes[bytes.size() / 2] ^= 0x01;
  std::ofstream os(victim, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
  os.close();

  const auto mv = verify_manifest(ev.manifest_path);
  EXPECT_FALSE(mv.ok);
  std::size_t failed = 0;
  for (const auto& entry : mv.entries) failed += entry.verified ? 0 : 1;
  EXPECT_EQ(failed, 1u);  // only the tampered artifact fails
}

// ---------------------------------------------------------------- sidecar

TEST(EvidenceSink, SidecarCarriesIdentityAndReexportsWork) {
  const fs::path dir = scratch_dir("sidecar");
  trace::TraceRecorder rec(128);
  trace::MetricsRegistry m;
  fill_workload(rec, m);
  const auto writer =
      build_run_artifact("sidecar_run", 0, 7, m, nullptr, &rec);
  const auto artifact = write_artifact_with_sidecar(
      dir.string(), "run.evd", writer, "sidecar_run", 0, 7);
  EXPECT_EQ(artifact.sha256_hex, writer.sha256_hex());

  // Sidecar exists and pins the digest (it doubles as a manifest line).
  std::ifstream side(dir / "run.evd.meta.jsonl");
  ASSERT_TRUE(side.good());
  std::string line;
  std::getline(side, line);
  EXPECT_NE(line.find(writer.sha256_hex()), std::string::npos);
  EXPECT_NE(line.find("\"name\":\"sidecar_run\""), std::string::npos);

  // Re-exports through the existing trace/metrics paths match the live
  // exporters byte for byte.
  const fs::path chrome = dir / "trace.json";
  const fs::path csv = dir / "metrics.csv";
  std::string error;
  ASSERT_TRUE(reexport_chrome_trace((dir / "run.evd").string(),
                                    chrome.string(), &error))
      << error;
  ASSERT_TRUE(reexport_metrics_csv((dir / "run.evd").string(), csv.string(),
                                   &error))
      << error;
  std::ifstream cj(chrome);
  const std::string chrome_out(std::istreambuf_iterator<char>(cj),
                               std::istreambuf_iterator<char>{});
  EXPECT_EQ(chrome_out, trace::to_chrome_trace(rec));
  std::ifstream mc(csv);
  const std::string csv_out(std::istreambuf_iterator<char>(mc),
                            std::istreambuf_iterator<char>{});
  EXPECT_EQ(csv_out, m.to_csv());
}

// -------------------------------------------------- health/build satellite

TEST(EvidenceSatellite, HealthReportJsonCarriesBuildInfo) {
  obs::HealthReport health;
  health.source = "build_probe";
  const std::string json = health.to_json();
  EXPECT_NE(json.find("\"build\":"), std::string::npos);
  EXPECT_NE(json.find(util::build_info().git_sha), std::string::npos);
  EXPECT_NE(json.find(util::build_info().build_type), std::string::npos);
}

}  // namespace
}  // namespace iecd::evidence
