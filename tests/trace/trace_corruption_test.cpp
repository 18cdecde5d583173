/// Fuzz-style corruption tests for the .wdct reader: a valid trace mangled in
/// every structured way (truncation at each boundary, bad magic, future
/// version, wrong record size, partial trailing record) plus a randomized
/// byte-flip storm. The reader must refuse corrupt input with a one-line
/// reason and must never crash — the sanitizer CI job runs this file under
/// ASan/UBSan.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "trace/trace_event.hpp"
#include "trace/trace_io.hpp"
#include "util/rng.hpp"

namespace wdc {
namespace {

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

void write_bytes(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(b.data()),
           static_cast<std::streamsize>(b.size()));
}

/// A small valid trace file as raw bytes, ready to be mangled.
std::vector<std::uint8_t> valid_trace_bytes(std::size_t num_events = 3) {
  TraceMeta meta;
  meta.protocol = "TS";
  meta.seed = 7;
  meta.sim_time_s = 100.0;
  meta.warmup_s = 10.0;
  meta.num_clients = 4;
  const TraceFileHeader h = make_trace_header(meta);
  std::vector<std::uint8_t> bytes(sizeof h);
  std::memcpy(bytes.data(), &h, sizeof h);
  for (std::size_t i = 0; i < num_events; ++i) {
    TraceEvent ev{};
    ev.t = static_cast<double>(i);
    ev.item = static_cast<std::uint32_t>(i);
    ev.client = 0;
    ev.kind = static_cast<std::uint8_t>(TraceEventKind::kQuerySubmit);
    const auto* p = reinterpret_cast<const std::uint8_t*>(&ev);
    bytes.insert(bytes.end(), p, p + sizeof ev);
  }
  return bytes;
}

bool read_mangled(const std::vector<std::uint8_t>& bytes, std::string* error) {
  // One file per test: ctest -j runs this file's tests as concurrent
  // processes, which would otherwise overwrite one another's bytes.
  const std::string path =
      temp_path("trace_corruption_") +
      testing::UnitTest::GetInstance()->current_test_info()->name() + ".wdct";
  write_bytes(path, bytes);
  TraceFile tf;
  const bool ok = read_trace_file(path, &tf, error);
  std::remove(path.c_str());
  return ok;
}

TEST(TraceCorruption, ValidBaselineReads) {
  std::string error;
  ASSERT_TRUE(read_mangled(valid_trace_bytes(), &error)) << error;
}

TEST(TraceCorruption, EveryHeaderTruncationFails) {
  const auto bytes = valid_trace_bytes(0);
  for (std::size_t len = 0; len < sizeof(TraceFileHeader); ++len) {
    std::string error;
    const std::vector<std::uint8_t> prefix(
        bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(read_mangled(prefix, &error))
        << "header prefix of " << len << " bytes read";
    EXPECT_NE(error.find("truncated header"), std::string::npos);
  }
}

TEST(TraceCorruption, BadMagicRejected) {
  auto bytes = valid_trace_bytes();
  bytes[0] = 'X';
  std::string error;
  EXPECT_FALSE(read_mangled(bytes, &error));
  EXPECT_NE(error.find("magic"), std::string::npos);
}

TEST(TraceCorruption, FutureVersionRejected) {
  auto bytes = valid_trace_bytes();
  const std::uint32_t v = kTraceFormatVersion + 1;
  std::memcpy(bytes.data() + offsetof(TraceFileHeader, version), &v, sizeof v);
  std::string error;
  EXPECT_FALSE(read_mangled(bytes, &error));
  EXPECT_NE(error.find("version"), std::string::npos);
}

TEST(TraceCorruption, RecordSizeMismatchRejected) {
  auto bytes = valid_trace_bytes();
  const std::uint32_t wrong = sizeof(TraceEvent) + 8;
  std::memcpy(bytes.data() + offsetof(TraceFileHeader, event_bytes), &wrong,
              sizeof wrong);
  std::string error;
  EXPECT_FALSE(read_mangled(bytes, &error));
  EXPECT_NE(error.find("record"), std::string::npos);
}

TEST(TraceCorruption, TrailingPartialRecordRejected) {
  const auto bytes = valid_trace_bytes(2);
  // Every cut strictly inside a record must fail; cuts on a record boundary
  // (a shorter but well-formed file) must read.
  for (std::size_t len = sizeof(TraceFileHeader); len < bytes.size(); ++len) {
    std::string error;
    const bool on_boundary =
        (len - sizeof(TraceFileHeader)) % sizeof(TraceEvent) == 0;
    const std::vector<std::uint8_t> cut(
        bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(len));
    const bool ok = read_mangled(cut, &error);
    EXPECT_EQ(ok, on_boundary) << "cut at byte " << len;
    if (!ok) {
      EXPECT_NE(error.find("partial record"), std::string::npos);
    }
  }
}

TEST(TraceCorruption, UnknownEventKindsLoadWithoutCrash) {
  // Event *content* is not validated by the reader (kinds beyond the enum come
  // from newer writers); downstream consumers must simply not crash on them.
  auto bytes = valid_trace_bytes(1);
  bytes[sizeof(TraceFileHeader) + offsetof(TraceEvent, kind)] = 0xee;
  const std::string path = temp_path("trace_unknown_kind.wdct");
  write_bytes(path, bytes);
  TraceFile tf;
  std::string error;
  ASSERT_TRUE(read_trace_file(path, &tf, &error)) << error;
  ASSERT_EQ(tf.events.size(), 1u);
  EXPECT_STREQ(to_string(static_cast<TraceEventKind>(tf.events[0].kind)), "?");
  std::remove(path.c_str());
}

TEST(TraceCorruption, RandomMutationStorm) {
  Rng rng(0x7ace);
  const auto pristine = valid_trace_bytes(5);
  for (int round = 0; round < 500; ++round) {
    auto bytes = pristine;
    const auto mutations = 1 + rng.uniform_int(6);
    for (std::uint64_t m = 0; m < mutations; ++m)
      bytes[rng.uniform_int(bytes.size())] =
          static_cast<std::uint8_t>(rng.uniform_int(256));
    if (rng.bernoulli(0.3))
      bytes.resize(rng.uniform_int(bytes.size() + 1));
    std::string error;
    // Either verdict is fine — only clean behaviour is required: a reason on
    // failure, in-bounds reads throughout (enforced by the sanitizer job).
    if (!read_mangled(bytes, &error)) {
      EXPECT_FALSE(error.empty());
    }
  }
}

}  // namespace
}  // namespace wdc
