// Round-trip fuzz tests for the block codec suite (storage/compression.h):
// every codec × every physical width over fixed-seed randomized patterns
// plus the adversarial edge cases (empty block, single value, all-equal,
// INT_MIN/INT_MAX neighbours), and the codec-selection contracts
// (PickCodec / EncodeBestCodec raw fallback).

#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "storage/buffer.h"
#include "storage/columnbm.h"
#include "storage/compression.h"

namespace x100 {
namespace {

constexpr CodecId kAllIds[] = {CodecId::kRaw, CodecId::kFor, CodecId::kPdict,
                               CodecId::kRle, CodecId::kPforDelta};
constexpr size_t kWidths[] = {1, 2, 4, 8};

/// Truncates `vals` into a byte buffer of `width`-sized signed values.
std::vector<char> ToBytes(const std::vector<int64_t>& vals, size_t width) {
  std::vector<char> out(vals.size() * width);
  for (size_t i = 0; i < vals.size(); i++) {
    switch (width) {
      case 1: {
        int8_t v = static_cast<int8_t>(vals[i]);
        std::memcpy(out.data() + i, &v, 1);
        break;
      }
      case 2: {
        int16_t v = static_cast<int16_t>(vals[i]);
        std::memcpy(out.data() + i * 2, &v, 2);
        break;
      }
      case 4: {
        int32_t v = static_cast<int32_t>(vals[i]);
        std::memcpy(out.data() + i * 4, &v, 4);
        break;
      }
      default: {
        std::memcpy(out.data() + i * 8, &vals[i], 8);
        break;
      }
    }
  }
  return out;
}

void ExpectRoundTrip(CodecId id, const std::vector<int64_t>& vals,
                     size_t width, const std::string& what) {
  const Codec* codec = Codec::ForId(id);
  ASSERT_NE(codec, nullptr);
  std::vector<char> in = ToBytes(vals, width);
  int64_t n = static_cast<int64_t>(vals.size());

  Buffer enc;
  size_t bytes = codec->Encode(in.data(), n, width, &enc);
  SCOPED_TRACE(what + " codec=" + codec->name() +
               " width=" + std::to_string(width) + " n=" + std::to_string(n) +
               " enc_bytes=" + std::to_string(bytes));
  EXPECT_EQ(bytes, enc.size_bytes());
  EXPECT_LE(bytes, codec->MaxEncodedBytes(n, width));
  EXPECT_EQ(codec->EncodedCount(enc.data(), bytes, width), n);

  std::vector<char> out(in.size() + 8, char(0xAB));
  EXPECT_EQ(codec->Decode(enc.data(), bytes, out.data(), width), n);
  EXPECT_EQ(std::memcmp(out.data(), in.data(), in.size()), 0);
}

void ExpectRoundTripAll(const std::vector<int64_t>& vals,
                        const std::string& what) {
  for (CodecId id : kAllIds) {
    for (size_t width : kWidths) {
      ExpectRoundTrip(id, vals, width, what);
    }
  }
}

TEST(CodecTest, RegistryContract) {
  for (CodecId id : kAllIds) {
    const Codec* c = Codec::ForId(id);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->id(), id);
    EXPECT_STREQ(c->name(), Codec::Name(id));
    EXPECT_EQ(Codec::All()[static_cast<int>(id)], c);
  }
  EXPECT_STREQ(Codec::Name(CodecId::kRaw), "raw");
  EXPECT_STREQ(Codec::Name(CodecId::kFor), "for");
  EXPECT_STREQ(Codec::Name(CodecId::kPdict), "pdict");
  EXPECT_STREQ(Codec::Name(CodecId::kRle), "rle");
  EXPECT_STREQ(Codec::Name(CodecId::kPforDelta), "pford");
  // Unknown ids are rejected, not misdecoded (corruption handling).
  EXPECT_EQ(Codec::ForId(static_cast<uint8_t>(kNumCodecs)), nullptr);
  EXPECT_EQ(Codec::ForId(uint8_t{0xFF}), nullptr);
}

TEST(CodecTest, EmptyBlock) { ExpectRoundTripAll({}, "empty"); }

TEST(CodecTest, SingleValue) {
  ExpectRoundTripAll({42}, "single");
  ExpectRoundTripAll({-1}, "single_negative");
  ExpectRoundTripAll({std::numeric_limits<int64_t>::min()}, "single_min");
  ExpectRoundTripAll({std::numeric_limits<int64_t>::max()}, "single_max");
}

TEST(CodecTest, AllEqual) {
  std::vector<int64_t> same(1000, 77);
  ExpectRoundTripAll(same, "all_equal");
  std::vector<int64_t> zeros(1000, 0);
  ExpectRoundTripAll(zeros, "all_zero");
}

TEST(CodecTest, ExtremeValues) {
  // Alternating min/max defeats delta arithmetic unless it is modular.
  std::vector<int64_t> vals;
  for (int i = 0; i < 200; i++) {
    vals.push_back(i % 2 == 0 ? std::numeric_limits<int64_t>::min()
                              : std::numeric_limits<int64_t>::max());
  }
  vals.push_back(std::numeric_limits<int64_t>::min() + 1);
  vals.push_back(std::numeric_limits<int64_t>::max() - 1);
  vals.push_back(0);
  ExpectRoundTripAll(vals, "extremes");
}

TEST(CodecTest, RandomizedPatternsEveryCodecAndWidth) {
  // Fixed seeds: failures reproduce. Patterns chosen so each codec sees
  // both its best case and its worst case at every width.
  std::mt19937_64 rng(0xC0DEC5EED);
  const int kRounds = 8;
  for (int round = 0; round < kRounds; round++) {
    int64_t n = 1 + static_cast<int64_t>(rng() % 5000);
    std::vector<int64_t> monotone(n), runs(n), lowcard(n), random(n),
        nearmono(n);
    int64_t acc = static_cast<int64_t>(rng() % 1000000);
    for (int64_t i = 0; i < n; i++) {
      acc += static_cast<int64_t>(rng() % 7);
      monotone[i] = acc;
      runs[i] = static_cast<int64_t>(i / 100);
      lowcard[i] = static_cast<int64_t>(rng() % 7) * 1000003;
      random[i] = static_cast<int64_t>(rng());
      nearmono[i] = i * 3 + static_cast<int64_t>(rng() % 2);
    }
    std::string tag = "round" + std::to_string(round);
    ExpectRoundTripAll(monotone, tag + "_monotone");
    ExpectRoundTripAll(runs, tag + "_runs");
    ExpectRoundTripAll(lowcard, tag + "_lowcard");
    ExpectRoundTripAll(random, tag + "_random");
    ExpectRoundTripAll(nearmono, tag + "_nearmono");
  }
}

TEST(CodecTest, PickCodecMatchesDataShape) {
  std::mt19937_64 rng(42);
  const int64_t n = 1 << 16;
  std::vector<int64_t> sorted(n), lowcard(n), random(n);
  for (int64_t i = 0; i < n; i++) {
    sorted[i] = 8035 + i / 512;  // long runs, tiny deltas
    lowcard[i] = static_cast<int64_t>(rng() % 5) * (int64_t{1} << 40);
    random[i] = static_cast<int64_t>(rng());
  }
  // Clustered/sorted data compresses via RLE or PFOR-delta; huge-range
  // low-cardinality data needs the dictionary; full-entropy data must fall
  // back to raw rather than inflate.
  CodecId s = PickCodec(sorted.data(), n, 8);
  EXPECT_TRUE(s == CodecId::kRle || s == CodecId::kPforDelta)
      << Codec::Name(s);
  EXPECT_EQ(PickCodec(lowcard.data(), n, 8), CodecId::kPdict);
  EXPECT_EQ(PickCodec(random.data(), n, 8), CodecId::kRaw);
}

TEST(CodecTest, EncodeBestCodecNeverBeatsRawByLosing) {
  // EncodeBestCodec must never store more than verbatim bytes (plus pick a
  // real codec when one wins), and must round-trip whatever it picked.
  std::mt19937_64 rng(7);
  std::vector<std::vector<int64_t>> inputs;
  inputs.push_back({});                       // empty -> header-only FOR
  inputs.push_back(std::vector<int64_t>(3000, 5));
  std::vector<int64_t> rnd(3000);
  for (auto& v : rnd) v = static_cast<int64_t>(rng());
  inputs.push_back(rnd);
  for (const auto& vals : inputs) {
    for (size_t width : kWidths) {
      std::vector<char> in = ToBytes(vals, width);
      Buffer enc;
      CodecId chosen;
      size_t bytes =
          EncodeBestCodec(in.data(), vals.size(), width, &enc, &chosen);
      if (!vals.empty()) {
        EXPECT_LE(bytes, in.size());
      }
      const Codec* codec = Codec::ForId(chosen);
      ASSERT_NE(codec, nullptr);
      std::vector<char> out(in.size() + 8);
      EXPECT_EQ(codec->Decode(enc.data(), bytes, out.data(), width),
                static_cast<int64_t>(vals.size()));
      EXPECT_EQ(std::memcmp(out.data(), in.data(), in.size()), 0);
    }
  }
  // All-equal beats raw decisively at width 8.
  std::vector<int64_t> same(3000, 123456789);
  Buffer enc;
  CodecId chosen;
  size_t bytes = EncodeBestCodec(same.data(), 3000, 8, &enc, &chosen);
  EXPECT_NE(chosen, CodecId::kRaw);
  EXPECT_LT(bytes, 3000u * 8 / 10);
}

TEST(CodecMetricsTest, StoreCompressedAccountsPerCodec) {
  // The freeze path reports which codec won each block in the global
  // metrics registry (bm.codec.<name>.blocks / .bytes).
  Counter* blocks = MetricsRegistry::Get().GetCounter("bm.codec.rle.blocks");
  Counter* bytes = MetricsRegistry::Get().GetCounter("bm.codec.rle.bytes");
  uint64_t blocks0 = blocks->Get(), bytes0 = bytes->Get();

  Column col(TypeId::kI64);
  for (int64_t i = 0; i < 200000; i++) col.AppendI64(i / 1000);
  ColumnBm bm;
  size_t stored = bm.StoreCompressed("m.rle", col, 1 << 16, CodecId::kRle);
  EXPECT_EQ(bm.NumBlocks("m.rle"), 4);
  EXPECT_EQ(blocks->Get() - blocks0, 4u);
  EXPECT_EQ(bytes->Get() - bytes0, stored);
  for (int64_t b = 0; b < 4; b++) {
    EXPECT_EQ(bm.BlockCodec("m.rle", b), CodecId::kRle);
  }
}

}  // namespace
}  // namespace x100
