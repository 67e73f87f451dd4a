// Test wall for the content-aware encoder stage (tw/encode/): round-trip
// identity properties over exhaustive small-word grids and random
// campaigns, metadata-width bounds, determinism under retry re-entry, the
// FNW == FlipEncoder-over-DCW bit-identity lock, the encoder=none
// no-decorator guarantee, and a scheme x encoder differential matrix that
// cross-checks every pair against the bit-serial oracle over the coded
// payload while verifying the end-to-end logical round trip.

#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <string>
#include <vector>

#include "tw/common/bits.hpp"
#include "tw/common/rng.hpp"
#include "tw/core/factory.hpp"
#include "tw/encode/encoded_scheme.hpp"
#include "tw/encode/encoder.hpp"
#include "tw/encode/flip_rule.hpp"
#include "tw/mem/data_store.hpp"
#include "tw/pcm/params.hpp"
#include "tw/verify/differential.hpp"

namespace tw::encode {
namespace {

const std::vector<EncoderKind> kRealEncoders = {
    EncoderKind::kFlip, EncoderKind::kWire, EncoderKind::kCoset};

const std::vector<schemes::SchemeKind> kFiveSchemes = {
    schemes::SchemeKind::kDcw,        schemes::SchemeKind::kFlipNWrite,
    schemes::SchemeKind::kTwoStage,   schemes::SchemeKind::kThreeStage,
    schemes::SchemeKind::kTetris};

// ------------------------------------------------------------- flip rule --
TEST(EncodeFlipRule, MatchesFrozenFnwFormula) {
  // The shared rule must stay exactly the FNW cost comparison both
  // prep.cpp and FlipEncoder rely on: flip iff storing the complement
  // (plus its tag transition) pulses strictly fewer cells.
  for (u32 bits = 1; bits <= 64; bits *= 2) {
    for (u32 changed = 0; changed <= bits; ++changed) {
      for (const bool old_tag : {false, true}) {
        const u32 cost_plain = changed + (old_tag ? 1u : 0u);
        const u32 cost_flip = (bits - changed) + (old_tag ? 0u : 1u);
        EXPECT_EQ(flip_wins(changed, old_tag, bits),
                  cost_flip < cost_plain)
            << "bits=" << bits << " changed=" << changed
            << " old_tag=" << old_tag;
      }
    }
  }
}

// ------------------------------------------------------ kind bookkeeping --
TEST(EncodeKinds, NamesParseRoundTrip) {
  for (const EncoderKind k : all_encoder_kinds()) {
    const auto parsed = parse_encoder(encoder_name(k));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_FALSE(parse_encoder("hamming").has_value());
  EXPECT_FALSE(parse_encoder("").has_value());
}

TEST(EncodeKinds, NoneFirstAndMakerContract) {
  const auto kinds = all_encoder_kinds();
  ASSERT_EQ(kinds.size(), 4u);
  EXPECT_EQ(kinds[0], EncoderKind::kNone);
  const pcm::PcmConfig dev = pcm::table2_config();
  EXPECT_EQ(make_encoder(EncoderKind::kNone, dev), nullptr);
  for (const EncoderKind k : kRealEncoders) {
    const auto enc = make_encoder(k, dev);
    ASSERT_NE(enc, nullptr);
    EXPECT_EQ(enc->kind(), k);
    EXPECT_EQ(enc->name(), encoder_name(k));
    EXPECT_GE(enc->meta_bits(), 1u);
    EXPECT_LE(enc->meta_bits(), 8u);
  }
}

// ------------------------------------------------------------ round trip --
// One (payload, stored state) probe: the chosen tag must be in range,
// deterministic, invertible, and confined to the low `bits`.
void check_probe(const Encoder& enc, u64 logical, u64 old_cells, u8 old_meta,
                 u32 bits) {
  const u64 mask = low_mask(bits);
  const u8 m = enc.choose(logical, old_cells, old_meta, bits);
  EXPECT_LT(m, 1u << enc.meta_bits());
  EXPECT_EQ(m, enc.choose(logical, old_cells, old_meta, bits));  // pure
  const u64 coded = enc.apply(logical, m, old_cells, bits);
  EXPECT_EQ(coded, coded & mask);
  EXPECT_EQ(enc.recover(coded, m, bits), logical & mask)
      << enc.name() << " bits=" << bits << " logical=" << std::hex << logical
      << " old=" << old_cells << " meta=" << static_cast<int>(old_meta);
}

TEST(EncodeRoundTrip, ExhaustiveSmallWordGrids) {
  const pcm::PcmConfig dev = pcm::table2_config();
  for (const EncoderKind k : kRealEncoders) {
    const auto enc = make_encoder(k, dev);
    const u32 metas = 1u << enc->meta_bits();
    for (const u32 bits : {1u, 2u, 3u, 4u, 6u}) {
      const u64 words = u64{1} << bits;
      for (u64 logical = 0; logical < words; ++logical) {
        for (u64 old_cells = 0; old_cells < words; ++old_cells) {
          for (u32 om = 0; om < metas; ++om) {
            check_probe(*enc, logical, old_cells, static_cast<u8>(om),
                        bits);
          }
        }
      }
    }
  }
}

TEST(EncodeRoundTrip, RandomCampaign20kLinesPerEncoder) {
  const pcm::PcmConfig dev = pcm::table2_config();
  const u32 bits = dev.geometry.data_unit_bits;
  for (const EncoderKind k : kRealEncoders) {
    const auto enc = make_encoder(k, dev);
    Rng rng(0xE2C0DE ^ static_cast<u64>(k));
    for (int i = 0; i < 20'000; ++i) {
      u64 logical = rng.next();
      u64 old_cells = rng.next();
      // Bias toward the degenerate contents encoders special-case.
      if (rng.chance(0.15)) logical = rng.chance(0.5) ? 0 : ~u64{0};
      if (rng.chance(0.15)) old_cells = rng.chance(0.5) ? 0 : ~u64{0};
      // Compressible half the time: constant high half.
      if (rng.chance(0.5)) {
        const u64 lo = logical & low_mask(bits / 2);
        logical = rng.chance(0.5) ? lo : (lo | ~low_mask(bits / 2));
      }
      const u8 old_meta =
          static_cast<u8>(rng.next() & low_mask(enc->meta_bits()));
      check_probe(*enc, logical, old_cells, old_meta, bits);
    }
  }
}

TEST(EncodeRoundTrip, WireAllTagsInvertEverywhere) {
  // XOR codebooks must invert under *every* tag, not just the chosen one
  // (the fault path may read back any stored tag).
  const pcm::PcmConfig dev = pcm::table2_config();
  const auto enc = make_encoder(EncoderKind::kWire, dev);
  Rng rng(0x317E);
  for (int i = 0; i < 2'000; ++i) {
    const u64 logical = rng.next();
    for (u8 m = 0; m < 4; ++m) {
      const u64 coded = enc->apply(logical, m, rng.next(), 64);
      EXPECT_EQ(enc->recover(coded, m, 64), logical);
    }
  }
}

TEST(EncodeRoundTrip, CostNeverWorseThanIdentity) {
  // wire and coset both include the identity code in their candidate set,
  // so the chosen code's weighted pulse cost (data + tag cells) can never
  // exceed just storing the plain word.
  const pcm::PcmConfig dev = pcm::table2_config();
  const u32 l = dev.l();
  const u32 bits = dev.geometry.data_unit_bits;
  auto weighted = [&](u64 old_v, u64 next) {
    const BitTransitions t = transitions(old_v, next);
    return t.sets + t.resets * l;
  };
  for (const EncoderKind k : {EncoderKind::kWire, EncoderKind::kCoset}) {
    const auto enc = make_encoder(k, dev);
    Rng rng(0xC057 ^ static_cast<u64>(k));
    for (int i = 0; i < 5'000; ++i) {
      u64 logical = rng.next();
      if (rng.chance(0.5)) logical &= low_mask(bits / 2);  // compressible
      const u64 old_cells = rng.next();
      const u8 old_meta =
          static_cast<u8>(rng.next() & low_mask(enc->meta_bits()));
      const u8 m = enc->choose(logical, old_cells, old_meta, bits);
      const u64 coded = enc->apply(logical, m, old_cells, bits);
      const u32 chosen = weighted(old_cells, coded) + weighted(old_meta, m);
      const u32 identity =
          weighted(old_cells, logical) + weighted(old_meta, 0);
      EXPECT_LE(chosen, identity) << enc->name();
    }
  }
}

TEST(EncodeRoundTrip, StoredValueRestoreKeepsTag) {
  // Silent-write stability: re-choosing for the value already stored under
  // the stored tag must return the stored tag (zero-cost candidate), so a
  // rewrite of unchanged data stays pulse-free through the decorator.
  const pcm::PcmConfig dev = pcm::table2_config();
  const u32 bits = dev.geometry.data_unit_bits;
  for (const EncoderKind k : kRealEncoders) {
    const auto enc = make_encoder(k, dev);
    Rng rng(0x51E7 ^ static_cast<u64>(k));
    for (int i = 0; i < 5'000; ++i) {
      u64 logical = rng.next();
      if (rng.chance(0.5)) logical &= low_mask(bits / 2);
      const u64 old_cells = rng.next();
      const u8 old_meta =
          static_cast<u8>(rng.next() & low_mask(enc->meta_bits()));
      const u8 m = enc->choose(logical, old_cells, old_meta, bits);
      const u64 coded = enc->apply(logical, m, old_cells, bits);
      // Now the line holds (coded, m); storing `logical` again must keep m
      // and re-produce the identical cells.
      const u8 m2 = enc->choose(logical, coded, m, bits);
      EXPECT_EQ(m2, m) << enc->name();
      EXPECT_EQ(enc->apply(logical, m2, coded, bits), coded) << enc->name();
    }
  }
}

// ------------------------------------------------- decorator composition --
TEST(EncodeScheme, NoneWrapsToBareScheme) {
  const pcm::PcmConfig dev = pcm::table2_config();
  auto inner = core::make_scheme(schemes::SchemeKind::kTetris, dev);
  const schemes::WriteScheme* raw = inner.get();
  const auto wrapped = wrap_scheme(std::move(inner), EncoderKind::kNone);
  // kNone is the no-decorator path: the very same object comes back.
  EXPECT_EQ(wrapped.get(), raw);
  EXPECT_FALSE(wrapped->transforms_content());
  EXPECT_EQ(wrapped->name(), "tetris");
}

TEST(EncodeScheme, DecoratorNameKindAndStats) {
  const pcm::PcmConfig dev = pcm::table2_config();
  const auto wrapped = wrap_scheme(
      core::make_scheme(schemes::SchemeKind::kDcw, dev), EncoderKind::kWire);
  EXPECT_EQ(wrapped->name(), "dcw+wire");
  EXPECT_EQ(wrapped->kind(), schemes::SchemeKind::kDcw);
  EXPECT_TRUE(wrapped->transforms_content());

  const u32 units = dev.geometry.units_per_line();
  pcm::LineBuf line(units);
  pcm::LogicalLine next(units);
  Rng rng(0xA11CE);
  for (u32 u = 0; u < units; ++u) next.set_word(u, rng.next());
  const schemes::ServicePlan plan = wrapped->plan_write(line, next);
  EXPECT_TRUE(plan.enc.active);
  EXPECT_EQ(wrapped->decode_stored(line), next);

  // Bare schemes carry no encoder state.
  const auto bare = core::make_scheme(schemes::SchemeKind::kDcw, dev);
  pcm::LineBuf line2(units);
  const schemes::ServicePlan bare_plan = bare->plan_write(line2, next);
  EXPECT_FALSE(bare_plan.enc.active);
  EXPECT_EQ(bare_plan.enc.coded_units, 0u);
  EXPECT_EQ(bare_plan.enc.tag_bits, 0u);
}

TEST(EncodeScheme, FnwEqualsFlipEncoderOverDcw) {
  // The satellite lock: FNW refactored as FlipEncoder-over-DCW must store
  // the same physical data cells and perform the same number of
  // transitions (data + one tag cell) as the native FNW scheme, write for
  // write. The flip bit just moves from the flip tag to meta bit 0.
  const pcm::PcmConfig dev = pcm::table2_config();
  const u32 units = dev.geometry.units_per_line();
  const auto fnw = core::make_scheme(schemes::SchemeKind::kFlipNWrite, dev);
  const auto composed = wrap_scheme(
      core::make_scheme(schemes::SchemeKind::kDcw, dev), EncoderKind::kFlip);

  pcm::LineBuf a(units), b(units);
  Rng rng(0xF19F);
  for (int trial = 0; trial < 3'000; ++trial) {
    pcm::LogicalLine next(units);
    for (u32 u = 0; u < units; ++u) {
      u64 w = rng.next();
      if (rng.chance(0.2)) w = rng.chance(0.5) ? 0 : ~u64{0};
      // Mix sparse deltas so the flip rule trips both ways.
      if (rng.chance(0.3)) w = a.logical(u) ^ (rng.next() & rng.next());
      next.set_word(u, w);
    }
    const schemes::ServicePlan pa = fnw->plan_write(a, next);
    const schemes::ServicePlan pb = composed->plan_write(b, next);
    for (u32 u = 0; u < units; ++u) {
      ASSERT_EQ(a.cell(u), b.cell(u)) << "trial " << trial << " unit " << u;
      // Same inversion decision, different tag home.
      ASSERT_EQ(a.flip(u), (b.meta(u) & 1u) != 0);
      ASSERT_FALSE(b.flip(u));  // inner DCW never flips
    }
    ASSERT_EQ(pa.programmed.sets, pb.programmed.sets) << "trial " << trial;
    ASSERT_EQ(pa.programmed.resets, pb.programmed.resets);
    ASSERT_EQ(pa.silent, pb.silent);
    // And both read back the requested data.
    ASSERT_EQ(fnw->decode_stored(a), next);
    ASSERT_EQ(composed->decode_stored(b), next);
  }
}

TEST(EncodeScheme, RetryReentryDeterministicAndForwarded) {
  const pcm::PcmConfig dev = pcm::table2_config();
  const auto inner = core::make_scheme(schemes::SchemeKind::kTetris, dev);
  const auto wrapped = wrap_scheme(
      core::make_scheme(schemes::SchemeKind::kTetris, dev),
      EncoderKind::kCoset);
  Rng rng(0x4E74);
  for (int trial = 0; trial < 500; ++trial) {
    BitTransitions failed;
    failed.sets = static_cast<u32>(rng.next() % 257);
    failed.resets = static_cast<u32>(rng.next() % 257);
    if (failed.total() == 0) failed.sets = 1;
    const u32 attempt = 1 + static_cast<u32>(rng.next() % 4);
    const Tick t = wrapped->plan_retry(failed, attempt, 2.0);
    EXPECT_EQ(t, wrapped->plan_retry(failed, attempt, 2.0));  // pure
    EXPECT_EQ(t, inner->plan_retry(failed, attempt, 2.0));    // forwarded
  }
}

TEST(EncodeScheme, ReplanIsDeterministic) {
  // A fault-ladder retry re-plans the same logical data against the same
  // line state; the decorator must re-encode to the identical coded image
  // and identical plan. Emulated by planning over two equal lines.
  const pcm::PcmConfig dev = pcm::table2_config();
  const u32 units = dev.geometry.units_per_line();
  for (const EncoderKind k : kRealEncoders) {
    const auto wrapped = wrap_scheme(
        core::make_scheme(schemes::SchemeKind::kTetris, dev), k);
    pcm::LineBuf a(units);
    Rng rng(0xD371 ^ static_cast<u64>(k));
    for (int trial = 0; trial < 300; ++trial) {
      pcm::LogicalLine next(units);
      for (u32 u = 0; u < units; ++u) next.set_word(u, rng.next());
      pcm::LineBuf b = a;  // snapshot before the "first attempt"
      const schemes::ServicePlan pa = wrapped->plan_write(a, next);
      const schemes::ServicePlan pb = wrapped->plan_write(b, next);
      ASSERT_TRUE(a == b);
      ASSERT_EQ(pa.latency, pb.latency);
      ASSERT_EQ(pa.programmed, pb.programmed);
      ASSERT_EQ(pa.enc.coded_units, pb.enc.coded_units);
      ASSERT_EQ(pa.enc.tag_bits, pb.enc.tag_bits);
    }
  }
}

TEST(EncodeScheme, BatchMatchesPerLinePlans) {
  // The batched write path must produce the same post-images and encoder
  // stats as line-at-a-time planning (serializing inner scheme).
  const pcm::PcmConfig dev = pcm::table2_config();
  const u32 units = dev.geometry.units_per_line();
  for (const EncoderKind k : kRealEncoders) {
    const auto wrapped = wrap_scheme(
        core::make_scheme(schemes::SchemeKind::kDcw, dev), k);
    Rng rng(0xBA7C ^ static_cast<u64>(k));
    constexpr std::size_t kLines = 5;
    std::vector<pcm::LineBuf> batch_lines, solo_lines;
    std::vector<pcm::LogicalLine> datas;
    for (std::size_t i = 0; i < kLines; ++i) {
      batch_lines.emplace_back(units);
      pcm::LogicalLine next(units);
      for (u32 u = 0; u < units; ++u) next.set_word(u, rng.next());
      datas.push_back(next);
    }
    solo_lines = batch_lines;
    std::vector<pcm::LineBuf*> ptrs;
    for (auto& l : batch_lines) ptrs.push_back(&l);
    const schemes::BatchServicePlan bp = wrapped->plan_write_batch(
        {ptrs.data(), ptrs.size()}, {datas.data(), datas.size()});
    ASSERT_EQ(bp.per_line.size(), kLines);
    for (std::size_t i = 0; i < kLines; ++i) {
      const schemes::ServicePlan sp =
          wrapped->plan_write(solo_lines[i], datas[i]);
      EXPECT_TRUE(batch_lines[i] == solo_lines[i]) << "line " << i;
      EXPECT_EQ(bp.per_line[i].programmed, sp.programmed);
      EXPECT_EQ(bp.per_line[i].enc.coded_units, sp.enc.coded_units);
      EXPECT_EQ(bp.per_line[i].enc.tag_bits, sp.enc.tag_bits);
      EXPECT_TRUE(bp.per_line[i].enc.active);
      EXPECT_EQ(wrapped->decode_stored(batch_lines[i]), datas[i]);
    }
  }
}

TEST(EncodeScheme, DataStoreDecoderHookRoundTrips) {
  // The controller installs decode_stored into the DataStore; a read
  // after an encoded write must return the logical data, not the coded
  // cells.
  const pcm::PcmConfig dev = pcm::table2_config();
  const u32 units = dev.geometry.units_per_line();
  const auto wrapped = wrap_scheme(
      core::make_scheme(schemes::SchemeKind::kTetris, dev),
      EncoderKind::kCoset);
  mem::DataStore store(units, 99, 0.5);
  store.set_decoder(
      wrapped.get(), [](const void* ctx, const pcm::LineBuf& l) {
        return static_cast<const schemes::WriteScheme*>(ctx)->decode_stored(
            l);
      });
  Rng rng(0x5702E);
  for (int i = 0; i < 200; ++i) {
    const Addr addr = (rng.next() % 64) * 64;
    pcm::LogicalLine next(units);
    for (u32 u = 0; u < units; ++u) {
      // Compressible content so the coset code actually engages.
      const u64 lo = rng.next() & low_mask(dev.geometry.data_unit_bits / 2);
      next.set_word(u, rng.chance(0.5)
                           ? lo
                           : lo | ~low_mask(dev.geometry.data_unit_bits / 2));
    }
    wrapped->plan_write(store.line(addr), next);
    EXPECT_EQ(store.read_logical(addr), next);
  }
}

// -------------------------------------------------- differential matrix --
// Every scheme x encoder pair: the inner scheme is cross-checked by the
// bit-serial oracle over the *coded* payload (the stream the scheme
// actually sees), while the decorated scheme must evolve the same data
// cells and decode back to the logical data end to end. Data classes:
// all-zero, all-one, random, compressible, and adversarial half-flips.
class EncodeDifferential
    : public ::testing::TestWithParam<
          std::tuple<schemes::SchemeKind, EncoderKind>> {};

TEST_P(EncodeDifferential, OracleAgreesOnCodedStream) {
  const auto [skind, ekind] = GetParam();
  const pcm::PcmConfig dev = pcm::table2_config();
  const u32 units = dev.geometry.units_per_line();
  const u32 bits = dev.geometry.data_unit_bits;

  const auto wrapped = wrap_scheme(core::make_scheme(skind, dev), ekind);
  const auto inner = core::make_scheme(skind, dev);
  const auto enc = make_encoder(ekind, dev);
  verify::DifferentialChecker checker(*inner);

  pcm::LineBuf line(units);   // driven by the decorated scheme
  pcm::LineBuf shadow(units); // driven through the checker, coded stream
  std::array<u8, pcm::kMaxUnitsPerLine> metas{};

  Rng rng(0xD1FF ^ (static_cast<u64>(skind) << 8) ^
          static_cast<u64>(ekind));
  for (int trial = 0; trial < 250; ++trial) {
    pcm::LogicalLine next(units);
    const u32 cls = trial < 4 ? trial : static_cast<u32>(rng.next() % 4);
    for (u32 u = 0; u < units; ++u) {
      u64 w = 0;
      switch (cls) {
        case 0:  // all-zero
          break;
        case 1:  // all-one
          w = low_mask(bits);
          break;
        case 2:  // random
          w = rng.next() & low_mask(bits);
          break;
        default: {  // compressible narrow value
          const u64 lo = rng.next() & low_mask(bits / 2);
          w = rng.chance(0.5) ? lo : (lo | (low_mask(bits) ^ low_mask(bits / 2)));
          break;
        }
      }
      next.set_word(u, w);
    }
    // Adversarial half-flips every 10th trial: distance bits/2 from the
    // currently decoded content.
    if (trial % 10 == 9) {
      const pcm::LogicalLine cur = wrapped->decode_stored(line);
      for (u32 u = 0; u < units; ++u) {
        u64 flipmask = 0;
        while (popcount(flipmask) < bits / 2) {
          flipmask |= u64{1} << (rng.next() % bits);
        }
        next.set_word(u, (cur.word(u) ^ flipmask) & low_mask(bits));
      }
    }

    // End-to-end through the decorator.
    const schemes::ServicePlan plan = wrapped->plan_write(line, next);
    ASSERT_TRUE(plan.enc.active);
    ASSERT_EQ(wrapped->decode_stored(line), next) << "trial " << trial;

    // The coded stream, re-derived independently, through the oracle.
    pcm::LogicalLine coded(units);
    for (u32 u = 0; u < units; ++u) {
      const u8 m = enc->choose(next.word(u), shadow.logical(u), metas[u],
                               bits);
      coded.set_word(u, enc->apply(next.word(u), m, shadow.logical(u),
                                   bits));
      metas[u] = m;
    }
    ASSERT_NO_THROW(checker.check_write(shadow, coded)) << "trial " << trial;

    // Decorated line and oracle-checked shadow hold the same data cells.
    for (u32 u = 0; u < units; ++u) {
      ASSERT_EQ(line.cell(u), shadow.cell(u))
          << "trial " << trial << " unit " << u;
      ASSERT_EQ(line.flip(u), shadow.flip(u));
      ASSERT_EQ(line.meta(u), metas[u]);
    }
  }
  EXPECT_EQ(checker.report().writes, 250u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, EncodeDifferential,
    ::testing::Combine(::testing::ValuesIn(kFiveSchemes),
                       ::testing::ValuesIn(kRealEncoders)),
    [](const auto& param_info) {
      // gtest parameter names must be purely alphanumeric.
      std::string out = "S";
      for (const char c : schemes::scheme_name(std::get<0>(param_info.param))) {
        if (std::isalnum(static_cast<unsigned char>(c))) out.push_back(c);
      }
      out.push_back('X');
      out.append(encoder_name(std::get<1>(param_info.param)));
      return out;
    });

}  // namespace
}  // namespace tw::encode
