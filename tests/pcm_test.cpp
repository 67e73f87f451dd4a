// Unit tests for tw/pcm: parameters, line buffers, array/endurance,
// energy and bank occupancy.

#include <gtest/gtest.h>

#include "tw/common/assert.hpp"
#include "tw/pcm/array.hpp"
#include "tw/pcm/bank.hpp"
#include "tw/pcm/energy.hpp"
#include "tw/pcm/line.hpp"
#include "tw/pcm/params.hpp"

namespace tw::pcm {
namespace {

// --------------------------------------------------------------- params --
TEST(Params, Table2Defaults) {
  const PcmConfig cfg = table2_config();
  EXPECT_EQ(cfg.timing.t_read, ns(50));
  EXPECT_EQ(cfg.timing.t_reset, ns(53));
  EXPECT_EQ(cfg.timing.t_set, ns(430));
  EXPECT_EQ(cfg.k(), 8u);   // 430/53 rounds to 8
  EXPECT_EQ(cfg.l(), 2u);   // Creset = 2 x Cset
  EXPECT_EQ(cfg.geometry.units_per_line(), 8u);
  EXPECT_EQ(cfg.geometry.bank_write_bits(), 64u);
  EXPECT_EQ(cfg.bank_power_budget(), 128u);  // 32/chip x 4 chips (GCP)
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Params, TimeRatioRounding) {
  TimingParams t;
  t.t_reset = ns(53);
  t.t_set = ns(430);
  EXPECT_EQ(t.time_ratio_k(), 8u);
  t.t_set = ns(106);
  EXPECT_EQ(t.time_ratio_k(), 2u);
  t.t_set = ns(53);
  EXPECT_EQ(t.time_ratio_k(), 1u);
}

TEST(Params, InvalidGeometryRejected) {
  PcmConfig cfg;
  cfg.geometry.banks = 3;  // not a power of two
  EXPECT_THROW(cfg.validate(), ContractViolation);
  cfg = PcmConfig{};
  cfg.geometry.data_unit_bits = 65;
  EXPECT_THROW(cfg.validate(), ContractViolation);
  cfg = PcmConfig{};
  cfg.timing.t_set = 0;
  EXPECT_THROW(cfg.validate(), ContractViolation);
}

TEST(Params, LargerLineGeometry) {
  PcmConfig cfg;
  cfg.geometry.cache_line_bytes = 256;  // zEnterprise-style lines
  EXPECT_EQ(cfg.geometry.units_per_line(), 32u);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Params, DescribeMentionsKey) {
  const std::string d = table2_config().describe();
  EXPECT_NE(d.find("GCP"), std::string::npos);
  EXPECT_NE(d.find("K=8"), std::string::npos);
}

// ----------------------------------------------------------------- line --
TEST(Line, LogicalReconstruction) {
  LineBuf line(8);
  line.set_cell(0, 0xABCD);
  line.set_flip(0, false);
  line.set_cell(1, ~u64{0xABCD});
  line.set_flip(1, true);
  EXPECT_EQ(line.logical(0), 0xABCDu);
  EXPECT_EQ(line.logical(1), 0xABCDu);
}

TEST(Line, StoreLogicalRoundTrip) {
  LineBuf line(4);
  line.store_logical(2, 0x1234, true);
  EXPECT_EQ(line.cell(2), ~u64{0x1234});
  EXPECT_TRUE(line.flip(2));
  EXPECT_EQ(line.logical(2), 0x1234u);
}

TEST(Line, BoundsChecked) {
  LineBuf line(4);
  EXPECT_THROW(line.cell(4), ContractViolation);
  EXPECT_THROW(LineBuf(0), ContractViolation);
  EXPECT_THROW(LineBuf(kMaxUnitsPerLine + 1), ContractViolation);
}

TEST(Line, FromPhysical) {
  LineBuf phys(2);
  phys.store_logical(0, 42, false);
  phys.store_logical(1, 43, true);
  const LogicalLine logical = LogicalLine::from_physical(phys);
  EXPECT_EQ(logical.word(0), 42u);
  EXPECT_EQ(logical.word(1), 43u);
}

TEST(Line, Equality) {
  LineBuf a(2), b(2);
  a.set_cell(0, 5);
  b.set_cell(0, 5);
  EXPECT_EQ(a, b);
  b.set_flip(1, true);
  EXPECT_FALSE(a == b);
}

// ---------------------------------------------------------------- array --
TEST(Array, ProgramAndRead) {
  PcmArray arr(128);
  EXPECT_FALSE(arr.read(5));
  EXPECT_EQ(arr.program(5, true), ProgramResult::kOk);
  EXPECT_TRUE(arr.read(5));
  EXPECT_EQ(arr.program(5, true), ProgramResult::kRedundant);
}

TEST(Array, ReadWordLsbFirst) {
  PcmArray arr(64);
  arr.program(0, true);
  arr.program(3, true);
  EXPECT_EQ(arr.read_word(0, 8), 0b1001u);
}

TEST(Array, DcwProgramsOnlyChangedBits) {
  PcmArray arr(64);
  arr.program_word_dcw(0, 0b1010, 8);
  const u64 before = arr.total_pulses();
  const BitTransitions t = arr.program_word_dcw(0, 0b1100, 8);
  EXPECT_EQ(t.sets, 1u);    // bit2 0->1
  EXPECT_EQ(t.resets, 1u);  // bit1 1->0
  EXPECT_EQ(arr.total_pulses() - before, 2u);
  EXPECT_EQ(arr.read_word(0, 8), 0b1100u);
}

TEST(Array, EnduranceWearsOut) {
  PcmArray arr(8, /*endurance=*/3);
  EXPECT_EQ(arr.program(0, true), ProgramResult::kOk);
  EXPECT_EQ(arr.program(0, false), ProgramResult::kOk);
  EXPECT_EQ(arr.program(0, true), ProgramResult::kOk);
  // Fourth pulse exceeds endurance: the cell is stuck at its last value.
  EXPECT_EQ(arr.program(0, false), ProgramResult::kWornOut);
  EXPECT_TRUE(arr.read(0));
  EXPECT_EQ(arr.worn_out_cells(), 1u);
}

TEST(Array, WearCounting) {
  PcmArray arr(16);
  arr.program(1, true);
  arr.program(1, false);
  arr.program(2, true);
  EXPECT_EQ(arr.wear(1), 2u);
  EXPECT_EQ(arr.wear(2), 1u);
  EXPECT_EQ(arr.wear(0), 0u);
  EXPECT_EQ(arr.max_wear(), 2u);
  EXPECT_EQ(arr.total_pulses(), 3u);
}

TEST(Array, BoundsChecked) {
  PcmArray arr(8);
  EXPECT_THROW(arr.read(8), ContractViolation);
  EXPECT_THROW(arr.program(8, true), ContractViolation);
  EXPECT_THROW(PcmArray(0), ContractViolation);
}

// --------------------------------------------------------------- energy --
TEST(Energy, AccumulatesPerBit) {
  EnergyParams p;
  p.set_pj = 10.0;
  p.reset_pj = 20.0;
  p.read_bit_pj = 1.0;
  EnergyModel e(p);
  e.add_write(BitTransitions{3, 2});
  e.add_read(64);
  EXPECT_DOUBLE_EQ(e.write_energy_pj(), 3 * 10.0 + 2 * 20.0);
  EXPECT_DOUBLE_EQ(e.read_energy_pj(), 64.0);
  EXPECT_DOUBLE_EQ(e.total_pj(), 134.0);
  EXPECT_EQ(e.set_bits(), 3u);
  EXPECT_EQ(e.reset_bits(), 2u);
}

TEST(Energy, Reset) {
  EnergyModel e;
  e.add_write(BitTransitions{1, 1});
  e.reset();
  EXPECT_DOUBLE_EQ(e.total_pj(), 0.0);
}

// ----------------------------------------------------------------- bank --
TEST(Bank, OccupancyTimeline) {
  PcmBank bank;
  EXPECT_TRUE(bank.idle_at(0));
  bank.occupy(100, 50);
  EXPECT_FALSE(bank.idle_at(120));
  EXPECT_TRUE(bank.idle_at(150));
  EXPECT_EQ(bank.free_at(), 150u);
  EXPECT_EQ(bank.busy_total(), 50u);
  EXPECT_EQ(bank.commands(), 1u);
}

TEST(Bank, CannotOccupyWhileBusy) {
  PcmBank bank;
  bank.occupy(0, 100);
  EXPECT_THROW(bank.occupy(50, 10), ContractViolation);
  EXPECT_NO_THROW(bank.occupy(100, 10));
}

}  // namespace
}  // namespace tw::pcm
