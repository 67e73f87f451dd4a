// Multi-channel topology: address decode per interleave mode, geometry
// validation with actionable messages, config-file surfacing, stats
// merging, and a small end-to-end MemorySystem run over the sharded
// engine.

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "tw/core/factory.hpp"
#include "tw/harness/config_file.hpp"
#include "tw/mem/address_map.hpp"
#include "tw/mem/memory_system.hpp"
#include "tw/pcm/params.hpp"
#include "tw/stats/registry.hpp"

namespace tw {
namespace {

pcm::GeometryParams geometry(u32 channels,
                             pcm::ChannelInterleave il =
                                 pcm::ChannelInterleave::kLine) {
  pcm::GeometryParams g;  // Table II defaults: 8 banks, 1 rank, 64 B lines
  g.channels = channels;
  g.channel_interleave = il;
  return g;
}

// ------------------------------------------------------- address decode --

TEST(ChannelDecode, SingleChannelMatchesLegacyLayout) {
  // channels = 1 must leave the pre-multi-channel line-interleaved bank
  // map untouched: bank = line % banks, row above.
  const mem::AddressMap map(geometry(1));
  for (u64 li = 0; li < 64; ++li) {
    const mem::Location loc = map.decode(li * 64);
    EXPECT_EQ(loc.channel, 0u);
    EXPECT_EQ(loc.bank, li % 8);
    EXPECT_EQ(loc.row, li / 8);
  }
}

TEST(ChannelDecode, LineInterleaveRotatesChannelsAndStaysDense) {
  const mem::AddressMap map(geometry(4, pcm::ChannelInterleave::kLine));
  const mem::AddressMap local(geometry(1));
  for (u64 li = 0; li < 256; ++li) {
    const Addr a = li * 64;
    EXPECT_EQ(map.channel_of(a), li % 4);
    const mem::Location loc = map.decode(a);
    EXPECT_EQ(loc.channel, li % 4);
    // Stripping the channel bits must give the dense channel-local
    // geometry: the same location a single-channel map assigns to the
    // local line index.
    const mem::Location want = local.decode((li / 4) * 64);
    EXPECT_EQ(loc.bank, want.bank);
    EXPECT_EQ(loc.rank, want.rank);
    EXPECT_EQ(loc.row, want.row);
    EXPECT_EQ(loc.subarray, want.subarray);
  }
}

TEST(ChannelDecode, LineInterleaveCoversAllBanksPerChannel) {
  // The bug this guards: forgetting to strip channel bits would leave
  // each channel's controller seeing only banks ≡ channel (mod 4) —
  // bank starvation. Every channel must reach every bank.
  const mem::AddressMap map(geometry(4, pcm::ChannelInterleave::kLine));
  std::set<std::pair<u32, u32>> seen;  // (channel, bank)
  for (u64 li = 0; li < 4 * 8 * 4; ++li) {
    const mem::Location loc = map.decode(li * 64);
    seen.insert({loc.channel, loc.bank});
  }
  EXPECT_EQ(seen.size(), 4u * 8u);
}

TEST(ChannelDecode, BankInterleaveKeepsBankStrideLocal) {
  // kBank puts the channel bits just above the bank bits: consecutive
  // lines walk the banks of ONE channel before moving to the next.
  const mem::AddressMap map(geometry(4, pcm::ChannelInterleave::kBank));
  for (u64 li = 0; li < 256; ++li) {
    EXPECT_EQ(map.channel_of(li * 64), (li / 8) % 4) << li;
    const mem::Location loc = map.decode(li * 64);
    EXPECT_EQ(loc.bank, li % 8) << li;
    EXPECT_EQ(loc.row, li / (8 * 4)) << li;  // dense rows after stripping
  }
}

TEST(ChannelDecode, RowInterleavePartitionsCapacityContiguously) {
  pcm::GeometryParams g = geometry(4, pcm::ChannelInterleave::kRow);
  const mem::AddressMap map(g);
  const u64 lpc = g.lines_per_channel();
  ASSERT_GT(lpc, 0u);
  EXPECT_EQ(map.channel_of(0), 0u);
  EXPECT_EQ(map.channel_of((lpc - 1) * 64), 0u);
  EXPECT_EQ(map.channel_of(lpc * 64), 1u);
  EXPECT_EQ(map.channel_of((3 * lpc) * 64), 3u);
  // Local indices restart per partition.
  const mem::Location first_of_ch1 = map.decode(lpc * 64);
  EXPECT_EQ(first_of_ch1.bank, 0u);
  EXPECT_EQ(first_of_ch1.row, 0u);
}

// -------------------------------------------------- geometry validation --

TEST(ChannelGeometry, NonPowerOfTwoChannelsGetsActionableError) {
  pcm::GeometryParams g = geometry(3);
  const std::string err = g.error();
  EXPECT_FALSE(g.valid());
  EXPECT_NE(err.find("channels"), std::string::npos) << err;
  EXPECT_NE(err.find("power of two"), std::string::npos) << err;
}

TEST(ChannelGeometry, AddressMapRefusesInvalidGeometry) {
  try {
    mem::AddressMap map(geometry(3));
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("channels"), std::string::npos)
        << e.what();
  }
}

TEST(ChannelGeometry, CapacityMustCoverOneLinePerChannel) {
  pcm::GeometryParams g = geometry(8);
  g.capacity_bytes = 4 * 64;  // 4 lines for 8 channels
  EXPECT_FALSE(g.valid());
  EXPECT_NE(g.error().find("capacity"), std::string::npos) << g.error();
}

// ------------------------------------------------------ config surfaces --

TEST(ChannelConfig, FileKeysParse) {
  std::istringstream in(
      "pcm.channels = 4\n"
      "pcm.channel_interleave = bank\n"
      "xbar.latency_ns = 35\n");
  const harness::SystemConfig cfg = harness::parse_system_config(in);
  EXPECT_EQ(cfg.pcm.geometry.channels, 4u);
  EXPECT_EQ(cfg.pcm.geometry.channel_interleave,
            pcm::ChannelInterleave::kBank);
  EXPECT_EQ(cfg.xbar_latency, ns(35));
}

TEST(ChannelConfig, BadChannelCountSurfacesActionableError) {
  std::istringstream in("pcm.channels = 3\n");
  try {
    harness::parse_system_config(in);
    FAIL() << "should have thrown";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 1"), std::string::npos) << what;
    EXPECT_NE(what.find("pcm.channels"), std::string::npos) << what;
    EXPECT_NE(what.find("power of two"), std::string::npos) << what;
  }
}

TEST(ChannelConfig, BadInterleaveAndZeroLatencyRejected) {
  {
    std::istringstream in("pcm.channel_interleave = diagonal\n");
    EXPECT_THROW(harness::parse_system_config(in), std::runtime_error);
  }
  {
    std::istringstream in("xbar.latency_ns = 0\n");
    EXPECT_THROW(harness::parse_system_config(in), std::runtime_error);
  }
  // The subarray count is a power of two for the same reason as channels.
  std::istringstream in("pcm.subarrays = 4\npcm.subarrays = 3\n");
  try {
    harness::parse_system_config(in);
    FAIL() << "should have thrown";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("pcm.subarrays"), std::string::npos) << what;
    EXPECT_NE(what.find("power of two"), std::string::npos) << what;
  }
}

TEST(ChannelConfig, RoundTripsThroughWriter) {
  harness::SystemConfig cfg;
  cfg.pcm.geometry.channels = 8;
  cfg.pcm.geometry.channel_interleave = pcm::ChannelInterleave::kRow;
  cfg.xbar_latency = ns(25);
  std::ostringstream out;
  harness::write_system_config(cfg, out);
  std::istringstream in(out.str());
  const harness::SystemConfig back = harness::parse_system_config(in);
  EXPECT_EQ(back.pcm.geometry.channels, 8u);
  EXPECT_EQ(back.pcm.geometry.channel_interleave,
            pcm::ChannelInterleave::kRow);
  EXPECT_EQ(back.xbar_latency, ns(25));
}

// --------------------------------------------------------- stats merges --

TEST(ChannelStats, RegistryMergeFoldsCountersAndHistograms) {
  stats::Registry main, ch;
  main.counter("mem.writes").inc(10);
  ch.counter("mem.writes").inc(5);
  ch.counter("mem.reads").inc(3);
  ch.accumulator("lat").add(2.0);
  ch.accumulator("lat").add(4.0);
  ch.histogram("svc").add(100);
  ch.histogram("svc").add(200);
  main.merge_from(ch);
  EXPECT_EQ(main.counter("mem.writes").value(), 15u);
  EXPECT_EQ(main.counter("mem.reads").value(), 3u);
  EXPECT_EQ(main.accumulator("lat").count(), 2u);
  EXPECT_DOUBLE_EQ(main.accumulator("lat").mean(), 3.0);
  EXPECT_EQ(main.histogram("svc").total_count(), 2u);
  EXPECT_EQ(main.histogram("svc").min(), 100u);
  EXPECT_EQ(main.histogram("svc").max(), 200u);
}

// ------------------------------------------------------------ end-to-end --

TEST(MemorySystemSharded, RoutesCompletesAndKeepsEveryChannelBusy) {
  pcm::PcmConfig pc = pcm::table2_config();
  pc.geometry.channels = 4;
  sim::Simulator front;
  stats::Registry reg;
  mem::ControllerConfig cc;
  // Strict drain waits for a FULL write queue; this workload never fills
  // one, so service writes whenever no reads are pending instead.
  cc.drain = mem::ControllerConfig::DrainPolicy::kOpportunistic;
  fault::FaultConfig fault;  // disabled
  const mem::SchemeFactory factory = [&](u32) {
    return core::make_scheme(schemes::SchemeKind::kDcw, pc);
  };
  mem::MemorySystem msys(front, pc, cc, factory, reg, fault, /*seed=*/42,
                         /*ones_bias=*/0.35, /*xbar_latency=*/ns(20), 0);
  ASSERT_EQ(msys.channels(), 4u);

  u64 reads_done = 0, writes_done = 0;
  msys.set_read_callback([&](const mem::MemoryRequest&) { ++reads_done; });
  msys.set_write_callback([&](const mem::MemoryRequest&) { ++writes_done; });

  const u32 units = pc.geometry.units_per_line();
  for (u64 i = 0; i < 64; ++i) {
    mem::MemoryRequest r;
    r.addr = i * pc.geometry.cache_line_bytes;
    // kLine interleave routes line i to channel i % 4; alternate the type
    // every 4 lines so each channel gets 8 writes and 8 reads.
    if ((i / 4) % 2 == 0) {
      r.type = mem::ReqType::kWrite;
      r.data = pcm::LogicalLine(units);
      for (u32 u = 0; u < units; ++u) r.data.set_word(u, i * 1000 + u);
    } else {
      r.type = mem::ReqType::kRead;
    }
    ASSERT_TRUE(msys.enqueue(r)) << i;  // 16 per channel, fits the queues
  }

  msys.run(ms(100));
  EXPECT_EQ(writes_done, 32u);
  EXPECT_EQ(reads_done, 32u);
  EXPECT_TRUE(msys.idle());
  EXPECT_GT(msys.executed_events(), 0u);

  // kLine interleave over consecutive lines: every channel saw exactly a
  // quarter of the traffic, in its own registry until merged.
  for (u32 c = 0; c < 4; ++c) {
    ASSERT_NE(msys.channel_registry(c), nullptr);
    EXPECT_EQ(msys.channel_registry(c)->counter("mem.writes").value(), 8u);
    EXPECT_EQ(msys.channel_registry(c)->counter("mem.reads").value(), 8u);
  }
  EXPECT_EQ(reg.counter("mem.writes").value(), 0u);
  msys.merge_stats();
  EXPECT_EQ(reg.counter("mem.writes").value(), 32u);
  EXPECT_EQ(reg.counter("mem.reads").value(), 32u);
}

TEST(MemorySystemSharded, BackpressureSignalsSpaceCallback) {
  pcm::PcmConfig pc = pcm::table2_config();
  pc.geometry.channels = 2;
  sim::Simulator front;
  stats::Registry reg;
  mem::ControllerConfig cc;
  cc.read_queue_entries = 2;
  cc.write_queue_entries = 2;
  cc.drain_low_watermark = 1;  // must stay below the write queue size
  fault::FaultConfig fault;
  const mem::SchemeFactory factory = [&](u32) {
    return core::make_scheme(schemes::SchemeKind::kDcw, pc);
  };
  mem::MemorySystem msys(front, pc, cc, factory, reg, fault, 42, 0.35,
                         ns(20), 0);

  u64 done = 0;
  msys.set_read_callback([&](const mem::MemoryRequest&) { ++done; });
  bool space_seen = false;
  msys.set_space_callback([&] { space_seen = true; });

  // Flood channel 0 (even lines) with reads: credits run out at 2.
  u64 accepted = 0, refused = 0;
  for (u64 i = 0; i < 6; ++i) {
    mem::MemoryRequest r;
    r.addr = (2 * i) * pc.geometry.cache_line_bytes;
    r.type = mem::ReqType::kRead;
    if (msys.enqueue(r)) {
      ++accepted;
    } else {
      ++refused;
    }
  }
  EXPECT_EQ(accepted, 2u);
  EXPECT_EQ(refused, 4u);

  msys.run(ms(100));
  EXPECT_EQ(done, 2u);
  EXPECT_TRUE(space_seen);  // credit releases must wake the front
  EXPECT_TRUE(msys.idle());
}

}  // namespace
}  // namespace tw
