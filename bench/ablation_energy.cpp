// Ablation 6: Table I's energy column, quantitatively. Runs the same
// write stream through every scheme and reports programming energy and
// programmed bits per cache-line write. 2-Stage-Write writes every cell
// (no energy reduction); the comparison-based schemes pulse ~15% of the
// cells (Observation 1).

#include <iostream>

#include "bench_util.hpp"
#include "tw/core/factory.hpp"
#include "tw/encode/encoded_scheme.hpp"
#include "tw/pcm/energy.hpp"
#include "tw/stats/accumulator.hpp"
#include "tw/workload/generator.hpp"

using namespace tw;

int main(int argc, char** argv) {
  const bench::Options o = bench::Options::parse(argc, argv);
  const u64 writes = o.quick ? 500 : 3'000;
  const pcm::PcmConfig cfg = pcm::table2_config();

  std::cout << "Ablation: programming energy per cache-line write "
               "(Table I, quantitative)\n"
            << "==========================================================="
               "=============\n"
            << "(encoder pre-stage: " << encode::encoder_name(o.config.encode.kind)
            << ")\n\n";

  AsciiTable t;
  t.set_header({"scheme", "bits/write", "energy/write (nJ)", "vs dcw",
                "Table I says"});
  const char* expectation[] = {"-",   "baseline", "YES reduce",
                               "NO",  "YES reduce", "YES reduce"};
  const std::vector<schemes::SchemeKind> kinds = {
      schemes::SchemeKind::kConventional, schemes::SchemeKind::kDcw,
      schemes::SchemeKind::kFlipNWrite,   schemes::SchemeKind::kTwoStage,
      schemes::SchemeKind::kThreeStage,   schemes::SchemeKind::kTetris};

  double dcw_energy = 0;
  std::size_t idx = 0;
  for (const auto kind : kinds) {
    // Aggregate across all 8 workloads with a shared stream per scheme.
    pcm::EnergyModel energy(cfg.energy);
    u64 total_writes = 0;
    stats::Accumulator bits;
    for (const auto& p : workload::parsec_profiles()) {
      mem::DataStore store(cfg.geometry.units_per_line(), o.seed,
                           p.initial_ones_fraction);
      workload::TraceGenerator gen(p, cfg.geometry, 1, o.seed + 1);
      const auto scheme =
          encode::wrap_scheme(core::make_scheme(kind, cfg),
                              o.config.encode.kind);
      if (scheme->transforms_content()) {
        store.set_decoder(
            scheme.get(), [](const void* ctx, const pcm::LineBuf& l) {
              return static_cast<const schemes::WriteScheme*>(ctx)
                  ->decode_stored(l);
            });
      }
      u64 n = 0;
      while (n < writes / 8) {
        const workload::TraceOp op = gen.next(0);
        if (!op.is_write) continue;
        const pcm::LogicalLine next =
            gen.make_write_data(op.addr, store, 0);
        const auto plan = scheme->plan_write(store.line(op.addr), next);
        energy.add_write(plan.programmed);
        bits.add(static_cast<double>(plan.programmed.total()));
        ++n;
        ++total_writes;
      }
    }
    const double nj =
        energy.write_energy_pj() / static_cast<double>(total_writes) / 1000.0;
    if (kind == schemes::SchemeKind::kDcw) dcw_energy = nj;
    t.add_row({std::string(schemes::scheme_name(kind)),
               fixed(bits.mean(), 1), fixed(nj, 2),
               dcw_energy > 0 ? fixed(nj / dcw_energy, 2) + "x" : "-",
               expectation[idx]});
    ++idx;
  }
  t.print(std::cout);

  std::cout << "\nTakeaway: conventional and 2-Stage-Write burn an order "
               "of magnitude\nmore programming energy than the "
               "comparison-based schemes; Tetris\nmatches DCW's energy "
               "while being ~6x faster.\n";
  return 0;
}
