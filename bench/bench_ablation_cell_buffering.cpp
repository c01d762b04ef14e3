// Ablation: the Cell double-buffering scheme (paper §3.3, Fig. 7).
//
// "The adopted two-level partitioning method along with the double-buffering
// technique requires two levels of synchronization" — the paper treats the
// overlap of chunk i's compute with chunk i+1's DMA as a given. This bench
// quantifies what it buys on the simulated hardware: the same offloads with
// the SPE program's prefetch disabled (each chunk's DMA strictly serialized
// with its compute).
#include <iostream>

#include "arch/models.hpp"
#include "bench_common.hpp"
#include "cell/machine.hpp"
#include "util/table.hpp"

int main() {
  using namespace plf;
  using namespace plf::arch;

  const std::uint64_t kGenerations = 2000;
  const std::size_t kTaxa = 20;

  Table t("Cell double-buffering ablation (QS20, 16 SPEs)");
  t.header({"m", "PLF no-overlap s", "PLF overlapped s", "benefit"});

  for (std::size_t m : {1000u, 8543u, 20000u, 50000u}) {
    const auto w = bench::measured_workload(kTaxa, m, kGenerations);

    SystemConfig plain = system_by_name("QS20");
    plain.cell.spu.double_buffering = false;
    SystemConfig buffered = system_by_name("QS20");
    buffered.cell.spu.double_buffering = true;

    CellModel plain_model(plain);
    CellModel buffered_model(buffered);
    const double t_plain = plain_model.plf_section_s(w, 16);
    const double t_buf = buffered_model.plf_section_s(w, 16);
    t.row({std::to_string(m), Table::num(t_plain, 3), Table::num(t_buf, 3),
           bench::gain_percent(t_plain / t_buf)});
  }
  std::cout << t << "\n";
  std::cout << "Double buffering hides the per-chunk DMA latency behind the\n"
               "SPU compute; its benefit equals the DMA share of the chunk\n"
               "pipeline, which grows with the data size (bigger chunks,\n"
               "same compute-to-byte ratio).\n";
  return 0;
}
