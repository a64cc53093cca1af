// The paper's two active-measurement micro-benchmarks.
//
// ImpactB (paper Fig. 2): node pairs exchange 1 KB ping-pongs separated by
// a long sleep; the initiator records half the round-trip time as a packet
// latency sample. The probe's own load is negligible (well under 1% of a
// link), so the samples measure how well the switch can service
// *additional* traffic while the target workload runs.
//
// CompressionB (paper Figs. 4/5): processes at the same core position on
// different nodes form rings; each iteration sends M 40 KB messages to
// each of P preceding ring neighbors with a B-cycle sleep after each
// partner, then completes everything with a waitall. Sweeping (P, B, M)
// consumes a controllable fraction of switch capability — the knob used to
// emulate less-capable switches ("performance relativity").
#pragma once

#include <string>
#include <vector>

#include "core/latency.h"
#include "mpi/context.h"
#include "util/units.h"

namespace actnet::core {

struct ImpactConfig {
  Bytes message_bytes = 1024;  ///< 1 KB: a single network packet
  /// Pause between ping-pongs. The paper sleeps 100 ms and runs for
  /// minutes; our measurement windows are tens of simulated milliseconds,
  /// so the cadence is scaled to keep a comparable sample count while the
  /// probe load stays < 0.5% of a link (see DESIGN.md).
  Tick sleep = units::us(150);
};

/// Builds the ImpactB rank program. Ranks on even nodes initiate ping-pongs
/// with their same-core peer on the next node and record latency samples
/// into `collector` (which must outlive the run). Ranks on odd nodes echo.
/// `ranks_per_node` must match the probe placement (2 = one per socket).
mpi::RankProgram make_impact_program(ImpactConfig config,
                                     LatencyCollector* collector,
                                     int ranks_per_node);

struct CompressionConfig {
  int partners = 1;            ///< P: ring predecessors addressed
  double sleep_cycles = 2.5e6; ///< B: cycles slept after each partner round
  int messages = 1;            ///< M: messages per partner per round
  Bytes message_bytes = units::KiB(40);

  /// "P<P>_B<B>_M<M>", plus "_S<bytes>" when the size is not the paper's.
  std::string label() const;
};

/// The paper's 40-configuration grid: P in {1,4,7,14,17},
/// B in {2.5e4, 2.5e5, 2.5e6, 2.5e7} cycles, M in {1, 10}.
std::vector<CompressionConfig> compression_paper_grid();

/// Builds the CompressionB rank program (one ring per core position;
/// `ranks_per_node` = processes per node = number of rings).
mpi::RankProgram make_compression_program(CompressionConfig config,
                                          int ranks_per_node);

}  // namespace actnet::core
