// The six proxy applications of the paper's evaluation (§II).
//
// Each proxy reproduces its namesake's *communication skeleton* — message
// sizes, partners, collectives, ordering, and the compute time between
// them — as characterized in the paper:
//
//   FFT    (FFTW)  : 2-D FFT; back-to-back all-to-all transposes with
//                    almost no compute in between. Most network-sensitive.
//   Lulesh         : 3-D Lagrangian hydrodynamics; face/edge/corner halo
//                    exchange + dt allreduce between heavy compute. Needs a
//                    cubic number of ranks (64 = 4^3).
//   MCB            : Monte-Carlo burnup; long compute with short
//                    synchronized particle-exchange bursts — low average
//                    network use but visible latency tails.
//   MILC           : lattice QCD conjugate gradient; 4-D halo exchange and
//                    frequent tiny allreduces (dot products). Latency
//                    sensitive.
//   VPFFT          : crystal plasticity; all-to-all FFT transposes with
//                    substantial (noisy) compute between them. Sensitive,
//                    with oscillating measurements.
//   AMG            : algebraic multigrid; alternates a compute-dominated
//                    dense phase with a communication-heavy sparse phase
//                    whose nonblocking exchanges overlap compute. Bursty
//                    network signature, low own sensitivity — the phase
//                    behaviour responsible for the paper's one large
//                    queue-model prediction error (FFTW with AMG).
//
// Every program is an infinite measurement loop: it calls
// ctx.mark_iteration() once per outer iteration and exits when the job's
// stop flag is raised.
#pragma once

#include <string>
#include <vector>

#include "mpi/context.h"
#include "mpi/machine.h"
#include "util/units.h"

namespace actnet::apps {

enum class AppId { kFFT, kLulesh, kMCB, kMILC, kVPFFT, kAMG };

/// Stable identification and the paper's process layout for one app.
struct AppInfo {
  AppId id;
  std::string name;
  int nodes_used;        ///< nodes the app spans (18, or 16 for Lulesh)
  int procs_per_socket;  ///< ranks per socket (4, or 2 for Lulesh)

  int ranks(const mpi::MachineConfig& mc) const {
    return nodes_used * mc.sockets_per_node * procs_per_socket;
  }
};

/// All six apps in the paper's table order: FFT, Lulesh, MCB, MILC,
/// VPFFT, AMG.
const std::vector<AppInfo>& all_apps();
/// The ids of all_apps(), in the same order.
std::vector<AppId> all_app_ids();
const AppInfo& app_info(AppId id);
const AppInfo& app_info_by_name(const std::string& name);

// --- per-app tuning knobs (defaults reproduce the paper's shapes) ---

struct FftParams {
  Bytes transpose_bytes_per_pair = 2048;
  Tick compute_per_iter = units::us(150);
  double compute_noise_cv = 0.02;
};

struct LuleshParams {
  Bytes face_bytes = units::KiB(20);
  Bytes edge_bytes = 1024;
  Bytes corner_bytes = 128;
  Tick compute_per_iter = units::ms(2.0);
  double compute_noise_cv = 0.05;
};

struct McbParams {
  Tick compute_per_iter = units::ms(1.65);
  double compute_noise_cv = 0.10;
  int burst_exchanges = 8;       ///< concurrent exchanges per burst
  Bytes burst_bytes = units::KiB(12);
  Tick burst_overlap_compute = units::us(150);
  int iters_per_tally = 8;       ///< allreduce cadence
};

struct MilcParams {
  Bytes halo_bytes = units::KiB(8);
  Bytes dot_bytes = 64;          ///< CG dot-product allreduce payload
  Tick compute_per_iter = units::us(350);
  double compute_noise_cv = 0.03;
};

struct VpfftParams {
  Bytes transpose_bytes_per_pair = units::KiB(4);
  int transposes_per_iter = 2;     ///< forward + inverse FFT phases
  Tick compute_per_iter = units::ms(1.0);
  double compute_noise_cv = 0.25;  ///< the oscillation the paper reports
};

struct AmgParams {
  Tick dense_compute = units::us(900);
  double dense_noise_cv = 0.05;
  Bytes dense_halo_bytes = 1024;
  int sparse_inner_iters = 6;
  Tick sparse_inner_compute = units::us(150);
  Bytes sparse_halo_bytes = units::KiB(8);
  int sparse_allreduce_every = 3;  ///< inner iterations per allreduce
};

// --- program factories ---

mpi::RankProgram make_fft_program(FftParams p = {});
mpi::RankProgram make_lulesh_program(LuleshParams p = {});
mpi::RankProgram make_mcb_program(McbParams p = {});
mpi::RankProgram make_milc_program(MilcParams p = {});
mpi::RankProgram make_vpfft_program(VpfftParams p = {});
mpi::RankProgram make_amg_program(AmgParams p = {});

/// Factory with default tuning, dispatched by id.
mpi::RankProgram make_program(AppId id);

}  // namespace actnet::apps
