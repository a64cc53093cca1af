#include "apps/apps.h"

#include "util/error.h"

namespace actnet::apps {

const std::vector<AppInfo>& all_apps() {
  static const std::vector<AppInfo> apps = {
      {AppId::kFFT, "FFT", 18, 4},     {AppId::kLulesh, "Lulesh", 16, 2},
      {AppId::kMCB, "MCB", 18, 4},     {AppId::kMILC, "MILC", 18, 4},
      {AppId::kVPFFT, "VPFFT", 18, 4}, {AppId::kAMG, "AMG", 18, 4},
  };
  return apps;
}

std::vector<AppId> all_app_ids() {
  std::vector<AppId> ids;
  for (const auto& a : all_apps()) ids.push_back(a.id);
  return ids;
}

const AppInfo& app_info(AppId id) {
  for (const auto& a : all_apps())
    if (a.id == id) return a;
  ACTNET_CHECK_MSG(false, "unknown app id");
}

const AppInfo& app_info_by_name(const std::string& name) {
  for (const auto& a : all_apps())
    if (a.name == name) return a;
  ACTNET_CHECK_MSG(false, "unknown app name: " << name);
}

mpi::RankProgram make_program(AppId id) {
  switch (id) {
    case AppId::kFFT: return make_fft_program();
    case AppId::kLulesh: return make_lulesh_program();
    case AppId::kMCB: return make_mcb_program();
    case AppId::kMILC: return make_milc_program();
    case AppId::kVPFFT: return make_vpfft_program();
    case AppId::kAMG: return make_amg_program();
  }
  ACTNET_CHECK_MSG(false, "unknown app id");
}

}  // namespace actnet::apps
