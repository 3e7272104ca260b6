#include "workload/scenario.h"

#include <stdexcept>

namespace bdps {

std::string scenario_name(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::kPsd:
      return "PSD";
    case ScenarioKind::kSsd:
      return "SSD";
    case ScenarioKind::kBoth:
      return "BOTH";
  }
  return "?";
}

ScenarioKind parse_scenario(const std::string& name) {
  if (name == "PSD" || name == "psd") return ScenarioKind::kPsd;
  if (name == "SSD" || name == "ssd") return ScenarioKind::kSsd;
  if (name == "BOTH" || name == "both") return ScenarioKind::kBoth;
  throw std::invalid_argument("unknown scenario: " + name);
}

std::vector<DelayTier> paper_ssd_tiers() {
  return {{seconds(10.0), 3.0}, {seconds(30.0), 2.0}, {seconds(60.0), 1.0}};
}

}  // namespace bdps
