#include "core/backend.hpp"

#include <algorithm>
#include <array>

#include "baseline/serialized_accelerator.hpp"
#include "core/accelerator.hpp"
#include "util/check.hpp"

namespace edea::core {

namespace {

/// Every backend id, sorted. make_backend() has one branch per entry.
constexpr std::array<std::string_view, 2> kBackendIds = {kDefaultBackendId,
                                                         "serialized"};
static_assert(std::ranges::is_sorted(kBackendIds),
              "backend_ids() and the diagnostics promise sorted ids");

}  // namespace

std::vector<NetworkRunResult> AcceleratorBackend::run_network_batch(
    const std::vector<nn::QuantDscLayer>& layers, const nn::Int8Tensor& input,
    int batch) {
  EDEA_REQUIRE(batch >= 1, "batch must be >= 1");
  std::vector<NetworkRunResult> results;
  results.reserve(static_cast<std::size_t>(batch));
  for (int b = 0; b < batch; ++b) {
    results.push_back(run_network(layers, input));
  }
  return results;
}

bool backend_known(const std::string& id) {
  return std::find(kBackendIds.begin(), kBackendIds.end(), id) !=
         kBackendIds.end();
}

std::vector<std::string> backend_ids() {
  return {kBackendIds.begin(), kBackendIds.end()};
}

std::string known_backends_string() {
  std::string out;
  for (const std::string_view id : kBackendIds) {
    if (!out.empty()) out += ", ";
    out += id;
  }
  return out;
}

std::unique_ptr<AcceleratorBackend> make_backend(const std::string& id,
                                                 const EdeaConfig& config) {
  if (id == kDefaultBackendId) return std::make_unique<EdeaAccelerator>(config);
  EDEA_REQUIRE(id == "serialized", "unknown backend '" + id + "' (known: " +
                                       known_backends_string() + ")");
  return std::make_unique<baseline::SerializedDscAccelerator>(config);
}

}  // namespace edea::core
