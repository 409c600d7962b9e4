#include "core/design_point.hpp"

#include <cmath>
#include <tuple>

#include "util/check.hpp"
#include "util/hash.hpp"

namespace edea::core {

namespace {

std::string who(std::string_view subject, std::string_view name) {
  std::string out(subject);
  if (!name.empty()) out.append(" '").append(name).append("'");
  return out;
}

}  // namespace

void DesignPoint::validate(std::string_view subject,
                           std::string_view name) const {
  EDEA_REQUIRE(backend_known(backend),
               who(subject, name) + ": unknown backend '" + backend +
                   "' (known: " + known_backends_string() + ")");
  EDEA_REQUIRE(std::isfinite(config.clock_ghz),
               who(subject, name) + ": non-finite clock");
  for (const auto& [field, value] :
       {std::pair<const char*, int>{"batch", batch},
        {"dilation", dilation},
        {"depth_multiplier", depth_multiplier}}) {
    EDEA_REQUIRE(value >= 1, who(subject, name) + ": " + field +
                                 " must be >= 1, got " +
                                 std::to_string(value));
  }
}

std::uint64_t DesignPoint::hash() const noexcept {
  util::Fnv1a64 h;
  h.pod(config.hash()).str(backend).pod(batch).pod(dilation);
  h.pod(depth_multiplier);
  return h.digest();
}

void DesignPoint::encode(util::ByteWriter& w) const {
  config.encode(w);
  w.str(backend);
  w.pod(static_cast<std::int32_t>(batch));
  w.pod(static_cast<std::int32_t>(dilation));
  w.pod(static_cast<std::int32_t>(depth_multiplier));
}

DesignPoint DesignPoint::decode(util::ByteReader& r, std::string_view subject,
                                std::string_view name) {
  DesignPoint p;
  p.config = EdeaConfig::decode(r);
  p.backend = r.str();
  p.batch = static_cast<int>(r.pod<std::int32_t>());
  p.dilation = static_cast<int>(r.pod<std::int32_t>());
  p.depth_multiplier = static_cast<int>(r.pod<std::int32_t>());
  p.validate(subject, name);
  return p;
}

bool DesignPoint::sorts_before(const DesignPoint& other) const {
  const auto key = [](const DesignPoint& p) {
    return std::tuple(p.config.hash(), std::string_view(p.backend), p.batch,
                      p.dilation, p.depth_multiplier);
  };
  return key(*this) < key(other);
}

}  // namespace edea::core
