// Full-fidelity zone-database artifact serialization.  Unlike the report
// export in zone.hpp (toJson, summary-only), this round trip preserves every
// id-level field so a warmed flow can rebuild the ZoneDatabase without
// re-running extraction.  Raw ids are valid here because the artifact is
// content-addressed by the structural design hash: the same hash implies the
// same creation order and therefore the same id assignment.
#pragma once

#include <optional>

#include "obs/json.hpp"
#include "zones/zone.hpp"

namespace socfmea::zones {

/// Serializes the complete zone inventory (ids, kinds, names, member lists,
/// cones, statistics) for the artifact store.
[[nodiscard]] obs::Json zonesToJson(const ZoneDatabase& db);

/// Rebuilds a ZoneDatabase over `cd` from a zonesToJson() artifact and
/// rebuilds the cone-membership indices.  nullopt on malformed input or
/// when an id is out of range for the design (artifact from a different
/// design).
[[nodiscard]] std::optional<ZoneDatabase> zonesFromJson(
    netlist::CompiledDesignPtr cd, const obs::Json& j);

}  // namespace socfmea::zones
