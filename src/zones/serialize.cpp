#include "zones/serialize.hpp"

#include <string_view>
#include <utility>

namespace socfmea::zones {

namespace {

template <typename T>
obs::Json idArray(const std::vector<T>& ids) {
  obs::Json arr = obs::Json::array();
  for (const T id : ids) arr.push_back(static_cast<long long>(id));
  return arr;
}

template <typename T>
bool readIdArray(const obs::Json* j, std::size_t limit, std::vector<T>* out) {
  if (j == nullptr || !j->isArray()) return false;
  out->clear();
  out->reserve(j->size());
  for (const obs::Json& e : j->elements()) {
    if (!e.isInt()) return false;
    const std::int64_t v = e.asInt();
    if (v < 0 || static_cast<std::size_t>(v) >= limit) return false;
    out->push_back(static_cast<T>(v));
  }
  return true;
}

std::optional<ZoneKind> zoneKindFromName(std::string_view n) {
  for (const ZoneKind k :
       {ZoneKind::Register, ZoneKind::PrimaryInput, ZoneKind::PrimaryOutput,
        ZoneKind::CriticalNet, ZoneKind::SubBlock, ZoneKind::Memory,
        ZoneKind::LogicalEntity}) {
    if (zoneKindName(k) == n) return k;
  }
  return std::nullopt;
}

}  // namespace

obs::Json zonesToJson(const ZoneDatabase& db) {
  obs::Json j = obs::Json::object();
  j["schema"] = "socfmea.zone_artifact/1";
  obs::Json arr = obs::Json::array();
  for (const SensibleZone& z : db.zones()) {
    obs::Json zj = obs::Json::object();
    zj["id"] = z.id;
    zj["kind"] = std::string(zoneKindName(z.kind));
    zj["name"] = z.name;
    zj["ffs"] = idArray(z.ffs);
    zj["value_nets"] = idArray(z.valueNets);
    zj["cone_roots"] = idArray(z.coneRoots);
    obs::Json cone = obs::Json::object();
    cone["gates"] = idArray(z.cone.gates);
    cone["support_ffs"] = idArray(z.cone.supportFfs);
    cone["support_pis"] = idArray(z.cone.supportPis);
    cone["support_mems"] = idArray(z.cone.supportMems);
    cone["nets"] = idArray(z.cone.nets);
    zj["cone"] = std::move(cone);
    obs::Json stats = obs::Json::object();
    stats["gate_count"] = static_cast<long long>(z.stats.gateCount);
    stats["net_count"] = static_cast<long long>(z.stats.netCount);
    stats["support_ffs"] = static_cast<long long>(z.stats.supportFfs);
    stats["support_pis"] = static_cast<long long>(z.stats.supportPis);
    stats["support_mems"] = static_cast<long long>(z.stats.supportMems);
    zj["stats"] = std::move(stats);
    if (z.mem != netlist::kNoMemory) zj["mem"] = static_cast<long long>(z.mem);
    arr.push_back(std::move(zj));
  }
  j["zones"] = std::move(arr);
  return j;
}

std::optional<ZoneDatabase> zonesFromJson(netlist::CompiledDesignPtr cd,
                                          const obs::Json& j) {
  const obs::Json* schema = j.find("schema");
  if (schema == nullptr || !schema->isString() ||
      schema->asString() != "socfmea.zone_artifact/1") {
    return std::nullopt;
  }
  const obs::Json* arr = j.find("zones");
  if (arr == nullptr || !arr->isArray()) return std::nullopt;

  ZoneDatabase db(std::move(cd));
  const netlist::Netlist& nl = db.design();
  const std::size_t cells = nl.cellCount();
  const std::size_t nets = nl.netCount();
  const std::size_t mems = nl.memoryCount();
  for (const obs::Json& zj : arr->elements()) {
    SensibleZone z;
    const obs::Json* kind = zj.find("kind");
    const obs::Json* name = zj.find("name");
    if (kind == nullptr || !kind->isString() || name == nullptr ||
        !name->isString()) {
      return std::nullopt;
    }
    const auto k = zoneKindFromName(kind->asString());
    if (!k) return std::nullopt;
    z.kind = *k;
    z.name = name->asString();
    if (!readIdArray(zj.find("ffs"), cells, &z.ffs) ||
        !readIdArray(zj.find("value_nets"), nets, &z.valueNets) ||
        !readIdArray(zj.find("cone_roots"), nets, &z.coneRoots)) {
      return std::nullopt;
    }
    const obs::Json* cone = zj.find("cone");
    if (cone == nullptr || !cone->isObject()) return std::nullopt;
    if (!readIdArray(cone->find("gates"), cells, &z.cone.gates) ||
        !readIdArray(cone->find("support_ffs"), cells, &z.cone.supportFfs) ||
        !readIdArray(cone->find("support_pis"), cells, &z.cone.supportPis) ||
        !readIdArray(cone->find("support_mems"), mems, &z.cone.supportMems) ||
        !readIdArray(cone->find("nets"), nets, &z.cone.nets)) {
      return std::nullopt;
    }
    const obs::Json* stats = zj.find("stats");
    if (stats == nullptr || !stats->isObject()) return std::nullopt;
    const auto statField = [&](std::string_view key, std::size_t* out) {
      const obs::Json* v = stats->find(key);
      if (v == nullptr || !v->isInt() || v->asInt() < 0) return false;
      *out = static_cast<std::size_t>(v->asInt());
      return true;
    };
    if (!statField("gate_count", &z.stats.gateCount) ||
        !statField("net_count", &z.stats.netCount) ||
        !statField("support_ffs", &z.stats.supportFfs) ||
        !statField("support_pis", &z.stats.supportPis) ||
        !statField("support_mems", &z.stats.supportMems)) {
      return std::nullopt;
    }
    if (const obs::Json* m = zj.find("mem")) {
      if (!m->isInt() || m->asInt() < 0 ||
          static_cast<std::size_t>(m->asInt()) >= mems) {
        return std::nullopt;
      }
      z.mem = static_cast<netlist::MemoryId>(m->asInt());
    }
    db.addZone(std::move(z));
  }
  db.buildIndices();
  return db;
}

}  // namespace socfmea::zones
