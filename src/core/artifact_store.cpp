#include "core/artifact_store.hpp"

#include <atomic>
#include <fstream>
#include <sstream>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

#include "netlist/hash.hpp"
#include "obs/telemetry.hpp"

namespace socfmea::core {

namespace {

/// Temp-file suffix unique across processes AND within a process: two
/// stores (or two processes) saving the same content hash concurrently must
/// never write the same temp path, or one rename publishes the other's
/// half-written file.  The rename itself is atomic, and equal keys imply
/// equal content, so last-writer-wins is correct.
std::string uniqueTmpSuffix() {
  static std::atomic<std::uint64_t> counter{0};
#ifdef _WIN32
  const long long pid = _getpid();
#else
  const long long pid = ::getpid();
#endif
  return ".tmp." + std::to_string(pid) + "." +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

/// The hash a file keeps of its body: over the body's compact text, which
/// parse(dump(x)) reproduces exactly.
std::string bodyHash(const obs::Json& body) {
  return netlist::hashHex(netlist::hashString(body.dump()));
}

}  // namespace

ArtifactStore::ArtifactStore(std::filesystem::path dir,
                             std::size_t lruCapacity)
    : dir_(std::move(dir)), lruCapacity_(lruCapacity == 0 ? 1 : lruCapacity) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec && !std::filesystem::is_directory(dir_)) {
    throw std::runtime_error("ArtifactStore: cannot create " + dir_.string() +
                             ": " + ec.message());
  }
}

std::optional<obs::Json> ArtifactStore::load(std::string_view kind,
                                             std::uint64_t key) {
  return loadFile(std::string(kind) + "-" + netlist::hashHex(key) + ".json");
}

void ArtifactStore::save(std::string_view kind, std::uint64_t key,
                         const obs::Json& a) {
  saveFile(std::string(kind) + "-" + netlist::hashHex(key) + ".json", a);
}

namespace {

/// File name of a head slot.  Branch names are caller-chosen identifiers
/// (candidate ids like "dup(out/rdata_r)"), so the readable part is
/// sanitized and a hash of the exact branch string keeps distinct branches
/// distinct.
std::string headFileName(std::string_view name, std::string_view branch) {
  std::string file = "head-" + std::string(name);
  if (!branch.empty()) {
    file += '@';
    for (const char c : branch.substr(0, 40)) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '-' ||
                      c == '_';
      file += ok ? c : '_';
    }
    file += '-' + netlist::hashHex(netlist::hashString(branch));
  }
  return file + ".json";
}

}  // namespace

std::optional<obs::Json> ArtifactStore::loadHead(std::string_view name,
                                                 std::string_view branch) {
  // Heads are the store's one mutable slot; always re-read from disk so a
  // sibling process's saveHead is visible (no LRU).
  return loadFile(headFileName(name, branch), /*useLru=*/false);
}

void ArtifactStore::saveHead(std::string_view name, const obs::Json& a) {
  saveHead(name, {}, a);
}

void ArtifactStore::saveHead(std::string_view name, std::string_view branch,
                             const obs::Json& a) {
  saveFile(headFileName(name, branch), a, /*useLru=*/false);
}

std::optional<std::string> ArtifactStore::validateDir(
    const std::filesystem::path& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::file_status st = fs::status(dir, ec);
  if (fs::exists(st)) {
    if (!fs::is_directory(st)) {
      return "cache path exists but is not a directory: " + dir.string();
    }
    // Probe writability by creating (and removing) a file: permission bits
    // alone lie for root and for exotic filesystems.
    const fs::path probe = dir / (".probe" + uniqueTmpSuffix());
    {
      std::ofstream out(probe, std::ios::binary | std::ios::trunc);
      if (!out) {
        return "cache directory is not writable: " + dir.string();
      }
    }
    fs::remove(probe, ec);
    return std::nullopt;
  }
  // The store creates the leaf directory itself, but a missing or bogus
  // parent is a configuration error worth naming precisely.
  const fs::path parent =
      dir.has_parent_path() ? dir.parent_path() : fs::path(".");
  const fs::file_status pst = fs::status(parent, ec);
  if (!fs::exists(pst)) {
    return "cache directory parent does not exist: " + parent.string();
  }
  if (!fs::is_directory(pst)) {
    return "cache directory parent is not a directory: " + parent.string();
  }
  std::error_code createEc;
  fs::create_directories(dir, createEc);
  if (createEc || !fs::is_directory(dir)) {
    return "cannot create cache directory " + dir.string() +
           (createEc ? ": " + createEc.message() : "");
  }
  return std::nullopt;
}

obs::Json ArtifactStore::statsJson() const {
  obs::Json j = obs::Json::object();
  j["memory_hits"] = static_cast<long long>(stats_.memoryHits);
  j["disk_hits"] = static_cast<long long>(stats_.diskHits);
  j["misses"] = static_cast<long long>(stats_.misses);
  j["rejected"] = static_cast<long long>(stats_.rejected);
  j["stores"] = static_cast<long long>(stats_.stores);
  return j;
}

std::optional<obs::Json> ArtifactStore::loadFile(const std::string& file,
                                                 bool useLru) {
  if (useLru) {
    const auto it = lruIndex_.find(file);
    if (it != lruIndex_.end()) {
      ++stats_.memoryHits;
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->second;
    }
  }
  std::ifstream in(dir_ / file, std::ios::binary);
  if (!in) {
    ++stats_.misses;
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::optional<obs::Json> body;
  try {
    obs::Json stored = obs::Json::parse(text.str());
    const obs::Json* hash = stored.find("body_hash");
    if (hash != nullptr && hash->isString() &&
        stored.find("body") != nullptr) {
      const std::string want = hash->asString();
      body = std::move(stored["body"]);
      if (bodyHash(*body) != want) body.reset();
    }
  } catch (const std::exception&) {
    body.reset();
  }
  if (!body) {
    // Corrupt file: treated as a miss, recomputed and saved over.
    ++stats_.misses;
    ++stats_.rejected;
    obs::Registry::global().add("core.store.rejected");
    return std::nullopt;
  }
  ++stats_.diskHits;
  if (useLru) touchLru(file, *body);
  return body;
}

void ArtifactStore::saveFile(const std::string& file, const obs::Json& a,
                             bool useLru) {
  const std::filesystem::path tmp = dir_ / (file + uniqueTmpSuffix());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("ArtifactStore: cannot write " + tmp.string());
    }
    obs::Json stored = obs::Json::object();
    stored["body_hash"] = bodyHash(a);
    stored["body"] = a;
    out << stored.dump(2) << '\n';
  }
  std::error_code ec;
  std::filesystem::rename(tmp, dir_ / file, ec);
  if (ec) {
    std::error_code rmEc;
    std::filesystem::remove(tmp, rmEc);
    throw std::runtime_error("ArtifactStore: cannot finalize " +
                             (dir_ / file).string() + ": " + ec.message());
  }
  ++stats_.stores;
  if (useLru) touchLru(file, a);
}

void ArtifactStore::touchLru(const std::string& file, const obs::Json& a) {
  const auto it = lruIndex_.find(file);
  if (it != lruIndex_.end()) {
    it->second->second = a;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(file, a);
  lruIndex_[file] = lru_.begin();
  while (lru_.size() > lruCapacity_) {
    lruIndex_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

}  // namespace socfmea::core
