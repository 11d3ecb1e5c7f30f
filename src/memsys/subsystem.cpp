#include "memsys/subsystem.hpp"

#include <ostream>
#include <sstream>

namespace socfmea::memsys {

namespace {

constexpr std::size_t kMpuPages = 8;

}  // namespace

MemSysConfig MemSysConfig::v1() {
  MemSysConfig c;
  c.fmem.addressInCode = false;
  c.fmem.wbufParity = false;
  c.fmem.decoder = DecoderFeatures{};
  c.swStartupTests = false;
  return c;
}

MemSysConfig MemSysConfig::v2() {
  MemSysConfig c;
  c.fmem.addressInCode = true;
  c.fmem.wbufParity = true;
  c.fmem.decoder.postCoderChecker = true;
  c.fmem.decoder.redundantChecker = true;
  c.fmem.decoder.distributedSyndrome = true;
  c.swStartupTests = true;
  return c;
}

std::string MemSysConfig::describe() const {
  std::ostringstream ss;
  ss << "addr-in-code=" << fmem.addressInCode
     << " wbuf-parity=" << fmem.wbufParity
     << " post-coder-check=" << fmem.decoder.postCoderChecker
     << " redundant-check=" << fmem.decoder.redundantChecker
     << " distributed-syndrome=" << fmem.decoder.distributedSyndrome
     << " sw-startup=" << swStartupTests;
  return ss.str();
}

MemSubsystem::MemSubsystem(const MemSysConfig& cfg)
    : cfg_(cfg),
      mem_(cfg.addrBits),
      bus_(cfg.masterCount),
      mpu_(mem_.words(), kMpuPages),
      fmem_(mem_, cfg.fmem),
      mce_(fmem_, mpu_, bus_) {
  bus_.connectSlave(&mce_);
}

void MemSubsystem::step() {
  bus_.step();
  mce_.tick();
  ++cycle_;
}

void MemSubsystem::idle(std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) step();
}

bool MemSubsystem::write(std::uint64_t addr, std::uint32_t data,
                         Privilege priv, std::uint32_t master) {
  AhbTransaction txn;
  txn.addr = addr;
  txn.write = true;
  txn.wdata = data;
  txn.priv = priv;
  txn.master = master;
  txn.tag = nextTag_++;
  post(txn);
  for (int guard = 0; guard < 1000; ++guard) {
    step();
    if (const auto resp = collect(master)) return !resp->error;
  }
  return false;  // bus hang (should not happen)
}

std::optional<std::uint32_t> MemSubsystem::read(std::uint64_t addr,
                                                Privilege priv,
                                                std::uint32_t master) {
  AhbTransaction txn;
  txn.addr = addr;
  txn.write = false;
  txn.priv = priv;
  txn.master = master;
  txn.tag = nextTag_++;
  post(txn);
  for (int guard = 0; guard < 1000; ++guard) {
    step();
    if (const auto resp = collect(master)) {
      if (resp->error) return std::nullopt;
      return resp->rdata;
    }
  }
  return std::nullopt;
}

void printAlarms(std::ostream& out, const AlarmCounters& a) {
  out << "alarms: corrected " << a.singleCorrected << ", double "
      << a.doubleError << ", address " << a.addressError << ", coder-check "
      << a.coderCheckError << ", pipe-check " << a.pipeCheckError
      << ", wbuf-parity " << a.wbufParityError << ", mpu " << a.mpuViolation
      << ", bus-error " << a.busError << "\n";
}

}  // namespace socfmea::memsys
