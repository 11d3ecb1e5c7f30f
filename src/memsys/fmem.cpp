#include "memsys/fmem.hpp"

namespace socfmea::memsys {

namespace {

constexpr std::size_t kWbufDepth = 4;
constexpr std::size_t kScrubStoreCapacity = 8;

}  // namespace

FMem::FMem(CodeMemory& mem, const FMemConfig& cfg)
    : cfg_(cfg),
      codec_(cfg.addressInCode),
      mem_(&mem),
      ctrl_(mem),
      wbuf_(kWbufDepth, cfg.wbufParity),
      pipe_(codec_, cfg.decoder),
      scrub_(mem.words(), kScrubStoreCapacity, /*backgroundScan=*/true) {}

void FMem::requestWrite(std::uint64_t addr, std::uint32_t data) {
  wbuf_.push(addr, data);
}

void FMem::requestRead(std::uint64_t addr, std::uint64_t tag) {
  busRead_ = {addr, tag};
  readIssued_ = true;
}

std::optional<FMem::ReadComplete> FMem::tick(bool busIdle) {
  // --- 1. schedule the single memory port: bus read > buffered write >
  //        scrub DMA ------------------------------------------------------------
  if (busRead_.has_value()) {
    const auto [addr, tag] = *busRead_;
    InFlight meta;
    meta.tag = tag;
    meta.addr = addr;
    // In-flight buffered writes are newer than the array content.
    if (const auto fwd = wbuf_.forward(addr)) meta.forwarded = *fwd;
    ctrl_.issueRead(addr, tag);
    inflight_.push_back(meta);
  } else if (!wbuf_.empty()) {
    bool parityError = false;
    const auto entry = wbuf_.pop(cfg_.wbufParity ? &parityError : nullptr);
    if (parityError) ++alarms_.wbufParityError;
    if (entry.has_value()) {
      ctrl_.issueWrite(entry->addr, codec_.encode(entry->data, entry->addr));
    }
  } else if (busIdle) {
    if (const auto req = scrub_.idleSlot()) {
      InFlight meta;
      meta.addr = req->addr;
      meta.isScrub = true;
      meta.scrubReq = *req;
      ctrl_.issueRead(req->addr, 0);
      inflight_.push_back(meta);
    }
  }
  busRead_.reset();
  readIssued_ = false;

  // --- 2. memory return enters the decoder pipeline ---------------------------
  if (const auto ret = ctrl_.tick()) {
    pipe_.present(ret->code, ret->addr);
  } else {
    pipe_.present(std::nullopt, 0);
  }

  // --- 3. decoder pipeline advances --------------------------------------------
  const DecodeOutput out = pipe_.tick();
  if (!out.valid) return std::nullopt;

  InFlight meta;
  if (!inflight_.empty()) {
    meta = inflight_.front();
    inflight_.pop_front();
  }

  const DecoderAlarms& a = out.alarms;
  if (a.singleCorrected) ++alarms_.singleCorrected;
  if (a.doubleError) ++alarms_.doubleError;
  if (a.addressError) ++alarms_.addressError;
  if (a.coderCheckError) ++alarms_.coderCheckError;
  if (a.pipeCheckError) ++alarms_.pipeCheckError;

  // Corrected errors are repair candidates for the scrubbing engine.
  if (a.singleCorrected && !meta.isScrub) scrub_.noteError(meta.addr);

  if (meta.isScrub) {
    scrub_.slotResult(meta.scrubReq, a.singleCorrected);
    // Repair: write the corrected word back through the normal encode path.
    if (!a.uncorrectable() &&
        (meta.scrubReq.kind == ScrubRequest::Kind::Repair ||
         a.singleCorrected) &&
        !wbuf_.full()) {
      wbuf_.push(meta.addr, out.data);
    }
    return std::nullopt;  // scrub traffic never completes on the bus
  }

  ReadComplete rc;
  rc.tag = meta.tag;
  rc.data = meta.forwarded.value_or(out.data);
  rc.uncorrectable = !meta.forwarded.has_value() && a.uncorrectable();
  return rc;
}

}  // namespace socfmea::memsys
