#include "memsys/scrubber.hpp"

#include <algorithm>

namespace socfmea::memsys {

void Scrubber::noteError(std::uint64_t addr) {
  if (std::find(store_.begin(), store_.end(), addr) != store_.end()) return;
  if (store_.size() >= capacity_) return;
  store_.push_back(addr);
}

std::optional<ScrubRequest> Scrubber::idleSlot() {
  if (!store_.empty()) {
    ScrubRequest r;
    r.kind = ScrubRequest::Kind::Repair;
    r.addr = store_.front();
    store_.pop_front();
    ++stats_.repairsIssued;
    return r;
  }
  if (scanEnabled_ && words_ > 0) {
    ScrubRequest r;
    r.kind = ScrubRequest::Kind::Scan;
    r.addr = scanPtr_;
    scanPtr_ = (scanPtr_ + 1) % words_;
    ++stats_.scansIssued;
    return r;
  }
  return std::nullopt;
}

void Scrubber::slotResult(const ScrubRequest& req, bool correctable) {
  if (correctable) {
    ++stats_.correctableSeen;
    // A scan that found a correctable error queues a repair for it.
    if (req.kind == ScrubRequest::Kind::Scan) noteError(req.addr);
  }
}

double Scrubber::forecastRate() const noexcept {
  const std::uint64_t ops = stats_.repairsIssued + stats_.scansIssued;
  return ops == 0 ? 0.0
                  : static_cast<double>(stats_.correctableSeen) /
                        static_cast<double>(ops);
}

}  // namespace socfmea::memsys
