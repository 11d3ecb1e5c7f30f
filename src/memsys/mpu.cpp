#include "memsys/mpu.hpp"

#include <algorithm>
#include <stdexcept>

namespace socfmea::memsys {

Mpu::Mpu(std::uint64_t words, std::size_t pageCount) : words_(words) {
  if (pageCount == 0) throw std::invalid_argument("MPU needs >= 1 page");
  wordsPerPage_ = std::max<std::uint64_t>(1, words / pageCount);
  pages_.assign(pageCount, PageAttributes{});
}

std::size_t Mpu::pageOf(std::uint64_t addr) const {
  const std::size_t p = static_cast<std::size_t>(addr / wordsPerPage_);
  return std::min(p, pages_.size() - 1);
}

void Mpu::configure(std::size_t page, PageAttributes attrs) {
  pages_.at(page) = attrs;
}

MpuVerdict Mpu::check(std::uint64_t addr, AccessKind kind,
                      Privilege priv) const {
  if (addr >= words_) return MpuVerdict::OutOfRange;
  const PageAttributes& a = pages_[pageOf(addr)];
  if (a.privilegedOnly && priv != Privilege::Machine) {
    return MpuVerdict::DeniedPrivilege;
  }
  if (kind == AccessKind::Read && !a.readable) return MpuVerdict::DeniedRead;
  if (kind == AccessKind::Write && !a.writable) return MpuVerdict::DeniedWrite;
  return MpuVerdict::Allowed;
}

void Mpu::corrupt(std::size_t page, std::uint32_t bit) {
  PageAttributes& a = pages_.at(page);
  switch (bit % 3) {
    case 0: a.readable = !a.readable; break;
    case 1: a.writable = !a.writable; break;
    default: a.privilegedOnly = !a.privilegedOnly; break;
  }
}

}  // namespace socfmea::memsys
