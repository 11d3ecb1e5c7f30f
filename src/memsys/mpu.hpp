// Distributed MPU of the MCE block (paper, Section 6): "this MPU function
// considers that the memory is divided in [a] number of pages associated
// with attributes and permissions.  The MCE block uses signals from the bus
// ... to discriminate these attributes and permissions and in case of
// faults, proper alarms are generated."
#pragma once

#include <cstdint>
#include <vector>

namespace socfmea::memsys {

enum class Privilege : std::uint8_t { User, Machine };
enum class AccessKind : std::uint8_t { Read, Write };

struct PageAttributes {
  bool readable = true;
  bool writable = true;
  bool privilegedOnly = false;  ///< only Machine-mode masters may touch it
};

enum class MpuVerdict : std::uint8_t {
  Allowed,
  DeniedRead,
  DeniedWrite,
  DeniedPrivilege,
  OutOfRange,
};

class Mpu {
 public:
  /// Splits `words` memory words into `pageCount` equal pages (the last page
  /// absorbs any remainder).
  Mpu(std::uint64_t words, std::size_t pageCount);

  [[nodiscard]] std::size_t pageCount() const noexcept { return pages_.size(); }
  [[nodiscard]] std::size_t pageOf(std::uint64_t addr) const;

  void configure(std::size_t page, PageAttributes attrs);
  [[nodiscard]] const PageAttributes& attributes(std::size_t page) const {
    return pages_.at(page);
  }

  /// Checks one bus access; anything but Allowed must raise the MPU alarm.
  [[nodiscard]] MpuVerdict check(std::uint64_t addr, AccessKind kind,
                                 Privilege priv) const;

  /// Fault-injection hook: flips an attribute bit of a page register
  /// (0 = readable, 1 = writable, 2 = privilegedOnly).
  void corrupt(std::size_t page, std::uint32_t bit);

 private:
  std::uint64_t words_;
  std::uint64_t wordsPerPage_;
  std::vector<PageAttributes> pages_;
};

}  // namespace socfmea::memsys
