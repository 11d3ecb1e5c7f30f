// SEC-DED (39,32) modified-Hamming codec — the coder/decoder of the F-MEM
// block (paper, Section 6: "a SEC-DED algorithm was used with a standard
// modified Hamming architecture").  The v2 architecture additionally folds
// the address into the code ("adding the addresses to the coding, required
// as well by IEC61508") so addressing faults surface as code errors, and
// classifies the syndrome by field ("a distributed syndrome checking
// architecture was implemented to allow a finer error detection, i.e. to
// discriminate if an error is in the code field, or in data field or if it
// was an addressing error").
//
// Code-word layout (39 bits):
//   bits 0..37  = Hamming positions 1..38 (check bits at positions 1,2,4,8,
//                 16,32; the 32 data bits at the remaining positions)
//   bit 38      = overall parity over bits 0..37 (the DED bit)
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace socfmea::memsys {

inline constexpr std::uint32_t kDataBits = 32;
inline constexpr std::uint32_t kCodeBits = 39;
inline constexpr std::uint32_t kCheckBits = 6;  ///< plus the overall parity

/// Decode classification (v2's distributed syndrome check reports the field).
enum class EccStatus : std::uint8_t {
  Ok,               ///< clean word
  CorrectedData,    ///< single error in the data field, corrected
  CorrectedCheck,   ///< single error in a check bit / parity bit, corrected
  DoubleError,      ///< two-bit error detected, uncorrectable
  AddressError,     ///< code inconsistency typical of an addressing fault
};

[[nodiscard]] std::string_view eccStatusName(EccStatus s) noexcept;

struct DecodeResult {
  std::uint32_t data = 0;
  EccStatus status = EccStatus::Ok;
  std::uint8_t syndrome = 0;       ///< 6-bit Hamming syndrome
  bool parityMismatch = false;     ///< overall-parity disagreement
  [[nodiscard]] bool uncorrectable() const noexcept {
    return status == EccStatus::DoubleError ||
           status == EccStatus::AddressError;
  }
};

class HammingCodec {
 public:
  /// `foldAddress` = the v2 "addresses added to the coding" option.
  explicit HammingCodec(bool foldAddress = false) noexcept
      : foldAddress_(foldAddress) {}

  /// Encodes 32 data bits (and, in v2, the word address) into 39 bits.
  [[nodiscard]] std::uint64_t encode(std::uint32_t data,
                                     std::uint64_t addr = 0) const noexcept;

  /// Decodes a 39-bit word read back at `addr`.
  [[nodiscard]] DecodeResult decode(std::uint64_t code,
                                    std::uint64_t addr = 0) const noexcept;

  /// The "code generator section" of the decoder: the 6-bit syndrome and
  /// the overall-parity mismatch, before classification/correction.  Kept
  /// separate so the pipelined decoder can latch it in stage 1 (and so v2's
  /// post-coder checker can verify the latched value).
  struct SyndromeWord {
    std::uint8_t syndrome = 0;
    bool parityMismatch = false;
  };
  [[nodiscard]] SyndromeWord computeSyndrome(std::uint64_t code,
                                             std::uint64_t addr) const noexcept;

  /// The correction/classification section: applies a (possibly latched)
  /// syndrome to a code word.  decode() == applySyndrome(computeSyndrome()).
  [[nodiscard]] DecodeResult applySyndrome(std::uint64_t code,
                                           SyndromeWord sw) const noexcept;

  // ---- structural views (used by the gate-level generator) -----------------

  /// Hamming position (1..38) of data bit d.
  [[nodiscard]] static std::uint32_t dataPosition(std::uint32_t d) noexcept;
  /// Code-word bit index (0..37) of data bit d.
  [[nodiscard]] static std::uint32_t dataBitIndex(std::uint32_t d) noexcept;
  /// Code-word bit index of check bit c (0..5).
  [[nodiscard]] static std::uint32_t checkBitIndex(std::uint32_t c) noexcept;
  /// Data bits covered by check bit c (mask over the 32 data bits).
  [[nodiscard]] static std::uint32_t checkCoverage(std::uint32_t c) noexcept;
  /// 6-bit address-fold value mixed into the check bits in v2.
  [[nodiscard]] static std::uint8_t addressFold(std::uint64_t addr) noexcept;

 private:
  bool foldAddress_;
};

}  // namespace socfmea::memsys
