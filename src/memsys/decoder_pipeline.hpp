// The pipelined decoder (paper, Section 6).  v1: "a pipeline stage in the
// decoder, in order to guarantee the timing closure and to avoid the
// degradation of the memory access time due to the ECC" — but the pipeline
// registers and decoder blocks ranked among the most critical zones.  v2
// rebuilds it: (i) an error checker immediately after the code-generator
// section of the decoder, (ii) a double-redundant error checker after the
// intermediate pipeline stage ("as also in case of no errors directly
// connect the decoder output with the memory data"), (iii) distributed
// syndrome checking for field-level error discrimination.
#pragma once

#include <cstdint>
#include <optional>

#include "memsys/hamming.hpp"

namespace socfmea::memsys {

struct DecoderFeatures {
  bool postCoderChecker = false;   ///< v2 measure (i)
  bool redundantChecker = false;   ///< v2 measure (ii)
  bool distributedSyndrome = false;///< v2 measure (iii)
};

/// Alarm outputs of one decode.
struct DecoderAlarms {
  bool singleCorrected = false;
  bool doubleError = false;
  bool addressError = false;   ///< distributed-syndrome discrimination
  bool coderCheckError = false;///< post-coder checker fired
  bool pipeCheckError = false; ///< redundant post-pipeline checker mismatch

  [[nodiscard]] bool any() const noexcept {
    return singleCorrected || doubleError || addressError || coderCheckError ||
           pipeCheckError;
  }
  [[nodiscard]] bool uncorrectable() const noexcept {
    return doubleError || addressError || pipeCheckError;
  }
};

struct DecodeOutput {
  std::uint32_t data = 0;
  DecoderAlarms alarms;
  bool valid = false;
};

/// Two-stage decoder pipeline: stage 1 latches the raw code word and the
/// partially computed syndrome; stage 2 applies correction and the v2
/// checkers.  Fault-injection hooks corrupt the stage registers exactly
/// where the paper's FMEA found the critical zones.
class DecoderPipeline {
 public:
  DecoderPipeline(const HammingCodec& codec, DecoderFeatures features)
      : codec_(&codec), features_(features) {}

  [[nodiscard]] const DecoderFeatures& features() const noexcept {
    return features_;
  }

  /// Presents a code word (with its address) to stage 1; pass std::nullopt
  /// for an idle slot.
  void present(std::optional<std::uint64_t> code, std::uint64_t addr);

  /// Advances one clock: returns the stage-2 result of the word presented
  /// two calls ago (invalid while the pipe fills).
  DecodeOutput tick();

  // ---- fault-injection hooks -------------------------------------------------

  /// Flips a bit of the stage-1 syndrome register (0..5).
  void corruptStage1Syndrome(std::uint32_t bit);

 private:
  struct Stage1 {
    bool valid = false;
    std::uint64_t code = 0;
    std::uint64_t addr = 0;
    std::uint8_t syndrome = 0;  ///< precomputed in stage 1 (the "code
                                ///< generator section" of the decoder)
    bool parityMismatch = false;
  };
  struct Stage2 {
    bool valid = false;
    std::uint32_t data = 0;
    std::uint64_t code = 0;
    std::uint64_t addr = 0;
    DecoderAlarms alarms;
  };

  const HammingCodec* codec_;
  DecoderFeatures features_;
  Stage1 s1_;
  Stage2 s2_;
  std::optional<std::uint64_t> pendingCode_;
  std::uint64_t pendingAddr_ = 0;
};

}  // namespace socfmea::memsys
