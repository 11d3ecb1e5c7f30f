#include "memsys/decoder_pipeline.hpp"

namespace socfmea::memsys {

void DecoderPipeline::present(std::optional<std::uint64_t> code,
                              std::uint64_t addr) {
  pendingCode_ = code;
  pendingAddr_ = addr;
}

DecodeOutput DecoderPipeline::tick() {
  // Deliver the finished stage-2 word.
  DecodeOutput out;
  out.valid = s2_.valid;
  out.data = s2_.data;
  out.alarms = s2_.alarms;

  // Stage 2: correction + v2 checkers, consuming the stage-1 registers.
  Stage2 next2;
  next2.valid = s1_.valid;
  if (s1_.valid) {
    next2.code = s1_.code;
    next2.addr = s1_.addr;

    // The production correction path uses the *latched* syndrome register —
    // a fault there miscorrects silently in v1.
    const DecodeResult latched = codec_->applySyndrome(
        s1_.code, {s1_.syndrome, s1_.parityMismatch});
    next2.data = latched.data;
    DecoderAlarms& a = next2.alarms;
    switch (latched.status) {
      case EccStatus::Ok:
        break;
      case EccStatus::CorrectedData:
      case EccStatus::CorrectedCheck:
        a.singleCorrected = true;
        break;
      case EccStatus::DoubleError:
        a.doubleError = true;
        break;
      case EccStatus::AddressError:
        a.addressError = true;
        break;
    }

    // v2 (i): post-coder checker — recompute the syndrome combinationally
    // and compare against the latched register, covering faults in the
    // decoder's code-generator section and in the stage-1 registers.
    const HammingCodec::SyndromeWord fresh =
        codec_->computeSyndrome(s1_.code, s1_.addr);
    if (features_.postCoderChecker) {
      a.coderCheckError = fresh.syndrome != s1_.syndrome ||
                          fresh.parityMismatch != s1_.parityMismatch;
    }

    // v2 (ii): double-redundant checker after the pipeline stage; in the
    // no-error case the decoder output is connected directly to the memory
    // data, bypassing the correction muxes.
    if (features_.redundantChecker) {
      const DecodeResult reference = codec_->applySyndrome(s1_.code, fresh);
      if (reference.data != latched.data ||
          reference.status != latched.status) {
        a.pipeCheckError = true;
        next2.data = reference.data;  // the checked path wins
      }
      if (reference.status == EccStatus::Ok) next2.data = reference.data;
    }

    // v1 has no field discrimination: address errors report as double.
    if (!features_.distributedSyndrome && a.addressError) {
      a.addressError = false;
      a.doubleError = true;
    }
  }
  s2_ = next2;

  // Stage 1: latch the incoming word and its syndrome.
  Stage1 next1;
  if (pendingCode_.has_value()) {
    next1.valid = true;
    next1.code = *pendingCode_;
    next1.addr = pendingAddr_;
    const auto sw = codec_->computeSyndrome(next1.code, next1.addr);
    next1.syndrome = sw.syndrome;
    next1.parityMismatch = sw.parityMismatch;
  }
  s1_ = next1;
  pendingCode_.reset();
  return out;
}

void DecoderPipeline::corruptStage1Syndrome(std::uint32_t bit) {
  if (s1_.valid && bit < kCheckBits) {
    s1_.syndrome = static_cast<std::uint8_t>(s1_.syndrome ^ (1u << bit));
  }
}

}  // namespace socfmea::memsys
