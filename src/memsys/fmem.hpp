// F-MEM (paper, Section 6): "it interfaces the memory array and it hosts the
// coder/decoder and a scrubbing feature, as also the controller to generate
// the corresponding alarms."  Owns the write buffer, the SEC-DED codec, the
// pipelined decoder and the scrubbing engine; schedules one memory operation
// per cycle with bus reads first, buffered writes next, scrub DMA last.
#pragma once

#include <deque>

#include "memsys/alarms.hpp"
#include "memsys/decoder_pipeline.hpp"
#include "memsys/mem_controller.hpp"
#include "memsys/scrubber.hpp"
#include "memsys/write_buffer.hpp"

namespace socfmea::memsys {

struct FMemConfig {
  bool addressInCode = false;   ///< v2: fold the address into the code
  bool wbufParity = false;      ///< v2: parity on the write buffer
  DecoderFeatures decoder;      ///< v2 checker set
};

class FMem {
 public:
  FMem(CodeMemory& mem, const FMemConfig& cfg);

  [[nodiscard]] const FMemConfig& config() const noexcept { return cfg_; }

  // ---- bus-facing (called by the MCE) ---------------------------------------

  [[nodiscard]] bool canAcceptWrite() const { return !wbuf_.full(); }
  /// Queues a write into the write buffer; call only when canAcceptWrite().
  void requestWrite(std::uint64_t addr, std::uint32_t data);

  [[nodiscard]] bool canAcceptRead() const { return !readIssued_; }
  /// Issues a read this cycle; the completion surfaces from tick() after the
  /// memory + decoder-pipeline latency.  In-flight buffered writes are
  /// forwarded.  Call only when canAcceptRead().
  void requestRead(std::uint64_t addr, std::uint64_t tag);

  struct ReadComplete {
    std::uint64_t tag = 0;
    std::uint32_t data = 0;
    bool uncorrectable = false;
  };

  /// One cycle: schedules the memory port, advances the decoder pipeline,
  /// runs the scrub DMA when `busIdle`.  Returns a completed bus read, if
  /// any.
  [[nodiscard]] std::optional<ReadComplete> tick(bool busIdle);

  // ---- observation / fault hooks ----------------------------------------------

  [[nodiscard]] const AlarmCounters& alarms() const noexcept { return alarms_; }
  void clearAlarms() { alarms_ = AlarmCounters{}; }
  [[nodiscard]] WriteBuffer& writeBuffer() noexcept { return wbuf_; }
  [[nodiscard]] DecoderPipeline& pipeline() noexcept { return pipe_; }
  [[nodiscard]] Scrubber& scrubber() noexcept { return scrub_; }
  [[nodiscard]] MemController& controller() noexcept { return ctrl_; }
  [[nodiscard]] const HammingCodec& codec() const noexcept { return codec_; }

 private:
  struct InFlight {
    std::uint64_t tag = 0;
    std::uint64_t addr = 0;
    bool isScrub = false;
    ScrubRequest scrubReq;
    std::optional<std::uint32_t> forwarded;  ///< write-buffer forwarding hit
  };

  FMemConfig cfg_;
  HammingCodec codec_;
  CodeMemory* mem_;
  MemController ctrl_;
  WriteBuffer wbuf_;
  DecoderPipeline pipe_;
  Scrubber scrub_;
  AlarmCounters alarms_;

  bool readIssued_ = false;            ///< a bus read claimed this cycle's slot
  std::optional<std::pair<std::uint64_t, std::uint64_t>> busRead_;  // addr,tag
  std::deque<InFlight> inflight_;      ///< metadata FIFO parallel to the pipe
};

}  // namespace socfmea::memsys
