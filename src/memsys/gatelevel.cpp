#include "memsys/gatelevel.hpp"

#include <algorithm>

#include "memsys/hamming.hpp"

namespace socfmea::memsys {

using netlist::Builder;
using netlist::Bus;
using netlist::kNoNet;
using netlist::NetId;

namespace {

// XOR-tree parity of the data (and optionally address) bits covered by check
// bit `c` — one "code generator" tree, instantiated separately wherever an
// independent checker is required.
NetId checkTree(Builder& b, std::uint32_t c, const Bus& data, const Bus* addr) {
  Bus taps;
  const std::uint32_t cov = HammingCodec::checkCoverage(c);
  for (std::uint32_t d = 0; d < kDataBits; ++d) {
    if (cov & (1u << d)) taps.push_back(data[d]);
  }
  if (addr != nullptr) {
    // Address bits at virtual positions 39+i (see HammingCodec::addressFold).
    for (std::size_t i = 0; i < addr->size(); ++i) {
      const std::uint32_t pos = 39u + (static_cast<std::uint32_t>(i) % 24u);
      if (pos & (1u << c)) taps.push_back((*addr)[i]);
    }
  }
  if (taps.empty()) return b.constNet(false);
  return b.reduceXor(taps);
}

// 39-bit encoder: data -> code word (data bits placed at Hamming positions,
// check bits from the trees, overall parity last).
Bus buildEncoder(Builder& b, const Bus& data, const Bus* addr) {
  Bus code(kCodeBits, kNoNet);
  for (std::uint32_t d = 0; d < kDataBits; ++d) {
    code[HammingCodec::dataBitIndex(d)] = data[d];
  }
  for (std::uint32_t c = 0; c < kCheckBits; ++c) {
    code[HammingCodec::checkBitIndex(c)] = checkTree(b, c, data, addr);
  }
  Bus first38(code.begin(), code.begin() + 38);
  code[38] = b.reduceXor(first38);
  return code;
}

struct SyndromeNets {
  Bus syn;          // 6 bits
  NetId par;        // overall-parity mismatch
};

// Syndrome generator over a stored code word: recompute the check bits from
// the stored data (+ address) and XOR with the stored check bits.
SyndromeNets buildSyndromeGen(Builder& b, const Bus& code, const Bus* addr) {
  Bus data(kDataBits);
  for (std::uint32_t d = 0; d < kDataBits; ++d) {
    data[d] = code[HammingCodec::dataBitIndex(d)];
  }
  SyndromeNets out;
  out.syn.resize(kCheckBits);
  for (std::uint32_t c = 0; c < kCheckBits; ++c) {
    out.syn[c] =
        b.bxor(checkTree(b, c, data, addr), code[HammingCodec::checkBitIndex(c)]);
  }
  Bus first38(code.begin(), code.begin() + 38);
  out.par = b.bxor(b.reduceXor(first38), code[38]);
  return out;
}

// Correction section: for each data bit, flip when the syndrome equals its
// Hamming position and the overall parity flags a single error.
Bus buildCorrector(Builder& b, const Bus& code, const Bus& syn, NetId par) {
  Bus out(kDataBits);
  for (std::uint32_t d = 0; d < kDataBits; ++d) {
    const NetId hit = b.equalConst(syn, HammingCodec::dataPosition(d));
    const NetId flip = b.band(hit, par);
    out[d] = b.bxor(code[HammingCodec::dataBitIndex(d)], flip);
  }
  return out;
}

}  // namespace

GateLevelDesign buildProtectionIp(const GateLevelOptions& opt) {
  GateLevelDesign d;
  d.options = opt;
  d.nl.setName(opt.addressInCode ? "frmem_v2" : "frmem_v1");
  Builder b(d.nl);
  const std::uint32_t A = opt.addrBits;

  // ---- primary inputs --------------------------------------------------------
  d.rst = b.input("rst");
  d.req = b.input("req");
  d.we = b.input("we");
  d.priv = b.input("priv");
  d.addr = b.inputBus("addr", A);
  d.wdata = b.inputBus("wdata", kDataBits);
  d.bistEn = b.input("bist_en");
  // The latent-fault strobe pin exists in EVERY variant (mirroring the
  // workload's unconditional self-test window): gating it on the checker
  // options would re-drive the BIST alarm strobe below from a const cell in
  // v1 and an input cell in v2, making that OR gate a structural diff and
  // pulling its whole read-back cone into the incremental flow's affected
  // set on every v1 -> v1+checker iteration.
  d.chkTest = b.input("chk_test");

  // ---- BIST engine (pattern generator + address counter) ---------------------
  // Muxed in front of the bus-interface registers: when bist_en is high the
  // engine sweeps the address space writing an LFSR pattern and then reading
  // it back, comparing at the decoder output.
  // The three constant cells below are never read: the engine drives every
  // BIST net.  They stay because removing them would renumber every later
  // net and cell, and so change the design hash that stored campaigns are
  // keyed by.
  Bus bistAddr, bistData;
  NetId bistReq = b.constNet(false);
  NetId bistWe = b.constNet(false);
  NetId bistChk = b.constNet(false);
  {
    Builder::Scope s(b, "bist");
    // Phase counter: 2 bits, advances every cycle while enabled; the address
    // counter advances on phase wrap.  Phase 0 issues an access, 1..3 wait
    // out the memory + decoder latency.  (The Q nets are created first so
    // the incrementer can close the loop through the flip-flops.)
    // The BIST sweeps a 16-address window, enough to exercise the engine and
    // the through-path within a workload-sized budget.
    Bus phaseQ(2);
    phaseQ[0] = d.nl.addNet(b.qualify("phase_q0"));
    phaseQ[1] = d.nl.addNet(b.qualify("phase_q1"));
    const Bus phInc = b.incrementer(phaseQ);
    d.nl.addDff(b.qualify("phase_0"), b.band(phInc[0], d.bistEn), phaseQ[0],
                kNoNet, d.rst, false);
    d.nl.addDff(b.qualify("phase_1"), b.band(phInc[1], d.bistEn), phaseQ[1],
                kNoNet, d.rst, false);
    const NetId wrap = b.band(phaseQ[0], phaseQ[1]);  // phase == 3
    // Address counter over the *lower half* of the address space (the BIST
    // stays off the MPU-restricted top pages so a clean run raises no
    // alarms).
    const std::uint32_t C = std::min<std::uint32_t>(4, A - 1);
    Bus cntQ(C);
    for (std::uint32_t i = 0; i < C; ++i) {
      cntQ[i] = d.nl.addNet(b.qualify("cnt_q" + std::to_string(i)));
    }
    Bus cntInc = b.incrementer(cntQ);
    for (std::uint32_t i = 0; i < C; ++i) {
      d.nl.addDff(b.qualify("cnt_" + std::to_string(i)), cntInc[i], cntQ[i],
                  b.band(wrap, d.bistEn), d.rst, false);
    }
    // write-pass flag: one full sweep writing, then reading.
    const NetId passQ = d.nl.addNet(b.qualify("pass_q"));
    const NetId sweepDone = b.band(wrap, b.reduceAnd(cntQ));
    d.nl.addDff(b.qualify("pass"), b.bor(passQ, sweepDone), passQ, d.bistEn,
                d.rst, false);
    // LFSR-ish pattern: derive 32 data bits from the counter by XOR
    // spreading (adjacent counter taps, so no bit degenerates to x^x).
    Bus pat(kDataBits);
    for (std::uint32_t i = 0; i < kDataBits; ++i) {
      pat[i] = ((i / C) % 2 == 0)
                   ? b.bxor(cntQ[i % C], cntQ[(i + 1) % C])
                   : b.bxnor(cntQ[i % C], cntQ[(i + 1) % C]);
    }
    bistAddr = cntQ;
    while (bistAddr.size() < A) bistAddr.push_back(b.constNet(false));
    bistData = pat;
    const NetId issue = b.band(d.bistEn, b.bnor(phaseQ[0], phaseQ[1]));
    bistReq = issue;
    bistWe = b.band(issue, b.bnot(passQ));
    bistChk = b.band(d.bistEn, passQ);
  }

  // ---- MCE bus-interface registers -------------------------------------------
  NetId reqR;
  NetId weR;
  NetId privR;
  Bus addrR;
  Bus wdataR;
  NetId wparR = kNoNet;
  NetId aparR = kNoNet;
  NetId mpuViolation;
  {
    Builder::Scope s(b, "mce");
    const NetId reqIn = b.bor(d.req, bistReq);
    const NetId weIn = b.bmux(bistReq, d.we, bistWe);
    const Bus addrIn = b.muxBus(bistReq, d.addr, bistAddr);
    const Bus dataIn = b.muxBus(bistReq, d.wdata, bistData);
    reqR = b.dff("req_r", reqIn, kNoNet, d.rst, false);
    weR = b.dff("we_r", weIn, reqIn, d.rst, false);
    privR = b.dff("priv_r", b.bor(d.priv, bistReq), reqIn, d.rst, false);
    addrR = b.registerBus("addr_r", addrIn, reqIn, d.rst, 0);
    wdataR = b.registerBus("wdata_r", dataIn, reqIn, d.rst, 0);
    if (opt.wbufParity) {
      // End-to-end write-path parity: generated at bus entry and carried
      // alongside the data, so corruption of the bus-interface registers is
      // caught too (not just the buffer proper).
      wparR = b.dff("wpar_r", b.reduceXor(dataIn), reqIn, d.rst, false);
      aparR = b.dff("apar_r", b.reduceXor(addrIn), reqIn, d.rst, false);
    }

    // Distributed MPU: 4 pages selected by the top two address bits; page
    // attributes live in configuration registers (hold their value; reset
    // loads the default image: pages 0..2 RW any-privilege, page 3
    // read-only & privileged).
    Builder::Scope s2(b, "mpu");
    const NetId pageHi = addrR[A - 1];
    const NetId pageLo = addrR[A - 2];
    Bus pageSel(4);
    pageSel[0] = b.bnor(pageHi, pageLo);
    pageSel[1] = b.band(b.bnot(pageHi), pageLo);
    pageSel[2] = b.band(pageHi, b.bnot(pageLo));
    pageSel[3] = b.band(pageHi, pageLo);
    Bus wrViol(4);
    Bus privViol(4);
    for (int p = 0; p < 4; ++p) {
      const bool writable = p != 3;
      const bool privOnly = p == 3;
      const std::string pn = "page" + std::to_string(p);
      // Attribute registers (d = q: static configuration, reset-loaded).
      const NetId wq = d.nl.addNet(b.qualify(pn + "_w_q"));
      d.nl.addDff(b.qualify(pn + "_w"), wq, wq, kNoNet, d.rst, writable);
      const NetId pq = d.nl.addNet(b.qualify(pn + "_p_q"));
      d.nl.addDff(b.qualify(pn + "_p"), pq, pq, kNoNet, d.rst, privOnly);
      wrViol[p] = b.band(pageSel[p], b.band(weR, b.bnot(wq)));
      privViol[p] = b.band(pageSel[p], b.band(pq, b.bnot(privR)));
    }
    mpuViolation = b.bor(b.reduceOr(wrViol), b.reduceOr(privViol));
  }
  const NetId grant = b.band(reqR, b.bnot(mpuViolation));
  const NetId alarmMpuW = b.band(reqR, mpuViolation);

  // ---- write buffer (one entry) ------------------------------------------------
  NetId wbValid;
  Bus wbAddr;
  Bus wbData;
  NetId wbufParityErr = b.constNet(false);
  {
    Builder::Scope s(b, "wbuf");
    const NetId load = b.band(grant, weR);
    wbValid = b.dff("valid", load, kNoNet, d.rst, false);
    wbAddr = b.registerBus("addr", addrR, load, d.rst, 0);
    wbData = b.registerBus("data", wdataR, load, d.rst, 0);
    if (opt.wbufParity) {
      // Carry the entry-point parity, recompute at the drain, compare; the
      // chk_test strobe inverts one comparator leg (latent-fault test).
      const NetId pa = b.dff("par_addr", aparR, load, d.rst, false);
      const NetId pd = b.dff("par_data", wparR, load, d.rst, false);
      const NetId paNow = b.bxor(b.reduceXor(wbAddr), d.chkTest);
      const NetId pdNow = b.bxor(b.reduceXor(wbData), d.chkTest);
      wbufParityErr = b.band(
          wbValid, b.bor(b.bxor(pa, paNow), b.bxor(pd, pdNow)));
    }
  }

  // ---- encoder -------------------------------------------------------------------
  Bus codeW;
  {
    Builder::Scope s(b, "enc");
    codeW = buildEncoder(b, wbData, opt.addressInCode ? &wbAddr : nullptr);
  }

  // ---- memory port scheduling + macro ---------------------------------------------
  // Write drain has priority; reads wait one cycle behind a drain.
  const NetId rdReq = b.band(grant, b.bnot(weR));
  const NetId rdIssue = b.band(rdReq, b.bnot(wbValid));
  Bus memAddr = b.muxBus(wbValid, addrR, wbAddr);
  Bus memRdata(kCodeBits);
  {
    Builder::Scope s(b, "mem");
    for (std::uint32_t i = 0; i < kCodeBits; ++i) {
      memRdata[i] = d.nl.addNet(b.qualify("rdata_" + std::to_string(i)));
    }
    netlist::MemoryInst m;
    m.name = "mem/array";
    m.addrBits = A;
    m.dataBits = kCodeBits;
    m.addr = memAddr;
    m.wdata = codeW;
    m.rdata = memRdata;
    m.writeEnable = wbValid;
    d.nl.addMemory(std::move(m));
  }

  // ---- read-address / valid pipeline ("registers involved in addresses
  //      latching" — a v1 criticality hot spot) --------------------------------------
  NetId rv1;
  Bus ra1;
  {
    Builder::Scope s(b, "ctrl");
    rv1 = b.dff("rd_valid", rdIssue, kNoNet, d.rst, false);
    ra1 = b.registerBus("rd_addr", addrR, rdIssue, d.rst, 0);
  }

  // ---- decoder stage 1: syndrome generator + pipeline registers ---------------------
  NetId s1Valid;
  NetId s1Par;
  Bus s1Code;
  Bus s1Syn;
  Bus s1Addr;
  {
    Builder::Scope s(b, "dec");
    const SyndromeNets sg =
        buildSyndromeGen(b, memRdata, opt.addressInCode ? &ra1 : nullptr);
    s1Valid = b.dff("s1_valid", rv1, kNoNet, d.rst, false);
    s1Code = b.registerBus("s1_code", memRdata, rv1, d.rst, 0);
    s1Syn = b.registerBus("s1_syn", sg.syn, rv1, d.rst, 0);
    s1Par = b.dff("s1_par", sg.par, rv1, d.rst, false);
    s1Addr = b.registerBus("s1_addr", ra1, rv1, d.rst, 0);
  }

  // ---- decoder stage 2: correction, classification, v2 checkers ---------------------
  Bus dataOut;
  NetId alarmSingleW;
  NetId alarmDoubleW;
  NetId alarmAddrW = b.constNet(false);
  NetId alarmCoderW = b.constNet(false);
  NetId alarmPipeW = b.constNet(false);
  {
    Builder::Scope s(b, "dec");
    dataOut = buildCorrector(b, s1Code, s1Syn, s1Par);

    const NetId synNz = b.reduceOr(s1Syn);
    const NetId singleW = b.band(synNz, s1Par);
    const NetId parOnly = b.band(b.bnot(synNz), s1Par);
    const NetId evenErr = b.band(synNz, b.bnot(s1Par));
    alarmSingleW = b.band(s1Valid, b.bor(singleW, parOnly));
    if (opt.distributedSyndrome) {
      // Field discrimination: parity-consistent nonzero syndromes carry the
      // wrong-address signature (the address participates in the code).
      alarmAddrW = b.band(s1Valid, evenErr);
      alarmDoubleW = b.constNet(false);
    } else {
      alarmDoubleW = b.band(s1Valid, evenErr);
    }

    if (opt.postCoderChecker) {
      // Independent second syndrome generator checks the latched one.
      Builder::Scope s2(b, "coderchk");
      const SyndromeNets sg2 =
          buildSyndromeGen(b, s1Code, opt.addressInCode ? &s1Addr : nullptr);
      // Latent-fault test strobe inverts one comparator *leg* so every
      // compare slice (and the OR tree behind it) can toggle fault-free.
      Bus leg(kCheckBits);
      for (std::uint32_t i = 0; i < kCheckBits; ++i) {
        leg[i] = b.bxor(sg2.syn[i], d.chkTest);
      }
      Bus diff = b.xorBus(leg, s1Syn);
      const NetId synDiff = b.reduceOr(diff);
      const NetId parDiff = b.bxor(b.bxor(sg2.par, d.chkTest), s1Par);
      alarmCoderW = b.band(s1Valid, b.bor(synDiff, parDiff));
    }
    if (opt.redundantChecker) {
      // Double-redundant correction path + comparator; in the no-error case
      // the raw memory data bypasses the correction muxes.
      Builder::Scope s2(b, "redchk");
      const Bus dataOut2 = buildCorrector(b, s1Code, s1Syn, s1Par);
      Bus cmp(kDataBits);
      for (std::uint32_t i = 0; i < kDataBits; ++i) {
        // The strobe inverts the redundant leg (latent-fault test).
        cmp[i] = b.bxor(dataOut[i], b.bxor(dataOut2[i], d.chkTest));
      }
      alarmPipeW = b.band(s1Valid, b.reduceOr(cmp));
      Bus rawData(kDataBits);
      for (std::uint32_t i = 0; i < kDataBits; ++i) {
        rawData[i] = s1Code[HammingCodec::dataBitIndex(i)];
      }
      dataOut = b.muxBus(synNz, rawData, dataOut2);
    }
  }

  // ---- BIST read-back comparator ------------------------------------------------
  NetId alarmBistW = b.constNet(false);  // never read; kept like the above
  {
    Builder::Scope s(b, "bist");
    // Expected pattern regenerated from the latched read address (the BIST
    // counter spans the lower address bits only).
    const std::uint32_t C = std::min<std::uint32_t>(4, A - 1);
    Bus exp(kDataBits);
    for (std::uint32_t i = 0; i < kDataBits; ++i) {
      exp[i] = ((i / C) % 2 == 0)
                   ? b.bxor(s1Addr[i % C], s1Addr[(i + 1) % C])
                   : b.bxnor(s1Addr[i % C], s1Addr[(i + 1) % C]);
    }
    Bus diff(kDataBits);
    for (std::uint32_t i = 0; i < kDataBits; ++i) {
      diff[i] = b.bxor(exp[i], dataOut[i]);
    }
    const NetId chkQ = b.dff("chk_d1", b.dff("chk_d0", bistChk, kNoNet, d.rst,
                                             false),
                             kNoNet, d.rst, false);
    alarmBistW = b.band(b.band(chkQ, s1Valid), b.reduceOr(diff));
    // Latent-fault test: the strobe proves the BIST alarm path alive.
    alarmBistW = b.bor(alarmBistW, d.chkTest);
  }

  // ---- output registers + primary outputs ------------------------------------------
  {
    Builder::Scope s(b, "out");
    const Bus rdataR = b.registerBus("rdata_r", dataOut, s1Valid, d.rst, 0);
    const NetId rvalidR = b.dff("rvalid_r", s1Valid, kNoNet, d.rst, false);
    b.outputBus("rdata", rdataR);
    b.output("rvalid", rvalidR);
    b.output("ready", b.bnot(wbValid));

    // v2 "monitored outputs": a shadow copy of the output register and a
    // continuous comparator — register faults on the very last stage are
    // otherwise invisible to every upstream checker.
    NetId alarmOutW = b.constNet(false);
    if (opt.monitoredOutputs) {
      const Bus shadow = b.registerBus("rdata_mon", dataOut, s1Valid, d.rst, 0);
      Bus cmp(kDataBits);
      for (std::uint32_t i = 0; i < kDataBits; ++i) {
        // The strobe inverts the shadow leg (latent-fault test).
        cmp[i] = b.bxor(rdataR[i], b.bxor(shadow[i], d.chkTest));
      }
      alarmOutW = b.band(rvalidR, b.reduceOr(cmp));
    }

    const auto alarmOut = [&](const char* name, NetId w) {
      const NetId r = b.dff(std::string("alarm_") + name + "_r", w, kNoNet,
                            d.rst, false);
      b.output(std::string("alarm_") + name, r);
      d.alarmNames.push_back(std::string("alarm_") + name);
    };
    alarmOut("mpu", alarmMpuW);
    alarmOut("single", alarmSingleW);
    alarmOut("double", alarmDoubleW);
    if (opt.distributedSyndrome) alarmOut("addr", alarmAddrW);
    if (opt.postCoderChecker) alarmOut("coder", alarmCoderW);
    if (opt.redundantChecker) alarmOut("pipe", alarmPipeW);
    if (opt.wbufParity) alarmOut("wbuf", wbufParityErr);
    if (opt.monitoredOutputs) alarmOut("out", alarmOutW);
    alarmOut("bist", alarmBistW);
  }

  d.nl.check();
  return d;
}

bool applyProtectionEdit(std::string_view edit, GateLevelOptions& o) {
  if (edit == "none") return true;
  if (edit == "wbuf-parity") {
    o.wbufParity = true;
  } else if (edit == "post-coder") {
    o.postCoderChecker = true;
  } else if (edit == "redundant-checker") {
    o.redundantChecker = true;
  } else if (edit == "addr-in-code") {
    o.addressInCode = true;
  } else if (edit == "v2") {
    o = GateLevelOptions::v2();
  } else {
    return false;
  }
  return true;
}

}  // namespace socfmea::memsys
