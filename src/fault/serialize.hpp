// Name-based fault identity.  Campaign artifacts outlive the Netlist they
// were enumerated from, so faults are keyed by *names* (cell / memory
// instance names, net names where present) rather than ids, which renumber
// freely between design iterations.  Anonymous nets are referenced through
// their driver ("@c:<cell>") or memory read port ("@m:<mem>:<bit>"),
// mirroring the identity rule of netlist::diff.
#pragma once

#include <string>

#include "fault/fault.hpp"

namespace socfmea::fault {

/// Stable, design-independent reference for a net: its name when it has
/// one, otherwise "@c:<driver cell>" / "@m:<memory>:<bit>".
[[nodiscard]] std::string netRef(const netlist::Netlist& nl,
                                 netlist::NetId id);

/// Canonical identity string of a fault: kind, name-based site references
/// and all parameters.  Two faults on two design iterations with equal keys
/// denote the same physical defect.
[[nodiscard]] std::string faultKey(const netlist::Netlist& nl,
                                   const Fault& f);

}  // namespace socfmea::fault
