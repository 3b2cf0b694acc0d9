// Textual serialization of decision diagrams.
//
// This is what makes the paper's IP argument concrete: a vendor can ship
// the switching-capacitance ADD of a macro (a black-box discrete function)
// without revealing the gate-level netlist it was derived from.
//
// Format v2 (line oriented, '#' comments allowed):
//   cfpm-dd 2 <add|bdd>
//   vars <n>
//   order <var@level0> <var@level1> ...   # optional; identity when absent
//   nodes <count>
//   <id> T <value>                 # terminal
//   <id> N <var> <then> <else>     # internal node, children appear earlier
//   root <edge>
// Child and root references are edge tokens: a node id, optionally prefixed
// with '!' for a complement edge (NOT of the referenced function). The
// complement prefix is only valid in 'bdd' diagrams, mirroring the in-memory
// restriction of complement edges to the BDD fragment; a serialized BDD has
// the single terminal 1 and encodes logical zero as root !<id-of-1>.
//
// The node structure is canonical only under the recorded variable order
// (sifting may have moved variables); loading a reordered diagram requires
// a fresh manager, whose order is set before any node is built.
#pragma once

#include <iosfwd>

#include "dd/manager.hpp"

namespace cfpm::dd {

/// Writes `f` to `os` (format v2). Throws cfpm::Error on stream failure.
void write_add(std::ostream& os, const Add& f);

/// Writes `f` to `os` (format v2, complement-edge tokens allowed).
/// Throws cfpm::Error on stream failure.
void write_bdd(std::ostream& os, const Bdd& f);

/// Reads an ADD (v2 'add') into `mgr` (which must have at least the
/// serialized variable count). Throws cfpm::ParseError on malformed input.
Add read_add(std::istream& is, DdManager& mgr);

/// Reads a BDD (v2 'bdd') into `mgr`. Throws cfpm::ParseError on malformed
/// input.
Bdd read_bdd(std::istream& is, DdManager& mgr);

}  // namespace cfpm::dd
