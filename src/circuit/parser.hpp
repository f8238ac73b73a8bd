// SPICE-subset netlist reader and writer.
//
// Supported cards (case-insensitive, '*' comments, engineering suffixes):
//   R<name> n1 n2 value            resistor
//   C<name> n1 n2 value            capacitor
//   L<name> n1 n2 value            inductor
//   K<name> Lname1 Lname2 k        mutual inductive coupling
//   I<name> n1 n2 value            independent current source
//   .port <name> n1 [n2]           terminal pair exposed in Z(s) (top level)
//   .subckt <name> pin1 [pin2 …]   hierarchical definition
//   .ends [name]                   end of definition
//   X<name> n1 … nk <subname>      subcircuit instance (flattened on parse;
//                                  internal nodes become "<inst>.<node>")
//   .end                           optional terminator
//
// Node identifiers are arbitrary tokens; "0" and "gnd" map to the datum
// node. Nodes are numbered in order of first appearance, and an R, C, L
// or I card names its n2 before its n1 (DESIGN.md §5.12). The writer
// emits the same dialect, so write→parse round-trips.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "circuit/netlist.hpp"

namespace sympvl {

/// Parses a netlist from text. Throws sympvl::Error on malformed input;
/// an error raised by a card names its line (in the message and in the
/// context's `index`).
Netlist parse_netlist(std::string_view text);

/// Reads the whole stream, then parses it as text.
Netlist parse_netlist(std::istream& in);

/// Reads the whole file, then parses it as text.
Netlist parse_netlist_file(const std::string& path);

/// Serializes `netlist` in the dialect above (nodes as integers, datum "0").
std::string write_netlist(const Netlist& netlist, const std::string& title = "");

/// Wraps a netlist as a reusable `.subckt` block whose pins are the
/// netlist's ports (each must be ground-referenced). This is how a
/// SyMPVL-synthesized reduced circuit (Section 6) is handed to an existing
/// circuit simulator.
std::string write_subckt(const Netlist& netlist, const std::string& name,
                         const std::string& title = "");

/// Parses an engineering-notation value: 4.7k, 100n, 2meg, 1e-12, 3p...
/// Recognized suffixes: f p n u m k meg g t (SPICE semantics, case
/// insensitive). Throws on malformed numbers. Accepts and rejects exactly
/// what std::stod followed by those suffixes does, with stod's bits.
double parse_value(std::string_view token);

}  // namespace sympvl
