// Circuit netlist representation: passive RLC elements, independent
// current-source excitations, mutual inductive couplings, and multi-terminal
// ports.
//
// Node 0 is the datum (ground) node; nodes are dense integers 0..node_count-1.
// MNA unknown k corresponds to node k+1 (the datum column is omitted from
// the adjacency matrix, Section 2.1 of the paper).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"

namespace sympvl {

/// A two-terminal passive element or source between nodes n1 (source/+) and
/// n2 (destination/−), following the paper's adjacency-matrix direction
/// convention (+1 at the source node, −1 at the destination node).
struct Resistor {
  std::string name;
  Index n1 = 0, n2 = 0;
  double resistance = 0.0;
};

struct Capacitor {
  std::string name;
  Index n1 = 0, n2 = 0;
  double capacitance = 0.0;
};

struct Inductor {
  std::string name;
  Index n1 = 0, n2 = 0;
  double inductance = 0.0;
};

/// Inductive coupling between two inductors (by index into the inductor
/// list): mutual inductance M = k·√(L₁L₂), |k| < 1.
struct MutualInductance {
  std::string name;
  Index l1 = 0, l2 = 0;
  double coupling = 0.0;
};

/// Independent current source driving `value` amperes from n1 to n2
/// (through the source), i.e. injecting current into n2.
struct CurrentSource {
  std::string name;
  Index n1 = 0, n2 = 0;
  double value = 0.0;
};

/// An observation/excitation terminal pair for the multi-port transfer
/// function Z(s); column of B is e(n1) − e(n2).
struct Port {
  std::string name;
  Index n1 = 0, n2 = 0;  // n2 is usually the datum node 0
};

/// Passive multi-terminal circuit.
class Netlist {
 public:
  Netlist() = default;

  /// Ensures nodes 0..n-1 exist.
  void ensure_nodes(Index n) {
    if (n > node_count_) node_count_ = n;
  }

  /// Allocates and returns a fresh node index.
  Index new_node() { return node_count_++; }

  /// Pre-sizes the element stores. Bulk generators (10⁵–10⁶ elements)
  /// call this with exact counts so assembly never growth-copies a
  /// multi-million-element vector.
  void reserve(Index resistors, Index capacitors = 0, Index ports = 0,
               Index inductors = 0) {
    resistors_.reserve(static_cast<size_t>(resistors));
    capacitors_.reserve(static_cast<size_t>(capacitors));
    ports_.reserve(static_cast<size_t>(ports));
    inductors_.reserve(static_cast<size_t>(inductors));
  }

  Index add_resistor(Index n1, Index n2, double r, std::string name = {});
  Index add_capacitor(Index n1, Index n2, double c, std::string name = {});
  Index add_inductor(Index n1, Index n2, double l, std::string name = {});
  Index add_mutual(Index l1, Index l2, double k, std::string name = {});
  Index add_current_source(Index n1, Index n2, double value, std::string name = {});
  Index add_port(Index n1, Index n2 = 0, std::string name = {});

  Index node_count() const { return node_count_; }
  const std::vector<Resistor>& resistors() const { return resistors_; }
  const std::vector<Capacitor>& capacitors() const { return capacitors_; }
  const std::vector<Inductor>& inductors() const { return inductors_; }
  const std::vector<MutualInductance>& mutuals() const { return mutuals_; }
  const std::vector<CurrentSource>& current_sources() const { return sources_; }
  const std::vector<Port>& ports() const { return ports_; }

  Index port_count() const { return static_cast<Index>(ports_.size()); }

  /// Total passive element count (R + L + C + K).
  Index element_count() const {
    return static_cast<Index>(resistors_.size() + capacitors_.size() +
                              inductors_.size() + mutuals_.size());
  }

  bool has_resistors() const { return !resistors_.empty(); }
  bool has_capacitors() const { return !capacitors_.empty(); }
  bool has_inductors() const { return !inductors_.empty(); }

  /// Circuit class per Section 2.2 of the paper.
  bool is_rc() const { return !has_inductors(); }
  bool is_rl() const { return !has_capacitors(); }
  bool is_lc() const { return !has_resistors(); }

  /// Looks up a port by name; empty optional when absent.
  std::optional<Index> find_port(const std::string& name) const;

  /// Validates node indices, positive element values, |k| < 1, and port
  /// sanity; throws sympvl::Error describing the first problem found.
  /// Builds no string unless a check fails.
  void validate() const;

  /// Permits negative-valued R and C elements. Section 6 of the paper:
  /// synthesized reduced circuits may contain negative elements without
  /// affecting stability or accuracy when the reduced model is passive.
  void set_allow_negative(bool allow) { allow_negative_ = allow; }
  bool allow_negative() const { return allow_negative_; }

 private:
  void check_node(Index n, const char* what) const;

  Index node_count_ = 1;  // node 0 (datum) always exists
  bool allow_negative_ = false;
  std::vector<Resistor> resistors_;
  std::vector<Capacitor> capacitors_;
  std::vector<Inductor> inductors_;
  std::vector<MutualInductance> mutuals_;
  std::vector<CurrentSource> sources_;
  std::vector<Port> ports_;
};

}  // namespace sympvl
