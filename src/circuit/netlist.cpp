#include "circuit/netlist.hpp"

#include <cmath>

namespace sympvl {

namespace {
std::string auto_name(const char* prefix, size_t k) {
  return std::string(prefix) + std::to_string(k + 1);
}
}  // namespace

void Netlist::check_node(Index n, const char* what) const {
  if (n < 0)
    throw Error(ErrorCode::kInvalidArgument,
                std::string(what) + ": negative node index",
                {.stage = "netlist", .value = double(n)});
}

Index Netlist::add_resistor(Index n1, Index n2, double r, std::string name) {
  check_node(n1, "add_resistor");
  check_node(n2, "add_resistor");
  require(allow_negative_ ? r != 0.0 : r > 0.0, ErrorCode::kInvalidArgument,
          "add_resistor: resistance must be positive (and nonzero)",
          {.stage = "netlist", .value = r});
  require(n1 != n2, ErrorCode::kInvalidArgument,
          "add_resistor: element shorted to itself", {.stage = "netlist"});
  ensure_nodes(std::max(n1, n2) + 1);
  if (name.empty()) name = auto_name("R", resistors_.size());
  resistors_.push_back({std::move(name), n1, n2, r});
  return static_cast<Index>(resistors_.size()) - 1;
}

Index Netlist::add_capacitor(Index n1, Index n2, double c, std::string name) {
  check_node(n1, "add_capacitor");
  check_node(n2, "add_capacitor");
  require(allow_negative_ ? c != 0.0 : c > 0.0, ErrorCode::kInvalidArgument,
          "add_capacitor: capacitance must be positive (and nonzero)",
          {.stage = "netlist", .value = c});
  require(n1 != n2, ErrorCode::kInvalidArgument,
          "add_capacitor: element shorted to itself", {.stage = "netlist"});
  ensure_nodes(std::max(n1, n2) + 1);
  if (name.empty()) name = auto_name("C", capacitors_.size());
  capacitors_.push_back({std::move(name), n1, n2, c});
  return static_cast<Index>(capacitors_.size()) - 1;
}

Index Netlist::add_inductor(Index n1, Index n2, double l, std::string name) {
  check_node(n1, "add_inductor");
  check_node(n2, "add_inductor");
  require(l > 0.0, ErrorCode::kInvalidArgument,
          "add_inductor: inductance must be positive (and nonzero)",
          {.stage = "netlist", .value = l});
  require(n1 != n2, ErrorCode::kInvalidArgument,
          "add_inductor: element shorted to itself", {.stage = "netlist"});
  ensure_nodes(std::max(n1, n2) + 1);
  if (name.empty()) name = auto_name("L", inductors_.size());
  inductors_.push_back({std::move(name), n1, n2, l});
  return static_cast<Index>(inductors_.size()) - 1;
}

Index Netlist::add_mutual(Index l1, Index l2, double k, std::string name) {
  require(l1 != l2, "add_mutual: coupling an inductor with itself");
  require(0 <= l1 && l1 < static_cast<Index>(inductors_.size()) && 0 <= l2 &&
              l2 < static_cast<Index>(inductors_.size()),
          "add_mutual: inductor index out of range");
  require(std::abs(k) < 1.0, "add_mutual: |coupling| must be < 1");
  require(k != 0.0, ErrorCode::kInvalidArgument, "add_mutual: zero coupling",
          {.stage = "netlist"});
  if (name.empty()) name = auto_name("K", mutuals_.size());
  mutuals_.push_back({std::move(name), l1, l2, k});
  return static_cast<Index>(mutuals_.size()) - 1;
}

Index Netlist::add_current_source(Index n1, Index n2, double value,
                                  std::string name) {
  check_node(n1, "add_current_source");
  check_node(n2, "add_current_source");
  require(n1 != n2, "add_current_source: source shorted to itself");
  ensure_nodes(std::max(n1, n2) + 1);
  if (name.empty()) name = auto_name("I", sources_.size());
  sources_.push_back({std::move(name), n1, n2, value});
  return static_cast<Index>(sources_.size()) - 1;
}

Index Netlist::add_port(Index n1, Index n2, std::string name) {
  check_node(n1, "add_port");
  check_node(n2, "add_port");
  require(n1 != n2, ErrorCode::kInvalidArgument,
          "add_port: port terminals coincide", {.stage = "netlist"});
  ensure_nodes(std::max(n1, n2) + 1);
  if (name.empty()) name = auto_name("P", ports_.size());
  ports_.push_back({std::move(name), n1, n2});
  return static_cast<Index>(ports_.size()) - 1;
}

std::optional<Index> Netlist::find_port(const std::string& name) const {
  for (size_t k = 0; k < ports_.size(); ++k)
    if (ports_[k].name == name) return static_cast<Index>(k);
  return std::nullopt;
}

void Netlist::validate() const {
  require(node_count_ >= 1, "validate: no datum node");
  auto in_range = [&](Index n) { return 0 <= n && n < node_count_; };
  // The message is built only when a check fails.
  auto check = [](bool ok, const char* what, const std::string& name) {
    if (!ok) throw Error(std::string("validate: bad ") + what + " " + name);
  };
  for (const auto& r : resistors_)
    check(in_range(r.n1) && in_range(r.n2) &&
              (allow_negative_ ? r.resistance != 0.0 : r.resistance > 0.0),
          "resistor", r.name);
  for (const auto& c : capacitors_)
    check(in_range(c.n1) && in_range(c.n2) &&
              (allow_negative_ ? c.capacitance != 0.0 : c.capacitance > 0.0),
          "capacitor", c.name);
  for (const auto& l : inductors_)
    check(in_range(l.n1) && in_range(l.n2) && l.inductance > 0.0, "inductor",
          l.name);
  for (const auto& m : mutuals_)
    check(m.l1 >= 0 && m.l1 < static_cast<Index>(inductors_.size()) &&
              m.l2 >= 0 && m.l2 < static_cast<Index>(inductors_.size()) &&
              std::abs(m.coupling) < 1.0,
          "mutual coupling", m.name);
  for (const auto& p : ports_)
    check(in_range(p.n1) && in_range(p.n2) && p.n1 != p.n2, "port", p.name);
  for (const auto& s : sources_)
    check(in_range(s.n1) && in_range(s.n2), "source", s.name);
}

}  // namespace sympvl
