#include "circuit/parser.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <random>
#include <sstream>

#include "circuit/mna.hpp"
#include "gen/package.hpp"
#include "gen/peec.hpp"
#include "gen/power_grid.hpp"
#include "gen/random_circuit.hpp"
#include "gen/rc_interconnect.hpp"
#include "obs/memstat.hpp"
#include "sim/ac.hpp"

// Process RSS means nothing under a sanitizer's shadow memory.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SYMPVL_PARSER_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SYMPVL_PARSER_SANITIZED 1
#endif
#endif

namespace sympvl {
namespace {

TEST(ParseValue, PlainNumbers) {
  EXPECT_DOUBLE_EQ(parse_value("10"), 10.0);
  EXPECT_DOUBLE_EQ(parse_value("4.7"), 4.7);
  EXPECT_DOUBLE_EQ(parse_value("1e-12"), 1e-12);
  EXPECT_DOUBLE_EQ(parse_value("-3.5e2"), -350.0);
}

TEST(ParseValue, EngineeringSuffixes) {
  EXPECT_DOUBLE_EQ(parse_value("1k"), 1e3);
  EXPECT_DOUBLE_EQ(parse_value("2.2K"), 2.2e3);
  EXPECT_DOUBLE_EQ(parse_value("1meg"), 1e6);
  EXPECT_DOUBLE_EQ(parse_value("1MEG"), 1e6);
  EXPECT_DOUBLE_EQ(parse_value("5m"), 5e-3);
  EXPECT_DOUBLE_EQ(parse_value("3u"), 3e-6);
  EXPECT_DOUBLE_EQ(parse_value("7n"), 7e-9);
  EXPECT_DOUBLE_EQ(parse_value("2p"), 2e-12);
  EXPECT_DOUBLE_EQ(parse_value("1f"), 1e-15);
  EXPECT_DOUBLE_EQ(parse_value("1g"), 1e9);
  EXPECT_DOUBLE_EQ(parse_value("1t"), 1e12);
}

TEST(ParseValue, UnitTailsIgnored) {
  EXPECT_DOUBLE_EQ(parse_value("10pF"), 10e-12);
  EXPECT_DOUBLE_EQ(parse_value("2kOhm"), 2e3);
}

TEST(ParseValue, Malformed) {
  EXPECT_THROW(parse_value("abc"), Error);
  EXPECT_THROW(parse_value(""), Error);
  EXPECT_THROW(parse_value("1x"), Error);
}

TEST(Parser, SimpleRcNetlist) {
  const Netlist nl = parse_netlist(R"(
* RC divider
R1 in mid 1k
R2 mid 0 1k
C1 mid gnd 10p
.port in in
.end
)");
  EXPECT_EQ(nl.resistors().size(), 2u);
  EXPECT_EQ(nl.capacitors().size(), 1u);
  EXPECT_EQ(nl.port_count(), 1);
  EXPECT_DOUBLE_EQ(nl.resistors()[0].resistance, 1000.0);
  EXPECT_DOUBLE_EQ(nl.capacitors()[0].capacitance, 1e-11);
}

TEST(Parser, GndAliasesToDatum) {
  const Netlist nl = parse_netlist("R1 a gnd 5\nR2 b 0 5\n.port p a\n");
  EXPECT_EQ(nl.resistors()[0].n2, 0);
  EXPECT_EQ(nl.resistors()[1].n2, 0);
}

TEST(Parser, MutualInductance) {
  const Netlist nl = parse_netlist(R"(
L1 a 0 1n
L2 b 0 2n
K12 L1 L2 0.5
.port p a
)");
  ASSERT_EQ(nl.mutuals().size(), 1u);
  EXPECT_EQ(nl.mutuals()[0].l1, 0);
  EXPECT_EQ(nl.mutuals()[0].l2, 1);
  EXPECT_DOUBLE_EQ(nl.mutuals()[0].coupling, 0.5);
}

TEST(Parser, CurrentSource) {
  const Netlist nl = parse_netlist("I1 0 a 1m\nR1 a 0 50\n.port p a\n");
  ASSERT_EQ(nl.current_sources().size(), 1u);
  EXPECT_DOUBLE_EQ(nl.current_sources()[0].value, 1e-3);
}

TEST(Parser, CommentsAndBlankLines) {
  const Netlist nl = parse_netlist(R"(
* full-line comment
; also a comment

R1 a 0 10 * trailing comment
.port p a
)");
  EXPECT_EQ(nl.resistors().size(), 1u);
}

TEST(Parser, ErrorsCarryLineNumbers) {
  try {
    parse_netlist("R1 a 0 10\nXbogus 1 2 3\n");
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Parser, BadCardArity) {
  EXPECT_THROW(parse_netlist("R1 a 0\n"), Error);
  EXPECT_THROW(parse_netlist("K1 L1 L2 0.5\n"), Error);  // unknown inductors
  EXPECT_THROW(parse_netlist(".port\n"), Error);
}

TEST(Parser, StopsAtEnd) {
  const Netlist nl = parse_netlist("R1 a 0 1\n.port p a\n.end\nR2 b 0 1\n");
  EXPECT_EQ(nl.resistors().size(), 1u);
}

TEST(Parser, SubcktFlattening) {
  // One RC section defined once, instanced twice in series.
  const Netlist nl = parse_netlist(R"(
.subckt rcsec in out
Rs in out 100
Cs out 0 1p
.ends rcsec
X1 a b rcsec
X2 b c rcsec
Rload c 0 1k
.port drive a
)");
  EXPECT_EQ(nl.resistors().size(), 3u);
  EXPECT_EQ(nl.capacitors().size(), 2u);
  // Flattened names carry the instance prefix.
  EXPECT_EQ(nl.resistors()[0].name, "x1.Rs");
  EXPECT_EQ(nl.capacitors()[1].name, "x2.Cs");

  // Same transfer function as the hand-flattened circuit.
  Netlist hand;
  hand.add_resistor(1, 2, 100.0);
  hand.add_capacitor(2, 0, 1e-12);
  hand.add_resistor(2, 3, 100.0);
  hand.add_capacitor(3, 0, 1e-12);
  hand.add_resistor(3, 0, 1000.0);
  hand.add_port(1, 0);
  for (double f : {1e7, 1e9}) {
    const Complex s(0.0, 2.0 * M_PI * f);
    const Complex za = ac_z_matrix(build_mna(nl), s)(0, 0);
    const Complex zb = ac_z_matrix(build_mna(hand), s)(0, 0);
    EXPECT_NEAR(std::abs(za - zb), 0.0, 1e-10 * std::abs(zb)) << f;
  }
}

TEST(Parser, SubcktGroundPin) {
  // A pin wired to ground in the parent must land on the datum node.
  const Netlist nl = parse_netlist(R"(
.subckt load a ref
Rl a ref 50
.ends
X1 in 0 load
C1 in 0 1p
.port p in
)");
  ASSERT_EQ(nl.resistors().size(), 1u);
  EXPECT_EQ(nl.resistors()[0].n2, 0);
  EXPECT_EQ(nl.node_count(), 2);  // only "in" beyond the datum
}

TEST(Parser, NestedSubcktInstances) {
  const Netlist nl = parse_netlist(R"(
.subckt unit a b
Ru a b 10
.ends
.subckt pair x y
X1 x m unit
X2 m y unit
.ends
Xtop in out pair
Rterm out 0 100
C1 in 0 1p
.port p in
)");
  EXPECT_EQ(nl.resistors().size(), 3u);
  // DC resistance: 10 + 10 + 100.
  const CMat z = ac_z_matrix(build_mna(nl), Complex(0.0, 0.0));
  EXPECT_NEAR(z(0, 0).real(), 120.0, 1e-9);
}

TEST(Parser, SubcktWithMutualInductors) {
  const Netlist nl = parse_netlist(R"(
.subckt xfmr p s
L1 p 0 1n
L2 s 0 4n
K1 L1 L2 0.5
.ends
Xa in out xfmr
Rload out 0 50
.port drive in
)");
  ASSERT_EQ(nl.mutuals().size(), 1u);
  EXPECT_DOUBLE_EQ(nl.mutuals()[0].coupling, 0.5);
}

TEST(Parser, SubcktErrors) {
  EXPECT_THROW(parse_netlist("X1 a b missing\n"), Error);  // unknown def
  EXPECT_THROW(parse_netlist(".subckt s a\nRx a 0 1\n"), Error);  // unterminated
  EXPECT_THROW(parse_netlist(".subckt s a\n.ends t\n"), Error);  // name mismatch
  EXPECT_THROW(parse_netlist(R"(
.subckt s a
.subckt t b
.ends
.ends
)"),
               Error);  // nested definitions
  EXPECT_THROW(parse_netlist(R"(
.subckt s a b
Rs a b 1
.ends
X1 n1 s
.port p n1
)"),
               Error);  // wrong pin count
  EXPECT_THROW(parse_netlist(R"(
.subckt s a
.port p a
.ends
X1 n1 s
)"),
               Error);  // .port inside a subckt
}

TEST(Parser, WriteSubcktRoundTrip) {
  // Export a small netlist as a subckt, instance it behind a resistor and
  // verify the composite transfer function.
  Netlist block;
  block.add_resistor(1, 2, 100.0);
  block.add_capacitor(2, 0, 2e-12);
  block.add_resistor(2, 0, 400.0);
  block.add_port(1, 0, "in");
  const std::string sub = write_subckt(block, "blk", "exported block");

  const std::string full = sub + R"(
Rdrv top 1 50
X1 1 blk
C0 top 0 1f
.port p top
)";
  // X pins: block has one port at node "1" -> pin name "1".
  const Netlist nl = parse_netlist(full);
  const Complex z0 = ac_z_matrix(build_mna(nl), Complex(0.0, 0.0))(0, 0);
  EXPECT_NEAR(z0.real(), 50.0 + 100.0 + 400.0, 1e-8);
}

TEST(Parser, WriteSubcktRejectsFloatingPorts) {
  Netlist block;
  block.add_resistor(1, 2, 10.0);
  block.add_capacitor(1, 0, 1e-12);
  block.add_capacitor(2, 0, 1e-12);
  block.add_port(1, 2);  // not ground-referenced
  EXPECT_THROW(write_subckt(block, "b"), Error);
}

TEST(Parser, WriteParseRoundTripPreservesTransferFunction) {
  Netlist nl;
  nl.add_resistor(1, 2, 100.0);
  nl.add_resistor(2, 0, 400.0);
  nl.add_capacitor(2, 0, 2e-12);
  const Index l1 = nl.add_inductor(1, 3, 1e-9);
  const Index l2 = nl.add_inductor(3, 0, 2e-9);
  nl.add_mutual(l1, l2, 0.3);
  nl.add_port(1, 0, "in");

  const std::string text = write_netlist(nl, "round trip");
  const Netlist back = parse_netlist(text);
  EXPECT_EQ(back.resistors().size(), nl.resistors().size());
  EXPECT_EQ(back.inductors().size(), nl.inductors().size());
  EXPECT_EQ(back.mutuals().size(), nl.mutuals().size());

  // The transfer function must be identical even if node numbering moved.
  const MnaSystem s1 = build_mna(nl, MnaForm::kGeneral);
  const MnaSystem s2 = build_mna(back, MnaForm::kGeneral);
  for (double f : {1e6, 1e8, 1e10}) {
    const Complex s(0.0, 2.0 * M_PI * f);
    const CMat z1 = ac_z_matrix(s1, s);
    const CMat z2 = ac_z_matrix(s2, s);
    EXPECT_NEAR(std::abs(z1(0, 0) - z2(0, 0)), 0.0,
                1e-9 * std::abs(z1(0, 0)));
  }
}


// ---- Node numbering ---------------------------------------------------------

TEST(Parser, NodeNumberingFollowsFirstAppearanceSecondNodeFirst) {
  // Nodes are numbered in order of first appearance; an R, C, L or I card
  // looks up n2 before n1, .port n1 before n2 and X pins left to right.
  // MNA row k is node k+1, so these numbers fix the assembled matrices.
  // The literals are the numbering of the reader this one replaced.
  const Netlist nl = parse_netlist(R"(* every card kind
.subckt cell a b
Rc a m 10
Cc m b 1p
.ends cell
R1 in mid 1k
C1 mid out 1p
L1 out tail 1n
L2 tail gnd 2n
K1 L1 L2 0.5
I1 src mid 1m
Rsrc src 0 50
X1 out far cell
X2 far 0 cell
.port p1 in
.port p2 far tail
.end
)");
  EXPECT_EQ(nl.node_count(), 9);
  auto pairs = [](const auto& elements) {
    std::vector<std::pair<std::string, std::pair<Index, Index>>> out;
    for (const auto& e : elements) out.push_back({e.name, {e.n1, e.n2}});
    return out;
  };
  using P = std::vector<std::pair<std::string, std::pair<Index, Index>>>;
  EXPECT_EQ(pairs(nl.resistors()),
            (P{{"R1", {2, 1}}, {"Rsrc", {5, 0}}, {"x1.Rc", {3, 7}}, {"x2.Rc", {6, 8}}}));
  EXPECT_EQ(pairs(nl.capacitors()),
            (P{{"C1", {1, 3}}, {"x1.Cc", {7, 6}}, {"x2.Cc", {8, 0}}}));
  EXPECT_EQ(pairs(nl.inductors()), (P{{"L1", {3, 4}}, {"L2", {4, 0}}}));
  EXPECT_EQ(pairs(nl.current_sources()), (P{{"I1", {5, 1}}}));
  EXPECT_EQ(pairs(nl.ports()), (P{{"p1", {2, 0}}, {"p2", {6, 4}}}));
  ASSERT_EQ(nl.mutuals().size(), 1u);
  EXPECT_EQ(nl.mutuals()[0].l1, 0);
  EXPECT_EQ(nl.mutuals()[0].l2, 1);
}

TEST(Parser, NumericNodeNamesAreNamesNotIndices) {
  // A node's name never sizes a table: this must not allocate gigabytes.
  const Netlist nl = parse_netlist("R1 1 999999999 1\n.port p 1\n");
  EXPECT_EQ(nl.node_count(), 3);
  EXPECT_EQ(nl.resistors()[0].n1, 2);
  EXPECT_EQ(nl.resistors()[0].n2, 1);
}

// ---- Errors name their line -------------------------------------------------

void expect_error(const std::string& text, ErrorCode code, const std::string& stage,
                  Index index, const std::string& what) {
  try {
    parse_netlist(text);
    ADD_FAILURE() << "expected an error from:\n" << text;
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), code) << e.what();
    EXPECT_EQ(e.context().stage, stage) << e.what();
    EXPECT_EQ(e.context().index, index) << e.what();
    EXPECT_EQ(std::string(e.what()), what);
  }
}

TEST(Parser, ValueErrorNamesItsLine) {
  expect_error("R1 a 0 1k\nR2 a 0 1x\n", ErrorCode::kIo, "parser", 2,
               "netlist parse error at line 2: parse_value: unknown suffix 'x' "
               "in '1x'");
  expect_error("R1 a 0 1k\n\nC1 a 0 1e400\n", ErrorCode::kIo, "parser", 3,
               "netlist parse error at line 3: parse_value: malformed number "
               "'1e400'");
}

TEST(Parser, ElementErrorNamesItsLine) {
  try {
    parse_netlist("R1 a 0 -1\n");
    FAIL() << "expected an error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(e.context().stage, "netlist");
    EXPECT_EQ(e.context().index, 1);
    EXPECT_EQ(e.context().value, -1.0);
    EXPECT_EQ(std::string(e.what()),
              "netlist parse error at line 1: add_resistor: resistance must be "
              "positive (and nonzero)");
  }
  // Inside an instance the line is the body card's.
  expect_error(".subckt s a\nRs a 0 0\n.ends\nX1 n s\n", ErrorCode::kInvalidArgument,
               "netlist", 2,
               "netlist parse error at line 2: add_resistor: resistance must be "
               "positive (and nonzero)");
  expect_error("R1 a 0 1\n.port p a a\n", ErrorCode::kInvalidArgument, "netlist", 2,
               "netlist parse error at line 2: add_port: port terminals coincide");
}

// ---- The oracle: the reader this one replaced ------------------------------
//
// The line-by-line reader of the library before the one-pass string_view
// reader, kept verbatim but for two changes: its R, C, L and I cards look
// up n2 before n1 in separate statements (the rule the library now
// writes down; the original left the order to the compiler, and GCC
// evaluated right to left), and an Error raised by a value or an element
// names the card's line (on_line), as the library's now does.
namespace oracle {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> toks;
  std::istringstream in(line);
  std::string t;
  while (in >> t) {
    if (t[0] == '*' || t[0] == ';') break;  // trailing comment
    toks.push_back(t);
  }
  return toks;
}

[[noreturn]] void fail(size_t line_no, const std::string& msg) {
  throw Error(ErrorCode::kIo,
              "netlist parse error at line " + std::to_string(line_no) + ": " + msg,
              {.stage = "parser", .index = static_cast<Index>(line_no)});
}

template <typename F>
auto on_line(size_t line_no, F&& f) -> decltype(f()) {
  try {
    return f();
  } catch (const Error& e) {
    ErrorContext context = e.context();
    context.index = static_cast<Index>(line_no);
    throw Error(e.code(),
                "netlist parse error at line " + std::to_string(line_no) + ": " +
                    e.what(),
                std::move(context));
  }
}

struct Card {
  std::vector<std::string> tokens;
  size_t line_no = 0;
};

struct SubcktDef {
  std::string name;
  std::vector<std::string> pins;  // local node names
  std::vector<Card> body;
};

constexpr int kMaxInstanceDepth = 32;

double parse_value(const std::string& token) {
  require(!token.empty(), "parse_value: empty token");
  const std::string t = lower(token);
  size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(t, &pos);
  } catch (const std::exception&) {
    throw Error(ErrorCode::kIo, "parse_value: malformed number '" + token + "'",
                {.stage = "parser"});
  }
  const std::string suffix = t.substr(pos);
  if (suffix.empty()) return v;
  if (suffix.rfind("meg", 0) == 0) return v * 1e6;
  switch (suffix[0]) {
    case 'f': return v * 1e-15;
    case 'p': return v * 1e-12;
    case 'n': return v * 1e-9;
    case 'u': return v * 1e-6;
    case 'm': return v * 1e-3;
    case 'k': return v * 1e3;
    case 'g': return v * 1e9;
    case 't': return v * 1e12;
    default:
      throw Error(ErrorCode::kIo,
                  "parse_value: unknown suffix '" + suffix + "' in '" + token + "'",
                  {.stage = "parser"});
  }
}

struct Flattener {
  Netlist& netlist;
  std::map<std::string, Index>& nodes;
  std::map<std::string, Index>& inductor_names;
  const std::map<std::string, SubcktDef>& subckts;

  Index node_of(const std::string& tok, const std::string& prefix,
                const std::map<std::string, std::string>& pin_map) {
    const std::string key = lower(tok);
    if (key == "0" || key == "gnd") return 0;
    const auto pin = pin_map.find(key);
    const std::string global = (pin != pin_map.end()) ? pin->second : prefix + key;
    if (global == "0") return 0;
    const auto it = nodes.find(global);
    if (it != nodes.end()) return it->second;
    const Index n = netlist.new_node();
    nodes.emplace(global, n);
    return n;
  }

  void process(const std::vector<Card>& cards, const std::string& prefix,
               const std::map<std::string, std::string>& pin_map, int depth) {
    require(depth <= kMaxInstanceDepth,
            "netlist parse error: subcircuit instances nested deeper than 32 "
            "(recursive definition?)");
    for (const auto& card : cards) {
      const auto& toks = card.tokens;
      const size_t line_no = card.line_no;
      const std::string head = lower(toks[0]);

      if (head == ".port") {
        if (!prefix.empty()) fail(line_no, ".port is only allowed at the top level");
        if (toks.size() < 3 || toks.size() > 4)
          fail(line_no, ".port expects: .port <name> n1 [n2]");
        const Index n1 = node_of(toks[2], prefix, pin_map);
        const Index n2 = toks.size() == 4 ? node_of(toks[3], prefix, pin_map) : 0;
        on_line(line_no, [&] { return netlist.add_port(n1, n2, toks[1]); });
        continue;
      }
      if (head[0] == '.') fail(line_no, "unknown directive '" + toks[0] + "'");

      switch (head[0]) {
        case 'r': {
          if (toks.size() != 4) fail(line_no, "R card expects: Rname n1 n2 value");
          const Index n2 = node_of(toks[2], prefix, pin_map);
          const Index n1 = node_of(toks[1], prefix, pin_map);
          on_line(line_no, [&] {
            return netlist.add_resistor(n1, n2, parse_value(toks[3]), prefix + toks[0]);
          });
          break;
        }
        case 'c': {
          if (toks.size() != 4) fail(line_no, "C card expects: Cname n1 n2 value");
          const Index n2 = node_of(toks[2], prefix, pin_map);
          const Index n1 = node_of(toks[1], prefix, pin_map);
          on_line(line_no, [&] {
            return netlist.add_capacitor(n1, n2, parse_value(toks[3]), prefix + toks[0]);
          });
          break;
        }
        case 'l': {
          if (toks.size() != 4) fail(line_no, "L card expects: Lname n1 n2 value");
          const Index n2 = node_of(toks[2], prefix, pin_map);
          const Index n1 = node_of(toks[1], prefix, pin_map);
          const Index idx = on_line(line_no, [&] {
            return netlist.add_inductor(n1, n2, parse_value(toks[3]), prefix + toks[0]);
          });
          inductor_names[lower(prefix + toks[0])] = idx;
          break;
        }
        case 'k': {
          if (toks.size() != 4) fail(line_no, "K card expects: Kname L1 L2 k");
          const auto i1 = inductor_names.find(lower(prefix + toks[1]));
          const auto i2 = inductor_names.find(lower(prefix + toks[2]));
          if (i1 == inductor_names.end() || i2 == inductor_names.end())
            fail(line_no, "K card references unknown inductor");
          on_line(line_no, [&] {
            return netlist.add_mutual(i1->second, i2->second, parse_value(toks[3]),
                                      prefix + toks[0]);
          });
          break;
        }
        case 'i': {
          if (toks.size() != 4) fail(line_no, "I card expects: Iname n1 n2 value");
          const Index n2 = node_of(toks[2], prefix, pin_map);
          const Index n1 = node_of(toks[1], prefix, pin_map);
          on_line(line_no, [&] {
            return netlist.add_current_source(n1, n2, parse_value(toks[3]),
                                              prefix + toks[0]);
          });
          break;
        }
        case 'x': {
          if (toks.size() < 3) fail(line_no, "X card expects: Xname n1 ... nk subname");
          const std::string subname = lower(toks.back());
          const auto def = subckts.find(subname);
          if (def == subckts.end())
            fail(line_no, "unknown subcircuit '" + toks.back() + "'");
          const size_t npins = def->second.pins.size();
          if (toks.size() != npins + 2)
            fail(line_no, "instance of '" + toks.back() + "' expects " +
                              std::to_string(npins) + " pins");
          std::map<std::string, std::string> inst_map;
          for (size_t k = 0; k < npins; ++k) {
            const std::string& parent_tok = toks[1 + k];
            const std::string parent_key = lower(parent_tok);
            std::string global;
            if (parent_key == "0" || parent_key == "gnd") {
              global = "0";
            } else {
              const auto pin = pin_map.find(parent_key);
              global = (pin != pin_map.end()) ? pin->second : prefix + parent_key;
            }
            if (global != "0") node_of(parent_tok, prefix, pin_map);
            inst_map[lower(def->second.pins[k])] = global;
          }
          const std::string inst_prefix = prefix + lower(toks[0]) + ".";
          process(def->second.body, inst_prefix, inst_map, depth + 1);
          break;
        }
        default:
          fail(line_no, "unknown element card '" + toks[0] + "'");
      }
    }
  }
};

Netlist parse_netlist(const std::string& text) {
  std::istringstream in(text);
  std::map<std::string, SubcktDef> subckts;
  std::vector<Card> main_body;
  SubcktDef* open_def = nullptr;

  std::string line;
  size_t line_no = 0;
  bool ended = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (ended) break;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    if (line[first] == '*' || line[first] == ';') continue;
    auto toks = tokenize(line.substr(first));
    if (toks.empty()) continue;
    const std::string head = lower(toks[0]);

    if (head == ".end") {
      if (open_def != nullptr) fail(line_no, ".end inside a .subckt block");
      ended = true;
      continue;
    }
    if (head == ".subckt") {
      if (open_def != nullptr) fail(line_no, "nested .subckt definitions");
      if (toks.size() < 3)
        fail(line_no, ".subckt expects: .subckt <name> pin1 [pin2 ...]");
      SubcktDef def;
      def.name = lower(toks[1]);
      for (size_t k = 2; k < toks.size(); ++k) def.pins.push_back(lower(toks[k]));
      if (subckts.count(def.name))
        fail(line_no, "duplicate subcircuit '" + toks[1] + "'");
      open_def = &subckts.emplace(def.name, std::move(def)).first->second;
      continue;
    }
    if (head == ".ends") {
      if (open_def == nullptr) fail(line_no, ".ends without .subckt");
      if (toks.size() >= 2 && lower(toks[1]) != open_def->name)
        fail(line_no, ".ends name does not match the open .subckt");
      open_def = nullptr;
      continue;
    }
    Card card{std::move(toks), line_no};
    if (open_def != nullptr)
      open_def->body.push_back(std::move(card));
    else
      main_body.push_back(std::move(card));
  }
  require(open_def == nullptr, "netlist parse error: unterminated .subckt");

  Netlist nl;
  std::map<std::string, Index> nodes;
  std::map<std::string, Index> inductor_names;
  Flattener flattener{nl, nodes, inductor_names, subckts};
  flattener.process(main_body, "", {}, 0);
  nl.validate();
  return nl;
}

}  // namespace oracle

// ---- Comparing with the oracle ------------------------------------------------

std::string bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, u);
  return buf;
}

/// Every field of a Netlist, values as their bit patterns.
std::vector<std::string> fields(const Netlist& nl) {
  std::vector<std::string> out{"nodes " + std::to_string(nl.node_count())};
  auto two = [&](const char* kind, const std::string& name, Index n1, Index n2,
                 double v) {
    out.push_back(std::string(kind) + " " + name + " " + std::to_string(n1) + " " +
                  std::to_string(n2) + " " + bits(v));
  };
  for (const auto& e : nl.resistors()) two("R", e.name, e.n1, e.n2, e.resistance);
  for (const auto& e : nl.capacitors()) two("C", e.name, e.n1, e.n2, e.capacitance);
  for (const auto& e : nl.inductors()) two("L", e.name, e.n1, e.n2, e.inductance);
  for (const auto& e : nl.mutuals()) two("K", e.name, e.l1, e.l2, e.coupling);
  for (const auto& e : nl.current_sources()) two("I", e.name, e.n1, e.n2, e.value);
  for (const auto& e : nl.ports()) two("P", e.name, e.n1, e.n2, 0.0);
  return out;
}

/// A parse's outcome: the Netlist's fields, or the Error's code, stage,
/// index, value and message.
struct Outcome {
  bool ok = false;
  std::vector<std::string> netlist;
  std::string error;
  bool operator==(const Outcome&) const = default;
};

template <typename Parse>
Outcome outcome_of(Parse&& parse, const std::string& text) {
  try {
    return {true, fields(parse(text)), {}};
  } catch (const Error& e) {
    return {false,
            {},
            std::string(error_code_name(e.code())) + " | " + e.context().stage +
                " | " + std::to_string(e.context().index) + " | " +
                bits(e.context().value) + " | " + e.what()};
  }
}

Outcome library_outcome(const std::string& text) {
  return outcome_of([](const std::string& t) { return parse_netlist(t); }, text);
}

Outcome oracle_outcome(const std::string& text) {
  return outcome_of([](const std::string& t) { return oracle::parse_netlist(t); },
                    text);
}

void expect_same_as_oracle(const std::string& text, const std::string& what) {
  const Outcome want = oracle_outcome(text);
  const Outcome got = library_outcome(text);
  EXPECT_EQ(got.ok, want.ok) << what << "\n" << got.error << want.error;
  EXPECT_EQ(got.error, want.error) << what;
  EXPECT_EQ(got.netlist, want.netlist) << what;
}

/// `rows`×`cols` RC grid in the benchmark's card format (`%c%ld %ld %ld
/// %.6g`, node r·cols + c + 1), with seeded values and a few tap ports.
std::string card_format_grid(long rows, long cols, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> jitter(0.8, 1.2);
  std::string text;
  text.reserve(static_cast<size_t>(rows * cols) * 3 * 40);
  long count = 0;
  char buf[96];
  auto element = [&](char kind, long a, long b, double value) {
    std::snprintf(buf, sizeof buf, "%c%ld %ld %ld %.6g\n", kind, ++count, a, b, value);
    text += buf;
  };
  auto node = [cols](long r, long c) { return r * cols + c + 1; };
  for (long r = 0; r < rows; ++r)
    for (long c = 0; c < cols; ++c) {
      if (c + 1 < cols) element('R', node(r, c), node(r, c + 1), 0.05 * jitter(rng));
      if (r + 1 < rows) element('R', node(r, c), node(r + 1, c), 0.05 * jitter(rng));
      element('C', node(r, c), 0, 1e-12 * jitter(rng));
    }
  for (long corner : {node(0, 0), node(rows - 1, cols - 1)}) element('R', corner, 0, 0.5);
  for (long j = 0; j < 4; ++j) {
    std::snprintf(buf, sizeof buf, ".port p%ld %ld\n", j,
                  node((j + 1) * rows / 5, (j + 1) * cols / 5));
    text += buf;
  }
  text += ".end\n";
  return text;
}

/// Every netlist text the other suites and the quickstart example parse.
std::vector<std::string> suite_texts() {
  std::vector<std::string> texts = {
      // test_parser.cpp
      "\n* RC divider\nR1 in mid 1k\nR2 mid 0 1k\nC1 mid gnd 10p\n.port in in\n.end\n",
      "R1 a gnd 5\nR2 b 0 5\n.port p a\n",
      "\nL1 a 0 1n\nL2 b 0 2n\nK12 L1 L2 0.5\n.port p a\n",
      "I1 0 a 1m\nR1 a 0 50\n.port p a\n",
      "\n* full-line comment\n; also a comment\n\nR1 a 0 10 * trailing comment\n"
      ".port p a\n",
      "R1 a 0 1\n.port p a\n.end\nR2 b 0 1\n",
      "\n.subckt rcsec in out\nRs in out 100\nCs out 0 1p\n.ends rcsec\nX1 a b rcsec\n"
      "X2 b c rcsec\nRload c 0 1k\n.port drive a\n",
      "\n.subckt load a ref\nRl a ref 50\n.ends\nX1 in 0 load\nC1 in 0 1p\n.port p in\n",
      "\n.subckt unit a b\nRu a b 10\n.ends\n.subckt pair x y\nX1 x m unit\n"
      "X2 m y unit\n.ends\nXtop in out pair\nRterm out 0 100\nC1 in 0 1p\n.port p in\n",
      "\n.subckt xfmr p s\nL1 p 0 1n\nL2 s 0 4n\nK1 L1 L2 0.5\n.ends\nXa in out xfmr\n"
      "Rload out 0 50\n.port drive in\n",
      // test_serve.cpp
      "R1 in mid 1k\nR2 mid 0 1k\nC1 mid 0 10p\n.port in in\n.end\n",
      "R1 a 0 1\n.port p a\n",
      "R1 in mid 1003\nR2 mid 0 1k\nC1 mid 0 10p\n.port in in\n.end\n",
      "R1 a 0 1k\n.end\n",
      // test_integration.cpp
      "\n* three-section RC line\nR1 in n1 100\nR2 n1 n2 100\nR3 n2 n3 100\n"
      "C1 n1 0 1p\nC2 n2 0 1p\nC3 n3 0 1p\n.port drive in\n.end\n",
      // test_pole_residue.cpp
      "R1 a b 10\nR2 b c 20\nR3 c 0 30\nR4 a 0 100\nC1 a 0 1p\nC2 b 0 2p\nC3 c 0 3p\n"
      "C4 a c 0.5p\n.port a a\n.port b b\n.port c c\n.end\n",
      // examples/quickstart.cpp
      "\n* five-section RC line\nR1 in  n1 120\nR2 n1  n2 120\nR3 n2  n3 120\n"
      "R4 n3  n4 120\nR5 n4  out 120\nC1 n1  0 0.8p\nC2 n2  0 0.8p\nC3 n3  0 0.8p\n"
      "C4 n4  0 0.8p\nC5 out 0 0.8p\n.port drive in\n.port load out\n.end\n",
      // the numbering test above
      "* every card kind\n.subckt cell a b\nRc a m 10\nCc m b 1p\n.ends cell\n"
      "R1 in mid 1k\nC1 mid out 1p\nL1 out tail 1n\nL2 tail gnd 2n\nK1 L1 L2 0.5\n"
      "I1 src mid 1m\nRsrc src 0 50\nX1 out far cell\nX2 far 0 cell\n.port p1 in\n"
      ".port p2 far tail\n.end\n",
  };
  // test_parser.cpp's write_subckt and write_netlist round trips.
  Netlist block;
  block.add_resistor(1, 2, 100.0);
  block.add_capacitor(2, 0, 2e-12);
  block.add_resistor(2, 0, 400.0);
  block.add_port(1, 0, "in");
  texts.push_back(write_subckt(block, "blk", "exported block") +
                  "\nRdrv top 1 50\nX1 1 blk\nC0 top 0 1f\n.port p top\n");
  Netlist nl;
  nl.add_resistor(1, 2, 100.0);
  nl.add_resistor(2, 0, 400.0);
  nl.add_capacitor(2, 0, 2e-12);
  const Index l1 = nl.add_inductor(1, 3, 1e-9);
  const Index l2 = nl.add_inductor(3, 0, 2e-9);
  nl.add_mutual(l1, l2, 0.3);
  nl.add_port(1, 0, "in");
  texts.push_back(write_netlist(nl, "round trip"));
  return texts;
}

/// Spellings the suites above do not use.
std::vector<std::string> edge_texts() {
  return {
      // mixed-case node, card, directive and subcircuit names
      "* Mixed Case\nR1 In MID 1k\nr2 mid GND 2K\nC1 In 0 1P\nc2 Mid 0 2p\n"
      ".PORT P1 IN\n.Port p2 Mid gnd\n.END\n",
      ".SubCkt Sec IN Out\nRs In oUT 10\nCs OUT Gnd 1p\nLs in OUT 1n\n.ENDS sEC\n"
      "XA Top Mid SEC\nxb MID Bot sec\nKab XA.LS Xb.ls 0.25\nRb bot 0 1\n.port P top\n",
      // CRLF line ends
      "R1 a b 1k\r\nC1 b 0 1p\r\n\r\n.port p a\r\n.end\r\n",
      // tabs, vertical tabs and form feeds
      "R1\ta\tb\t1k\nC1\vb\f0\v1p\n\t.port p a\n\v\n\f* comment\n \t\r\n",
      // trailing comments, also glued to a value
      "R1 a b 1k * note\nC1 b 0 1p ; note\nR2 b 0 2k*tail\n.port p a ;x\n",
      // .END, then lines that are never read
      "R1 a 0 1\n.port p a\n.END\nR2 b 0 1\nbogus card\n.subckt\n",
      ".end\nR1 a 0 -1\n",
      // an X card before its .subckt, and a definition after a card
      "X1 a b sec\n.port p a\nR0 b 0 1k\n.subckt SEC in out\nRs in out 10\n"
      "Cs out 0 1p\n.ends SEC\nR9 a 0 5\n",
      // a pin listed twice (the last one wires it), a pin named like ground
      ".subckt d x x 0\nRd x 0 3\n.ends\nX1 a b c d\nR1 a 0 1\n.port p b\n",
      // nested instances on ground and on a parent pin
      ".subckt in2 u v\nRi u v 2\nCi v 0 1p\n.ends\n.subckt out2 a b\nX1 a 0 in2\n"
      "X2 a b in2\n.ends\nXo n1 n2 out2\nR1 n2 0 1\n.port p n1\n",
      // no final newline; empty text; only comments
      "R1 a 0 1\n.port p a",
      "",
      "* only\n; comments\n",
      // values of every spelling
      "R1 a 0 0x10\nR2 a b +5\nC1 b 0 .5p\nR3 b c 1e5k\nR4 c 0 2MEGohm\nC2 c 0 5.\n"
      "R5 c d 1Meg\nC3 d 0 10pF\nR6 d 0 3.3KOHM\nL1 d e 1uH\nR7 e 0 1e-3T\n.port p a\n",
      "I1 0 a inf\nR1 a 0 1\n.port p a\n",
      "I1 0 a -3.5e2\nR1 a 0 1\n.port p a\n",
      // numeric names far apart
      "R1 1 999999999 1\nR2 999999999 0 2\n.port p 1\n",
  };
}

/// Every malformed input of this file's other tests, and the errors of
/// each kind the reader raises.
std::vector<std::string> malformed_texts() {
  return {
      "R1 a 0 10\nXbogus 1 2 3\n",
      "R1 a 0\n",
      "K1 L1 L2 0.5\n",
      ".port\n",
      "X1 a b missing\n",
      ".subckt s a\nRx a 0 1\n",
      ".subckt s a\n.ends t\n",
      "\n.subckt s a\n.subckt t b\n.ends\n.ends\n",
      "\n.subckt s a b\nRs a b 1\n.ends\nX1 n1 s\n.port p n1\n",
      "\n.subckt s a\n.port p a\n.ends\nX1 n1 s\n",
      "R1 a 0 1k\nR2 a 0 1x\n",
      "R1 a 0 1k\n\nC1 a 0 1e400\n",
      "R1 a 0 -1\n",
      ".subckt s a\nRs a 0 0\n.ends\nX1 n s\n",
      "R1 a 0 1\n.port p a a\n",
      "R1 a 0 1\n.port p a b c\n",
      ".ends\n",
      ".subckt s\n",
      ".subckt s a\n.ends\n.subckt S b\n.ends\n",
      ".subckt s a\nR1 a 0 1\n.end\n.ends\n",
      ".param x 1\n",
      "Q1 a b c\n",
      "R1 a a 1\n",
      "L1 a 0 1n\nL2 b 0 1n\nK1 L1 L2 1.5\n",
      "L1 a 0 1n\nK1 L1 L1 0.5\n",
      "L1 a 0 1n\nL2 b 0 1n\nK1 L1 L2 0\n",
      "I1 a a 1\n",
      "X1 a\n",
      ".subckt r a\nX1 a r\n.ends\nX1 n r\n",
      "R1 a 0 nan\n",
      "C1 a 0 1e-320\n",
      "R1 a 0 1.5e\n",
  };
}

TEST(ParserOracle, SuiteTextsMatchTheOracle) {
  for (const std::string& text : suite_texts()) expect_same_as_oracle(text, text);
}

TEST(ParserOracle, EdgeSpellingsMatchTheOracle) {
  for (const std::string& text : edge_texts()) expect_same_as_oracle(text, text);
  // The mixed-case instance text really flattens and couples.
  const Netlist nl = parse_netlist(edge_texts()[1]);
  ASSERT_EQ(nl.mutuals().size(), 1u);
  EXPECT_EQ(nl.inductors()[static_cast<size_t>(nl.mutuals()[0].l1)].name, "xa.Ls");
}

TEST(ParserOracle, GeneratorTextsMatchTheOracle) {
  std::vector<std::string> texts = {
      write_netlist(make_interconnect_circuit({}).netlist),
      write_netlist(make_power_grid({.ports = 32}).netlist),
      write_netlist(make_package_circuit({}).netlist),
      write_netlist(make_peec_circuit({}).netlist),
  };
  for (unsigned seed = 1; seed <= 20; ++seed) {
    const RandomCircuitOptions opt{.nodes = 6 + static_cast<Index>(seed % 17),
                                   .ports = 1 + static_cast<Index>(seed % 3),
                                   .seed = seed};
    texts.push_back(write_netlist(random_rc(opt)));
    texts.push_back(write_netlist(random_rl(opt)));
    texts.push_back(write_netlist(random_lc(opt)));
    texts.push_back(write_netlist(random_rlc(opt)));
  }
  for (const std::string& text : texts) expect_same_as_oracle(text, text.substr(0, 200));
}

TEST(ParserOracle, BenchmarkCardFormatGridMatchesTheOracle) {
  const std::string text = card_format_grid(64, 64, 3);
  expect_same_as_oracle(text, "64x64 grid");
  const Netlist nl = parse_netlist(text);
  EXPECT_EQ(nl.node_count(), 64 * 64 + 1);
  EXPECT_EQ(nl.element_count(), 2 * 64 * 63 + 64 * 64 + 2);
}

TEST(ParserOracle, MalformedInputsMatchTheOracle) {
  for (const std::string& text : malformed_texts()) {
    const Outcome want = oracle_outcome(text);
    EXPECT_FALSE(want.ok) << text;
    EXPECT_EQ(library_outcome(text), want) << text;
  }
}

TEST(ParserOracle, StructuralErrorAfterABadCardWins) {
  // The structure is read before any card: an error in it wins over a
  // card's error, wherever the card sits.
  expect_error("R1 a 0 1x\nR2 a 0 1\n.subckt s a\n.subckt t b\n.ends\n", ErrorCode::kIo,
               "parser", 4, "netlist parse error at line 4: nested .subckt definitions");
  expect_error("R1 a 0 -1\nXq a b\n.ends\n", ErrorCode::kIo, "parser", 3,
               "netlist parse error at line 3: .ends without .subckt");
  try {
    parse_netlist("R1 a 0 -1\n.subckt s a\nRx a 0 1\n");
    FAIL() << "expected an error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnknown);
    EXPECT_EQ(std::string(e.what()), "netlist parse error: unterminated .subckt");
  }
  for (const char* text : {"R1 a 0 1x\nR2 a 0 1\n.subckt s a\n.subckt t b\n.ends\n",
                           "R1 a 0 -1\nXq a b\n.ends\n",
                           "R1 a 0 -1\n.subckt s a\nRx a 0 1\n"})
    expect_same_as_oracle(text, text);
}

// ---- Values -------------------------------------------------------------------

TEST(ParseValue, PinnedSpellings) {
  auto same = [](double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; };
  EXPECT_TRUE(same(parse_value("0x10"), 16.0));
  EXPECT_TRUE(same(parse_value("+5"), 5.0));
  EXPECT_TRUE(same(parse_value("inf"), std::numeric_limits<double>::infinity()));
  EXPECT_TRUE(same(parse_value("1e5k"), 1e5 * 1e3));
  EXPECT_TRUE(same(parse_value("2MEGohm"), 2.0 * 1e6));
  EXPECT_TRUE(same(parse_value(".5p"), 0.5 * 1e-12));
  EXPECT_TRUE(same(parse_value("-3.5e2"), -350.0));
  EXPECT_TRUE(same(parse_value("5."), 5.0));
  // NaN reads as a value; the Netlist then rejects it.
  EXPECT_TRUE(std::isnan(parse_value("nan")));
  expect_error("R1 a 0 nan\n", ErrorCode::kInvalidArgument, "netlist", 1,
               "netlist parse error at line 1: add_resistor: resistance must be "
               "positive (and nonzero)");
  auto rejects = [](const char* token, const std::string& what) {
    try {
      parse_value(token);
      ADD_FAILURE() << token;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kIo) << token;
      EXPECT_EQ(e.context().stage, "parser") << token;
      EXPECT_EQ(std::string(e.what()), what);
    }
  };
  rejects("1e-320", "parse_value: malformed number '1e-320'");  // subnormal
  rejects("1e400", "parse_value: malformed number '1e400'");
  rejects("1.5e", "parse_value: unknown suffix 'e' in '1.5e'");
}

TEST(ParseValue, EveryTokenMatchesStod) {
  // Tokens on both sides of the from_chars path's edges; each must give
  // the oracle's bits or its exact error.
  const char* tokens[] = {
      "0", "-0", "0.", ".0", "0e400", "0e-400", "0.000e5", "-0.0k", "00012", "7",
      "1e-400", "4.9e-324", "2.2250738585072014e-308", "2.2250738585072011e-308",
      "2.22507385850720138e-308", "2.2250738585072013e-308", "-2.2250738585072014e-308",
      // rounds up to the smallest normal, yet strtod flags it ERANGE
      "2.2250738585072012e-308", "-2.22507385850720125e-308",
      "1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
      "1e308k", "1e-300f", "0x1p3", "0X10", "-0x10", "0x", "0xg", "+.5", "-.5", ".", "-",
      "+", "-+1", "e5", "1e", "1e+", "1e-", "1e+5", "1E5", "1.e5", "1.5E+3k", "1_0",
      "1k2", "1mEgA", "1Meg", "1M", "1me", "1em", "INF", "-inf", "Infinity", "NaN",
      "nan(123)", "-nan", "1.5e", "5.", "-5.", "1..2", "1e5.5", "0.5p", "2.5 ",
      "12345678901234567890123", "9007199254740993", "9007199254740993e-5",
      "1.00000000000000011102230246251565404236316680908203125", "3.3KOHM", "10pF",
      "1x", "1X", "1µ", "1\xff", "\xff", "1d5", "1f", "1F", "2t", "2G", "4N", "8U",
  };
  auto outcome = [](auto&& parse, const std::string& token) {
    try {
      return bits(parse(token));
    } catch (const Error& e) {
      return std::string(error_code_name(e.code())) + " " + e.context().stage + " " +
             e.what();
    }
  };
  for (const char* token : tokens) {
    const std::string t = token;
    EXPECT_EQ(outcome([](const std::string& s) { return parse_value(s); }, t),
              outcome([](const std::string& s) { return oracle::parse_value(s); }, t))
        << "'" << t << "'";
  }
}

// ---- Mutations ----------------------------------------------------------------

/// One seeded edit of `text`: drop, duplicate or swap tokens, flip a
/// letter's case, insert comment, space, sign, suffix or hex-prefix
/// characters, or move, cut or copy lines and `.subckt` blocks.
std::string mutate(const std::string& text, std::mt19937_64& rng) {
  auto pick = [&](size_t n) { return static_cast<size_t>(rng() % std::max<size_t>(n, 1)); };
  std::vector<std::string> lines;
  {
    std::string line;
    std::istringstream in(text);
    while (std::getline(in, line)) lines.push_back(line);
  }
  if (lines.empty()) lines.push_back("");
  auto join = [&] {
    std::string out;
    for (const auto& l : lines) out += l + "\n";
    return out;
  };
  // A line's token spans (space-separated).
  auto token_spans = [](const std::string& line) {
    std::vector<std::pair<size_t, size_t>> spans;
    size_t p = 0;
    while (p < line.size()) {
      while (p < line.size() && std::isspace(static_cast<unsigned char>(line[p]))) ++p;
      const size_t b = p;
      while (p < line.size() && !std::isspace(static_cast<unsigned char>(line[p]))) ++p;
      if (p > b) spans.push_back({b, p - b});
    }
    return spans;
  };
  static const char* const kSuffixes[] = {"k", "meg", "MEG", "p", "x", "e", "e5", "f",
                                          "u", "ohm", "e-400", "e400", "m", "T"};
  static const char kSpaces[] = {' ', '\t', '\v', '\f', '\r'};
  std::string& line = lines[pick(lines.size())];
  const auto spans = token_spans(line);
  switch (pick(13)) {
    case 0:  // drop a token
      if (!spans.empty()) {
        const auto [b, n] = spans[pick(spans.size())];
        line.erase(b, n);
      }
      break;
    case 1:  // duplicate a token
      if (!spans.empty()) {
        const auto [b, n] = spans[pick(spans.size())];
        line.insert(b, line.substr(b, n) + " ");
      }
      break;
    case 2:  // swap two tokens
      if (spans.size() >= 2) {
        const size_t i = pick(spans.size()), j = pick(spans.size());
        if (i != j) {
          const auto a = spans[std::min(i, j)], b = spans[std::max(i, j)];
          const std::string ta = line.substr(a.first, a.second);
          const std::string tb = line.substr(b.first, b.second);
          line.replace(b.first, b.second, ta);
          line.replace(a.first, a.second, tb);
        }
      }
      break;
    case 3: {  // flip the case of a letter anywhere
      std::string all = join();
      for (int tries = 0; tries < 8; ++tries) {
        char& c = all[pick(all.size())];
        if (std::isalpha(static_cast<unsigned char>(c))) {
          c = std::isupper(static_cast<unsigned char>(c))
                  ? static_cast<char>(std::tolower(static_cast<unsigned char>(c)))
                  : static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
          break;
        }
      }
      return all;
    }
    case 4:  // insert a comment character
      line.insert(pick(line.size() + 1), 1, pick(2) ? '*' : ';');
      break;
    case 5:  // insert a space character
      line.insert(pick(line.size() + 1), 1, kSpaces[pick(sizeof kSpaces)]);
      break;
    case 6:  // a sign before a token
      if (!spans.empty()) line.insert(spans[pick(spans.size())].first, pick(2) ? "+" : "-");
      break;
    case 7:  // a suffix after a token
      if (!spans.empty()) {
        const auto [b, n] = spans[pick(spans.size())];
        line.insert(b + n, kSuffixes[pick(std::size(kSuffixes))]);
      }
      break;
    case 8:  // a hex prefix before a token
      if (!spans.empty()) line.insert(spans[pick(spans.size())].first, pick(2) ? "0x" : "0X");
      break;
    case 9:  // split a line
      line.insert(pick(line.size() + 1), "\n");
      break;
    case 10: {  // move a line
      const size_t from = pick(lines.size());
      const std::string moved = lines[from];
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(from));
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(pick(lines.size() + 1)),
                   moved);
      break;
    }
    case 11: {  // duplicate a line
      const std::string copy = lines[pick(lines.size())];
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(pick(lines.size() + 1)),
                   copy);
      break;
    }
    default: {  // move, cut or copy a .subckt block
      std::vector<size_t> opens;
      for (size_t k = 0; k < lines.size(); ++k)
        if (oracle::lower(lines[k]).find(".subckt") != std::string::npos) opens.push_back(k);
      if (opens.empty()) break;
      const size_t b = opens[pick(opens.size())];
      size_t e = b + 1;
      while (e < lines.size() && oracle::lower(lines[e]).find(".ends") == std::string::npos) ++e;
      e = std::min(e + 1, lines.size());
      const std::vector<std::string> block(lines.begin() + static_cast<std::ptrdiff_t>(b),
                                           lines.begin() + static_cast<std::ptrdiff_t>(e));
      const size_t how = pick(3);
      if (how != 2)
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(b),
                    lines.begin() + static_cast<std::ptrdiff_t>(e));
      if (how != 1)
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(pick(lines.size() + 1)),
                     block.begin(), block.end());
      break;
    }
  }
  return join();
}

TEST(ParserOracle, MutationsMatchTheOracle) {
  std::vector<std::string> seeds = suite_texts();
  for (const auto& t : edge_texts()) seeds.push_back(t);
  for (const auto& t : malformed_texts()) seeds.push_back(t);
  for (unsigned seed = 1; seed <= 3; ++seed)
    seeds.push_back(write_netlist(random_rlc({.nodes = 6, .ports = 2, .seed = seed})));
  seeds.push_back(card_format_grid(3, 4, 1));

  std::mt19937_64 rng(20261019);
  int cases = 0, errors = 0, mismatches = 0;
  for (int round = 0; round < 40; ++round)
    for (const std::string& seed : seeds) {
      std::string text = seed;
      const int edits = 1 + static_cast<int>(rng() % 3);
      for (int k = 0; k < edits; ++k) text = mutate(text, rng);
      const Outcome want = oracle_outcome(text);
      const Outcome got = library_outcome(text);
      ++cases;
      errors += want.ok ? 0 : 1;
      if (!(got == want) && ++mismatches <= 5)
        ADD_FAILURE() << "mutated text:\n"
                      << text << "\nlibrary: " << (got.ok ? "ok" : got.error)
                      << "\noracle:  " << (want.ok ? "ok" : want.error);
    }
  RecordProperty("cases", cases);
  RecordProperty("errors", errors);
  EXPECT_EQ(mismatches, 0);
  EXPECT_GE(cases, 2000);
  // Both kinds of outcome are exercised.
  EXPECT_GT(errors, cases / 10);
  EXPECT_LT(errors, cases - cases / 10);
}

// ---- Memory -------------------------------------------------------------------

/// Bytes the Netlist holds: its element arrays and any name on the heap.
std::int64_t netlist_bytes(const Netlist& nl) {
  std::int64_t bytes = 0;
  auto add = [&](const auto& v) {
    bytes += static_cast<std::int64_t>(v.capacity() * sizeof(v[0]));
    for (const auto& e : v)
      if (e.name.capacity() > 15) bytes += static_cast<std::int64_t>(e.name.capacity() + 1);
  };
  add(nl.resistors());
  add(nl.capacitors());
  add(nl.inductors());
  add(nl.mutuals());
  add(nl.current_sources());
  add(nl.ports());
  return bytes;
}

TEST(Parser, HighWaterUnderTwiceTheNetlist) {
#ifdef SYMPVL_PARSER_SANITIZED
  GTEST_SKIP() << "process RSS is meaningless under a sanitizer";
#else
  // Meaningful in a process of its own (as ctest runs each case): an
  // earlier case's high-water mark would hide this one's rise.
  const std::string text = card_format_grid(200, 200, 5);
  const std::int64_t before = obs::peak_rss_bytes();
  const Netlist nl = parse_netlist(text);
  const std::int64_t rise = obs::peak_rss_bytes() - before;
  ASSERT_GE(nl.element_count(), 100000);
  EXPECT_LE(rise, 2 * netlist_bytes(nl))
      << "high-water rise " << rise << " B for a " << netlist_bytes(nl) << " B Netlist";
#endif
}

}  // namespace
}  // namespace sympvl
