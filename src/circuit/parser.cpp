#include "circuit/parser.hpp"

#include <algorithm>
#include <charconv>
#include <deque>
#include <fstream>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "obs/obs.hpp"

namespace sympvl {

namespace {

// ---- Characters and tokens ------------------------------------------------
//
// A line ends at '\n' and splits on the characters operator>> treats as
// space in the C locale. A token that starts with '*' or ';' is a
// comment to the end of its line, so a line whose first token is one is
// a comment line.

constexpr bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

constexpr bool is_digit(char c) { return c >= '0' && c <= '9'; }

constexpr char lower_char(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

bool has_upper(std::string_view s) {
  return std::any_of(s.begin(), s.end(), [](char c) { return c >= 'A' && c <= 'Z'; });
}

/// `s` equals the lowercase literal `lit` up to case.
bool iequals(std::string_view s, std::string_view lit) {
  if (s.size() != lit.size()) return false;
  for (size_t k = 0; k < s.size(); ++k)
    if (lower_char(s[k]) != lit[k]) return false;
  return true;
}

/// `s` lowered: a view of `s` itself when it has no capitals, else of `buf`.
std::string_view lowered(std::string_view s, std::string& buf) {
  if (!has_upper(s)) return s;
  buf.assign(s);
  for (char& c : buf) c = lower_char(c);
  return buf;
}

/// The token at `p`, which moves past it; empty at the line's end `end`
/// or at a comment.
std::string_view next_token(const char*& p, const char* end) {
  while (p != end && is_space(*p)) ++p;
  if (p == end || *p == '*' || *p == ';') return {};
  const char* const t = p;
  while (p != end && !is_space(*p)) ++p;
  return {t, static_cast<size_t>(p - t)};
}

/// The first token of `line`; empty when the line holds none (blank or a
/// comment).
std::string_view first_token(std::string_view line) {
  const char* p = line.data();
  return next_token(p, p + line.size());
}

/// Appends the tokens of `line` to `toks`.
void tokenize(std::string_view line, std::vector<std::string_view>& toks) {
  const char* p = line.data();
  const char* const end = p + line.size();
  for (std::string_view t = next_token(p, end); !t.empty(); t = next_token(p, end))
    toks.push_back(t);
}

/// The lines of text[begin, end) as std::getline reads them: a last line
/// without '\n' counts, a final '\n' opens no empty line. `line_no` is
/// the number of the line before `begin`.
class LineReader {
 public:
  LineReader(std::string_view text, size_t begin, size_t end, size_t line_no)
      : text_(text), pos_(begin), end_(end), line_no_(line_no) {}

  bool next(std::string_view& line) {
    if (pos_ >= end_) return false;
    start_ = pos_;
    const size_t nl = text_.find('\n', pos_);
    const size_t stop = nl == std::string_view::npos ? text_.size() : nl;
    line = text_.substr(pos_, stop - pos_);
    pos_ = nl == std::string_view::npos ? text_.size() : nl + 1;
    ++line_no_;
    return true;
  }
  size_t line_no() const { return line_no_; }
  size_t line_start() const { return start_; }  // offset of the last line read
  size_t pos() const { return pos_; }           // offset after it

 private:
  std::string_view text_;
  size_t pos_, end_, line_no_, start_ = 0;
};

std::string at_line(size_t line_no) {
  return "netlist parse error at line " + std::to_string(line_no) + ": ";
}

[[noreturn]] void fail(size_t line_no, const std::string& msg) {
  throw Error(ErrorCode::kIo, at_line(line_no) + msg,
              {.stage = "parser", .index = static_cast<Index>(line_no)});
}

/// Runs `f`, which reads a card's value or adds its element. An Error it
/// raises keeps its code and stage and gains the card's line: `index` is
/// the line, and the message is prefixed as fail()'s is.
template <typename F>
void on_line(size_t line_no, F&& f) {
  try {
    f();
  } catch (const Error& e) {
    ErrorContext context = e.context();
    context.index = static_cast<Index>(line_no);
    throw Error(e.code(), at_line(line_no) + e.what(), std::move(context));
  }
}

// ---- Values ---------------------------------------------------------------

/// v times the SPICE scale `suffix` names ("meg" = 1e6, bare "m" = 1e-3;
/// any alphabetic tail after the scale, such as a unit, is ignored). Empty
/// when `suffix` names no scale. Case-insensitive.
std::optional<double> scaled(double v, std::string_view suffix) {
  if (suffix.size() >= 3 && iequals(suffix.substr(0, 3), "meg")) return v * 1e6;
  switch (lower_char(suffix[0])) {
    case 'f': return v * 1e-15;
    case 'p': return v * 1e-12;
    case 'n': return v * 1e-9;
    case 'u': return v * 1e-6;
    case 'm': return v * 1e-3;
    case 'k': return v * 1e3;
    case 'g': return v * 1e9;
    case 't': return v * 1e12;
    default: return std::nullopt;
  }
}

/// The from_chars path. It takes a token that starts like a decimal number
/// (a digit, '.', or '-' then a digit or '.'), reads as a finite magnitude
/// above the smallest normal, and ends with nothing, a scale letter or
/// "meg". On such a token strtod stops at the same character and both
/// round correctly, so the value carries std::stod's bits; stod's ERANGE
/// (overflow, or a tiny result, subnormal or flushed to zero) cannot
/// arise. Any other token, zero included, is left to stod_value, so every
/// accept and reject stays stod's.
std::optional<double> from_chars_value(std::string_view t) {
  const char* const b = t.data();
  const char* const e = b + t.size();
  const bool decimal = is_digit(b[0]) || b[0] == '.' ||
                       (b[0] == '-' && t.size() > 1 && (is_digit(b[1]) || b[1] == '.'));
  if (!decimal) return std::nullopt;
  double v = 0.0;
  const auto [p, ec] = std::from_chars(b, e, v);
  if (ec != std::errc()) return std::nullopt;
  const double mag = std::abs(v);
  if (!(mag > std::numeric_limits<double>::min() &&
        mag <= std::numeric_limits<double>::max()))
    return std::nullopt;
  if (p == e) return v;
  return scaled(v, {p, static_cast<size_t>(e - p)});
}

/// std::stod on the lowered token, then the scale suffix.
double stod_value(std::string_view token) {
  std::string t(token);
  for (char& c : t) c = lower_char(c);
  size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(t, &pos);
  } catch (const std::exception&) {
    throw Error(ErrorCode::kIo,
                "parse_value: malformed number '" + std::string(token) + "'",
                {.stage = "parser"});
  }
  if (pos == t.size()) return v;
  if (const auto s = scaled(v, std::string_view(t).substr(pos))) return *s;
  throw Error(ErrorCode::kIo,
              "parse_value: unknown suffix '" + t.substr(pos) + "' in '" +
                  std::string(token) + "'",
              {.stage = "parser"});
}

// ---- Scan 1: structure ----------------------------------------------------

/// Copies of the names the text does not spell as table keys (lowered
/// names, instance-scoped "<inst>.<node>" names), kept for the parse; a
/// deque never moves its strings, so views of them stay valid.
using NameStore = std::deque<std::string>;

/// `tok` lowered, as a view that lives as long as `names`: `tok` itself
/// when it has no capitals, else a lowered copy kept in `names`.
std::string_view stable_lowered(std::string_view tok, NameStore& names) {
  if (!has_upper(tok)) return tok;
  std::string& copy = names.emplace_back(tok);
  for (char& c : copy) c = lower_char(c);
  return copy;
}

struct BodyCard {
  size_t first = 0, count = 0;  // into SubcktDef::tokens
  size_t line_no = 0;
};

struct SubcktDef {
  std::vector<std::string_view> pins;    // lowered local names
  std::vector<std::string_view> tokens;  // every body card's tokens
  std::vector<BodyCard> body;
};

/// A run of top-level lines text[begin, end) with no subcircuit block in
/// it; `line_no` is the number of the line before `begin`.
struct Region {
  size_t begin = 0, end = 0, line_no = 0;
};

using NameTable = std::unordered_map<std::string_view, Index>;

/// What scan 1 finds: the definitions, the top-level regions between
/// them (ending at `.end`), and the top-level element counts.
struct Structure {
  std::unordered_map<std::string_view, SubcktDef> subckts;  // lowered name
  std::vector<Region> top;
  Index resistors = 0, capacitors = 0, inductors = 0, ports = 0;
};

/// Scan 1 reads only directive lines and subcircuit bodies, so an `X` card
/// may use a definition that appears later, and a structural error wins
/// over any card error wherever it sits. Nothing after `.end` is read.
Structure scan_structure(std::string_view text, NameStore& names) {
  Structure s;
  LineReader lines(text, 0, text.size(), 0);
  SubcktDef* open = nullptr;
  std::string_view open_name;
  Region region;
  std::vector<std::string_view> toks;
  auto close_region = [&](size_t end) {
    region.end = end;
    if (region.end > region.begin) s.top.push_back(region);
  };
  std::string_view line;
  bool ended = false;
  while (!ended && lines.next(line)) {
    const std::string_view head = first_token(line);
    if (head.empty()) continue;
    const size_t line_no = lines.line_no();
    if (head[0] == '.') {
      if (iequals(head, ".end")) {
        if (open != nullptr) fail(line_no, ".end inside a .subckt block");
        close_region(lines.line_start());
        ended = true;
        continue;
      }
      if (iequals(head, ".subckt")) {
        if (open != nullptr) fail(line_no, "nested .subckt definitions");
        toks.clear();
        tokenize(line, toks);
        if (toks.size() < 3)
          fail(line_no, ".subckt expects: .subckt <name> pin1 [pin2 ...]");
        SubcktDef def;
        for (size_t k = 2; k < toks.size(); ++k)
          def.pins.push_back(stable_lowered(toks[k], names));
        const std::string_view name = stable_lowered(toks[1], names);
        if (s.subckts.count(name))
          fail(line_no, "duplicate subcircuit '" + std::string(toks[1]) + "'");
        open = &s.subckts.emplace(name, std::move(def)).first->second;
        open_name = name;
        close_region(lines.line_start());
        continue;
      }
      if (iequals(head, ".ends")) {
        if (open == nullptr) fail(line_no, ".ends without .subckt");
        toks.clear();
        tokenize(line, toks);
        if (toks.size() >= 2 && !iequals(toks[1], open_name))
          fail(line_no, ".ends name does not match the open .subckt");
        open = nullptr;
        region = {lines.pos(), 0, line_no};
        continue;
      }
    }
    if (open != nullptr) {
      const size_t first = open->tokens.size();
      tokenize(line, open->tokens);
      open->body.push_back({first, open->tokens.size() - first, line_no});
      continue;
    }
    switch (lower_char(head[0])) {
      case 'r': ++s.resistors; break;
      case 'c': ++s.capacitors; break;
      case 'l': ++s.inductors; break;
      case '.': s.ports += iequals(head, ".port") ? 1 : 0; break;
      default: break;
    }
  }
  if (!ended) close_region(text.size());
  require(open == nullptr, "netlist parse error: unterminated .subckt");
  return s;
}

// ---- Scan 2: flatten ------------------------------------------------------

constexpr int kMaxInstanceDepth = 32;

struct Pin {
  std::string_view name;  // lowered local name
  Index node = 0;         // the parent's node it is wired to (0: datum)
};

/// Where a card is read: "" and no pins at the top level; inside an
/// instance, the prefix "<inst>." (lowered, nested instances chained) and
/// the instance's pin wiring.
struct Scope {
  std::string_view prefix;
  std::vector<Pin> pins;
};

class Flattener {
 public:
  Flattener(Netlist& netlist, const Structure& structure, NameStore& names)
      : netlist_(netlist), subckts_(structure.subckts), names_(names) {
    // A mesh or a ladder holds about one node per two two-terminal cards;
    // the count is bounded by the text, never by a name's numeric value.
    nodes_.reserve(static_cast<size_t>(
        (structure.resistors + structure.capacitors + structure.inductors) / 2));
  }

  void card(std::span<const std::string_view> toks, size_t line_no,
            const Scope& scope, int depth) {
    const std::string_view head = toks[0];
    if (iequals(head, ".port")) {
      if (!scope.prefix.empty())
        fail(line_no, ".port is only allowed at the top level");
      if (toks.size() < 3 || toks.size() > 4)
        fail(line_no, ".port expects: .port <name> n1 [n2]");
      const Index n1 = node_of(toks[2], scope);
      const Index n2 = toks.size() == 4 ? node_of(toks[3], scope) : 0;
      on_line(line_no, [&] { netlist_.add_port(n1, n2, std::string(toks[1])); });
      return;
    }
    if (head[0] == '.')
      fail(line_no, "unknown directive '" + std::string(head) + "'");

    switch (lower_char(head[0])) {
      case 'r': two_terminal('R', toks, line_no, scope); break;
      case 'c': two_terminal('C', toks, line_no, scope); break;
      case 'l': {
        const Index idx = two_terminal('L', toks, line_no, scope);
        const std::string_view key = scoped_key(scope.prefix, toks[0]);
        const auto it = inductors_.find(key);
        if (it != inductors_.end())
          it->second = idx;
        else
          inductors_.emplace(stable(key, toks[0]), idx);
        break;
      }
      case 'i': two_terminal('I', toks, line_no, scope); break;
      case 'k': {
        if (toks.size() != 4) fail(line_no, "K card expects: Kname L1 L2 k");
        const auto i1 = inductors_.find(scoped_key(scope.prefix, toks[1]));
        const auto i2 = inductors_.find(scoped_key(scope.prefix, toks[2]));
        if (i1 == inductors_.end() || i2 == inductors_.end())
          fail(line_no, "K card references unknown inductor");
        on_line(line_no, [&] {
          netlist_.add_mutual(i1->second, i2->second, parse_value(toks[3]),
                              scoped_name(scope.prefix, toks[0]));
        });
        break;
      }
      case 'x': instance(toks, line_no, scope, depth); break;
      default:
        fail(line_no, "unknown element card '" + std::string(head) + "'");
    }
  }

 private:
  /// R, C, L or I: Kname n1 n2 value.
  Index two_terminal(char kind, std::span<const std::string_view> toks,
                     size_t line_no, const Scope& scope) {
    if (toks.size() != 4)
      fail(line_no, std::string(1, kind) + " card expects: " + kind +
                        "name n1 n2 value");
    // Node numbering rule: n2 is looked up before n1, so a card that names
    // two new nodes numbers its second node first. Numbers follow first
    // appearance, and MNA row k is node k+1, so this order fixes the
    // row order, the fill-reducing permutation and every bit downstream.
    const Index n2 = node_of(toks[2], scope);
    const Index n1 = node_of(toks[1], scope);
    Index idx = 0;
    on_line(line_no, [&] {
      const double v = parse_value(toks[3]);
      std::string name = scoped_name(scope.prefix, toks[0]);
      switch (kind) {
        case 'R': idx = netlist_.add_resistor(n1, n2, v, std::move(name)); break;
        case 'C': idx = netlist_.add_capacitor(n1, n2, v, std::move(name)); break;
        case 'L': idx = netlist_.add_inductor(n1, n2, v, std::move(name)); break;
        default: idx = netlist_.add_current_source(n1, n2, v, std::move(name));
      }
    });
    return idx;
  }

  /// Xname n1 … nk subname: the pins are wired in the parent's scope, left
  /// to right, then the body is read in the instance's scope.
  void instance(std::span<const std::string_view> toks, size_t line_no,
                const Scope& scope, int depth) {
    if (toks.size() < 3) fail(line_no, "X card expects: Xname n1 ... nk subname");
    const std::string_view subname = toks.back();
    const auto def = subckts_.find(lowered(subname, buf_));
    if (def == subckts_.end())
      fail(line_no, "unknown subcircuit '" + std::string(subname) + "'");
    const SubcktDef& d = def->second;
    const size_t npins = d.pins.size();
    if (toks.size() != npins + 2)
      fail(line_no, "instance of '" + std::string(subname) + "' expects " +
                        std::to_string(npins) + " pins");
    Scope inner;
    inner.pins.reserve(npins);
    for (size_t k = 0; k < npins; ++k)
      inner.pins.push_back({d.pins[k], node_of(toks[1 + k], scope)});
    std::string& prefix = names_.emplace_back(scoped_key(scope.prefix, toks[0]));
    prefix.push_back('.');
    inner.prefix = prefix;

    require(depth + 1 <= kMaxInstanceDepth,
            "netlist parse error: subcircuit instances nested deeper than 32 "
            "(recursive definition?)");
    for (const BodyCard& c : d.body)
      card({d.tokens.data() + c.first, c.count}, c.line_no, inner, depth + 1);
  }

  /// The node a token names in `scope`: "0" and "gnd" are the datum, a pin
  /// is its parent's node, any other name is "<prefix><lowered name>",
  /// numbered on first appearance.
  Index node_of(std::string_view tok, const Scope& scope) {
    if (tok == "0" || iequals(tok, "gnd")) return 0;
    // Search from the back: a pin name listed twice is wired to the last.
    for (auto pin = scope.pins.rbegin(); pin != scope.pins.rend(); ++pin)
      if (iequals(tok, pin->name)) return pin->node;
    const std::string_view key = scoped_key(scope.prefix, tok);
    const auto it = nodes_.find(key);
    if (it != nodes_.end()) return it->second;
    const Index n = netlist_.new_node();
    nodes_.emplace(stable(key, tok), n);
    return n;
  }

  /// prefix + lower(tok): a view of `tok` itself at the top level when it
  /// has no capitals, else of buf_ (valid until the next call).
  std::string_view scoped_key(std::string_view prefix, std::string_view tok) {
    if (prefix.empty()) return lowered(tok, buf_);
    buf_.assign(prefix);
    for (char c : tok) buf_.push_back(lower_char(c));
    return buf_;
  }

  /// A key that outlives the parse's buffers: `key` itself when it is the
  /// text's own token, else a stored copy.
  std::string_view stable(std::string_view key, std::string_view tok) {
    return key.data() == tok.data() ? key : names_.emplace_back(key);
  }

  static std::string scoped_name(std::string_view prefix, std::string_view tok) {
    std::string name;
    name.reserve(prefix.size() + tok.size());
    name.append(prefix).append(tok);
    return name;
  }

  Netlist& netlist_;
  const std::unordered_map<std::string_view, SubcktDef>& subckts_;
  NameStore& names_;
  NameTable nodes_;      // global lowered node name → node
  NameTable inductors_;  // scoped lowered inductor name → inductor index
  std::string buf_;
};

std::string read_all(std::istream& in) {
  std::ostringstream text;
  text << in.rdbuf();
  return std::move(text).str();
}

}  // namespace

double parse_value(std::string_view token) {
  require(!token.empty(), "parse_value: empty token");
  if (const auto v = from_chars_value(token)) return *v;
  return stod_value(token);
}

Netlist parse_netlist(std::string_view text) {
  obs::ScopedTimer span("circuit.parse");
  NameStore names;
  const Structure structure = scan_structure(text, names);

  Netlist nl;
  nl.reserve(structure.resistors, structure.capacitors, structure.ports,
             structure.inductors);
  Flattener flattener(nl, structure, names);
  const Scope top;
  std::vector<std::string_view> toks;
  std::string_view line;
  for (const Region& region : structure.top) {
    LineReader lines(text, region.begin, region.end, region.line_no);
    while (lines.next(line)) {
      toks.clear();
      tokenize(line, toks);
      if (!toks.empty()) flattener.card(toks, lines.line_no(), top, 0);
    }
  }
  nl.validate();
  span.arg("bytes", static_cast<Index>(text.size()));
  span.arg("elements", nl.element_count());
  span.arg("nodes", nl.node_count());
  return nl;
}

Netlist parse_netlist(std::istream& in) { return parse_netlist(read_all(in)); }

Netlist parse_netlist_file(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "parse_netlist_file: cannot open '" + path + "'");
  return parse_netlist(read_all(in));
}

namespace {

void write_cards(std::ostream& out, const Netlist& netlist) {
  for (const auto& r : netlist.resistors())
    out << r.name << " " << r.n1 << " " << r.n2 << " " << r.resistance << "\n";
  for (const auto& c : netlist.capacitors())
    out << c.name << " " << c.n1 << " " << c.n2 << " " << c.capacitance << "\n";
  for (const auto& l : netlist.inductors())
    out << l.name << " " << l.n1 << " " << l.n2 << " " << l.inductance << "\n";
  for (const auto& k : netlist.mutuals())
    out << k.name << " "
        << netlist.inductors()[static_cast<size_t>(k.l1)].name << " "
        << netlist.inductors()[static_cast<size_t>(k.l2)].name << " "
        << k.coupling << "\n";
  for (const auto& s : netlist.current_sources())
    out << s.name << " " << s.n1 << " " << s.n2 << " " << s.value << "\n";
}

}  // namespace

std::string write_netlist(const Netlist& netlist, const std::string& title) {
  std::ostringstream out;
  out.precision(17);
  if (!title.empty()) out << "* " << title << "\n";
  write_cards(out, netlist);
  for (const auto& p : netlist.ports())
    out << ".port " << p.name << " " << p.n1 << " " << p.n2 << "\n";
  out << ".end\n";
  return out.str();
}

std::string write_subckt(const Netlist& netlist, const std::string& name,
                         const std::string& title) {
  require(!name.empty(), "write_subckt: empty subcircuit name");
  require(netlist.port_count() >= 1, "write_subckt: netlist has no ports");
  std::ostringstream out;
  out.precision(17);
  if (!title.empty()) out << "* " << title << "\n";
  out << ".subckt " << name;
  for (const auto& p : netlist.ports()) {
    require(p.n2 == 0,
            "write_subckt: only ground-referenced ports can become pins");
    out << " " << p.n1;
  }
  out << "\n";
  write_cards(out, netlist);
  out << ".ends " << name << "\n";
  return out.str();
}

}  // namespace sympvl
