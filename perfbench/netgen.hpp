// Seeded SPICE-text generators of the benchmark's inputs. The program
// under test only ever sees the text these return.
//
//   rc_grid_netlist     rows×cols RC power mesh: jittered edge resistors
//                       and node decaps, package ties at the corners and
//                       on a 4×4 pad lattice, one tap port per cell of a
//                       port lattice at a seeded node inside the cell.
//   rlc_package_netlist ring of pins, each a series R–L / shunt C ladder,
//                       with pin-to-pin capacitance and mutual inductance
//                       between neighbouring pins; 8 signal pins expose
//                       their exterior and interior terminals (16 ports).
//
// The generators use their own splitmix64 stream, so a seed yields the
// same text on every platform and standard library.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n).
  long below(long n) { return static_cast<long>(next() % static_cast<std::uint64_t>(n)); }

 private:
  std::uint64_t state_;
};

/// Mixes a workload seed with a stream id (iteration, request index) so
/// every iteration draws a distinct netlist.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  Rng r(seed * 0x100000001b3ull ^ (stream + 0x51ed270b27ull));
  return r.next();
}

class NetlistWriter {
 public:
  void element(char kind, long a, long b, double value) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%c%ld %ld %ld %.6g\n", kind, ++count_, a,
                  b, value);
    text_ += buf;
  }
  void mutual(long l1, long l2, double k) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "K%ld L%ld L%ld %.6g\n", ++count_, l1, l2,
                  k);
    text_ += buf;
  }
  long last() const { return count_; }
  void port(const char* prefix, long index, long node) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), ".port %s%ld %ld\n", prefix, index, node);
    text_ += buf;
  }
  void reserve(std::size_t bytes) { text_.reserve(bytes); }
  std::string finish() {
    text_ += ".end\n";
    return std::move(text_);
  }

 private:
  std::string text_;
  long count_ = 0;
};

/// Picks one node per cell of a `cells_r`×`cells_c` lattice over a
/// rows×cols mesh (row-major cell order), at a seeded offset in the cell.
inline std::vector<long> lattice_taps(long rows, long cols, long cells_r,
                                      long cells_c, long count, Rng& rng) {
  std::vector<long> taps;
  for (long k = 0; k < count; ++k) {
    const long cr = k / cells_c, cc = k % cells_c;
    const long r0 = cr * rows / cells_r, r1 = (cr + 1) * rows / cells_r;
    const long c0 = cc * cols / cells_c, c1 = (cc + 1) * cols / cells_c;
    const long r = r0 + rng.below(r1 - r0), c = c0 + rng.below(c1 - c0);
    taps.push_back(r * cols + c + 1);
  }
  return taps;
}

/// Seeded rows×cols RC power grid with `ports` tap ports (node ids are
/// r·cols + c + 1; 0 is ground). Every node has a DC path to ground.
inline std::string rc_grid_netlist(long rows, long cols, long ports,
                                   std::uint64_t seed) {
  Rng rng(seed);
  NetlistWriter w;
  w.reserve(static_cast<std::size_t>(rows * cols) * 80);
  auto node = [cols](long r, long c) { return r * cols + c + 1; };
  for (long r = 0; r < rows; ++r)
    for (long c = 0; c < cols; ++c) {
      if (c + 1 < cols)
        w.element('R', node(r, c), node(r, c + 1), 0.05 * (0.8 + 0.4 * rng.uniform()));
      if (r + 1 < rows)
        w.element('R', node(r, c), node(r + 1, c), 0.05 * (0.8 + 0.4 * rng.uniform()));
      w.element('C', node(r, c), 0, 1e-12 * (0.8 + 0.4 * rng.uniform()));
    }
  for (long corner : {node(0, 0), node(0, cols - 1), node(rows - 1, 0),
                      node(rows - 1, cols - 1)})
    w.element('R', corner, 0, 0.5);
  for (long pad : lattice_taps(rows, cols, 4, 4, 16, rng))
    w.element('R', pad, 0, 0.5 * (0.9 + 0.2 * rng.uniform()));
  long cells = 1;
  while (cells * cells < ports) ++cells;
  const std::vector<long> taps = lattice_taps(rows, cols, cells, cells, ports, rng);
  for (long j = 0; j < ports; ++j)
    w.port("p", j, taps[static_cast<std::size_t>(j)]);
  return w.finish();
}

/// Seeded 16-port RLC package: `pins` pins of `segments` R–L–C sections
/// on a ring, values jittered ±10 % per pin.
inline std::string rlc_package_netlist(long pins, long segments,
                                       std::uint64_t seed) {
  Rng rng(seed);
  NetlistWriter w;
  long next_node = 0;
  // chain[p][k], k = 0..segments: exterior terminal to interior terminal.
  std::vector<std::vector<long>> chain(static_cast<std::size_t>(pins));
  std::vector<std::vector<long>> inductor(static_cast<std::size_t>(pins));
  for (long p = 0; p < pins; ++p) {
    auto& ch = chain[static_cast<std::size_t>(p)];
    for (long k = 0; k <= segments; ++k) ch.push_back(++next_node);
    const double spread = 0.9 + 0.2 * rng.uniform();
    for (long k = 0; k < segments; ++k) {
      const long mid = ++next_node;
      w.element('R', ch[static_cast<std::size_t>(k)], mid, 0.25 * spread);
      w.element('L', mid, ch[static_cast<std::size_t>(k) + 1], 0.5e-9 * spread);
      inductor[static_cast<std::size_t>(p)].push_back(w.last());
      w.element('C', ch[static_cast<std::size_t>(k) + 1], 0, 0.12e-12 * spread);
    }
    w.element('C', ch[0], 0, 0.06e-12);
  }
  for (long p = 0; p < pins; ++p) {
    const long q = (p + 1) % pins;
    for (long k = 0; k < segments; ++k) {
      w.element('C', chain[static_cast<std::size_t>(p)][static_cast<std::size_t>(k) + 1],
                chain[static_cast<std::size_t>(q)][static_cast<std::size_t>(k) + 1],
                0.05e-12);
      w.mutual(inductor[static_cast<std::size_t>(p)][static_cast<std::size_t>(k)],
               inductor[static_cast<std::size_t>(q)][static_cast<std::size_t>(k)], 0.25);
    }
  }
  // Signal pins in adjacent pairs around the ring; the rest are bonded to
  // the ground plane at both ends.
  const long pairs = 4, stride = pins / pairs;
  std::vector<long> signal;
  for (long q = 0; q < pairs; ++q) {
    signal.push_back(q * stride);
    signal.push_back(q * stride + 1);
  }
  for (long p = 0; p < pins; ++p) {
    bool is_signal = false;
    for (long s : signal) is_signal = is_signal || s == p;
    if (is_signal) continue;
    w.element('R', chain[static_cast<std::size_t>(p)].back(), 0, 0.2);
    w.element('R', chain[static_cast<std::size_t>(p)].front(), 0, 50.0);
  }
  for (std::size_t s = 0; s < signal.size(); ++s)
    w.port("ext", static_cast<long>(s), chain[static_cast<std::size_t>(signal[s])].front());
  for (std::size_t s = 0; s < signal.size(); ++s)
    w.port("int", static_cast<long>(s), chain[static_cast<std::size_t>(signal[s])].back());
  return w.finish();
}

}  // namespace perfbench
