#include "io/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "gen/random_circuit.hpp"
#include "sim/ac.hpp"
#include "sim/sweep_api.hpp"

namespace sympvl {
namespace {

TEST(Csv, BuildAndAccess) {
  CsvTable t({"a", "b"});
  t.add_row({1.0, 2.0});
  t.add_row({3.0, 4.0});
  EXPECT_EQ(t.row_count(), 2);
  EXPECT_EQ(t.column_count(), 2);
  EXPECT_DOUBLE_EQ(t.at(1, 0), 3.0);
  const Vec b = t.column("b");
  EXPECT_DOUBLE_EQ(b[1], 4.0);
  EXPECT_TRUE(t.has_column("a"));
  EXPECT_FALSE(t.has_column("c"));
  EXPECT_THROW(t.column("c"), Error);
}

TEST(Csv, Validation) {
  EXPECT_THROW(CsvTable(std::vector<std::string>{}), Error);
  EXPECT_THROW(CsvTable({"a,b"}), Error);
  CsvTable t({"a"});
  EXPECT_THROW(t.add_row({1.0, 2.0}), Error);
  EXPECT_THROW(t.at(0, 0), Error);
}

TEST(Csv, RoundTripFullPrecision) {
  CsvTable t({"x", "y"});
  t.add_row({1.0 / 3.0, 1e-300});
  t.add_row({-2.718281828459045, 6.022e23});
  const CsvTable back = CsvTable::parse(t.to_string());
  ASSERT_EQ(back.row_count(), 2);
  for (Index i = 0; i < 2; ++i)
    for (Index j = 0; j < 2; ++j)
      EXPECT_DOUBLE_EQ(back.at(i, j), t.at(i, j));
  EXPECT_EQ(back.columns(), t.columns());
}

TEST(Csv, FileRoundTrip) {
  CsvTable t({"f", "v"});
  t.add_row({1e9, 0.5});
  const std::string path = "/tmp/sympvl_csv_test.csv";
  t.write_file(path);
  const CsvTable back = CsvTable::read_file(path);
  EXPECT_DOUBLE_EQ(back.at(0, 0), 1e9);
  std::remove(path.c_str());
  EXPECT_THROW(CsvTable::read_file("/nonexistent/x.csv"), Error);
}

TEST(Csv, ParseRejectsGarbage) {
  EXPECT_THROW(CsvTable::parse(""), Error);
  EXPECT_THROW(CsvTable::parse("a,b\n1,zzz\n"), Error);
}

TEST(Csv, SweepExport) {
  const Netlist nl = random_rc({.nodes = 15, .ports = 2, .seed = 1});
  const MnaSystem sys = build_mna(nl);
  const Vec freqs = log_frequency_grid(1e7, 1e9, 5);
  const auto z = sweep(sys, freqs, {.throw_on_failure = true}).values;
  const CsvTable t =
      sweep_to_csv(freqs, z, {{0, 0, "z11"}, {1, 0, "z21"}});
  EXPECT_EQ(t.row_count(), 5);
  EXPECT_TRUE(t.has_column("mag_z11"));
  EXPECT_TRUE(t.has_column("im_z21"));
  // Magnitude column is consistent with re/im.
  const Vec re = t.column("re_z11");
  const Vec im = t.column("im_z11");
  const Vec mag = t.column("mag_z11");
  for (size_t k = 0; k < 5; ++k)
    EXPECT_NEAR(mag[k], std::hypot(re[k], im[k]), 1e-12 * mag[k]);
}

TEST(Csv, TransientExport) {
  Netlist nl;
  nl.add_resistor(1, 0, 100.0);
  nl.add_capacitor(1, 0, 1e-12);
  nl.add_port(1, 0);
  const MnaSystem sys = build_mna(nl);
  TransientOptions opt;
  opt.dt = 1e-11;
  opt.t_end = 1e-9;
  const auto res = simulate_ports_transient(
      sys, {[](double t) { return t > 0 ? 1e-3 : 0.0; }}, opt);
  const CsvTable t = transient_to_csv(res, {"v_port"});
  EXPECT_EQ(t.row_count(), static_cast<Index>(res.time.size()));
  EXPECT_TRUE(t.has_column("v_port"));
  EXPECT_DOUBLE_EQ(t.column("t_s")[0], 0.0);
}

}  // namespace
}  // namespace sympvl
