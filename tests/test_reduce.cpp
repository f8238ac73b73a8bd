// The public reduce() facade: method dispatch agrees bit for bit with the
// per-method algorithm functions it calls, the MacroModel variant
// evaluates uniformly, failures surface as status + diagnostics, and the
// unified sweep accepts the facade's models.
#include "mor/reduce.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "gen/package.hpp"
#include "mor/balanced.hpp"
#include "mor/rational.hpp"
#include "sim/sweep_api.hpp"

namespace sympvl {
namespace {

Netlist two_port_rc() {
  Netlist nl;
  nl.add_resistor(1, 2, 100.0);
  nl.add_resistor(2, 3, 150.0);
  nl.add_resistor(3, 0, 200.0);
  nl.add_capacitor(1, 0, 1e-12);
  nl.add_capacitor(2, 0, 2e-12);
  nl.add_capacitor(3, 0, 1.5e-12);
  nl.add_port(1, 0);
  nl.add_port(3, 0);
  return nl;
}

const Complex kProbe(0.0, 2.0 * M_PI * 1e9);

TEST(Reduce, SympvlDispatchMatchesDriverBitwise) {
  const MnaSystem sys = build_mna(two_port_rc());
  ReduceOptions opt;
  opt.order = 3;
  const ReduceResult res = reduce(sys, opt);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.status, ReductionStatus::kOk);
  ASSERT_NE(res.model.as_reduced(), nullptr);
  EXPECT_EQ(res.model.order(), 3);
  EXPECT_EQ(res.model.port_count(), 2);
  EXPECT_EQ(res.report.achieved_order, 3);
  EXPECT_TRUE(res.diagnostics.empty());

  const ReducedModel direct =
      sympvl_reduce(sys, static_cast<const SympvlOptions&>(opt));
  const CMat za = res.value().eval(kProbe);
  const CMat zb = direct.eval(kProbe);
  for (Index i = 0; i < za.rows(); ++i)
    for (Index j = 0; j < za.cols(); ++j) EXPECT_EQ(za(i, j), zb(i, j));
}

TEST(Reduce, ShardedWithOneShardMatchesSympvlBitwise) {
  const MnaSystem sys = build_mna(two_port_rc());
  ReduceOptions opt;
  opt.order = 3;
  opt.method = ReduceMethod::kShardedSympvl;
  opt.shard.shards = 1;
  const ReduceResult sharded = reduce(sys, opt);
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(sharded.shard.shards, 1);

  opt.method = ReduceMethod::kSympvl;
  const ReduceResult mono = reduce(sys, opt);
  const CMat za = sharded.value().eval(kProbe);
  const CMat zb = mono.value().eval(kProbe);
  for (Index i = 0; i < za.rows(); ++i)
    for (Index j = 0; j < za.cols(); ++j) EXPECT_EQ(za(i, j), zb(i, j));
}

TEST(Reduce, ShardedManyPortPathReportsShardTelemetry) {
  PackageOptions popt;
  popt.pins = 16;
  popt.segments = 2;
  popt.signal_pins = 8;
  const MnaSystem sys =
      build_mna(make_package_circuit(popt).netlist, MnaForm::kAuto);
  ReduceOptions opt;
  opt.method = ReduceMethod::kShardedSympvl;
  opt.order = 32;
  opt.shard.shards = 4;
  const ReduceResult res = reduce(sys, opt);
  ASSERT_TRUE(res.ok());
  ASSERT_NE(res.model.as_arnoldi(), nullptr);
  EXPECT_EQ(res.shard.shards, 4);
  EXPECT_EQ(res.model.port_count(), 16);
  EXPECT_GT(res.shard.stitched_order, 0);
  const CMat z = res.value().eval(kProbe);
  for (Index i = 0; i < z.rows(); ++i)
    for (Index j = 0; j < z.cols(); ++j)
      EXPECT_TRUE(std::isfinite(z(i, j).real()) &&
                  std::isfinite(z(i, j).imag()));
}

Netlist one_port_rc() {
  Netlist nl;  // SyPVL is the single-port predecessor: needs exactly one port
  nl.add_resistor(1, 2, 100.0);
  nl.add_resistor(2, 0, 150.0);
  nl.add_capacitor(1, 0, 1e-12);
  nl.add_capacitor(2, 0, 2e-12);
  nl.add_port(1, 0);
  return nl;
}

TEST(Reduce, SypvlDispatchMatchesDriver) {
  const MnaSystem sys = build_mna(one_port_rc());
  ReduceOptions opt;
  opt.order = 3;
  opt.method = ReduceMethod::kSypvl;
  const ReduceResult res = reduce(sys, opt);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.status, ReductionStatus::kOk);
  EXPECT_EQ(res.report.achieved_order, 2);  // 2 nodes: the full space
  EXPECT_EQ(res.model.order(), 2);
  const ReducedModel direct =
      sypvl_reduce(sys, static_cast<const SympvlOptions&>(opt));
  const CMat za = res.value().eval(kProbe);
  const CMat zb = direct.eval(kProbe);
  for (Index i = 0; i < za.rows(); ++i)
    for (Index j = 0; j < za.cols(); ++j) EXPECT_EQ(za(i, j), zb(i, j));
}

TEST(Reduce, PvlDispatchWrapsScalarAsOneByOne) {
  const MnaSystem sys = build_mna(two_port_rc());
  ReduceOptions opt;
  opt.order = 3;
  opt.method = ReduceMethod::kPvl;
  opt.pvl_row = 1;
  opt.pvl_col = 0;
  const ReduceResult res = reduce(sys, opt);
  ASSERT_TRUE(res.ok());
  ASSERT_NE(res.model.as_pvl(), nullptr);
  EXPECT_EQ(res.model.port_count(), 1);
  const CMat z = res.value().eval(kProbe);
  ASSERT_EQ(z.rows(), 1);
  ASSERT_EQ(z.cols(), 1);

  EXPECT_EQ(res.status, ReductionStatus::kOk);
  EXPECT_EQ(res.report.achieved_order, res.model.order());

  PvlOptions popt;
  static_cast<CommonReductionOptions&>(popt) = opt;
  EXPECT_EQ(z(0, 0), pvl_reduce_entry(sys, 1, 0, popt).eval(kProbe));
}

TEST(Reduce, ArnoldiDispatchMatchesDriver) {
  const MnaSystem sys = build_mna(two_port_rc());
  ReduceOptions opt;
  opt.order = 3;
  opt.method = ReduceMethod::kArnoldi;
  const ReduceResult res = reduce(sys, opt);
  ASSERT_TRUE(res.ok());
  ASSERT_NE(res.model.as_arnoldi(), nullptr);

  EXPECT_EQ(res.status, ReductionStatus::kOk);
  EXPECT_EQ(res.report.achieved_order, res.model.order());

  ArnoldiOptions aopt;
  static_cast<CommonReductionOptions&>(aopt) = opt;
  const CMat za = res.value().eval(kProbe);
  const CMat zb = arnoldi_reduce(sys, aopt).eval(kProbe);
  for (Index i = 0; i < za.rows(); ++i)
    for (Index j = 0; j < za.cols(); ++j) EXPECT_EQ(za(i, j), zb(i, j));
}

TEST(Reduce, SypvlOnMultiPortSystemFailsStructured) {
  ReduceOptions opt;
  opt.order = 2;
  opt.method = ReduceMethod::kSypvl;
  const ReduceResult res = reduce(build_mna(two_port_rc()), opt);  // p = 2
  EXPECT_EQ(res.status, ReductionStatus::kFailed);
  EXPECT_TRUE(res.model.empty());
  ASSERT_FALSE(res.diagnostics.empty());
  EXPECT_EQ(res.diagnostics.front().code, ErrorCode::kInvalidArgument);
}

TEST(Reduce, PvlOutOfRangePortFailsStructured) {
  ReduceOptions opt;
  opt.order = 3;
  opt.method = ReduceMethod::kPvl;
  opt.pvl_row = 5;  // the system has two ports
  const ReduceResult res = reduce(build_mna(two_port_rc()), opt);
  EXPECT_EQ(res.status, ReductionStatus::kFailed);
  ASSERT_FALSE(res.diagnostics.empty());
  EXPECT_EQ(res.diagnostics.front().code, ErrorCode::kInvalidArgument);
}

TEST(Reduce, NetlistOverloadCapturesAssemblyFailure) {
  Netlist bad;  // a port with no elements: MNA assembly must reject it
  bad.add_port(1, 0);
  ReduceOptions opt;
  opt.order = 2;
  const ReduceResult res = reduce(bad, opt);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status, ReductionStatus::kFailed);
  ASSERT_FALSE(res.diagnostics.empty());
  EXPECT_TRUE(res.model.empty());
  EXPECT_THROW(res.value(), Error);
}

TEST(Reduce, MacroModelSweepDispatches) {
  const MnaSystem sys = build_mna(two_port_rc());
  ReduceOptions opt;
  opt.order = 3;
  const Vec freqs{1e8, 1e9, 5e9};

  const ReduceResult lanczos = reduce(sys, opt);
  const SweepResult sa = sweep(lanczos.value(), freqs);
  ASSERT_EQ(sa.size(), freqs.size());
  EXPECT_TRUE(sa.all_ok());

  opt.method = ReduceMethod::kPvl;
  const ReduceResult pvl = reduce(sys, opt);
  const SweepResult sb = sweep(pvl.value(), freqs);
  ASSERT_EQ(sb.size(), freqs.size());
  ASSERT_EQ(sb.values[0].rows(), 1);

  opt.method = ReduceMethod::kArnoldi;
  const ReduceResult arnoldi = reduce(sys, opt);
  const SweepResult sc = sweep(arnoldi.value(), freqs);
  EXPECT_TRUE(sc.all_ok());

  // The exact engine agrees with the order-3 model on this 3-node system.
  const SweepResult exact = sweep(sys, freqs);
  for (size_t k = 0; k < freqs.size(); ++k)
    for (Index i = 0; i < 2; ++i)
      for (Index j = 0; j < 2; ++j)
        EXPECT_NEAR(std::abs(sa.values[k](i, j) - exact.values[k](i, j)), 0.0,
                    1e-6 * std::abs(exact.values[k](i, j)) + 1e-12);
}

TEST(Reduce, EmptyMacroModelThrowsOnUse) {
  MacroModel empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.order(), 0);
  EXPECT_EQ(empty.port_count(), 0);
  EXPECT_THROW(empty.eval(kProbe), Error);
  EXPECT_THROW(sweep(empty, Vec{1e9}), Error);
}

// ---- Contracts shared by every reduction algorithm. ----

TEST(Driver, InvalidOrderIsStructuredFailure) {
  ReduceOptions opt;
  opt.order = 0;
  try {
    reduce(build_mna(two_port_rc()), opt);
    FAIL() << "expected Error";
  } catch (const Error& ex) {
    EXPECT_EQ(ex.code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(ex.context().stage, "reduce.validate");
  }
}

TEST(Driver, ConsolidatedOptionsShareBaseFields) {
  // All option structs expose the CommonReductionOptions surface; a
  // generic helper can configure any of them.
  const auto configure = [](CommonReductionOptions& opt) {
    opt.order = 7;
    opt.s0 = 2.5;
    opt.auto_shift = false;
  };
  SympvlOptions so;
  PvlOptions po;
  ArnoldiOptions ao;
  RationalOptions ro;
  BalancedOptions bo;
  LanczosOptions lo;
  for (CommonReductionOptions* opt :
       {static_cast<CommonReductionOptions*>(&so),
        static_cast<CommonReductionOptions*>(&po),
        static_cast<CommonReductionOptions*>(&ao),
        static_cast<CommonReductionOptions*>(&ro),
        static_cast<CommonReductionOptions*>(&bo),
        static_cast<CommonReductionOptions*>(&lo)})
    configure(*opt);
  EXPECT_EQ(so.order, 7);
  EXPECT_EQ(bo.order, 7);
  EXPECT_EQ(po.s0, 2.5);
  EXPECT_FALSE(lo.auto_shift);
  // Driver-specific defaults survive the shared base.
  EXPECT_EQ(ao.deflation_tol, 1e-10);
  EXPECT_EQ(ro.deflation_tol, 1e-10);
  EXPECT_EQ(so.deflation_tol, 1e-8);
  EXPECT_EQ(po.breakdown_tol, 1e-12);
}

}  // namespace
}  // namespace sympvl
