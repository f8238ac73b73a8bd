// The public SyMPVL API, in one include.
//
//   #include "sympvl.hpp"
//
// re-exports the library's stable surface: netlist parsing and MNA
// assembly, the reduction entry point sympvl::reduce() (SyMPVL, sharded
// SyMPVL, SyPVL, PVL, block Arnoldi) with the per-method algorithm
// functions underneath it, AWE and the multipoint session, reduced-model
// evaluation/post-processing/synthesis, the frequency-sweep entry point
// sympvl::sweep() over every sweepable object, the simulation engines
// (AC, transient, sensitivity), the circuit generators of the paper's
// Section 7 examples, and the I/O helpers (CSV, Touchstone). Programs
// against this header — like everything under examples/ — only break
// when one of these types changes deliberately.
//
// Module headers ("mor/sympvl.hpp", "sim/ac.hpp", …) remain includable
// on their own for finer-grained builds; headers NOT reachable from
// here (obs/ internals, fault.hpp, parallel/, the raw linalg kernels)
// are implementation surface and may change between versions without
// notice — the supported slice of them (KernelOptions, CacheOptions,
// FactorCache, the factorized-pencil plumbing) arrives through the
// reduction and simulation headers below.
#pragma once

// Circuit capture: netlist construction, SPICE-subset parsing, MNA
// assembly, topology partitioning, port network parameters.
#include "circuit/mna.hpp"
#include "circuit/netlist.hpp"
#include "circuit/network_params.hpp"
#include "circuit/parser.hpp"
#include "circuit/topology.hpp"

// Reduction: the public facade (sympvl::reduce — the one entry point),
// the per-method algorithm functions it calls (kept public as reference
// implementations), the many-terminal port-sharding layer, and the
// shared option/report surface.
#include "mor/arnoldi.hpp"
#include "mor/awe.hpp"
#include "mor/balanced.hpp"
#include "mor/moments.hpp"
#include "mor/multipoint.hpp"
#include "mor/options.hpp"
#include "mor/port_shard.hpp"
#include "mor/pvl.hpp"
#include "mor/reduce.hpp"
#include "mor/sympvl.hpp"
#include "mor/sypvl.hpp"

// Reduced-model consumption: evaluation, passivity checks, pole/residue
// post-processing, rational fitting, equivalent-circuit synthesis.
#include "mor/passivity.hpp"
#include "mor/postprocess.hpp"
#include "mor/rational.hpp"
#include "mor/reduced_model.hpp"
#include "mor/synthesis.hpp"
#include "mor/vectorfit.hpp"

// Simulation: the exact AC engine, transient, adjoint sensitivity, and
// the sweep entry point.
#include "sim/ac.hpp"
#include "sim/sensitivity.hpp"
#include "sim/sweep_api.hpp"
#include "sim/transient.hpp"

// Benchmark circuit generators (Section 7 example families plus the
// many-port power grid of the sharding benchmarks).
#include "gen/package.hpp"
#include "gen/peec.hpp"
#include "gen/power_grid.hpp"
#include "gen/random_circuit.hpp"
#include "gen/rc_interconnect.hpp"

// Result I/O.
#include "io/csv.hpp"
#include "io/touchstone.hpp"
