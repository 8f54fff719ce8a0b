#include "engine/input.hpp"

#include <cstdio>
#include <cmath>
#include <fstream>

#include "engine/style_registry.hpp"
#include "io/fault.hpp"
#include "io/restart_reader.hpp"
#include "kokkos/profiling.hpp"
#include "tools/chrome_trace.hpp"
#include "tools/kernel_timer.hpp"
#include "tools/memory_tracker.hpp"
#include "tools/observability.hpp"
#include "tools/telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/string_utils.hpp"

namespace mlk {

void Input::file(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "cannot open input script '" + path + "'");
  std::string text;
  while (std::getline(in, text)) line(text);
}

void Input::line(const std::string& text) {
  const auto words = tokenize(text);
  if (!words.empty()) execute(words);
}

Compute* Input::find_compute(const std::string& id) {
  auto it = computes_.find(id);
  return it == computes_.end() ? nullptr : it->second.get();
}

void Input::execute(const std::vector<std::string>& words) {
  const std::string& cmd = words[0];
  auto arg = [&](std::size_t i) -> const std::string& {
    require(i < words.size(), "command '" + cmd + "': missing argument");
    return words[i];
  };

  if (cmd == "units") {
    sim_.set_units(arg(1));
  } else if (cmd == "lattice") {
    lattice_.style = arg(1);
    const double scale = to_double(arg(2));
    require(scale > 0.0, "lattice: scale must be positive");
    if (sim_.units.name == "lj") {
      // LAMMPS convention: in lj units the scale argument is the reduced
      // density rho*, and a = (basis/rho*)^(1/3) for cubic cells.
      const int basis = lattice_basis_count(lattice_.style);
      lattice_.a = std::cbrt(double(basis) / scale);
    } else {
      lattice_.a = scale;
    }
  } else if (cmd == "create_atoms") {
    lattice_.nx = to_int(arg(1));
    lattice_.ny = to_int(arg(2));
    lattice_.nz = to_int(arg(3));
    lattice_.jitter = 0.0;
    lattice_.region = false;
    for (std::size_t i = 4; i < words.size(); ++i) {
      if (words[i] == "jitter") {
        lattice_.jitter = to_double(arg(i + 1));
        lattice_.seed = to_int(arg(i + 2));
        i += 2;
      } else if (words[i] == "region") {
        // region xlo xhi ylo yhi zlo zhi — keep only lattice sites inside
        // this fraction-of-box block (docs/DECOMPOSITION.md). Gives
        // non-uniform densities (droplet-in-vacuum) for load-balance tests.
        lattice_.region = true;
        for (int d = 0; d < 3; ++d) {
          lattice_.region_lo[d] = to_double(arg(i + 1 + 2 * std::size_t(d)));
          lattice_.region_hi[d] = to_double(arg(i + 2 + 2 * std::size_t(d)));
          require(lattice_.region_lo[d] < lattice_.region_hi[d],
                  "create_atoms region: lo must be < hi");
        }
        i += 6;
      } else {
        fatal("create_atoms: unknown keyword '" + words[i] + "'");
      }
    }
    if (sim_.mpi) sim_.domain.decompose(sim_.mpi->rank(), sim_.mpi->size());
    create_lattice(lattice_, sim_.domain, sim_.atom);
  } else if (cmd == "mass") {
    sim_.atom.set_mass(to_int(arg(1)), to_double(arg(2)));
  } else if (cmd == "velocity") {
    require(arg(1) == "all", "velocity: only group 'all' is supported");
    if (arg(2) == "create") {
      create_velocities(sim_.atom, to_double(arg(3)), sim_.units.boltz,
                        sim_.units.mvv2e, to_int(arg(4)), sim_.mpi);
    } else if (arg(2) == "scale") {
      const double t_target = to_double(arg(3));
      const double t_now = sim_.temperature();
      require(t_now > 0.0, "velocity scale: zero current temperature");
      const double s = std::sqrt(t_target / t_now);
      auto v = sim_.atom.k_v.h_view;
      sim_.atom.sync<kk::Host>(V_MASK);
      for (localint i = 0; i < sim_.atom.nlocal; ++i)
        for (int d = 0; d < 3; ++d)
          v(std::size_t(i), std::size_t(d)) *= s;
      sim_.atom.modified<kk::Host>(V_MASK);
    } else {
      fatal("velocity: unknown sub-command '" + arg(2) + "'");
    }
  } else if (cmd == "set") {
    require(arg(1) == "type" && arg(3) == "charge",
            "set: only 'set type <t> charge <q>' is supported");
    const int t = to_int(arg(2));
    const double qv = to_double(arg(4));
    sim_.atom.sync<kk::Host>(Q_MASK | TYPE_MASK);
    auto q = sim_.atom.k_q.h_view;
    auto type = sim_.atom.k_type.h_view;
    for (localint i = 0; i < sim_.atom.nlocal; ++i)
      if (type(std::size_t(i)) == t) q(std::size_t(i)) = qv;
    sim_.atom.modified<kk::Host>(Q_MASK);
  } else if (cmd == "pair_style") {
    sim_.pair = StyleRegistry::instance().create_pair(arg(1),
                                                      sim_.global_suffix);
    sim_.pair->settings({words.begin() + 2, words.end()});
  } else if (cmd == "pair_coeff") {
    require(sim_.pair != nullptr, "pair_coeff before pair_style");
    sim_.pair->ntypes_hint = sim_.atom.ntypes;
    sim_.pair->coeff({words.begin() + 1, words.end()});
  } else if (cmd == "neighbor") {
    sim_.neighbor.skin = to_double(arg(1));
  } else if (cmd == "neigh_modify") {
    for (std::size_t i = 1; i + 1 < words.size(); i += 2) {
      if (words[i] == "every")
        sim_.neighbor.every = to_int(words[i + 1]);
      else if (words[i] == "delay")
        sim_.neighbor.delay = to_int(words[i + 1]);
      else if (words[i] == "check")
        sim_.neighbor.check = to_bool(words[i + 1]);
      else if (words[i] == "canonical")
        sim_.neighbor.canonical = to_bool(words[i + 1]);
      else
        fatal("neigh_modify: unknown keyword '" + words[i] + "'");
    }
  } else if (cmd == "sort") {
    // sort every <N> | sort off: spatially reorder owned atoms every N
    // neighbor rebuilds (docs/DECOMPOSITION.md); off (the default) is the
    // bitwise reference.
    if (arg(1) == "off") {
      sim_.sorter.every = 0;
    } else {
      require(arg(1) == "every", "sort: expected 'sort every <N>' or "
              "'sort off'");
      sim_.sorter.every = to_int(arg(2));
      require(sim_.sorter.every >= 0, "sort every: N must be >= 0");
    }
  } else if (cmd == "balance") {
    // balance rcb <thresh> | balance off: recursive-coordinate-bisection
    // rebalancing of the sub-domain cut planes whenever the per-rank atom
    // imbalance (max/avg nlocal) exceeds thresh at a neighbor rebuild
    // (docs/DECOMPOSITION.md). Off (static uniform grid) is the reference.
    if (arg(1) == "off") {
      sim_.balancer.enabled = false;
    } else {
      require(arg(1) == "rcb", "balance: expected 'balance rcb <thresh>' or "
              "'balance off'");
      sim_.balancer.enabled = true;
      sim_.balancer.thresh = to_double(arg(2));
      require(sim_.balancer.thresh >= 1.0,
              "balance rcb: threshold must be >= 1.0");
    }
  } else if (cmd == "newton") {
    sim_.newton_override = to_bool(arg(1)) ? 1 : 0;
  } else if (cmd == "overlap") {
    // overlap on|off: comm/compute overlap in the Verlet force phase
    // (docs/EXECUTION_MODEL.md). Takes effect when the pair style supports
    // the interior/boundary split (full list + atom parallelism).
    sim_.overlap_enabled = to_bool(arg(1));
  } else if (cmd == "suffix") {
    const std::string& s = arg(1);
    sim_.global_suffix = (s == "off") ? "" : s;
  } else if (cmd == "package") {
    // accepted for input compatibility (execution defaults handled by suffix)
  } else if (cmd == "fix") {
    const std::string& id = arg(1);
    require(arg(2) == "all", "fix: only group 'all' is supported");
    auto fix = StyleRegistry::instance().create_fix(arg(3), sim_.global_suffix);
    fix->id = id;
    fix->parse_args({words.begin() + 4, words.end()});
    sim_.fixes.push_back(std::move(fix));
  } else if (cmd == "unfix") {
    const std::string& id = arg(1);
    std::erase_if(sim_.fixes,
                  [&](const std::unique_ptr<Fix>& f) { return f->id == id; });
  } else if (cmd == "compute") {
    const std::string& id = arg(1);
    require(arg(2) == "all", "compute: only group 'all' is supported");
    auto c = StyleRegistry::instance().create_compute(arg(3));
    c->id = id;
    computes_[id] = std::move(c);
  } else if (cmd == "timestep") {
    sim_.dt = to_double(arg(1));
  } else if (cmd == "thermo") {
    sim_.thermo.every = to_bigint(arg(1));
  } else if (cmd == "run") {
    sim_.run(to_bigint(arg(1)));
  } else if (cmd == "write_restart") {
    sim_.write_restart(arg(1));
  } else if (cmd == "read_restart") {
    io::RestartReader().read(sim_, arg(1));
  } else if (cmd == "restart") {
    // restart <N> <base>: checkpoint every N steps to base.<step>[.<rank>];
    // restart 0 disables. For checkpoints that are bitwise-transparent to
    // the writer run, pick N a multiple of the neighbor rebuild cadence.
    sim_.restart_every = to_bigint(arg(1));
    require(sim_.restart_every >= 0, "restart: interval must be >= 0");
    sim_.restart_base = sim_.restart_every > 0 ? arg(2) : "";
  } else if (cmd == "profile") {
    // profile on | off | dump <file>: per-kernel timing + per-space memory
    // accounting via the KokkosP-style hook layer (src/tools).
    const std::string& sub = arg(1);
    if (sub == "on") {
      if (!sim_.profile_timer) {
        sim_.profile_timer = std::make_shared<tools::KernelTimer>();
        sim_.profile_memory = std::make_shared<tools::MemorySpaceTracker>();
        sim_.profile_memory->set_print_leaks(false);
        kk::profiling::register_tool(sim_.profile_timer);
        kk::profiling::register_tool(sim_.profile_memory);
      }
    } else if (sub == "off") {
      if (sim_.profile_timer) {
        kk::profiling::deregister_tool(sim_.profile_timer);
        kk::profiling::deregister_tool(sim_.profile_memory);
        sim_.profile_timer.reset();
        sim_.profile_memory.reset();
      }
    } else if (sub == "dump") {
      require(sim_.profile_timer != nullptr, "profile dump: profiling is off "
              "(use 'profile on' before the run)");
      // Every rank's timer sees all ranks' launches; a rank's file holds
      // its own (its thread tag). Memory accounting is process-wide.
      std::string path = arg(2);
      std::string kernels;
      if (sim_.mpi && sim_.mpi->size() > 1) {
        path += ".rank" + std::to_string(sim_.mpi->rank());
        kernels = sim_.profile_timer->json_fragment(sim_.mpi->rank());
      } else {
        kernels = sim_.profile_timer->json_fragment();
      }
      tools::write_profile_json(path, kernels, *sim_.profile_memory);
    } else {
      fatal("profile: unknown sub-command '" + sub + "'");
    }
  } else if (cmd == "trace") {
    // trace <file> | stop: chrome://tracing timeline of kernels, regions,
    // and deep copies. Under simmpi each rank traces to <file>.rank<r>.
    const std::string& sub = arg(1);
    if (sub == "stop") {
      if (sim_.tracer) {
        kk::profiling::deregister_tool(sim_.tracer);
        sim_.tracer->finalize();
        sim_.tracer.reset();
      }
    } else {
      require(sim_.tracer == nullptr, "trace: already tracing ('trace stop' "
              "first)");
      std::string path = sub;
      int only_tag = tools::ChromeTrace::kNoFilter;
      if (sim_.mpi && sim_.mpi->size() > 1) {
        path += ".rank" + std::to_string(sim_.mpi->rank());
        only_tag = sim_.mpi->rank();
      }
      sim_.tracer = std::make_shared<tools::ChromeTrace>(path, only_tag);
      kk::profiling::register_tool(sim_.tracer);
    }
  } else if (cmd == "telemetry") {
    // telemetry <path>[:key=val,...] | flush | stop: real-time streaming of
    // step timings / thermo / in-situ analysis to a live JSON snapshot and
    // an NDJSON tail (docs/OBSERVABILITY.md). The hub is process-global.
    const std::string& sub = arg(1);
    if (sub == "stop") {
      tools::telemetry::Hub::instance().stop();
    } else if (sub == "flush") {
      tools::telemetry::Hub::instance().drain_now();
    } else {
      require(tools::start_telemetry_from_spec(sub),
              "telemetry: bad spec '" + sub + "'");
    }
  } else if (cmd == "fault_inject") {
    sim_.fault.arm(arg(1) == "off" ? -1 : to_bigint(arg(1)));
  } else if (cmd == "recover") {
    const bigint step = io::recover_latest(sim_, arg(1));
    // Say which set was restored: a silent fallback past a torn newest
    // checkpoint would otherwise be indistinguishable from a normal resume.
    if (sim_.thermo.print && (!sim_.mpi || sim_.mpi->rank() == 0))
      std::printf("# recovered '%s' from step %lld\n", arg(1).c_str(),
                  static_cast<long long>(step));
  } else {
    fatal("unknown command '" + cmd + "'");
  }
}

}  // namespace mlk
