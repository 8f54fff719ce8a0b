#include "io/restart_writer.hpp"

#include <cstring>
#include <fstream>

#include "engine/simulation.hpp"
#include "io/binary_io.hpp"
#include "io/restart.hpp"
#include "util/error.hpp"

namespace mlk::io {

void RestartWriter::write(Simulation& sim, const std::string& base) {
  const int rank = sim.mpi ? sim.mpi->rank() : 0;
  const int nranks = sim.mpi ? sim.mpi->size() : 1;

  BinaryWriter w;

  // --- run state ---
  w.put(sim.ntimestep);
  w.put_string(sim.units.name);
  w.put(sim.dt);
  w.put_string(sim.global_suffix);
  w.put(std::int32_t(sim.newton_override));

  // --- neighbor / thermo cadence settings ---
  w.put(sim.neighbor.skin);
  w.put(std::int32_t(sim.neighbor.every));
  w.put(std::int32_t(sim.neighbor.delay));
  w.put(std::uint8_t(sim.neighbor.check ? 1 : 0));
  w.put(sim.thermo.every);

  // --- domain (global box; sub-boxes are re-derived by decompose on read) ---
  for (int d = 0; d < 3; ++d) w.put(sim.domain.boxlo[d]);
  for (int d = 0; d < 3; ++d) w.put(sim.domain.boxhi[d]);
  for (int d = 0; d < 3; ++d) w.put(std::uint8_t(sim.domain.periodic[d]));

  // --- v2: decomposition + sort/balance state (docs/DECOMPOSITION.md).
  // The RCB cut planes are part of the trajectory: a resume that silently
  // reset them to the uniform grid would migrate atoms at the first rebuild
  // and diverge from the writer. Likewise the sorter's rebuild counter — a
  // pending sort must fire on the same rebuild after resume.
  for (int d = 0; d < 3; ++d) w.put_vector(sim.domain.cuts(d));
  w.put(std::uint8_t(sim.neighbor.canonical ? 1 : 0));
  w.put(std::int32_t(sim.sorter.every));
  w.put(std::int32_t(sim.sorter.builds_since_sort));
  w.put(std::uint8_t(1));  // sort path: always binned (readers skip it)
  w.put(sim.sorter.nsorts);
  w.put(std::uint8_t(sim.balancer.enabled ? 1 : 0));
  w.put(sim.balancer.thresh);
  w.put(std::int32_t(sim.balancer.nbins));
  w.put(sim.balancer.nbalances);

  // --- atoms (owned only; ghosts are rebuilt from scratch on resume) ---
  Atom& a = sim.atom;
  a.sync<kk::Host>(X_MASK | V_MASK | TYPE_MASK | TAG_MASK | Q_MASK);
  w.put(a.natoms);
  w.put(std::int32_t(a.ntypes));
  {
    std::vector<double> mass(std::size_t(a.ntypes) + 1, 0.0);
    for (int t = 1; t <= a.ntypes; ++t) mass[std::size_t(t)] = a.mass_of_type(t);
    w.put_vector(mass);
  }
  const std::size_t n = std::size_t(a.nlocal);
  w.put(std::int32_t(a.nlocal));
  {
    std::vector<tagint> tags(n);
    std::vector<std::int32_t> types(n);
    std::vector<double> x(3 * n), v(3 * n), q(n);
    for (std::size_t i = 0; i < n; ++i) {
      tags[i] = a.k_tag.h_view(i);
      types[i] = a.k_type.h_view(i);
      for (std::size_t d = 0; d < 3; ++d) {
        x[3 * i + d] = a.k_x.h_view(i, d);
        v[3 * i + d] = a.k_v.h_view(i, d);
      }
      q[i] = a.k_q.h_view(i);
    }
    w.put_vector(tags);
    w.put_vector(types);
    w.put_vector(x);
    w.put_vector(v);
    w.put_vector(q);
  }

  // --- pair style ---
  w.put(std::uint8_t(sim.pair ? 1 : 0));
  if (sim.pair) {
    w.put_string(sim.pair->style_name);
    BinaryWriter pw;
    const bool supported = sim.pair->pack_restart(pw);
    w.put(std::uint8_t(supported ? 1 : 0));
    if (supported) w.put_blob(pw);
  }

  // --- fixes (id + style + private state, RNG streams included) ---
  w.put(std::uint32_t(sim.fixes.size()));
  for (const auto& fix : sim.fixes) {
    w.put_string(fix->id);
    w.put_string(fix->style_name);
    BinaryWriter fw;
    fix->pack_restart(fw);
    w.put_blob(fw);
  }

  // --- header + atomic publish (write to a temp name, then rename, so a
  // crash mid-write can never leave a plausible-looking torn file) ---
  RestartHeader h;
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.version = kFormatVersion;
  h.endian_tag = kEndianTag;
  h.nranks = nranks;
  h.rank = rank;
  h.payload_size = w.bytes().size();
  h.payload_crc = w.crc();
  h.header_crc = crc32(&h, sizeof(RestartHeader) - sizeof(std::uint32_t));

  const std::string path = restart_file_name(base, rank, nranks);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    require(out.good(), "write_restart: cannot open '" + tmp + "'");
    out.write(reinterpret_cast<const char*>(&h), sizeof(h));
    out.write(w.bytes().data(), std::streamsize(w.bytes().size()));
    require(out.good(), "write_restart: short write to '" + tmp + "'");
  }
  require(std::rename(tmp.c_str(), path.c_str()) == 0,
          "write_restart: cannot publish '" + path + "'");

  // The checkpoint set is only complete once every rank has published.
  if (sim.mpi) sim.mpi->barrier();
}

}  // namespace mlk::io
