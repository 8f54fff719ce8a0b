#include "io/restart_reader.hpp"

#include <cstring>
#include <fstream>

#include "engine/simulation.hpp"
#include "engine/style_registry.hpp"
#include "io/binary_io.hpp"
#include "io/restart.hpp"
#include "util/error.hpp"

namespace mlk::io {

namespace {

/// Load + validate one rank file; returns the payload ready for parsing and
/// reports the file's format version so the caller can gate newer sections.
BinaryReader load_payload(const std::string& path, int nranks_expected,
                          int rank_expected, std::uint32_t& version_out) {
  std::ifstream in(path, std::ios::binary);
  require(in.good(), "read_restart: cannot open '" + path + "'");

  RestartHeader h;
  require(bool(in.read(reinterpret_cast<char*>(&h), sizeof(h))),
          "read_restart: '" + path + "' is too short for a restart header");
  require(std::memcmp(h.magic, kMagic, sizeof(kMagic)) == 0,
          "read_restart: '" + path + "' is not a restart file (bad magic)");
  require(h.endian_tag == kEndianTag,
          "read_restart: '" + path + "' was written on a machine with "
          "different endianness");
  require(h.version >= 1 && h.version <= kFormatVersion,
          "read_restart: '" + path + "' has format version " +
              std::to_string(h.version) + "; this build reads up to " +
              std::to_string(kFormatVersion));
  require(h.header_crc ==
              crc32(&h, sizeof(RestartHeader) - sizeof(std::uint32_t)),
          "read_restart: '" + path + "' header CRC mismatch (corrupt file)");
  require(h.nranks == nranks_expected,
          "read_restart: checkpoint was written by " +
              std::to_string(h.nranks) + " rank(s) but this run has " +
              std::to_string(nranks_expected) +
              "; resume with the same rank count");
  require(h.rank == rank_expected,
          "read_restart: '" + path + "' belongs to rank " +
              std::to_string(h.rank) + ", not rank " +
              std::to_string(rank_expected));

  std::vector<char> payload(std::size_t(h.payload_size));
  require(bool(in.read(payload.data(), std::streamsize(payload.size()))),
          "read_restart: '" + path + "' payload is truncated");
  require(crc32(payload.data(), payload.size()) == h.payload_crc,
          "read_restart: '" + path + "' payload CRC mismatch (torn or "
          "corrupt checkpoint)");
  version_out = h.version;
  return BinaryReader(std::move(payload));
}

}  // namespace

void RestartReader::read(Simulation& sim, const std::string& base) {
  const int rank = sim.mpi ? sim.mpi->rank() : 0;
  const int nranks = sim.mpi ? sim.mpi->size() : 1;
  std::uint32_t version = 0;
  BinaryReader r = load_payload(restart_file_name(base, rank, nranks), nranks,
                                rank, version);

  // --- run state (set_units resets dt/skin defaults, so restore them after)
  const bigint ntimestep = r.get<bigint>();
  sim.set_units(r.get_string());
  sim.ntimestep = ntimestep;
  sim.dt = r.get<double>();
  sim.global_suffix = r.get_string();
  sim.newton_override = int(r.get<std::int32_t>());

  sim.neighbor.skin = r.get<double>();
  sim.neighbor.every = int(r.get<std::int32_t>());
  sim.neighbor.delay = int(r.get<std::int32_t>());
  sim.neighbor.check = r.get<std::uint8_t>() != 0;
  sim.thermo.every = r.get<bigint>();

  // --- domain ---
  double lo[3], hi[3];
  for (int d = 0; d < 3; ++d) lo[d] = r.get<double>();
  for (int d = 0; d < 3; ++d) hi[d] = r.get<double>();
  sim.domain.set_box(lo[0], hi[0], lo[1], hi[1], lo[2], hi[2]);
  for (int d = 0; d < 3; ++d)
    sim.domain.periodic[d] = r.get<std::uint8_t>() != 0;
  if (sim.mpi) sim.domain.decompose(sim.mpi->rank(), sim.mpi->size());

  // --- v2: decomposition + sort/balance state. decompose() above reset the
  // cut planes to the uniform grid; restore the writer's (possibly RCB)
  // cuts after it so the resumed run owns exactly the atoms it wrote.
  if (version >= 2) {
    for (int d = 0; d < 3; ++d) sim.domain.set_cuts(d, r.get_vector<double>());
    sim.neighbor.canonical = r.get<std::uint8_t>() != 0;
    sim.sorter.every = int(r.get<std::int32_t>());
    sim.sorter.builds_since_sort = int(r.get<std::int32_t>());
    r.get<std::uint8_t>();  // sort path: both builders agree, so unused
    sim.sorter.nsorts = r.get<bigint>();
    sim.balancer.enabled = r.get<std::uint8_t>() != 0;
    sim.balancer.thresh = r.get<double>();
    sim.balancer.nbins = int(r.get<std::int32_t>());
    sim.balancer.nbalances = r.get<bigint>();
  }

  // --- atoms ---
  Atom& a = sim.atom;
  require(a.nlocal == 0 && a.nghost == 0,
          "read_restart: atoms already exist; restart must be read into a "
          "fresh simulation");
  const bigint natoms = r.get<bigint>();
  a.set_ntypes(int(r.get<std::int32_t>()));
  {
    const auto mass = r.get_vector<double>();
    require(mass.size() == std::size_t(a.ntypes) + 1,
            "read_restart: mass table size mismatch");
    for (int t = 1; t <= a.ntypes; ++t) a.set_mass(t, mass[std::size_t(t)]);
  }
  const std::int32_t nlocal = r.get<std::int32_t>();
  const auto tags = r.get_vector<tagint>();
  const auto types = r.get_vector<std::int32_t>();
  const auto x = r.get_vector<double>();
  const auto v = r.get_vector<double>();
  const auto q = r.get_vector<double>();
  const std::size_t n = std::size_t(nlocal);
  require(tags.size() == n && types.size() == n && x.size() == 3 * n &&
              v.size() == 3 * n && q.size() == n,
          "read_restart: per-atom array size mismatch");
  for (std::size_t i = 0; i < n; ++i) {
    a.add_atom(int(types[i]), tags[i], x[3 * i], x[3 * i + 1], x[3 * i + 2]);
    for (std::size_t d = 0; d < 3; ++d) a.k_v.h_view(i, d) = v[3 * i + d];
    a.k_q.h_view(i) = q[i];
  }
  a.modified<kk::Host>(V_MASK | Q_MASK);
  a.natoms = natoms;

  // --- pair style: a style declared in the resume script wins; otherwise
  // re-instantiate from the checkpoint (only styles that packed coeffs) ---
  if (r.get<std::uint8_t>()) {
    const std::string pair_name = r.get_string();
    const bool supported = r.get<std::uint8_t>() != 0;
    BinaryReader blob =
        supported ? r.get_blob() : BinaryReader(std::vector<char>{});
    if (!sim.pair) {
      require(supported,
              "read_restart: pair style '" + pair_name +
                  "' does not serialize its coefficients; re-specify "
                  "pair_style/pair_coeff before read_restart");
      sim.pair = StyleRegistry::instance().create_pair(pair_name);
      sim.pair->ntypes_hint = a.ntypes;
      sim.pair->unpack_restart(blob);
    }
  }

  // --- fixes: restore state into script-declared fixes by id+style, and
  // re-instantiate any fix the resume script did not re-declare ---
  const std::uint32_t nfix = r.get<std::uint32_t>();
  for (std::uint32_t k = 0; k < nfix; ++k) {
    const std::string id = r.get_string();
    const std::string style = r.get_string();
    BinaryReader blob = r.get_blob();
    Fix* target = nullptr;
    for (auto& fix : sim.fixes)
      if (fix->id == id && fix->style_name == style) target = fix.get();
    if (!target) {
      auto fix = StyleRegistry::instance().create_fix(style);
      fix->id = id;
      target = fix.get();
      sim.fixes.push_back(std::move(fix));
    }
    target->unpack_restart(blob);
  }

  // Resume goes through a full setup (ghosts, neighbor list, forces).
  sim.setup_done = false;
}

}  // namespace mlk::io
