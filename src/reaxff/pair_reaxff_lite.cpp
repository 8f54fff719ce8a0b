#include "reaxff/pair_reaxff_lite.hpp"

#include <cmath>

#include "engine/simulation.hpp"
#include "engine/style_registry.hpp"
#include "kokkos/core.hpp"
#include "util/error.hpp"

namespace mlk {

using reaxff::ReaxParams;

template <class Space>
PairReaxFFLite<Space>::PairReaxFFLite() {
  style_name = Space::is_device ? "reaxff-lite/kk" : "reaxff-lite";
  execution_space =
      Space::is_device ? ExecSpaceKind::Device : ExecSpaceKind::Host;
  needs_reverse_comm = true;  // bonded terms write ghost forces
}

template <class Space>
void PairReaxFFLite<Space>::coeff(const std::vector<std::string>& args) {
  require(args.size() >= 2 && args[0] == "*" && args[1] == "*",
          "reaxff-lite coeff: * * [preset]");
  const std::string preset = args.size() > 2 ? args[2] : "default";
  params_ = ReaxParams{};
  if (preset == "hns") {
    // Parameterization tuned to the hns_like molecular crystal: denser
    // bonding so that torsion quads appear with realistic (<5%) survival.
    params_.r0 = 1.6;
    params_.pbo1 = -0.06;
    params_.pbo2 = 5.0;
    params_.De = 90.0;
    params_.k_th = 25.0;
    params_.k_tors = 4.0;
    params_.bo_cut_tors = 0.5;
  } else {
    require(preset == "default", "reaxff-lite: unknown preset '" + preset + "'");
  }
  // Bond search distance = where BO crosses bo_cut: keeps the dynamic bond
  // list consistent with the threshold-shifted energies (no discontinuity).
  params_.rcut_bond = reaxff::bond_cut_distance(params_);
}

template <class Space>
void PairReaxFFLite<Space>::init(Simulation& sim) {
  const double cutghost = params_.rcut_nonb + sim.neighbor.skin;
  require(cutghost >= 2.0 * params_.rcut_bond,
          "reaxff-lite: ghost region must cover two bond lengths "
          "(rcut_nonb + skin >= 2 * rcut_bond)");
  qeq_ = reaxff::QEq<Space>(params_);
  qeq_.build_mode = qeq_build;
  qeq_.fused_solve = qeq_fused;
}

template <class Space>
EV PairReaxFFLite<Space>::compute_bond_energy(Atom& atom, bool eflag) {
  atom.sync<Space>(F_MASK);
  auto f = atom.k_f.view<Space>();
  const ReaxParams p = params_;
  const reaxff::BondList<Space> b = bonds_;
  const localint nlocal = atom.nlocal;

  EV total;
  kk::parallel_reduce(
      "ReaxFF::BondEnergy", kk::RangePolicy<Space>(0, std::size_t(nlocal)),
      [=](std::size_t i, EV& ev) {
        const int n = b.nbonds(i);
        for (int s = 0; s < n; ++s) {
          const std::size_t j = std::size_t(b.j(i, std::size_t(s)));
          // Threshold-shifted: E -> 0 continuously as the bond leaves the
          // list at BO == bo_cut.
          const double bo = b.bo(i, std::size_t(s)) - p.bo_cut;
          const double dbo = b.dbo(i, std::size_t(s));
          const double r = b.dr(i, std::size_t(s), 3);
          // E = -De * BO per bond; half per directed occurrence.
          // F_i = dE/dr * (xj - xi)/r with dE/dr = -De * dBO/dr.
          const double fpr = 0.5 * (-p.De * dbo) / r;
          const double fx = fpr * b.dr(i, std::size_t(s), 0);
          const double fy = fpr * b.dr(i, std::size_t(s), 1);
          const double fz = fpr * b.dr(i, std::size_t(s), 2);
          kk::atomic_add(&f(i, std::size_t(0)), fx);
          kk::atomic_add(&f(i, std::size_t(1)), fy);
          kk::atomic_add(&f(i, std::size_t(2)), fz);
          kk::atomic_add(&f(j, std::size_t(0)), -fx);
          kk::atomic_add(&f(j, std::size_t(1)), -fy);
          kk::atomic_add(&f(j, std::size_t(2)), -fz);
          if (eflag) {
            ev.evdwl += 0.5 * -p.De * bo;
            // Virial with r_ij = x_i - x_j = -dr.
            ev.v[0] += -b.dr(i, std::size_t(s), 0) * fx;
            ev.v[1] += -b.dr(i, std::size_t(s), 1) * fy;
            ev.v[2] += -b.dr(i, std::size_t(s), 2) * fz;
            ev.v[3] += -b.dr(i, std::size_t(s), 0) * fy;
            ev.v[4] += -b.dr(i, std::size_t(s), 0) * fz;
            ev.v[5] += -b.dr(i, std::size_t(s), 1) * fz;
          }
        }
      },
      total);
  atom.modified<Space>(F_MASK);
  return total;
}

template <class Space>
void PairReaxFFLite<Space>::compute(Simulation& sim, bool eflag) {
  reset_accumulators();
  Atom& atom = sim.atom;
  const NeighborList& list = sim.neighbor.list;
  require(list.gnum > 0 || sim.atom.nghost == 0,
          "reaxff-lite requires ghost neighbor rows");

  // 1. Bond-order list (divergent pre-processing -> compressed table).
  reaxff::build_bond_list(params_, atom, list, bonds_);

  // 2. Two-body bond energy.
  const EV ebond = compute_bond_energy(atom, eflag);

  // 3. Three-body angles.
  EV eangle;
  if (use_preprocessing) {
    reaxff::build_triples(bonds_, atom.nlocal, triples_);
    eangle = reaxff::compute_angles_preprocessed(params_, atom, bonds_,
                                                 triples_, eflag);
  } else {
    eangle = reaxff::compute_angles_direct(params_, atom, bonds_, eflag);
  }

  // 4. Four-body torsions over constrained quads.
  EV etors;
  if (use_preprocessing) {
    reaxff::build_quads(params_, atom, bonds_, quads_);
    etors = reaxff::compute_torsions_preprocessed(params_, atom, quads_, eflag);
  } else {
    etors = reaxff::compute_torsions_direct(params_, atom, bonds_, eflag);
  }

  // 5. Charge equilibration + Coulomb.
  qeq_.build_matrix(atom, list);
  qeq_.solve(atom, sim.comm, sim.mpi);
  double ecoul = 0.0;
  if (eflag) ecoul = qeq_.energy(atom);
  qeq_.add_forces(atom, virial);

  // 6. Tapered Morse vdW.
  const EV evdw = reaxff::compute_vdw<Space>(params_, atom, list, eflag);

  if (eflag) {
    last_ebond = ebond.evdwl;
    last_eangle = eangle.evdwl;
    last_etors = etors.evdwl;
    last_evdw = evdw.evdwl;
    last_ecoul = ecoul;
    eng_vdwl = ebond.evdwl + eangle.evdwl + etors.evdwl + evdw.evdwl;
    eng_coul = ecoul;
    for (int k = 0; k < 6; ++k)
      virial[k] += ebond.v[k] + eangle.v[k] + etors.v[k] + evdw.v[k];
  }
}

template class PairReaxFFLite<kk::Host>;
template class PairReaxFFLite<kk::Device>;

void register_pair_reaxff_lite() {
  auto& reg = StyleRegistry::instance();
  reg.add_pair("reaxff-lite", [](ExecSpaceKind) -> std::unique_ptr<Pair> {
    return std::make_unique<PairReaxFFLite<kk::Host>>();
  });
  reg.add_pair_kokkos("reaxff-lite",
                      [](ExecSpaceKind space) -> std::unique_ptr<Pair> {
                        if (space == ExecSpaceKind::Host)
                          return std::make_unique<PairReaxFFLite<kk::Host>>();
                        return std::make_unique<PairReaxFFLite<kk::Device>>();
                      });
}

}  // namespace mlk
