// Property tests for the decomposition/migration path
// (docs/DECOMPOSITION.md): RCB cut computation, non-uniform cut
// installation, iterated-exchange migration, and the spatial atom sorter.
//
// The randomized harness sweeps >= 100 seeded configurations of random
// non-uniform densities x random cut sequences and asserts the invariants
// that make sort/balance safe to enable on any run:
//   * rcb_cuts always yields a valid partition (ascending, spanning,
//     min-width respected) and hits the weight quantiles when unclamped;
//   * migration is an exact ownership partition — every atom owned by
//     exactly one rank, none lost or duplicated, payloads (v = f(tag))
//     bit-preserved through any number of hops;
//   * sort permutations are bijections, the binned (counting-sort) builder
//     reproduces the scalar reference permutation exactly, and sorting is
//     idempotent.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <numeric>
#include <vector>

#include "comm/decomposition.hpp"
#include "comm/simmpi.hpp"
#include "engine/atom_sort.hpp"
#include "engine/balance.hpp"
#include "test_helpers.hpp"
#include "util/random.hpp"

namespace mlk {
namespace {

// ------------------------------------------------------------------ rcb_cuts

/// Piecewise-linear CDF of `w` over [lo, hi] evaluated at x — the same
/// measure rcb_cuts bisects, recomputed independently here.
double cdf(const std::vector<double>& w, double lo, double hi, double x) {
  const double bin = (hi - lo) / double(w.size());
  double acc = 0.0;
  for (std::size_t b = 0; b < w.size(); ++b) {
    const double blo = lo + double(b) * bin;
    if (x >= blo + bin) {
      acc += w[b];
    } else if (x > blo) {
      acc += w[b] * (x - blo) / bin;
      break;
    } else {
      break;
    }
  }
  return acc;
}

void expect_valid_cuts(const std::vector<double>& cuts, int np, double lo,
                       double hi, double min_width) {
  ASSERT_EQ(cuts.size(), std::size_t(np) + 1);
  EXPECT_EQ(cuts.front(), lo);
  EXPECT_EQ(cuts.back(), hi);
  for (int i = 0; i < np; ++i) {
    EXPECT_LT(cuts[std::size_t(i)], cuts[std::size_t(i) + 1]);
    EXPECT_GE(cuts[std::size_t(i) + 1] - cuts[std::size_t(i)],
              min_width * (1.0 - 1e-12))
        << "slab " << i << " thinner than min_width";
  }
}

TEST(RcbCuts, RandomWeightsHundredConfigsAlwaysValid) {
  // 100 seeded configs: random rank counts, boxes, bin counts, and weight
  // profiles with zero bins and heavy spikes (the droplet's vacuum + core).
  for (int seed = 1; seed <= 100; ++seed) {
    RanPark rng(17 * seed + 1);
    const int np = 1 + int(rng.uniform() * 8.0);
    const double lo = -20.0 * rng.uniform();
    const double hi = lo + 5.0 + 45.0 * rng.uniform();
    const int nbins = 4 + int(rng.uniform() * 256.0);
    std::vector<double> w(std::size_t(nbins), 0.0);
    for (double& wi : w) {
      const double u = rng.uniform();
      wi = u < 0.3 ? 0.0 : (u < 0.9 ? rng.uniform() : 100.0 * rng.uniform());
    }
    const double min_width = (hi - lo) / (double(np) * (2.0 + 8.0 * rng.uniform()));
    const auto cuts = rcb_cuts(w, np, lo, hi, min_width);
    expect_valid_cuts(cuts, np, lo, hi, min_width);
  }
}

TEST(RcbCuts, HitsWeightQuantilesWhenUnclamped) {
  // With strictly positive weights and a tiny min_width the clamps never
  // bind, so every interior cut must land exactly on its weight quantile
  // (under the piecewise-linear bin measure both sides use).
  for (int seed = 1; seed <= 40; ++seed) {
    RanPark rng(23 * seed + 5);
    const int np = 2 + int(rng.uniform() * 6.0);
    const double lo = 0.0, hi = 10.0 + 30.0 * rng.uniform();
    std::vector<double> w(64);
    for (double& wi : w) wi = 0.05 + rng.uniform();
    const double total = std::accumulate(w.begin(), w.end(), 0.0);
    const auto cuts = rcb_cuts(w, np, lo, hi, (hi - lo) * 1e-6);
    expect_valid_cuts(cuts, np, lo, hi, 0.0);
    for (int i = 1; i < np; ++i)
      EXPECT_NEAR(cdf(w, lo, hi, cuts[std::size_t(i)]),
                  total * double(i) / double(np), 1e-9 * total)
          << "seed " << seed << " cut " << i;
  }
}

TEST(RcbCuts, EmptyOrZeroWeightsFallBackToUniform) {
  const auto uniform = uniform_cuts(4, 0.0, 8.0);
  EXPECT_EQ(rcb_cuts({}, 4, 0.0, 8.0, 0.5), uniform);
  EXPECT_EQ(rcb_cuts(std::vector<double>(16, 0.0), 4, 0.0, 8.0, 0.5), uniform);
}

TEST(RcbCuts, MinWidthMustFit) {
  // np slabs of min_width each must fit in the span.
  EXPECT_THROW(rcb_cuts(std::vector<double>(8, 1.0), 4, 0.0, 1.0, 0.5), Error);
}

TEST(UniformCuts, BitwiseMatchesDecomposeSubBox) {
  // The historical sub-box bounds and the cut-plane representation must be
  // the same doubles, or enabling the cuts machinery would perturb every
  // existing multirank trajectory.
  Domain d;
  d.set_box(-1.5, 7.5, 0.0, 3.0, 2.0, 11.0);
  for (int nranks : {1, 2, 4, 6, 8}) {
    for (int rank = 0; rank < nranks; ++rank) {
      d.decompose(rank, nranks);
      for (int k = 0; k < 3; ++k) {
        const int c = d.grid().coord[k];
        ASSERT_EQ(d.cuts(k).size(), std::size_t(d.grid().np[k]) + 1);
        EXPECT_EQ(d.sublo[k], d.cuts(k)[std::size_t(c)]);
        EXPECT_EQ(d.subhi[k], d.cuts(k)[std::size_t(c) + 1]);
      }
    }
  }
}

TEST(DomainCuts, SetCutsValidatesAndRederivesSubBox) {
  Domain d;
  d.set_box(0.0, 10.0, 0.0, 10.0, 0.0, 10.0);
  d.decompose(1, 2);  // 1x1x2 grid on a cube: z is the split dimension
  ASSERT_EQ(d.grid().np[2], 2);
  d.set_cuts(2, {0.0, 3.25, 10.0});
  EXPECT_EQ(d.sublo[2], 3.25);
  EXPECT_EQ(d.subhi[2], 10.0);
  EXPECT_THROW(d.set_cuts(2, {0.0, 10.0}), Error);          // wrong count
  EXPECT_THROW(d.set_cuts(2, {0.0, 12.0, 10.0}), Error);    // not ascending
  EXPECT_THROW(d.set_cuts(2, {1.0, 3.0, 10.0}), Error);     // doesn't span
}

// ------------------------------------------------------- migration partition

double vel_of(tagint tag, int d) { return double(tag) * 0.001 + double(d); }

/// One randomized migration configuration: `nranks` ranks, clustered +
/// uniform random density, followed by `rounds` random RCB cut installs,
/// each migrated and checked for exact ownership partition.
void migration_property_case(int nranks, int seed, int rounds) {
  init_all();
  const double L = 24.0;
  const tagint N = 240;
  std::mutex mu;
  std::map<tagint, int> owner_of;  // tag -> owning rank (exactly one)
  bool duplicate = false;
  bool payload_ok = true;
  bool all_inside = true;

  simmpi::World world(nranks);
  world.run([&](simmpi::Comm& comm) {
    Simulation sim;
    sim.mpi = &comm;
    sim.comm.mpi = &comm;
    sim.domain.set_box(0, L, 0, L, 0, L);
    sim.domain.decompose(comm.rank(), comm.size());
    sim.atom.set_ntypes(1);

    // Every rank walks the same RNG stream, so all ranks agree on every
    // position (and on the cut weights below) without communication.
    RanPark rng(seed);
    const int nclusters = 1 + int(rng.uniform() * 3.0);
    double center[3][3], width[3];
    for (int c = 0; c < nclusters; ++c) {
      for (int d = 0; d < 3; ++d) center[c][d] = L * rng.uniform();
      width[c] = 0.5 + 3.0 * rng.uniform();
    }
    for (tagint t = 1; t <= N; ++t) {
      double x[3];
      if (rng.uniform() < 0.8) {  // clustered: the non-uniform density
        const int c = int(rng.uniform() * double(nclusters));
        for (int d = 0; d < 3; ++d)
          x[d] = center[c][d] + width[c] * rng.gaussian();
      } else {  // uniform tail
        for (int d = 0; d < 3; ++d) x[d] = L * rng.uniform();
      }
      sim.domain.remap(x);
      if (sim.domain.inside_subbox(x)) {
        const localint i = sim.atom.add_atom(1, t, x[0], x[1], x[2]);
        for (int d = 0; d < 3; ++d)
          sim.atom.k_v.h_view(std::size_t(i), std::size_t(d)) = vel_of(t, d);
      }
    }
    sim.atom.modified<kk::Host>(V_MASK);
    sim.atom.natoms = N;

    for (int round = 0; round < rounds; ++round) {
      // Random RCB cuts per split dimension from a random weight profile —
      // identical on every rank (same stream).
      for (int d = 0; d < 3; ++d) {
        const int np = sim.domain.grid().np[d];
        std::vector<double> w(32);
        for (double& wi : w)
          wi = rng.uniform() < 0.3 ? 0.0 : 10.0 * rng.uniform();
        if (np == 1) continue;  // draw happened: streams stay aligned
        sim.domain.set_cuts(d, rcb_cuts(w, np, 0.0, L, 1.0));
      }
      sim.comm.migrate(sim.atom, sim.domain);

      sim.atom.sync<kk::Host>(X_MASK);
      for (localint i = 0; i < sim.atom.nlocal; ++i) {
        const double xi[3] = {sim.atom.k_x.h_view(std::size_t(i), 0),
                              sim.atom.k_x.h_view(std::size_t(i), 1),
                              sim.atom.k_x.h_view(std::size_t(i), 2)};
        if (!sim.domain.inside_subbox(xi)) all_inside = false;
      }
    }

    // Gather the final ownership map; any tag seen twice is a duplication.
    sim.atom.sync<kk::Host>(X_MASK | V_MASK | TAG_MASK);
    std::lock_guard<std::mutex> lk(mu);
    for (localint i = 0; i < sim.atom.nlocal; ++i) {
      const tagint t = sim.atom.k_tag.h_view(std::size_t(i));
      if (!owner_of.emplace(t, comm.rank()).second) duplicate = true;
      for (int d = 0; d < 3; ++d)
        if (sim.atom.k_v.h_view(std::size_t(i), std::size_t(d)) !=
            vel_of(t, d))
          payload_ok = false;
    }
  });

  EXPECT_FALSE(duplicate) << "an atom is owned by more than one rank";
  EXPECT_EQ(owner_of.size(), std::size_t(N)) << "atoms lost in migration";
  EXPECT_TRUE(payload_ok) << "per-atom payload corrupted in flight";
  EXPECT_TRUE(all_inside) << "migrate left an atom outside its sub-box";
}

TEST(Migrate, RandomDensitiesTimesRandomCutsExactPartition) {
  // 36 worlds x 3 cut rounds each = 108 randomized decomposition
  // configurations across 2/3/4-rank grids.
  for (int seed = 1; seed <= 12; ++seed) {
    migration_property_case(2, 1000 + seed, 3);
    migration_property_case(3, 2000 + seed, 3);
    migration_property_case(4, 3000 + seed, 3);
  }
}

TEST(Migrate, MultiHopConvergesAcrossFourRankGrid) {
  // Shrink rank 0's slab so atoms must cross several ranks to get home —
  // exercises the iterated-exchange convergence loop, not just one hop.
  init_all();
  const double L = 64.0;
  std::mutex mu;
  std::map<tagint, int> owner_of;
  simmpi::World world(4);
  world.run([&](simmpi::Comm& comm) {
    Simulation sim;
    sim.mpi = &comm;
    sim.comm.mpi = &comm;
    sim.domain.set_box(0, L, 0, 4.0, 0, 4.0);  // long box: 4x1x1 grid
    sim.domain.decompose(comm.rank(), comm.size());
    ASSERT_EQ(sim.domain.grid().np[0], 4);
    sim.atom.set_ntypes(1);
    // All atoms start on rank 0 (x < 4), most belong at the far end.
    for (tagint t = 1; t <= 64; ++t) {
      const double x[3] = {double(t % 16) * 0.24, 1.0, 1.0};
      if (sim.domain.inside_subbox(x)) sim.atom.add_atom(1, t, x[0], x[1], x[2]);
    }
    sim.atom.natoms = 64;
    // New cuts squeeze rank 0 into [0, 1.2): its atoms above 1.2 must hop
    // up to 3 ranks to the right.
    sim.domain.set_cuts(0, {0.0, 1.2, 2.4, 3.6, L});
    sim.comm.migrate(sim.atom, sim.domain);
    sim.atom.sync<kk::Host>(X_MASK | TAG_MASK);
    std::lock_guard<std::mutex> lk(mu);
    for (localint i = 0; i < sim.atom.nlocal; ++i) {
      const double xi[3] = {sim.atom.k_x.h_view(std::size_t(i), 0),
                            sim.atom.k_x.h_view(std::size_t(i), 1),
                            sim.atom.k_x.h_view(std::size_t(i), 2)};
      EXPECT_TRUE(sim.domain.inside_subbox(xi));
      owner_of.emplace(sim.atom.k_tag.h_view(std::size_t(i)), comm.rank());
    }
  });
  EXPECT_EQ(owner_of.size(), 64u);
}

// ------------------------------------------------------------- atom sorting

/// Serial random system for permutation tests; returns tag -> (x, v).
std::map<tagint, std::array<double, 6>> fill_random(Simulation& sim,
                                                    int seed, int n) {
  const double L = 12.0;
  sim.domain.set_box(0, L, 0, L, 0, L);
  sim.atom.set_ntypes(1);
  RanPark rng(seed);
  std::map<tagint, std::array<double, 6>> ref;
  for (tagint t = 1; t <= n; ++t) {
    double x[3];
    for (double& c : x) c = L * rng.uniform();
    const localint i = sim.atom.add_atom(1, t, x[0], x[1], x[2]);
    std::array<double, 6> rec;
    for (int d = 0; d < 3; ++d) {
      sim.atom.k_v.h_view(std::size_t(i), std::size_t(d)) = vel_of(t, d);
      rec[std::size_t(d)] = x[d];
      rec[std::size_t(3 + d)] = vel_of(t, d);
    }
    ref[t] = rec;
  }
  sim.atom.modified<kk::Host>(V_MASK);
  sim.atom.natoms = n;
  return ref;
}

TEST(AtomSort, PermutationBijectionAndBinnedEqualsScalarHundredSeeds) {
  init_all();
  for (int seed = 1; seed <= 100; ++seed) {
    Simulation sim;
    RanPark rng(7777 + seed);
    const int n = 20 + int(rng.uniform() * 180.0);
    const double bin_width = 0.6 + 3.0 * rng.uniform();
    fill_random(sim, seed, n);

    const auto scalar =
        AtomSorter::permutation_scalar(sim.atom, sim.domain, bin_width);
    const auto binned =
        AtomSorter::permutation_binned(sim.atom, sim.domain, bin_width);
    ASSERT_EQ(scalar.size(), std::size_t(n));
    // The counting-sort builder must reproduce the stable-sort reference
    // permutation exactly — the sort path can never change the trajectory.
    EXPECT_EQ(scalar, binned) << "seed " << seed;
    // Bijection over [0, n).
    auto sorted = scalar;
    std::sort(sorted.begin(), sorted.end());
    for (localint i = 0; i < localint(n); ++i)
      ASSERT_EQ(sorted[std::size_t(i)], i) << "seed " << seed;
  }
}

TEST(AtomSort, ReorderPreservesPerTagStateAndIsIdempotent) {
  init_all();
  for (int seed = 1; seed <= 10; ++seed) {
    Simulation sim;
    const auto ref = fill_random(sim, 31 * seed, 150);
    const double bin_width = 1.7;

    const auto perm =
        AtomSorter::permutation_scalar(sim.atom, sim.domain, bin_width);
    sim.atom.reorder_owned(perm);

    // Per-tag association intact, bitwise.
    sim.atom.sync<kk::Host>(X_MASK | V_MASK | TAG_MASK);
    for (localint i = 0; i < sim.atom.nlocal; ++i) {
      const tagint t = sim.atom.k_tag.h_view(std::size_t(i));
      const auto it = ref.find(t);
      ASSERT_NE(it, ref.end());
      for (std::size_t d = 0; d < 3; ++d) {
        EXPECT_EQ(sim.atom.k_x.h_view(std::size_t(i), d), it->second[d]);
        EXPECT_EQ(sim.atom.k_v.h_view(std::size_t(i), d), it->second[3 + d]);
      }
    }

    // Already bin-major + stable: a second permutation is the identity.
    const auto again =
        AtomSorter::permutation_scalar(sim.atom, sim.domain, bin_width);
    for (localint i = 0; i < localint(again.size()); ++i)
      ASSERT_EQ(again[std::size_t(i)], i) << "sort is not idempotent";
  }
}

TEST(AtomSort, MaybeSortHonorsCadence) {
  init_all();
  Simulation sim;
  fill_random(sim, 5, 40);
  sim.sorter.every = 3;
  EXPECT_FALSE(sim.sorter.maybe_sort(sim.atom, sim.domain, 1.5));
  EXPECT_FALSE(sim.sorter.maybe_sort(sim.atom, sim.domain, 1.5));
  EXPECT_TRUE(sim.sorter.maybe_sort(sim.atom, sim.domain, 1.5));
  EXPECT_EQ(sim.sorter.nsorts, 1);
  EXPECT_EQ(sim.sorter.builds_since_sort, 0);
  Simulation off;
  fill_random(off, 6, 40);
  EXPECT_FALSE(off.sorter.maybe_sort(off.atom, off.domain, 1.5));  // every=0
}

// ----------------------------------------------------------------- balancer

TEST(Balancer, ImbalanceSerialIsOne) {
  init_all();
  Simulation sim;
  fill_random(sim, 9, 30);
  EXPECT_EQ(Balancer::imbalance(sim.atom, nullptr), 1.0);
}

TEST(Balancer, RecomputeCutsEquilibratesADroplet) {
  // Two ranks, all atoms in the lower-z half: static cuts leave rank 1
  // nearly empty; one recompute + migrate must equilibrate the counts.
  init_all();
  const double L = 20.0;
  std::mutex mu;
  std::vector<localint> counts(2, 0);
  double imb_before = 0.0, imb_after = 0.0;
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    Simulation sim;
    sim.mpi = &comm;
    sim.comm.mpi = &comm;
    sim.domain.set_box(0, L, 0, L, 0, L);
    sim.domain.decompose(comm.rank(), comm.size());
    sim.atom.set_ntypes(1);
    RanPark rng(4242);
    for (tagint t = 1; t <= 400; ++t) {
      double x[3] = {L * rng.uniform(), L * rng.uniform(),
                     0.45 * L * rng.uniform()};  // droplet: z in [0, 0.45 L)
      if (sim.domain.inside_subbox(x)) sim.atom.add_atom(1, t, x[0], x[1], x[2]);
    }
    sim.atom.natoms = 400;

    const double before = Balancer::imbalance(sim.atom, &comm);
    Balancer bal;
    ASSERT_TRUE(bal.recompute_cuts(sim.atom, sim.domain, &comm,
                                   /*min_width=*/2.0));
    sim.comm.migrate(sim.atom, sim.domain);
    const double after = Balancer::imbalance(sim.atom, &comm);

    std::lock_guard<std::mutex> lk(mu);
    counts[std::size_t(comm.rank())] = sim.atom.nlocal;
    if (comm.rank() == 0) {
      imb_before = before;
      imb_after = after;
    }
  });
  EXPECT_GT(imb_before, 1.7) << "droplet was not imbalanced to begin with";
  EXPECT_LT(imb_after, 1.15) << "rebalance failed to equilibrate";
  EXPECT_EQ(counts[0] + counts[1], 400);
}

}  // namespace
}  // namespace mlk
