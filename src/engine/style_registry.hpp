// Style registry: the map from input-script command names to C++ classes
// described in §2.1 / Fig. 1, including the accelerator-suffix convention of
// §3.1/§3.3 — a Kokkos style registers under "<base>/kk" and is also
// reachable as "<base>/kk/host" and "<base>/kk/device", and a global suffix
// can upgrade plain style names automatically.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/compute.hpp"
#include "engine/fix.hpp"
#include "engine/pair.hpp"

namespace mlk {

class Simulation;

class StyleRegistry {
 public:
  using PairCreator = std::function<std::unique_ptr<Pair>(ExecSpaceKind)>;
  using FixCreator = std::function<std::unique_ptr<Fix>(ExecSpaceKind)>;
  using ComputeCreator = std::function<std::unique_ptr<Compute>()>;

  static StyleRegistry& instance();

  /// Register a plain (non-suffixed) style.
  void add_pair(const std::string& name, PairCreator c);
  /// Register a Kokkos style; reachable as name/kk, name/kk/host,
  /// name/kk/device. The creator receives the requested execution space.
  void add_pair_kokkos(const std::string& base, PairCreator c);

  void add_fix(const std::string& name, FixCreator c);
  void add_fix_kokkos(const std::string& base, FixCreator c);
  void add_compute(const std::string& name, ComputeCreator c);

  /// Create a pair style by (possibly suffixed) name. If `global_suffix` is
  /// non-empty and `name` is unsuffixed, the suffixed variant is preferred
  /// when registered (LAMMPS's `suffix on` / `-sf kk` behavior).
  std::unique_ptr<Pair> create_pair(const std::string& name,
                                    const std::string& global_suffix = "");
  std::unique_ptr<Fix> create_fix(const std::string& name,
                                  const std::string& global_suffix = "");
  std::unique_ptr<Compute> create_compute(const std::string& name);

 private:
  struct PairEntry {
    PairCreator create;
    bool is_kokkos = false;
  };
  struct FixEntry {
    FixCreator create;
    bool is_kokkos = false;
  };
  std::map<std::string, PairEntry> pairs_;
  std::map<std::string, FixEntry> fixes_;
  std::map<std::string, ComputeCreator> computes_;
};

}  // namespace mlk
