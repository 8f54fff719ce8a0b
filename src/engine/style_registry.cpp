#include "engine/style_registry.hpp"

#include "util/error.hpp"
#include "util/string_utils.hpp"

namespace mlk {

StyleRegistry& StyleRegistry::instance() {
  static StyleRegistry reg;
  return reg;
}

void StyleRegistry::add_pair(const std::string& name, PairCreator c) {
  pairs_[name] = {std::move(c), false};
}

void StyleRegistry::add_pair_kokkos(const std::string& base, PairCreator c) {
  pairs_[base + "/kk"] = {std::move(c), true};
}

void StyleRegistry::add_fix(const std::string& name, FixCreator c) {
  fixes_[name] = {std::move(c), false};
}

void StyleRegistry::add_fix_kokkos(const std::string& base, FixCreator c) {
  fixes_[base + "/kk"] = {std::move(c), true};
}

void StyleRegistry::add_compute(const std::string& name, ComputeCreator c) {
  computes_[name] = std::move(c);
}

namespace {

/// Resolve a possibly suffixed name to (registered key, exec space).
/// "lj/cut"           -> ("lj/cut", Host) or ("lj/cut/kk", space) w/ global sfx
/// "lj/cut/kk"        -> ("lj/cut/kk", Device)
/// "lj/cut/kk/host"   -> ("lj/cut/kk", Host)
/// "lj/cut/kk/device" -> ("lj/cut/kk", Device)
template <class Map>
std::pair<std::string, ExecSpaceKind> resolve(const Map& map,
                                              const std::string& name,
                                              const std::string& global_suffix,
                                              const char* what) {
  std::string sfx;
  const std::string base = strip_style_suffix(name, &sfx);
  if (!sfx.empty()) {
    const std::string key = base + "/kk";
    require(map.count(key) != 0,
            std::string(what) + " style '" + key + "' not registered");
    return {key, sfx == "/kk/host" ? ExecSpaceKind::Host
                                   : ExecSpaceKind::Device};
  }
  // Unsuffixed: honor the global suffix when a Kokkos variant exists.
  if (!global_suffix.empty()) {
    const std::string key = base + "/kk";
    if (map.count(key)) {
      return {key, global_suffix == "kk/host" || global_suffix == "host"
                       ? ExecSpaceKind::Host
                       : ExecSpaceKind::Device};
    }
  }
  require(map.count(base) != 0,
          std::string(what) + " style '" + base + "' not registered");
  return {base, ExecSpaceKind::Host};
}

/// The unambiguous re-creatable name for a resolved style: host-resident
/// Kokkos variants keep an explicit "/host" so a checkpoint can restore the
/// exact variant (host and device differ in neighbor-list style and newton
/// setting, which the bitwise-resume guarantee depends on).
std::string resolved_name(const std::string& key, ExecSpaceKind space) {
  if (space == ExecSpaceKind::Host && key.ends_with("/kk"))
    return key + "/host";
  return key;
}

}  // namespace

std::unique_ptr<Pair> StyleRegistry::create_pair(
    const std::string& name, const std::string& global_suffix) {
  auto [key, space] = resolve(pairs_, name, global_suffix, "pair");
  auto p = pairs_.at(key).create(space);
  p->style_name = resolved_name(key, space);
  return p;
}

std::unique_ptr<Fix> StyleRegistry::create_fix(
    const std::string& name, const std::string& global_suffix) {
  auto [key, space] = resolve(fixes_, name, global_suffix, "fix");
  auto f = fixes_.at(key).create(space);
  f->style_name = resolved_name(key, space);
  return f;
}

std::unique_ptr<Compute> StyleRegistry::create_compute(
    const std::string& name) {
  require(computes_.count(name) != 0,
          "compute style '" + name + "' not registered");
  auto c = computes_.at(name)();
  c->style_name = name;
  return c;
}

}  // namespace mlk
