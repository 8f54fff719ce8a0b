// dump xyz — periodic trajectory output in the (extended) XYZ format, the
// simplest interoperable trajectory file (readable by OVITO/VMD/ASE).
// Rank 0 writes its own atoms in serial runs; decomposed runs gather
// owned-atom records to rank 0 through simmpi.
#pragma once

#include <fstream>
#include <string>

#include "engine/fix.hpp"
#include "util/types.hpp"

namespace mlk {

class DumpXYZ : public Fix {
 public:
  /// args: <every> <filename>
  void parse_args(const std::vector<std::string>& args) override;
  void init(Simulation& sim) override;
  void end_of_step(Simulation& sim) override;
  void pack_restart(io::BinaryWriter& w) const override;
  void unpack_restart(io::BinaryReader& r) override;

 private:
  void write_frame(Simulation& sim);

  bigint every_ = 100;
  std::string path_;
  std::ofstream out_;
  bigint frames_ = 0;
};

void register_dump_xyz();

}  // namespace mlk
