//===- perfbench/src/Inputs.cpp - Benchmark input sets ---------------------===//
//
// The file lists are fixed here rather than globbed, so a file added to
// testdata/ later does not silently change what the benchmark measures.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "gen/Generator.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

using namespace bench;

std::string bench::readRepoFile(const std::string &Root,
                                const std::string &Rel) {
  std::ifstream In(Root + "/" + Rel, std::ios::binary);
  if (!In)
    throw std::runtime_error("cannot read " + Rel);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

namespace {

std::vector<Input> readAll(const std::string &Root, const std::string &Dir,
                           const std::vector<std::string> &Stems,
                           const std::string &Family) {
  std::vector<Input> Out;
  for (const std::string &Stem : Stems) {
    std::string Rel = Dir + "/" + Stem + ".alp";
    Out.push_back({Rel, Family, readRepoFile(Root, Rel)});
  }
  return Out;
}

} // namespace

std::vector<Input> bench::paperPrograms(const std::string &Root,
                                        const std::vector<std::string> &Names) {
  static const std::vector<std::string> All = {
      "adi", "conduct", "exchange", "fig1", "fig5", "matmul", "stencil"};
  return readAll(Root, "testdata", Names.empty() ? All : Names, "paper");
}

std::vector<Input> bench::promotedTemplates(const std::string &Root) {
  return readAll(Root, "testdata/gen",
                 {"bidirectional_exchange", "big_coeff", "degenerate",
                  "fm_blowup", "readonly_replication"},
                 "template");
}

std::vector<Input> bench::examplePrograms(const std::string &Root) {
  return readAll(Root, "examples", {"jacobi", "trisolve"}, "example");
}

std::string bench::goldenStdout(const std::string &Root, const Input &In) {
  if (In.Family != "example")
    return "";
  // "examples/<stem>.alp" -> "testdata/codegen/<stem>.spmd.golden"
  std::string Stem = In.Name.substr(9, In.Name.size() - 13);
  return readRepoFile(Root, "testdata/codegen/" + Stem + ".spmd.golden") +
         "\nverify: all decomposition invariants hold\n";
}

std::vector<Input> bench::generatedPrograms(uint64_t Seed, uint64_t First,
                                            uint64_t Count) {
  std::vector<Input> Out;
  Out.reserve(Count);
  for (uint64_t I = First; I != First + Count; ++I) {
    alp::gen::GeneratedProgram G = alp::gen::generateProgram(Seed, I);
    Out.push_back({G.FileName, G.Family, std::move(G.Source)});
  }
  return Out;
}

std::vector<Input> bench::generatedPrograms(uint64_t Seed,
                                            const std::vector<uint64_t> &Indices) {
  std::vector<Input> Out;
  for (uint64_t I : Indices)
    for (Input &In : generatedPrograms(Seed, I, 1))
      Out.push_back(std::move(In));
  return Out;
}

std::string bench::composition(const std::vector<Input> &Inputs) {
  std::vector<std::pair<std::string, unsigned>> Counts;
  for (const Input &In : Inputs) {
    auto It = std::find_if(Counts.begin(), Counts.end(),
                           [&](const auto &P) { return P.first == In.Family; });
    if (It == Counts.end())
      Counts.push_back({In.Family, 1});
    else
      ++It->second;
  }
  std::string S;
  for (const auto &[Family, N] : Counts)
    S += (S.empty() ? "" : ", ") + Family + "=" + std::to_string(N);
  return S;
}
