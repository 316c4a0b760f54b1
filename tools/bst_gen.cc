// bst_gen: generate test matrices in the bst text format.
//
//   bst_gen --family=kms|prolate|fgn|ma|ar1|indefinite|singular
//           [--n=N | --m=M --p=P] [--param=X] [--seed=S] [--out=T.txt]
//           [--rhs-ones=b.txt]
//
// Each family reads only its own flags (the table below); any other flag
// is an error rather than silently ignored.  --help prints the table.
#include <cstdio>
#include <iostream>
#include <string>

#include "bst.h"

using namespace bst;

namespace {

la::index_t n_of(const util::Cli& cli) { return cli.get_int("n", 64); }
la::index_t m_of(const util::Cli& cli) { return cli.get_int("m", 2); }
la::index_t p_of(const util::Cli& cli) { return cli.get_int("p", 32); }
std::uint64_t seed_of(const util::Cli& cli) {
  return static_cast<std::uint64_t>(cli.get_int("seed", 1));
}

struct Family {
  const char* name;
  const char* flags;  // the flags make() reads, space-separated, beside --out / --rhs-ones
  const char* what;
  toeplitz::BlockToeplitz (*make)(const util::Cli& cli);
};

const Family kFamilies[] = {
    {"kms", "n param", "scalar, T(i,j) = param^|i-j|            (param = rho, 0.7)",
     [](const util::Cli& c) { return toeplitz::kms(n_of(c), c.get_double("param", 0.7)); }},
    {"prolate", "n param", "scalar, bandlimited, ill-conditioned    (param = w, 0.35)",
     [](const util::Cli& c) { return toeplitz::prolate(n_of(c), c.get_double("param", 0.35)); }},
    {"fgn", "n param", "scalar, fractional Gaussian noise       (param = H, 0.75)",
     [](const util::Cli& c) { return toeplitz::fgn(n_of(c), c.get_double("param", 0.75)); }},
    {"ma", "m p param seed", "block SPD, MA(q)-covariance             (param = q, 2)",
     [](const util::Cli& c) {
       return toeplitz::random_spd_block(m_of(c), p_of(c), c.get_int("param", 2), seed_of(c));
     }},
    {"ar1", "m p param seed", "block SPD, AR(1) vector process         (param = phi, 0.6)",
     [](const util::Cli& c) {
       return toeplitz::ar1_block(m_of(c), p_of(c), seed_of(c), c.get_double("param", 0.6));
     }},
    {"indefinite", "n param seed", "scalar symmetric indefinite             (param = diag, 1.2)",
     [](const util::Cli& c) {
       return toeplitz::random_indefinite(n_of(c), seed_of(c), c.get_double("param", 1.2));
     }},
    {"singular", "n seed", "scalar with singular 2x2 leading minor",
     [](const util::Cli& c) { return toeplitz::singular_minor_family(n_of(c), seed_of(c)); }},
};

int help() {
  std::printf(
      "bst_gen: write a symmetric (block) Toeplitz test matrix\n"
      "\n"
      "  bst_gen --family=F [family flags] [--out=T.txt] [--rhs-ones=b.txt]\n"
      "\n"
      "  --out=T.txt       matrix output path (default: stdout)\n"
      "  --rhs-ones=b.txt  also write b = T * ones\n"
      "  --help            this list\n"
      "\n"
      "families (flags each one reads; defaults n = 64, m = 2, p = 32, seed = 1):\n");
  for (const Family& f : kFamilies) {
    std::printf("  %-11s %-16s %s\n", f.name, f.flags, f.what);
  }
  return 0;
}

// Throws unless every given flag is one this family reads.
void check_flags(const util::Cli& cli, const Family& f) {
  const std::string reads = std::string(" ") + f.flags + " family out rhs-ones ";
  for (const std::string& key : cli.keys()) {
    if (reads.find(" " + key + " ") == std::string::npos) {
      throw std::runtime_error("--" + key + " is not read by --family=" + f.name +
                               " (it reads: " + f.flags + ")");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  try {
    if (cli.has("help")) return help();
    const std::string family = cli.get("family", "");
    const Family* fam = nullptr;
    for (const Family& f : kFamilies) {
      if (family == f.name) fam = &f;
    }
    if (fam == nullptr) {
      throw std::runtime_error("unknown --family '" + family +
                               "' (kms|prolate|fgn|ma|ar1|indefinite|singular; --help lists them)");
    }
    check_flags(cli, *fam);
    const toeplitz::BlockToeplitz t = fam->make(cli);

    if (cli.has("out")) {
      toeplitz::write_block_toeplitz_file(cli.get("out", ""), t);
    } else {
      toeplitz::write_block_toeplitz(std::cout, t);
    }
    if (cli.has("rhs-ones")) {
      toeplitz::write_vector_file(cli.get("rhs-ones", ""), toeplitz::rhs_for_ones(t));
    }
    std::fprintf(stderr, "bst_gen: %s, n = %td (m = %td, p = %td)\n", family.c_str(),
                 t.order(), t.block_size(), t.num_blocks());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bst_gen: error: %s\n", e.what());
    return 1;
  }
}
