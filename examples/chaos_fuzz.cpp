// Chaos fuzzer CLI: drive a batch of seeded random campaigns through the
// deployed R-Pingmesh, judge each against the invariant oracles, shrink any
// failure to a minimal plan, and write a deterministic FuzzReport JSON.
// Same flags => byte-identical report (CI runs the batch twice and diffs).
//
//   $ ./examples/chaos_fuzz [--seeds N] [--base-seed S] [--out PATH]
//                           [--corpus-dir DIR] [--pods P] [--duration SECS]
//
// Exit status: 0 when every seed passed every oracle, 1 otherwise, 2 on a
// bad flag or an artifact (report or corpus file) not fully written.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "chaos/fuzz.h"

int main(int argc, char** argv) {
  using namespace rpm;

  chaos::FuzzConfig cfg;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const auto arg_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "chaos_fuzz: %s needs a value\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--seeds") == 0) {
      cfg.num_seeds = std::atoi(arg_value());
    } else if (std::strcmp(argv[i], "--base-seed") == 0) {
      cfg.base_seed = std::strtoull(arg_value(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out_path = arg_value();
    } else if (std::strcmp(argv[i], "--corpus-dir") == 0) {
      cfg.corpus_dir = arg_value();
    } else if (std::strcmp(argv[i], "--pods") == 0) {
      cfg.deployment.pods = static_cast<std::size_t>(std::atoi(arg_value()));
      cfg.alternate_pods = 0;  // explicit pod count: no alternation
    } else if (std::strcmp(argv[i], "--duration") == 0) {
      cfg.gen.duration = sec(std::atoi(arg_value()));
    } else {
      std::fprintf(stderr, "chaos_fuzz: unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  chaos::FuzzReport rep;
  try {
    rep = chaos::run_fuzz(cfg);
  } catch (const std::runtime_error& e) {  // a corpus artifact not written
    std::fprintf(stderr, "chaos_fuzz: %s\n", e.what());
    return 2;
  }

  std::printf("chaos_fuzz: %d seed(s) from %llu, %d failure(s)\n",
              rep.num_seeds, static_cast<unsigned long long>(rep.base_seed),
              rep.failures);
  for (const auto& s : rep.seeds) {
    if (s.violations.empty()) continue;
    std::printf("  seed %llu FAILED:\n",
                static_cast<unsigned long long>(s.seed));
    for (const auto& v : s.violations) {
      std::printf("    %s: %s\n", v.oracle.c_str(), v.detail.c_str());
    }
  }

  if (out_path.empty()) {
    std::fputs(rep.to_json().c_str(), stdout);
  } else if (rep.write_file(out_path)) {
    std::printf("FuzzReport written to %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "chaos_fuzz: cannot write %s\n", out_path.c_str());
    return 2;
  }

  return rep.ok() ? 0 : 1;
}
