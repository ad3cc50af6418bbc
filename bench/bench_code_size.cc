// E11 — Code-size inventory (Section 6's simplicity argument, quantified).
//
// Paper (Section 6): checkpoint+log package 638 source lines; name-server database
// semantics 1404 lines; pickle package 1648 lines (pre-existing); generated RPC stubs
// 663 (server) + 622 (client) lines.
//
// This binary counts the reproduction's source lines per module at run time (the
// source tree path is baked in at configure time) and prints them against the paper's.
#include <filesystem>
#include <fstream>

#include "bench/bench_common.h"

#ifndef SDB_SOURCE_DIR
#define SDB_SOURCE_DIR "."
#endif

namespace sdb::bench {
namespace {

std::uint64_t CountLines(const std::filesystem::path& root) {
  std::uint64_t lines = 0;
  std::error_code ec;
  if (!std::filesystem::exists(root, ec)) {
    return 0;
  }
  for (const auto& entry : std::filesystem::recursive_directory_iterator(root, ec)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    std::string ext = entry.path().extension().string();
    if (ext != ".cc" && ext != ".h") {
      continue;
    }
    std::ifstream in(entry.path());
    std::string line;
    while (std::getline(in, line)) {
      ++lines;
    }
  }
  return lines;
}

void Run() {
  Banner("E11: code-size inventory (Section 6)",
         "checkpoint+log 638 lines; name-server semantics 1404; pickles 1648; RPC "
         "stubs 663+622 — the design's simplicity, in numbers");

  std::filesystem::path src = std::filesystem::path(SDB_SOURCE_DIR) / "src";

  Table table({"module", "paper (Modula-2+ lines)", "this reproduction (C++ lines)",
               "notes"});
  table.AddRow({"checkpoint + log engine", "638", Count(CountLines(src / "core")),
                "includes recovery, policies, group commit, sharding"});
  table.AddRow({"name-server database semantics", "1404",
                Count(CountLines(src / "nameserver")),
                "includes replication (2 extra programmer-months in the paper)"});
  table.AddRow({"pickle package", "1648",
                Count(CountLines(src / "pickle") + CountLines(src / "typedheap")),
                "static traits + runtime-typed heap pickler"});
  table.AddRow({"RPC stubs + runtime", "663 + 622", Count(CountLines(src / "rpc")),
                "templates instead of a stub generator"});
  table.AddRow({"storage substrate (no 1987 analogue)", "-",
                Count(CountLines(src / "storage")),
                "simulated disk + file system the paper got from Unix"});
  table.AddRow({"common + baselines", "-",
                Count(CountLines(src / "common") + CountLines(src / "baselines")),
                "error model, coding, Section 2 comparison systems"});
  table.AddRow({"file-directory service", "-", Count(CountLines(src / "dirsvc")),
                "a second application on the engine (Section 1's list)"});
  table.Print();
}

}  // namespace
}  // namespace sdb::bench

int main() {
  sdb::bench::Run();
  return 0;
}
