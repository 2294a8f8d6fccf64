// Reading and rewriting the golden files of the differential tests
// (search_golden_test, sim_golden_test). A golden file is a leading
// header of `#` comment lines followed by one `<key>: <fields>` record
// per line.
#ifndef WYDB_TESTS_GOLDEN_FILE_H_
#define WYDB_TESTS_GOLDEN_FILE_H_

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>

namespace wydb {
namespace testutil {

/// The records of the golden file at `path`, by key. A duplicate key is
/// a test failure: the later line would silently shadow the earlier.
inline std::map<std::string, std::string> ReadGolden(const std::string& path) {
  std::map<std::string, std::string> golden;
  std::ifstream in(path);
  if (!in.good()) ADD_FAILURE() << "cannot open " << path;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t colon = line.find(": ");
    if (colon == std::string::npos) {
      ADD_FAILURE() << "golden line without ': ': " << line;
      continue;
    }
    if (!golden.emplace(line.substr(0, colon), line.substr(colon + 2))
             .second) {
      ADD_FAILURE() << "duplicate golden key '" << line.substr(0, colon)
                    << "'";
    }
  }
  return golden;
}

/// Starts a recording at `write_path`: truncates it and writes the
/// leading `#` header of the committed golden file at `golden_path`
/// (read first, since the two may be the same file). The caller then
/// writes one line per record.
inline std::ofstream StartGoldenRecording(const std::string& write_path,
                                          const std::string& golden_path) {
  std::string header;
  std::ifstream committed(golden_path);
  std::string line;
  while (std::getline(committed, line) && !line.empty() && line[0] == '#') {
    header += line + "\n";
  }
  committed.close();
  std::ofstream out(write_path, std::ios::trunc);
  out << header;
  return out;
}

}  // namespace testutil
}  // namespace wydb

#endif  // WYDB_TESTS_GOLDEN_FILE_H_
