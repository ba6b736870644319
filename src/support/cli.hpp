// Tiny command-line flag parser for bench binaries and examples.
//
// Supports `--name value` and `--name=value`.  Every getter records the
// name it was asked for, so after a tool has read all its flags, unread()
// lists the ones it does not know; a tool that exits when report_unknown()
// finds one turns a typo or a removed flag into an error instead of a
// silent default.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace ais {

class CliArgs {
 public:
  CliArgs(int argc, char** argv);

  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;
  bool has(const std::string& name) const;

  /// Flags given on the command line that no getter (or has()) has asked
  /// for yet, in name order.
  std::vector<std::string> unread() const;

  /// Prints "<tool>: unknown flag --<name>" to stderr for every unread()
  /// flag and returns true if there was any.  Call it once the tool has
  /// read every flag it accepts.
  bool report_unknown(const char* tool) const;

 private:
  const std::string* find(const std::string& name) const;

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

}  // namespace ais
