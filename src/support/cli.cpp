#include "support/cli.hpp"

#include <cstdio>
#include <cstdlib>

#include "support/assert.hpp"
#include "support/str.hpp"

namespace ais {

CliArgs::CliArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    AIS_CHECK(starts_with(arg, "--"), "unexpected positional argument: " + arg);
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare flag
    }
  }
}

const std::string* CliArgs::find(const std::string& name) const {
  read_.insert(name);
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t fallback) const {
  const std::string* value = find(name);
  if (value == nullptr) return fallback;
  return std::strtoll(value->c_str(), nullptr, 10);
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const std::string* value = find(name);
  if (value == nullptr) return fallback;
  return std::strtod(value->c_str(), nullptr);
}

std::string CliArgs::get_string(const std::string& name,
                                const std::string& fallback) const {
  const std::string* value = find(name);
  return value == nullptr ? fallback : *value;
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const std::string* value = find(name);
  if (value == nullptr) return fallback;
  return *value == "true" || *value == "1" || *value == "yes";
}

bool CliArgs::has(const std::string& name) const {
  return find(name) != nullptr;
}

std::vector<std::string> CliArgs::unread() const {
  std::vector<std::string> names;
  for (const auto& [name, value] : values_) {
    if (read_.count(name) == 0) names.push_back(name);
  }
  return names;
}

bool CliArgs::report_unknown(const char* tool) const {
  const std::vector<std::string> names = unread();
  for (const std::string& name : names) {
    std::fprintf(stderr, "%s: unknown flag --%s\n", tool, name.c_str());
  }
  return !names.empty();
}

}  // namespace ais
