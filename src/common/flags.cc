#include "src/common/flags.h"

#include <charconv>
#include <cstdio>
#include <string_view>

namespace palette {

FlagParser::FlagParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.size() < 3 || arg.substr(0, 2) != "--") {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      flags_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
      continue;
    }
    // `--name value` form — unless the next token is itself a flag or
    // missing, in which case the flag is boolean-like ("true").
    if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      flags_[std::string(arg)] = argv[++i];
    } else {
      flags_[std::string(arg)] = "true";
    }
  }
}

bool FlagParser::Has(const std::string& name) const {
  queried_[name] = true;
  return flags_.count(name) > 0;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  return it == flags_.end() ? default_value : it->second;
}

std::int64_t FlagParser::GetInt(const std::string& name,
                                std::int64_t default_value) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  if (it == flags_.end()) {
    return default_value;
  }
  std::int64_t value = 0;
  const auto& s = it->second;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    return default_value;
  }
  return value;
}

double FlagParser::GetDouble(const std::string& name,
                             double default_value) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  if (it == flags_.end()) {
    return default_value;
  }
  try {
    std::size_t consumed = 0;
    const double value = std::stod(it->second, &consumed);
    return consumed == it->second.size() ? value : default_value;
  } catch (...) {
    return default_value;
  }
}

bool FlagParser::GetBool(const std::string& name, bool default_value) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  if (it == flags_.end()) {
    return default_value;
  }
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::string> FlagParser::UnqueriedFlags() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : flags_) {
    if (queried_.count(name) == 0) {
      out.push_back(name);
    }
  }
  return out;
}

bool FlagParser::ReportUnqueried() const {
  const std::vector<std::string> unknown = UnqueriedFlags();
  for (const std::string& name : unknown) {
    std::fprintf(stderr, "error: unrecognized flag --%s\n", name.c_str());
  }
  return !unknown.empty();
}

}  // namespace palette
