// Minimal command-line flag parsing for the tools and benches.
//
// Supports `--name=value` and `--name value` forms plus bare positional
// arguments. No registration step: callers query by name with a default,
// which fits small research tools better than a global flag registry.
#ifndef PALETTE_SRC_COMMON_FLAGS_H_
#define PALETTE_SRC_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace palette {

class FlagParser {
 public:
  // Parses argv; unknown flags are retained (queryable), malformed input
  // (a lone "--") is treated as positional.
  FlagParser(int argc, const char* const* argv);

  bool Has(const std::string& name) const;

  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  std::int64_t GetInt(const std::string& name,
                      std::int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }
  // Flags that were present but never queried — typo detection for tools.
  std::vector<std::string> UnqueriedFlags() const;
  // Prints an error to stderr for each unqueried flag and returns whether
  // there was any. Tools exit with status 2 when it returns true.
  bool ReportUnqueried() const;

 private:
  std::map<std::string, std::string> flags_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
};

}  // namespace palette

#endif  // PALETTE_SRC_COMMON_FLAGS_H_
