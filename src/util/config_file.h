#ifndef KGFD_UTIL_CONFIG_FILE_H_
#define KGFD_UTIL_CONFIG_FILE_H_

#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace kgfd {

/// Flat `key = value` configuration file (a minimal stand-in for the YAML
/// job definitions the paper praises in LibKGE §4.1.1). Grammar:
///   * one `dotted.key = value` pair per line,
///   * `#` starts a comment (full-line or trailing),
///   * blank lines ignored, whitespace trimmed,
///   * duplicate keys are an error (config typos should not silently win).
class ConfigFile {
 public:
  static Result<ConfigFile> Load(const std::string& path);
  /// Parses from a string (used by tests and inline configs).
  static Result<ConfigFile> Parse(const std::string& text);

  bool Has(const std::string& key) const;
  std::string GetString(const std::string& key,
                        const std::string& default_value) const;
  Result<int64_t> GetInt(const std::string& key, int64_t default_value) const;
  Result<double> GetDouble(const std::string& key,
                           double default_value) const;
  Result<bool> GetBool(const std::string& key, bool default_value) const;

  const std::map<std::string, std::string>& entries() const {
    return entries_;
  }

  /// Keys consumed via any getter so far; RemainingKeys() flags typos.
  std::vector<std::string> UnconsumedKeys() const;

 private:
  std::map<std::string, std::string> entries_;
  mutable std::map<std::string, bool> consumed_;
};

/// Returns `raw` as a size_t when it is strictly positive, else
/// InvalidArgument naming `key`. Counts are read as int64, and a bare
/// static_cast would turn -1 into SIZE_MAX.
Result<size_t> ToPositiveSize(const std::string& key, int64_t raw);

/// Reads a strictly positive count from `config` (ToPositiveSize of GetInt).
Result<size_t> GetPositiveSize(const ConfigFile& config,
                               const std::string& key, size_t default_value);

}  // namespace kgfd

#endif  // KGFD_UTIL_CONFIG_FILE_H_
