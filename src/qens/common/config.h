#ifndef QENS_COMMON_CONFIG_H_
#define QENS_COMMON_CONFIG_H_

/// \file config.h
/// Minimal INI-style configuration: `key = value` lines, optional
/// `[section]` headers (flattened into "section.key"), '#' or ';' comments.
/// Used by the experiment CLI to configure environments without
/// recompiling. Typed getters return defaults when a key is absent and a
/// Status error when a present value fails to parse.

#include <map>
#include <string>
#include <vector>

#include "qens/common/status.h"

namespace qens {

/// Parsed configuration: flat "section.key" -> string value map.
class Config {
 public:
  Config() = default;

  /// Parse from text. Later duplicate keys override earlier ones. Fails on
  /// malformed lines (no '=' outside a section header).
  static Result<Config> Parse(const std::string& text);

  /// Read and parse a file.
  static Result<Config> Load(const std::string& path);

  bool Has(const std::string& key) const;
  size_t size() const { return values_.size(); }

  /// Raw string access; NotFound when absent.
  Result<std::string> GetString(const std::string& key) const;
  std::string GetString(const std::string& key,
                        const std::string& fallback) const;

  /// Typed access with defaults. A present-but-unparseable value is an
  /// error (surfaced as InvalidArgument), never silently defaulted.
  Result<int64_t> GetInt(const std::string& key, int64_t fallback) const;
  /// A size or count: an int that must not be negative.
  Result<size_t> GetCount(const std::string& key, size_t fallback) const;
  Result<double> GetDouble(const std::string& key, double fallback) const;
  /// Accepts true/false, yes/no, on/off, 1/0 (case-insensitive).
  Result<bool> GetBool(const std::string& key, bool fallback) const;

  /// Set/override a value programmatically.
  void Set(const std::string& key, std::string value);

  /// All keys, sorted (for diagnostics).
  std::vector<std::string> Keys() const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace qens

#endif  // QENS_COMMON_CONFIG_H_
