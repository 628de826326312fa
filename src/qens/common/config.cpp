#include "qens/common/config.h"

#include <fstream>
#include <sstream>

#include "qens/common/string_util.h"

namespace qens {

Result<Config> Config::Parse(const std::string& text) {
  Config config;
  std::istringstream in(text);
  std::string line;
  std::string section;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::string t = Trim(line);
    // Strip comments ('#' or ';' to end of line).
    for (char marker : {'#', ';'}) {
      const size_t pos = t.find(marker);
      if (pos != std::string::npos) t = Trim(t.substr(0, pos));
    }
    if (t.empty()) continue;
    if (t.front() == '[') {
      if (t.back() != ']' || t.size() < 3) {
        return Status::InvalidArgument(
            StrFormat("config line %zu: malformed section header", line_no));
      }
      section = Trim(t.substr(1, t.size() - 2));
      if (section.empty()) {
        return Status::InvalidArgument(
            StrFormat("config line %zu: empty section name", line_no));
      }
      continue;
    }
    const size_t eq = t.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument(
          StrFormat("config line %zu: expected 'key = value'", line_no));
    }
    std::string key = Trim(t.substr(0, eq));
    const std::string value = Trim(t.substr(eq + 1));
    if (key.empty()) {
      return Status::InvalidArgument(
          StrFormat("config line %zu: empty key", line_no));
    }
    if (!section.empty()) key = section + "." + key;
    config.values_[key] = value;
  }
  return config;
}

Result<Config> Config::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("config: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return Parse(buf.str());
}

bool Config::Has(const std::string& key) const {
  return values_.count(key) > 0;
}

Result<std::string> Config::GetString(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return Status::NotFound("config: no key '" + key + "'");
  }
  return it->second;
}

std::string Config::GetString(const std::string& key,
                              const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

Result<int64_t> Config::GetInt(const std::string& key,
                               int64_t fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  Result<int64_t> parsed = ParseInt(it->second);
  if (!parsed.ok()) {
    return Status::InvalidArgument("config: key '" + key +
                                   "' is not an int: '" + it->second + "'");
  }
  return parsed;
}

Result<size_t> Config::GetCount(const std::string& key,
                                size_t fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  Result<int64_t> parsed = ParseInt(it->second);
  if (!parsed.ok() || *parsed < 0) {
    return Status::InvalidArgument("config: key '" + key +
                                   "' is not a count: '" + it->second + "'");
  }
  return static_cast<size_t>(*parsed);
}

Result<double> Config::GetDouble(const std::string& key,
                                 double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  Result<double> parsed = ParseDouble(it->second);
  if (!parsed.ok()) {
    return Status::InvalidArgument("config: key '" + key +
                                   "' is not a double: '" + it->second + "'");
  }
  return parsed;
}

Result<bool> Config::GetBool(const std::string& key, bool fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string v = ToLower(it->second);
  if (v == "true" || v == "yes" || v == "on" || v == "1") return true;
  if (v == "false" || v == "no" || v == "off" || v == "0") return false;
  return Status::InvalidArgument("config: key '" + key +
                                 "' is not a bool: '" + it->second + "'");
}

void Config::Set(const std::string& key, std::string value) {
  values_[key] = std::move(value);
}

std::vector<std::string> Config::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(values_.size());
  for (const auto& [key, value] : values_) keys.push_back(key);
  return keys;
}

}  // namespace qens
