#include "util/config.hpp"

#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "util/string_util.hpp"

namespace wdc {

void Config::set(std::string key, std::string value) {
  values_[std::move(key)] = std::move(value);
}

void Config::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("Config: cannot open " + path);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::string_view v(line);
    if (const auto hash = v.find('#'); hash != std::string_view::npos)
      v = v.substr(0, hash);
    v = trim(v);
    if (v.empty()) continue;
    const auto eq = v.find('=');
    if (eq == std::string_view::npos)
      throw std::runtime_error("Config: malformed line " + std::to_string(lineno) +
                               " in " + path);
    set(std::string(trim(v.substr(0, eq))), std::string(trim(v.substr(eq + 1))));
  }
}

std::vector<std::string> Config::load_args(int argc, const char* const* argv) {
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string_view tok(argv[i]);
    const auto eq = tok.find('=');
    if (eq == std::string_view::npos) {
      positional.emplace_back(tok);
    } else {
      set(std::string(trim(tok.substr(0, eq))), std::string(trim(tok.substr(eq + 1))));
    }
  }
  return positional;
}

bool Config::has(std::string_view key) const {
  return values_.find(key) != values_.end();
}

std::optional<std::string> Config::raw(std::string_view key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  used_.insert(it->first);
  return it->second;
}

std::string Config::get_string(std::string_view key, std::string def) const {
  if (auto v = raw(key)) return *v;
  return def;
}

double Config::get_double(std::string_view key, double def) const {
  const auto v = raw(key);
  if (!v) return def;
  char* end = nullptr;
  const double d = std::strtod(v->c_str(), &end);
  if (end == v->c_str() || !trim(std::string_view(end)).empty())
    throw std::runtime_error("Config: key '" + std::string(key) +
                             "' is not a double: " + *v);
  return d;
}

std::int64_t Config::get_int(std::string_view key, std::int64_t def) const {
  const auto v = raw(key);
  if (!v) return def;
  char* end = nullptr;
  const long long i = std::strtoll(v->c_str(), &end, 10);
  if (end == v->c_str() || !trim(std::string_view(end)).empty())
    throw std::runtime_error("Config: key '" + std::string(key) +
                             "' is not an integer: " + *v);
  return i;
}

bool Config::get_bool(std::string_view key, bool def) const {
  const auto v = raw(key);
  if (!v) return def;
  if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") return true;
  if (*v == "false" || *v == "0" || *v == "no" || *v == "off") return false;
  throw std::runtime_error("Config: key '" + std::string(key) +
                           "' is not a bool: " + *v);
}

std::vector<std::string> Config::unused_keys() const {
  std::vector<std::string> out;
  for (const auto& [k, _] : values_)
    if (used_.find(k) == used_.end()) out.push_back(k);
  return out;
}

void Config::require_all_used() const {
  const auto unused = unused_keys();
  if (unused.empty()) return;
  std::string msg = "Config: unknown key(s)";
  for (std::size_t i = 0; i < unused.size(); ++i)
    msg += (i == 0 ? " '" : ", '") + unused[i] + "'";
  throw std::runtime_error(msg);
}

std::vector<std::pair<std::string, std::string>> Config::items() const {
  return {values_.begin(), values_.end()};
}

}  // namespace wdc
